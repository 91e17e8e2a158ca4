#!/usr/bin/env python3
"""Run a fixed list of CLI calls on this checkout and on another; print every case that differs.

    python3 scripts/compare_cli.py OTHER_CHECKOUT

Each case is one `chromoduli` command line, run in a fresh interpreter with
the `src` of one checkout first on its path, once plain and once under
`python -O`.  Every call runs in one temporary directory that holds the
input files (the shipped fixtures, a few more graphs, a weights file and a
constraints file), so both checkouts read the same relative paths.  The
cases cover `verify` (JSON and `--pretty`, with routes over budget on a
simple graph and a digraph), `chambers` (the LP route on K4 at m=4 maps
witnesses along paths of up to three generators, and on a 6-vertex graph
with no automorphism at m=3 only the reflection maps them, across the
first split; the bijective route on K4 at m=4 and the paw at m=5 orders
colour classes of several vertices),
`critical-points` (on K4 at m=3, 23 of the 24 chambers start Newton at the
image of their orbit's critical point), `omega`, `chromatic`, `parse`, `chi`
and `kapranov`, plus usage errors and a Newton run that does not converge.

A case differs when its stdout, its stderr or its exit code differs between
the two checkouts; each such case is printed as one line naming the case,
the mode and what differs.  Exit codes: 0 when no case differs, 1 when one
does, 2 when OTHER_CHECKOUT holds no `src/chromoduli` (one `error:` line).
"""

import json
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKERS = 4

# The input files besides the shipped fixtures paw.txt and instar.txt.
FILES = {
    "K4.txt": "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
    "C4.txt": "4 4\n0 1\n1 2\n2 3\n0 3\n",
    "E3.txt": "3 0\n",
    "A6.txt": "6 6\n0 1\n1 2\n2 3\n3 4\n1 5\n2 5\n",  # no automorphism but the identity
    "dcycle3.txt": "digraph\n3 3\n0 1\n1 2\n2 0\n",
    "bad.txt": "3 1\n0 7\n",
    "weights.json": json.dumps([1.0, 2.0, 0.5, 1.5, 1.0, 1.0, 1.0, 0.75, 1.25, 2.0, 1.0, 0.5]),
    "short_weights.json": json.dumps([1.0, 2.0]),
    "huge_weights.json": json.dumps([1.0] * 11 + [1e300]),
    "constraints.json": json.dumps(
        {
            "markings": [1, 2, 3, 4, "a", "b", "c"],
            "constraints": [
                {"subset": [1, 2, 3, 4, "a", "b", "c"], "marking": 1},
                {"subset": [1, 2, 3, "a", "b", "c"], "marking": 2},
                {"subset": [1, 2, 3, "a", "b", "c"], "marking": 3},
                {"subset": [1, 4, "a", "b", "c"], "marking": 4},
            ],
        }
    ),
    "bad_marking.json": json.dumps([[[1, 2], 3]]),
    "no_key.json": json.dumps({"markings": [1, 2]}),
}

# (name, argv) in run order.
CASES = [
    ("verify", ["verify"]),
    ("verify-pretty", ["verify", "--pretty", "--m", "3"]),
    ("verify-K4-C4", ["verify", "--graph", "K4.txt", "--graph", "C4.txt", "--m", "3"]),
    ("verify-budget", ["verify", "--graph", "paw.txt", "--m", "4", "--budget-lp", "10"]),
    ("verify-budget-bijective", ["verify", "--graph", "paw.txt", "--m", "4", "--budget-orientations", "50"]),
    (
        "verify-budget-bijective-pretty",
        ["verify", "--graph", "paw.txt", "--m", "4", "--budget-orientations", "50", "--pretty"],
    ),
    ("verify-budget-digraph", ["verify", "--graph", "instar.txt", "--m", "3", "--budget-terms", "1"]),
    ("chambers-paw@3", ["chambers", "--graph", "paw.txt", "--m", "3"]),
    ("chambers-lp-K4@3", ["chambers", "--graph", "K4.txt", "--m", "3", "--method", "lp", "--pretty"]),
    ("chambers-lp-C4@4", ["chambers", "--graph", "C4.txt", "--m", "4", "--method", "lp"]),
    ("chambers-lp-K4@4", ["chambers", "--graph", "K4.txt", "--m", "4", "--method", "lp"]),
    ("chambers-lp-A6@3", ["chambers", "--graph", "A6.txt", "--m", "3", "--method", "lp"]),
    ("chambers-bijective-K4@4", ["chambers", "--graph", "K4.txt", "--m", "4", "--method", "bijective"]),
    ("chambers-bijective-paw@5", ["chambers", "--graph", "paw.txt", "--m", "5", "--method", "bijective"]),
    ("chambers-E3@4", ["chambers", "--graph", "E3.txt", "--m", "4"]),
    ("critical-points-paw@4", ["critical-points", "--graph", "paw.txt", "--m", "4"]),
    ("critical-points-K4@3", ["critical-points", "--graph", "K4.txt", "--m", "3"]),
    ("critical-points-weights", ["critical-points", "--graph", "paw.txt", "--m", "3", "--weights", "weights.json"]),
    ("omega-paw@3", ["omega", "--graph", "paw.txt", "--m", "3"]),
    ("omega-paw-g1", ["omega", "--graph", "paw.txt", "--g", "1", "--m", "3"]),
    ("omega-paw-g1-m0", ["omega", "--graph", "paw.txt", "--g", "1", "--m", "0"]),
    ("omega-instar-g1-m0-in", ["omega", "--graph", "instar.txt", "--g", "1", "--m", "0", "--mode", "in"]),
    ("omega-dcycle3-out", ["omega", "--graph", "dcycle3.txt", "--m", "3", "--mode", "out"]),
    ("chromatic-K4", ["chromatic", "--graph", "K4.txt"]),
    ("parse-paw", ["parse", "--graph", "paw.txt", "--pretty"]),
    ("parse-instar", ["parse", "--graph", "instar.txt"]),
    ("chi-instar", ["chi", "--graph", "instar.txt"]),
    ("chi-dcycle3-in", ["chi", "--graph", "dcycle3.txt", "--mode", "in"]),
    ("kapranov", ["kapranov", "--constraints", "constraints.json"]),
    ("error-no-command", []),
    ("error-missing-m", ["omega", "--graph", "paw.txt"]),
    ("error-small-m", ["chambers", "--graph", "paw.txt", "--m", "2"]),
    ("error-genus", ["omega", "--graph", "paw.txt", "--m", "1"]),
    ("error-digraph-chambers", ["chambers", "--graph", "instar.txt", "--m", "3"]),
    ("error-bad-graph", ["parse", "--graph", "bad.txt"]),
    ("error-missing-file", ["chromatic", "--graph", "missing.txt"]),
    ("error-weights", ["critical-points", "--graph", "paw.txt", "--m", "3", "--weights", "short_weights.json"]),
    ("error-convergence", ["critical-points", "--graph", "paw.txt", "--m", "3", "--weights", "huge_weights.json"]),
    ("error-constraints", ["kapranov", "--constraints", "no_key.json"]),
    ("error-marking", ["kapranov", "--constraints", "bad_marking.json"]),
    ("error-budget", ["chambers", "--graph", "K4.txt", "--m", "4", "--budget-lp", "5"]),
]

MODES = {"plain": [], "-O": ["-O"]}


def write_inputs(directory):
    """Write every input file into `directory`; the fixtures come from this checkout."""
    for name in ("paw.txt", "instar.txt"):
        shutil.copy(HERE / "src" / "chromoduli" / "data" / name, directory / name)
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="utf-8")


def run(src, flags, argv, cwd):
    """(stdout, stderr, exit code) of one CLI call on the package under `src`."""
    code = f"import sys; sys.path.insert(0, {str(src)!r}); from chromoduli.cli import main; sys.exit(main())"
    result = subprocess.run(
        [sys.executable, *flags, "-c", code, *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )
    return result.stdout, result.stderr, result.returncode


def differences(ours, theirs):
    """What differs between two (stdout, stderr, exit code) results, as words."""
    words = [name for name, a, b in zip(("stdout", "stderr"), ours, theirs) if a != b]
    if ours[2] != theirs[2]:
        words.append(f"exit code {ours[2]} != {theirs[2]}")
    return words


def compare(other):
    """One line per (case, mode) that differs between this checkout and `other`, in case order."""
    calls = [(name, mode, argv) for name, argv in CASES for mode in MODES]
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        write_inputs(cwd)
        with ThreadPoolExecutor(WORKERS) as pool:
            jobs = [
                (name, mode, [pool.submit(run, root / "src", MODES[mode], argv, cwd) for root in (HERE, other)])
                for name, mode, argv in calls
            ]
            lines = []
            for name, mode, (ours, theirs) in jobs:
                words = differences(ours.result(), theirs.result())
                if words:
                    lines.append(f"{name} ({mode}): " + ", ".join(words))
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "chromoduli").is_dir():
        print("error: usage: compare_cli.py OTHER_CHECKOUT, a checkout with src/chromoduli", file=sys.stderr)
        return 2
    lines = compare(Path(argv[0]).resolve())
    for line in lines:
        print(line)
    print(f"{len(CASES)} cases, {len(MODES)} modes: {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
