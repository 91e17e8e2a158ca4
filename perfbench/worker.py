"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --mode setup|pass|traced

The worker imports chromoduli, builds the workload's inputs and prints
`ready` on its own line, so the parent can time the set-up.  In `setup` mode
it stops there.  Otherwise it runs every case once, timing each with
`perf_counter`; `traced` mode first wraps the package's public functions
(see tracer.py).  The last line of its output is one JSON object with the
case outputs, the pass time, the peak RSS and, when traced, the spans.
Checking the outputs is left to the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _build_inputs(cases, workdir):
    from chromoduli import Digraph, SimpleGraph

    inputs = []
    for index, case in enumerate(cases):
        graph = case["graph"]
        if case["kind"] == "verify":
            path = Path(workdir) / f"{index}-{graph['name']}.txt"
            path.write_text(workloads.graph_text(graph), encoding="utf-8")
            inputs.append(str(path))
        elif graph["directed"]:
            inputs.append(Digraph.of(range(graph["n"]), graph["edges"]))
        else:
            inputs.append(SimpleGraph.of(range(graph["n"]), graph["edges"]))
    return inputs


def _run_case(case, data, newton_seed):
    from chromoduli import cli, digraph_poly, moduli

    if case["kind"] == "verify":
        out = io.StringIO()
        argv = ["verify", "--graph", data, "--m", str(case["m"]), "--seed", str(newton_seed)]
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        rows = [json.loads(line) for line in out.getvalue().splitlines() if line.strip()]
        return {"exit_code": code, "rows": rows}
    if case["kind"] == "omega":
        value, stats = moduli.omega_with_stats(data, case["m"])
        return {"value": value, "terms_peak": stats["terms_peak"], "terms_final": stats["terms_final"]}
    report = digraph_poly.digraph_polynomial_report(data)
    return {
        "chi_in": list(report.chi_in.coefficients),
        "chi_out": list(report.chi_out.coefficients),
        "consistent": report.consistent,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "pass", "traced"])
    args = parser.parse_args(argv)

    import chromoduli.cli  # noqa: F401  (importing is part of the timed set-up)

    cases = workloads.cases(args.workload, args.seed)
    newton_seed = workloads.newton_seed(args.seed)
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent / "_runs") as workdir:
        inputs = _build_inputs(cases, workdir)
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        tracer = Tracer().install() if args.mode == "traced" else None
        results = []
        begin = time.perf_counter()
        for case, data in zip(cases, inputs):
            if tracer:
                tracer.open("case:" + case["id"])
            start = time.perf_counter()
            try:
                result = {"id": case["id"], "output": _run_case(case, data, newton_seed)}
            except Exception as exc:  # a failing case is counted, the pass goes on
                result = {"id": case["id"], "error": f"{type(exc).__name__}: {exc}"}
            result["seconds"] = time.perf_counter() - start
            if tracer:
                tracer.close()
            results.append(result)
        wall = time.perf_counter() - begin
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {"results": results, "wall_s": wall, "peak_rss_mib": rss_mib}
    if tracer:
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
