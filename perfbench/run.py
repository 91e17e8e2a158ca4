"""Benchmark of chromoduli's five-route verifier.

    python3 perfbench/run.py --workload verify_dense|engine_sparse|digraph_interp|all
                             --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
`src/`.  Each pass runs every case of the workload once, in a fresh,
single-threaded interpreter (perfbench/worker.py), so that no in-process
cache carries work from one pass to the next.  A run first starts the
interpreter SETUP_SAMPLES times for set-up alone, then runs passes back to
back while the next one is expected to end within S seconds (always at least
one).  Every case of every pass is checked against oracle.py.

`--trace 0` reports the end-to-end metrics: set-up time and peak RSS as
medians over the run's samples, and each case's median time over the run's
passes, summed (`wall_s`) and at its largest (`slowest_case_s`).
`--trace 1` alternates traced and untraced passes and reports the per-layer
metrics of the traced ones, and the tracing overhead as traced minus
untraced pass time; the end-to-end metrics of its untraced passes are
printed on the line before.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, layer_metrics  # noqa: E402

SETUP_SAMPLES = 12
RUN_LIMIT_S = 170  # a run ends well inside three minutes, whatever S is
HASH_SEED = "0"
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "slowest_case_s": "s", "peak_rss_mib": "MiB"}


def pinned_env():
    env = dict(os.environ)
    env.pop("CHROMODULI_THREADS", None)  # the package's default: one thread
    env.update({name: "1" for name in ONE_THREAD})
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


class Run:
    def __init__(self, workload, seed, seconds):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.cases = workloads.cases(workload, seed)
        self.env = pinned_env()
        self.start = time.perf_counter()
        self.setup = []
        self.passes = {"pass": [], "traced": []}
        self.attempted = 0
        self.failures = []
        self.correct = True

    def elapsed(self):
        return time.perf_counter() - self.start

    def spawn(self, mode):
        """Start a worker; return (set-up seconds, its final JSON line or None)."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload, "--seed", str(self.seed), "--mode", mode]
        began = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, text=True)
        try:
            if not select.select([proc.stdout], [], [], max(1.0, RUN_LIMIT_S - self.elapsed()))[0]:
                raise subprocess.TimeoutExpired(cmd, RUN_LIMIT_S)
            ready = proc.stdout.readline()
            setup = time.perf_counter() - began
            out, err = proc.communicate(timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, None
        if ready.strip() != "ready" or proc.returncode != 0:
            sys.stderr.write(f"worker {mode} failed ({proc.returncode}): {ready}{err}")
            return None, None
        return setup, (json.loads(out.splitlines()[-1]) if mode != "setup" else {})

    def run_pass(self, mode):
        setup, result = self.spawn(mode)
        self.attempted += len(self.cases)
        if result is None:
            self.correct = False
            self.failures.append({c["id"]: "pass did not complete" for c in self.cases})
            return None
        self.setup.append(setup)
        failures = oracle.check_pass(self.cases, result["results"])
        if failures:
            self.failures.append(failures)
            # A case that raised only counts as failed; a wrong answer or a
            # nonzero verify exit code also marks the run incorrect.
            if any(not r.get("error") and r["id"] in failures for r in result["results"]):
                self.correct = False
        self.passes[mode].append(result)
        return result

    def setup_probes(self):
        for _ in range(SETUP_SAMPLES):
            setup, _ = self.spawn("setup")
            if setup is None:
                self.correct = False
            else:
                self.setup.append(setup)

    def loop(self, modes):
        """Run rounds of passes in `modes` while the next round fits in the run."""
        rounds = []
        while True:
            began = time.perf_counter()
            for mode in modes:
                self.run_pass(mode)
            rounds.append(time.perf_counter() - began)
            if self.elapsed() + statistics.median(rounds) > min(self.seconds, RUN_LIMIT_S / 2):
                return

    def end_to_end(self):
        passes = self.passes["pass"]
        if not passes:
            return {}
        # A case's time is its median over the run's passes, which drops a
        # pass that a burst of load on the machine slowed.
        case_s = [statistics.median(p["results"][i]["seconds"] for p in passes) for i in range(len(self.cases))]
        values = {
            "setup_s": statistics.median(self.setup),
            "wall_s": sum(case_s),
            "slowest_case_s": max(case_s),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def per_layer(self):
        traced = self.passes["traced"]
        if not traced:
            return {}
        per_pass = [layer_metrics(p["spans"]) for p in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        untraced = [p["wall_s"] for p in self.passes["pass"]]
        values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(untraced)
        runs_dir = HERE / "_runs"
        trace_file = runs_dir / f"trace-{self.workload}-seed{self.seed}.json"
        trace_file.write_text(json.dumps({"metrics": values, "spans": traced[-1]["spans"]}))
        return {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}

    def summary(self, metrics):
        failed = sum(len(f) for f in self.failures)
        return {"correct": self.correct, "attempted": self.attempted, "failed": failed, "metrics": metrics}


def run_workload(workload, seed, seconds, trace):
    run = Run(workload, seed, seconds)
    run.setup_probes()
    run.loop(["traced", "pass"] if trace else ["pass"])
    for failures in run.failures:
        for case_id, reason in failures.items():
            print(f"FAILED {workload} {case_id}: {reason}", file=sys.stderr)
    if trace:
        print(json.dumps({"workload": workload, "end_to_end": run.end_to_end()}))
        return run.summary(run.per_layer())
    return run.summary(run.end_to_end())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (Path("src") / "chromoduli" / "__init__.py").is_file():
        print("error: run from the root of a chromoduli checkout (no src/chromoduli here)", file=sys.stderr)
        return 2
    (HERE / "_runs").mkdir(exist_ok=True)
    env = {name: pinned_env().get(name) for name in ("CHROMODULI_THREADS", "PYTHONHASHSEED") + ONE_THREAD}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "env": env}))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if len(names) == 1:
        print(json.dumps(summaries[names[0]]))
        return 0
    for name, summary in summaries.items():
        print(json.dumps({"workload": name, **summary}))
    print(
        json.dumps(
            {
                "correct": all(s["correct"] for s in summaries.values()),
                "attempted": sum(s["attempted"] for s in summaries.values()),
                "failed": sum(s["failed"] for s in summaries.values()),
                "metrics": {f"{n}.{k}": v for n, s in summaries.items() for k, v in s["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
