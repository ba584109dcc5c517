"""ketsim benchmark: time scenario reports the way `ketsim run` and `ketsim sweep` make them.

    python3 perfbench/run.py --workload catalog_pass --seed 1 --seconds 30 --trace 0

Run from the root of a ketsim checkout.  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalog_pass", "weak_sweep", "dicke_sweep")

# setup_s is the median of this many fresh worker starts, after one untimed
# start that leaves the bytecode cache warm.
SETUP_SPAWNS = 11
CHILD_TIMEOUT_S = 150


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def call_worker(args: list, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args, "--root", ROOT]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_runs(workload: str, seed: int) -> tuple[list, list]:
    """Wall seconds of each timed fresh start, and each start's phase times."""
    args = ["setup", "--workload", workload, "--seed", str(seed)]
    call_worker(args, CHILD_TIMEOUT_S)
    walls, phases = [], []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        phases.append(call_worker(args, CHILD_TIMEOUT_S))
        walls.append(time.perf_counter() - t0)
    return walls, phases


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ketsim", "__init__.py")):
        print(f"run.py: no ketsim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    walls, phases = setup_runs(args.workload, args.seed)
    run = call_worker(
        ["measure", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        CHILD_TIMEOUT_S,
    )
    for problem in run["problems"]:
        print(f"problem: {problem}")
    print(f"{args.workload}: {run['passes']} passes, {run['attempted']} reports in {run['window_s']:.2f} s")

    if args.trace:
        metrics = {name: metric(v, unit) for name, (v, unit) in run["per_layer"].items()}
        for phase in ("numpy_import_ms", "ketsim_import_ms"):
            metrics[f"setup.{phase}"] = metric(statistics.median(p[phase] for p in phases), "ms")
        print(f"traced throughput {run['throughput_ops_s']:.4f} reports/s")
    else:
        metrics = {"setup_s": metric(statistics.median(walls), "s")}
        metrics.update({name: metric(v, unit) for name, (v, unit) in run["end_to_end"].items()})
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
