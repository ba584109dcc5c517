"""Benchmark worker: one single-threaded process, one caller, closed loop.

    python3 perfbench/worker.py setup   --workload W --seed N
    python3 perfbench/worker.py measure --workload W --seed N --seconds S --trace 0|1

`setup` imports numpy and ketsim, loads the catalog, builds the inputs and
prints its phase times.  `measure` runs a checked reference pass and a
warm-up, then whole passes over the inputs for at least S seconds, and
prints one JSON line.  run.py starts both with the thread count pinned.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

WARMUP_S = 1.0
MIN_PASSES = 2


def setup_probe(workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import ketsim

    t2 = time.perf_counter()
    import workloads

    ketsim.scenarios.catalog()
    workloads.build(workload, seed)
    return {"numpy_import_ms": (t1 - t0) * 1e3, "ketsim_import_ms": (t2 - t1) * 1e3}


def percentile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _report_texts(wl, result) -> list:
    """JSON text of each report of a pass (catalog passes already made it)."""
    from ketsim.report import report_to_json

    if wl.sweep is None:
        return list(result.texts)
    return [report_to_json(r) for r in result.reports]


class Reference:
    """The checked first pass that every later pass must reproduce byte for byte."""

    def __init__(self, wl, result):
        import workloads

        self.wl = wl
        self.texts = _report_texts(wl, result)
        self.csv = result.texts[0] if wl.sweep is not None else None
        self.failing_checks = sorted({c.name for r in result.reports for c in r.checks if not c.passed})
        self.failed = []
        self.problems = []
        for inp, text in zip(wl.inputs, self.texts):
            failed, problems = workloads.verify_report(wl.name, text, inp)
            self.failed.append(failed)
            self.problems.extend(f"{inp.scenario} {inp.params}: {p}" for p in problems)

    def mismatches(self, result) -> list:
        out = [
            f"{inp.scenario} {inp.params}: report bytes differ from the reference pass"
            for inp, text, ref in zip(self.wl.inputs, _report_texts(self.wl, result), self.texts)
            if text != ref
        ]
        if self.csv is not None and result.texts[0] != self.csv:
            out.append("sweep CSV differs from the reference pass")
        return out

    def file_matches(self, csv_path) -> list:
        """Compare the sweep CSV that write_output left on disk with the reference."""
        if csv_path is None:
            return []
        with open(csv_path, encoding="utf-8") as f:
            if f.read() != self.csv:
                return [f"{os.path.basename(csv_path)} differs from the reference CSV"]
        return []


def reference_pass(name: str, seed: int, root: str):
    """Build the inputs, run the first pass and check it.

    For weak_sweep, a scenario seed on which only the sampling-based checks
    fail is skipped in favour of the next one (README, "weak_sweep seeds").
    """
    import workloads

    if name != workloads.WEAK:
        wl = workloads.build(name, seed)
        return wl, Reference(wl, workloads.run_pass(wl, wl.csv_path(root)))
    for k in range(workloads.WEAK_SEED_TRIES):
        wl = workloads.build(name, seed + k)
        ref = Reference(wl, workloads.run_pass(wl, wl.csv_path(root)))
        if not ref.failing_checks or not set(ref.failing_checks) <= workloads.WEAK_SAMPLING_CHECKS:
            if k:
                print(f"weak_sweep: scenario seed {seed + k}, {k} skipped", file=sys.stderr)
            return wl, ref
    raise RuntimeError(f"every scenario seed from {seed} to {seed + k} fails a weak_sweep check")


def measure(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    import workloads

    os.makedirs(os.path.join(root, workloads.OUT_DIR), exist_ok=True)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return _measure(name, seed, seconds, trace, root)


def _measure(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    import workloads

    wl, ref = reference_pass(name, seed, root)
    csv_path = wl.csv_path(root)
    warm_start = time.perf_counter()
    while time.perf_counter() - warm_start < WARMUP_S:
        workloads.run_pass(wl, csv_path)

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    latencies: list = []
    window = 0.0
    passes = failed = 0
    problems = list(ref.problems)
    try:
        while window < seconds or passes < MIN_PASSES:
            result = workloads.run_pass(wl, csv_path)
            window += result.seconds
            passes += 1
            latencies.extend(result.latencies)
            flags = [not r.all_passed for r in result.reports]
            failed += sum(flags)
            if flags != ref.failed:
                problems.append(f"pass {passes}: failing reports differ from the reference pass")
            if tracer is not None:
                with tracer.paused():
                    problems.extend(ref.mismatches(result))
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems.extend(ref.mismatches(result))
    problems.extend(ref.file_matches(csv_path))

    attempted = len(latencies)
    out = {"correct": not problems, "attempted": attempted, "failed": failed, "problems": problems[:20]}
    if tracer is not None:
        out["per_layer"] = tracer.per_report(attempted)
        out["throughput_ops_s"] = attempted / window
    else:
        out["end_to_end"] = {
            "throughput_ops_s": (attempted / window, "1/s"),
            "latency_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
            "latency_p90_ms": (percentile(latencies, 0.90) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    out["passes"] = passes
    out["window_s"] = window
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True, help="checkout root; sweep CSVs go under it")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        out = setup_probe(args.workload, args.seed)
    else:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.root)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
