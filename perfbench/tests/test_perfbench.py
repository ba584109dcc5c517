"""Tests of the benchmark itself; tier-1 does not collect them.

    python3 -m pytest -q perfbench/tests

The short-mode tests run each workload for one second of whole passes
(at least two), so the module takes a minute or two.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from ketsim import run_scenario  # noqa: E402
from ketsim.report import report_to_json  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

PASS_SIZE = {"catalog_pass": len(workloads.CATALOG_INPUTS), "weak_sweep": 10, "dicke_sweep": 20}


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_reports_every_end_to_end_metric(workload):
    out = bench(workload, 5, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    passes, rest = divmod(out["attempted"], PASS_SIZE[workload])
    assert rest == 0 and passes >= 2
    # dicke_sweep keeps its two faulty points (l_spoon ~ 0.0195 and 0.01)
    assert out["failed"] == (2 * passes if workload == "dicke_sweep" else 0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_runs_repeat_their_counts(workload):
    first, second = bench(workload, 5, 1), bench(workload, 5, 1)
    assert first["correct"] and second["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    counted = [k for k in expected if not k.endswith("_ms")]
    assert {k: first["metrics"][k]["value"] for k in counted} == {
        k: second["metrics"][k]["value"] for k in counted
    }


def _perturbed(text: str, step: str, event: str, delta: float) -> str:
    doc = json.loads(text)
    for s in doc["steps"]:
        if s["label"] == step:
            s["events"][event] += delta
    return json.dumps(doc)


def test_verification_rejects_a_wrong_p_null_outcome():
    wl = workloads.build("dicke_sweep", 5)
    inp = wl.inputs[0]
    text = report_to_json(run_scenario(inp.scenario, inp.params, seed=inp.seed))
    assert workloads.verify_report("dicke_sweep", text, inp) == (False, [])
    wrong = _perturbed(text, "watched region stays empty", "p_null_outcome", 1e-3)
    _failed, problems = workloads.verify_report("dicke_sweep", wrong, inp)
    assert problems and "p_null_outcome" in problems[0]


@pytest.mark.parametrize(
    "index, step, event, delta",
    [
        (5, "interrogation cycles", "cycles_run", 1),  # zeno_basic
        (14, "null-result walk", "iterations", -1),  # partial_erasure
    ],
)
def test_verification_rejects_wrong_catalog_values(index, step, event, delta):
    wl = workloads.build("catalog_pass", 5)
    inp = wl.inputs[index]
    text = report_to_json(run_scenario(inp.scenario, inp.params, seed=inp.seed))
    assert workloads.verify_report("catalog_pass", text, inp) == (False, [])
    _failed, problems = workloads.verify_report("catalog_pass", _perturbed(text, step, event, delta), inp)
    assert problems


def test_verification_rejects_a_wrong_schmidt_weight():
    wl = workloads.build("catalog_pass", 5)
    inp = wl.inputs[1]
    assert inp.scenario == "hardy_ci"
    doc = json.loads(report_to_json(run_scenario(inp.scenario, inp.params, seed=inp.seed)))
    for c in doc["checks"]:
        if c["name"] == "schmidt_major":
            c["actual"] += 1e-9
    _failed, problems = workloads.verify_report("catalog_pass", json.dumps(doc), inp)
    assert problems and "Schmidt" in problems[0]


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog_pass", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
