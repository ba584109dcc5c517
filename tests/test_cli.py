import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ketsim
import ketsim.cli as cli
from ketsim.report import report_to_json
from ketsim.scenarios import StepFailure


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_list_text(capsys):
    rc, out, err = run_cli(capsys, "list")
    assert rc == 0 and err == ""
    for name in ("qo_core", "ghostly_mirror", "dicke_tray_spoon", "ab_toy"):
        assert name in out
    assert "--param alpha=" in out
    # a closed end is a bracket, an open one a parenthesis, a missing one empty
    assert "--param eps=0.2 (float (0.0 .. 1.0)) per-step" in out  # partial_erasure
    assert "--param eps=0.0 (float [0.0 .. 1.0)) faraway" in out  # dicke_tray_spoon
    assert "--param g=1.0 (float [1e-06 .. ]) pointer" in out  # weak_ensemble


def test_list_json(capsys):
    rc, out, _ = run_cli(capsys, "list", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["scenarios"]) == 13
    schemas = {e["name"]: e["params"] for e in doc["scenarios"]}
    assert schemas["zeno_basic"]["alpha"]["kind"] == "float"
    eps = schemas["partial_erasure"]["eps"]
    assert (eps["low"], eps["high"], eps["low_open"], eps["high_open"]) == (0.0, 1.0, True, True)
    g = schemas["weak_ensemble"]["g"]
    assert (g["high"], g["low_open"], g["high_open"]) == (None, False, False)


def test_run_json_success(capsys):
    rc, out, err = run_cli(capsys, "run", "qo_core")
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["scenario"] == "qo_core"
    assert doc["all_passed"] is True
    assert any(ch["name"] == "p_total_annihilation" for ch in doc["checks"])


def test_run_param_override_and_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli(
        capsys, "run", "ab_toy", "--param", f"phi={math.pi}", "--out", str(target)
    )
    assert rc == 0
    assert out == ""  # report went to the file
    doc = json.loads(target.read_text())
    assert doc["params"]["phi"] == pytest.approx(math.pi)
    recomb = {c["name"]: c for c in doc["checks"]}["recombination"]
    assert recomb["actual"] == pytest.approx(0.0, abs=1e-10)


def test_run_out_file_gets_the_mode_the_umask_allows(capsys, tmp_path):
    target = tmp_path / "r.json"
    old = os.umask(0o022)
    try:
        rc, out, _ = run_cli(capsys, "run", "qo_core", "--out", str(target))
    finally:
        os.umask(old)
    assert rc == 0 and out == ""
    assert stat.S_IMODE(target.stat().st_mode) == 0o644
    assert json.loads(target.read_text())["scenario"] == "qo_core"


def test_run_csv_has_percycle_rows(capsys):
    rc, out, _ = run_cli(capsys, "run", "zeno_basic", "--param", "alpha=0.157", "--format", "csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["scenario", "seed", "check", "mode", "expected", "actual", "tolerance", "passed", "note"]
    cycle_rows = [r for r in rows if r[2].startswith("survival_cycle_")]
    assert len(cycle_rows) == 11  # quarter-turn count derived from alpha
    assert all(r[7] == "true" for r in cycle_rows)


def test_failed_check_still_reports(capsys):
    rc, out, _ = run_cli(capsys, "run", "zeno_counterfactual", "--param", "alpha=0.13")
    assert rc == 1
    doc = json.loads(out)
    assert doc["all_passed"] is False
    flags = {c["name"]: c["passed"] for c in doc["checks"]}
    assert flags["blocking_inference"] is False


def test_product_found_branch_reports_regime_limit(capsys):
    # This many cycles leaves the found branch an exact product state (a
    # one-term Schmidt spectrum); only the entanglement threshold may fail.
    rc, out, _ = run_cli(
        capsys, "run", "zeno_ghost_entanglement", "--param", "alpha=0.70773", "--param", "cycles=130"
    )
    assert rc == 1
    doc = json.loads(out)
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["notfound_entangled"]
    found = {s["label"]: s for s in doc["steps"]}["found in the middle"]
    assert found["events"]["schmidt_second"] == 0.0


def test_weak_ensemble_narrowest_strong_pointer_reports(capsys):
    # sigma_strong=0.01 needs a finer pointer grid than the default 4096 points.
    rc, out, _ = run_cli(capsys, "run", "weak_ensemble", "--param", "sigma_strong=0.01")
    assert rc == 0
    doc = json.loads(out)
    flags = {c["name"]: c["passed"] for c in doc["checks"]}
    assert flags["strong_limit_collapse"] is True


def test_partial_erasure_balanced_target_takes_no_step(capsys):
    # target=0.5 is the closed lower bound: the balanced preparation meets it.
    rc, out, _ = run_cli(capsys, "run", "partial_erasure", "--param", "target=0.5")
    assert rc == 0
    doc = json.loads(out)
    walk = {s["label"]: s for s in doc["steps"]}["null-result walk"]
    assert walk["events"]["iterations"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "no_such_scenario"),
        # the strong pointer would need more than 2**20 grid points
        ("run", "weak_ensemble", "--param", "sigma_strong=0.01", "--param", "g=300"),
        ("run", "qo_core", "--param", "bogus=1"),
        # a seed is a non-negative integer, also where no scenario step draws
        ("run", "weak_ensemble", "--seed", "-1"),
        ("run", "qo_core", "--seed", "-1"),
        ("run", "zeno_basic", "--param", "alpha=spam"),
        ("run", "zeno_basic", "--param", "alpha=2.0"),
        ("run", "dicke_tray_spoon", "--param", "l_spoon=0.0"),
        ("run", "zeno_basic", "--param", "alpha"),
        ("run", "zeno_basic", "--param", "alpha=0.1", "--param", "alpha=0.2"),
        ("sweep", "zeno_basic"),
        ("sweep", "zeno_basic", "--param", "alpha=0.1"),
        ("sweep", "zeno_basic", "--param", "alpha=0.1:0.2:3", "--param", "cycles=1:4:2"),
        ("sweep", "zeno_basic", "--param", "alpha=0.1:0.2:1"),
        ("sweep", "zeno_basic", "--param", "alpha=0.1:0.2:0"),
        ("sweep", "zeno_basic", "--param", "alpha=a:b:3"),
        ("sweep", "zeno_basic", "--param", "alpha=0.1:0.2:2.5"),
        # one grid over both packets would need 2**27 points; the cap is 2**20
        ("run", "dicke_tray_spoon", "--param", "x_spoon=-535772"),
        # about 4.6 million null steps; the walk is capped at 100 000
        ("run", "partial_erasure", "--param", "eps=1e-6"),
        # 1 - eps rounds to 1: no null step moves the state
        ("run", "partial_erasure", "--param", "eps=1e-300"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert err.startswith("ketsim: ")


@pytest.mark.parametrize(
    "argv, where",
    [
        (("run", "qo_core"), "missing/r.json"),
        (("run", "qo_core"), "taken"),
        (("list",), "missing/x"),
    ],
)
def test_an_out_path_that_cannot_be_written_exits_2(capsys, tmp_path, argv, where):
    (tmp_path / "taken").mkdir()
    target = tmp_path / where
    rc, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert rc == 2 and out == ""
    # one line that names the path, and no temporary file left behind
    assert err.startswith(f"ketsim: cannot write --out {target}: ") and err.count("\n") == 1
    assert list(tmp_path.rglob(".ketsim-*")) == []


@pytest.mark.parametrize("seed", [3.0, "3", None])
def test_run_scenario_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ketsim.ParameterError, match="seed expects a non-negative integer"):
        ketsim.run_scenario("qo_core", seed=seed)


def test_a_numpy_integer_seed_gives_the_same_bytes_as_a_plain_one():
    params = {"n_shots": 200, "singles": 20}
    report = ketsim.run_scenario("weak_ensemble", params, seed=np.int64(3))
    assert type(report.seed) is int
    assert report_to_json(report) == report_to_json(ketsim.run_scenario("weak_ensemble", params, seed=3))


def test_partial_erasure_past_the_step_cap_is_refused_before_walking(capsys):
    rc, out, err = run_cli(capsys, "run", "partial_erasure", "--param", "eps=1e-6")
    assert rc == 2 and out == ""
    # the closed-form step count and the cap, named before any step is taken
    assert "needs 4595118 null steps" in err and "capped at 100000" in err


def test_step_failure_exits_3(capsys, monkeypatch):
    def boom(name, params=None, seed=0):
        raise StepFailure("qo_core", "beam splitters", ValueError("synthetic"))

    monkeypatch.setattr(cli, "run_scenario", boom)
    rc, _, err = run_cli(capsys, "run", "qo_core")
    assert rc == 3
    assert "beam splitters" in err


def test_an_unresolvable_pointer_exits_3_naming_the_step(capsys):
    # A single-shot pointer this wide leaves a drawn reading no Born weight.
    rc, out, err = run_cli(
        capsys, "run", "weak_ensemble", "--seed", "0",
        "--param", "sigma_single=1e40", "--param", "n_shots=200", "--param", "singles=20",
    )
    assert rc == 3
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith("ketsim: scenario 'weak_ensemble' failed at step 'gentle single shots':")


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    def boom(name, params=None, seed=0):
        raise ValueError("synthetic")

    monkeypatch.setattr(cli, "run_scenario", boom)
    rc, out, err = run_cli(capsys, "run", "qo_core", "--seed", "5", "--param", "cycles=3")
    assert rc == 4 and out == ""
    assert err == "ketsim: internal error in run qo_core --seed 5 --param cycles=3: ValueError: synthetic\n"


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


# `python -m ketsim` as a child process: (argv, exit code, stderr prefix or
# None). An --out argument names a file under the test's tmp_path.
PROCESS_CASES = [
    (("run", "qo_core"), 0, None),
    (("list",), 0, None),
    (("list", "--format", "json"), 0, None),
    (("run", "nope"), 2, "ketsim: "),
    (("run", "qo_core", "--param", "bogus=1"), 2, "ketsim: "),
    # the README's sweep, every point's report written to an --out file
    (("sweep", "zeno_basic", "--param", "alpha=0.157:0.0785:3", "--format", "json", "--out", "zeno.json"), 0, None),
    (("run", "qo_core", "--out", "missing/r.json"), 2, "ketsim: cannot write --out "),
    # a spoon wider than a tenth of the tray is refused past the schema
    (("run", "dicke_tray_spoon", "--param", "l_spoon=0.5"), 2, "ketsim: "),
    # n=10000 resolves the spoon but is not a power of two; n=1000 is too
    # coarse for it, and the spacing refusal comes first
    (("run", "dicke_tray_spoon", "--param", "n=10000"), 2, "ketsim: sample count must be a power of two"),
    (("run", "dicke_tray_spoon", "--param", "n=1000"), 2, "ketsim: grid spacing 0.022 of n=1000 does not resolve"),
    # a single-shot pointer too wide to resolve: the step is named
    (
        ("run", "weak_ensemble", "--param", "sigma_single=1e40", "--param", "n_shots=200", "--param", "singles=20"),
        3, "ketsim: scenario 'weak_ensemble' failed at step 'gentle single shots': ",
    ),
    # alpha's low bound derives 127 cycles, the most the schema admits
    (("run", "zeno_basic", "--param", "alpha=0.0124"), 0, None),
    (("sweep", "weak_ensemble", "--param", "g=0.5:1.5:10", "--param", "n_shots=1000", "--out", "weak.csv"), 0, None),
]


@pytest.mark.parametrize("argv, rc, prefix", PROCESS_CASES, ids=[" ".join(c[0]) for c in PROCESS_CASES])
def test_python_dash_m_ketsim_exit_code(tmp_path, argv, rc, prefix):
    src = str(Path(ketsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = argv.index("--out") + 1 if "--out" in argv else None
    if out:
        argv = (*argv[:out], str(tmp_path / argv[out]), *argv[out + 1:])
    proc = subprocess.run(
        [sys.executable, "-m", "ketsim", *argv], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == rc, proc.stderr
    if rc:
        assert proc.stdout == ""
        assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1
    else:
        assert proc.stderr == ""
        assert (Path(argv[out]).read_text() if out else proc.stdout) != ""


def test_sweep_zeno_alpha_monotone(capsys):
    rc, out, _ = run_cli(
        capsys, "sweep", "zeno_basic", "--param",
        f"alpha={math.pi/10}:{math.pi/40}:3",
    )
    # the widest angle sits outside the small-angle comparison band, so the
    # sweep reports a failing point; the table itself is still complete
    assert rc == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "alpha"
    col = rows[0].index("survival_probability")
    survival = [float(r[col]) for r in rows[1:]]
    assert len(survival) == 3
    # freezing more often keeps more of the state in place
    assert survival[0] < survival[1] < survival[2] < 1.0
    alphas = [float(r[0]) for r in rows[1:]]
    assert alphas[0] == pytest.approx(math.pi / 10) and alphas[2] == pytest.approx(math.pi / 40)
    assert [r[-1] for r in rows[1:]] == ["false", "true", "true"]


def test_sweep_dicke_ratio_tracks_narrowing(capsys):
    rc, out, _ = run_cli(
        capsys, "sweep", "dicke_tray_spoon", "--param", "l_spoon=0.1:0.025:4",
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    col = rows[0].index("momentum_std_ratio")
    ratios = [float(r[col]) for r in rows[1:]]
    assert ratios == sorted(ratios)
    assert ratios[0] == pytest.approx(10.0, rel=0.2)
    assert ratios[-1] == pytest.approx(40.0, rel=0.2)


def test_sweep_json_format(capsys):
    rc, out, _ = run_cli(
        capsys, "sweep", "ab_toy", "--param", "phi=0.0:3.0:3", "--format", "json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["swept"] == "phi"
    assert [p["params"]["phi"] for p in doc["points"]] == [0.0, 1.5, 3.0]
    assert all(p["scenario"] == "ab_toy" for p in doc["points"])


def test_repeat_runs_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "run", "weak_ensemble", "--seed", "7")
    _, second, _ = run_cli(capsys, "run", "weak_ensemble", "--seed", "7")
    assert first == second
    _, shifted, _ = run_cli(capsys, "run", "weak_ensemble", "--seed", "8")
    assert shifted != first
