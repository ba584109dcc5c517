import collections
import enum
import json
import math
import os
import stat

import numpy as np
import pytest

import ketsim.cli as cli
from ketsim import new_register, run_scenario, superpose
from ketsim.report import (
    Check,
    TOP_K,
    ScenarioReport,
    dumps_json,
    make_step,
    report_to_csv,
    report_to_json,
    report_to_jsonable,
    sweep_to_csv,
    write_output,
)
from ketsim.scenarios import catalog

import oracles


def small_report(passed=True):
    actual = 0.5 if passed else 0.7
    return ScenarioReport(
        scenario="demo",
        params={"alpha": 0.25, "cycles": 3},
        seed=0,
        steps=(make_step("start", events={"p": 0.5}),),
        checks=(Check("p_half", "abs", 0.5, actual, 1e-9, "unit fixture"),),
        notes=("a note",),
    )


def test_check_modes_and_boundaries():
    assert Check("c", "abs", 1.0, 1.0 + 5e-10, 1e-9, "n").passed
    assert not Check("c", "abs", 1.0, 1.0 + 2e-9, 1e-9, "n").passed
    assert Check("c", "ge", 0.99, 0.99, 0.0, "n").passed
    assert not Check("c", "ge", 0.99, 0.9899, 0.0, "n").passed
    assert Check("c", "le", 0.01, 0.01, 0.0, "n").passed
    assert not Check("c", "le", 0.01, 0.0101, 0.0, "n").passed
    with pytest.raises(ValueError):
        Check("c", "between", 0.0, 0.0, 0.0, "n")
    with pytest.raises(ValueError):
        Check("c", "abs", 0.0, 0.0, 0.0, "")


def test_check_normalizes_numpy_scalars():
    c = Check("c", "abs", np.float64(0.5), np.float64(0.5), np.float64(1e-9), "n")
    assert type(c.expected) is float and type(c.actual) is float
    assert type(c.passed) is bool
    # and the serializer accepts the result
    dumps_json({"checks": [c.actual, c.passed]})


def test_make_step_normalizes_numpy_scalars():
    half = np.float64(0.5)
    step = make_step("s", distribution=("d", {"a": half, "b": half}), events={"e": half}, entropies={"c": half})
    assert [type(v) for v in step["distribution"]["probabilities"].values()] == [float, float]
    assert type(step["events"]["e"]) is float and type(step["entropies"]["c"]) is float


def test_step_distribution_must_sum_to_one():
    with pytest.raises(ValueError):
        make_step("s", distribution=("d", {"a": 0.5, "b": 0.4}))
    make_step("s", distribution=("d", {"a": 0.5, "b": 0.5}))


def test_make_step_ranks_state_rows_by_weight_with_key_tiebreak():
    reg = new_register([("a", ("0", "1", "2")), ("b", ("x", "y", "z"))])
    light = [(0.1, {"a": a, "b": b}) for a, b in (("0", "z"), ("1", "z"), ("2", "x"), ("2", "y"), ("2", "z"))]
    state = superpose(
        reg,
        [(0.8, {"a": "1", "b": "y"}), (0.4, {"a": "0", "b": "x"}), (0.4, {"a": "0", "b": "y"}), (0.2, {"a": "1", "b": "x"})]
        + light,
    )
    step = make_step("s", state)
    rows = step["state"]
    assert step["support"] == 9  # every term, not just the summarized ones
    assert len(rows) == TOP_K == 8
    assert rows[0]["assignment"] == {"a": "1", "b": "y"}
    assert rows[1]["assignment"] == {"a": "0", "b": "x"}  # tie with (0,1) broken by key order
    assert rows[2]["assignment"] == {"a": "0", "b": "y"}
    assert rows[3]["assignment"] == {"a": "1", "b": "x"}
    # five-way tie: the first four in key order, (2,2) left out
    assert [r["assignment"] for r in rows[4:]] == [a for _, a in light[:4]]
    assert [r["probability"] for r in rows] == sorted((r["probability"] for r in rows), reverse=True)


def test_json_round_trips_and_is_exact():
    report = small_report()
    text = report_to_json(report)
    data = json.loads(text)
    assert data["scenario"] == "demo"
    assert data["params"] == {"alpha": 0.25, "cycles": 3}
    assert data["all_passed"] is True
    assert data["checks"][0]["actual"] == 0.5
    # serializing the parsed object again is byte-identity
    assert dumps_json(data) == text
    assert text.endswith("\n")


def test_float_serialization_is_17_digit_exact():
    tricky = [0.1 + 0.2, 1 / 3, math.pi, 2**-52, 1e300]
    text = dumps_json(tricky)
    back = json.loads(text)
    assert all(a == b for a, b in zip(back, tricky))  # exact, not approximate
    with pytest.raises(ValueError):
        dumps_json(float("nan"))
    with pytest.raises(ValueError):
        dumps_json(float("inf"))


def test_json_layout_rules():
    # short scalar lists inline, longer ones multiline
    assert dumps_json({"xs": [1, 2]}) == '{\n  "xs": [1, 2]\n}\n'
    assert "[\n" in dumps_json({"xs": [1, 2, 3, 4, 5]})
    assert dumps_json([]) == "[]\n"
    assert dumps_json({}) == "{}\n"
    assert dumps_json(True) == "true\n"
    assert dumps_json(None) == "null\n"
    assert dumps_json("a\"b\n") == '"a\\"b\\n"\n'
    with pytest.raises(TypeError):
        dumps_json({"bad": object()})


def test_string_escapes_follow_the_per_character_rules():
    named = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}
    for code in [*range(0x80), 0xE9, 0x3C8, 0x1F600]:
        ch = chr(code)
        escaped = named.get(ch, "\\u%04x" % code if code < 0x20 else ch)
        assert dumps_json("a" + ch + "b") == '"a' + escaped + 'b"\n'
        assert json.loads(dumps_json(ch)) == ch


@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("name", sorted(catalog()))
def test_dumps_json_matches_the_reference_writer_on_every_report(name, seed):
    data = report_to_jsonable(run_scenario(name, seed=seed))
    assert dumps_json(data) == oracles.reference_dumps_json(data)


@pytest.mark.parametrize(
    "argv",
    [
        ("list", "--format", "json"),
        ("sweep", "zeno_basic", "--param", "alpha=0.05:0.2:3", "--format", "json"),
    ],
)
def test_dumps_json_matches_the_reference_writer_on_cli_payloads(argv, monkeypatch, capsys):
    payloads = []

    def recording(obj):
        payloads.append(obj)
        return dumps_json(obj)

    monkeypatch.setattr(cli, "dumps_json", recording)
    cli.main(list(argv))
    assert len(payloads) == 1
    assert capsys.readouterr().out == oracles.reference_dumps_json(payloads[0])


class Kind(enum.IntEnum):
    LOW = 1
    HIGH = 2


Pair = collections.namedtuple("Pair", "a b")

EDGE_INPUTS = [
    {},
    [],
    (),
    [1, 2.5, "a", None],
    [1, 2.5, "a", None, True],
    (1, 2, 3, 4),
    [1, [2]],
    [1, {}],
    [[]],
    ({"a": 1},),
    {"outer": {"inner": [1, {"deep": ()}], "empty": {}}},
    {"t": True, "f": False, "flags": [True, False]},
    "".join(chr(c) for c in range(0x20)),
    {"".join(chr(c) for c in range(0x20)): '"\\'},
    ['"', "\\", "caf\u00e9 \u03c8 \U0001f600", "mixed \" \\ \n \x7f \u00a0"],
    0,
    -0.0,
    5e-324,
    True,
    None,
    "",
]


@pytest.mark.parametrize("obj", EDGE_INPUTS)
def test_dumps_json_matches_the_reference_writer_on_edge_inputs(obj):
    assert dumps_json(obj) == oracles.reference_dumps_json(obj)


# Reports hold plain Python values, so the writer matches types exactly:
# a subclass of a JSON type, and a dict key that is not a str, are refused.
SUBCLASS_INPUTS = [
    ({1: "int", 0.5: "float", None: "none", False: "bool", (1, 2): "tuple", Kind.HIGH: "enum"}, "int key"),
    ({"kind": Kind.LOW, "kinds": [Kind.LOW, Kind.HIGH]}, "Kind"),
    ({"x": np.float64(0.1), "xs": [np.float64(1 / 3), 2.0], "big": np.float64(1e300)}, "float64"),
    (np.float64("nan"), "float64"),
    (Pair(1.5, "b"), "Pair"),
    ([Pair(1, 2), 3], "Pair"),
]


@pytest.mark.parametrize("obj, name", SUBCLASS_INPUTS)
def test_dumps_json_refuses_subclasses_and_non_str_keys(obj, name):
    with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
        dumps_json(obj)


@pytest.mark.parametrize(
    "obj, error",
    [
        (float("nan"), ValueError),
        ({"a": [1.0, float("inf")]}, ValueError),
        ([-math.inf], ValueError),
        (np.int64(1), TypeError),
        ({"n": np.int64(1)}, TypeError),
        ([object()], TypeError),
        ({"a": {"b": object()}}, TypeError),
    ],
)
def test_dumps_json_refuses_what_the_reference_writer_refuses(obj, error):
    with pytest.raises(error) as new:
        dumps_json(obj)
    with pytest.raises(error) as ref:
        oracles.reference_dumps_json(obj)
    assert str(new.value) == str(ref.value)


def test_report_to_csv_shape():
    text = report_to_csv(small_report())
    lines = text.strip().split("\n")
    assert lines[0] == "scenario,seed,check,mode,expected,actual,tolerance,passed,note"
    assert len(lines) == 2
    assert lines[1].startswith("demo,0,p_half,abs,0.5,0.5,")
    assert text.endswith("\n")


def test_sweep_to_csv_uses_stable_checks_only():
    def rep(value, extra_name):
        return ScenarioReport(
            scenario="demo",
            params={},
            seed=0,
            steps=(),
            checks=(
                Check("stable", "abs", value, value, 1e-9, "n"),
                Check(extra_name, "abs", 0.0, 0.0, 1e-9, "n", sweep=False),
            ),
        )

    text = sweep_to_csv("alpha", [(0.1, rep(0.1, "cycle_01")), (0.2, rep(0.2, "cycle_01_and_02"))])
    lines = text.strip().split("\n")
    assert lines[0] == "alpha,stable,all_passed"
    assert len(lines) == 3
    with pytest.raises(ValueError):
        sweep_to_csv("alpha", [])
    bad = ScenarioReport("demo", {}, 0, (), (Check("other", "abs", 0, 0, 1e-9, "n"),))
    with pytest.raises(ValueError):
        sweep_to_csv("alpha", [(0.1, rep(0.1, "x")), (0.2, bad)])


def test_report_jsonable_step_sections_appear_only_when_present():
    reg = new_register([("a", ("0", "1")), ("b", ("x", "y"))])
    state = superpose(reg, [(1.0, {"a": "0", "b": "x"})])
    report = ScenarioReport(
        scenario="demo",
        params={},
        seed=1,
        steps=(
            make_step("with state", state, entropies={"a|b": 0.0}),
            make_step("events only", events={"e": 1.0}),
        ),
        checks=(),
    )
    data = report_to_jsonable(report)
    assert data["steps"][0]["support"] == 1
    assert data["steps"][0]["state"][0]["assignment"] == {"a": "0", "b": "x"}
    assert data["steps"][0]["state"][0]["amplitude"] == [1.0, 0.0]
    assert "state" not in data["steps"][1]
    assert data["steps"][1]["events"] == {"e": 1.0}
    assert data["all_passed"] is True  # vacuous


def test_write_output_file_and_stdout(tmp_path, capsys):
    target = tmp_path / "out.json"
    write_output("hello\n", str(target))
    assert target.read_text() == "hello\n"
    # overwrite is atomic: the temp file is gone afterwards
    write_output("again\n", str(target))
    assert target.read_text() == "again\n"
    assert list(tmp_path.iterdir()) == [target]
    write_output("to stdout", None)
    assert capsys.readouterr().out == "to stdout"


def test_write_output_file_mode_follows_the_umask(tmp_path):
    target = tmp_path / "out.json"
    old = os.umask(0o022)
    try:
        write_output("new\n", str(target))
        assert stat.S_IMODE(target.stat().st_mode) == 0o644
        os.umask(0o027)
        write_output("replaced\n", str(target))
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
    finally:
        os.umask(old)
    assert target.read_text() == "replaced\n"
    assert list(tmp_path.iterdir()) == [target]


def test_write_output_failure_keeps_the_old_report(tmp_path):
    target = tmp_path / "out.json"
    write_output("old\n", str(target))
    with pytest.raises(TypeError):
        write_output(b"not text", str(target))
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]
