"""The register's plan memo: a hit gives the bits of a fresh build, and an
invalid argument raises on every call without leaving a plan behind.

A fresh build is the same operation on an equal register, whose memo is
empty. Every comparison is bit for bit, signed zeros included.
"""

import math

import numpy as np
import pytest

from ketsim import (
    ImpossibleOutcomeError,
    OpLog,
    ParameterError,
    apply_basis_change,
    apply_partial_outcome,
    apply_rotation,
    apply_split,
    born_probabilities,
    controlled_phase,
    controlled_relabel,
    joint_probability,
    new_register,
    postselect,
    postselect_out,
    project,
    superpose,
)
from ketsim import register as register_module
from ketsim.register import StateVector

S = 1.0 / math.sqrt(2.0)
SPECS = [("s", ("z_up", "z_down", "x_plus", "x_minus")), ("m", ("a", "b", "c"))]
# Signed zeros in both parts, so a coefficient whose zero part has the other
# sign gives other bits.
AMPS = {
    (0, 0): complex(-0.0, 0.6),
    (1, 0): complex(0.8, -0.0),
    (0, 1): complex(0.5, -0.0),
    (1, 1): complex(-0.0, -0.5),
    (2, 2): complex(-0.3, 0.0),
    (3, 2): complex(0.0, -0.4),
}

# Pairwise equal as values, or not, in every input form the API takes.
MATRICES = [
    ((S, S), (S, -S)),
    [[S, S], [S, -S]],
    np.array([[S, S], [S, -S]]),
    np.array([[S, S], [S, -S]], dtype=complex),
    ((complex(S, 0.0), complex(S, -0.0)), (complex(S, -0.0), complex(-S, 0.0))),
    ((complex(S, -0.0), complex(S, -0.0)), (complex(S, -0.0), complex(-S, -0.0))),
    ((1, 0), (0, 1)),
    ((1.0, 0.0), (0.0, 1.0)),
    ((1.0, -0.0), (-0.0, 1.0)),
    ((complex(1.0, -0.0), 0j), (-0j, complex(1.0, 0.0))),
    ((0, 1), (1, 0)),
    ((0.0, 1j), (1j, 0.0)),
    ((-0.0, complex(-0.0, 1.0)), (complex(0.0, 1.0), 0.0)),
    np.array([[0, 1j], [1j, 0]]),
]
ANGLES = [0.0, -0.0, 0, False, 0.3, np.float64(0.3), -0.3, np.float32(0.3), math.pi / 2]


def fresh():
    return new_register(SPECS)


def bits(value):
    """Hex digits of every float, keys and nesting kept."""
    if isinstance(value, StateVector):
        return [(k, bits(a)) for k, a in value.amplitudes.items()]
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    return value


def log_bits(log):
    return [(fn.__name__, bits(args)) for fn, args in log.entries]


def basis_plans(reg):
    return [k for k in reg._plans if k[0].__name__ == "_basis_plan"]


@pytest.mark.parametrize("out_pair", [None, ("x_plus", "x_minus")])
def test_basis_change_hits_give_the_bits_of_a_fresh_build(out_pair):
    pair = ("z_up", "z_down")
    for first in MATRICES:
        for second in MATRICES:
            reg = fresh()
            log = OpLog()
            apply_basis_change(StateVector(reg, dict(AMPS)), "s", first, pair, out_pair, log=log)
            got = apply_basis_change(StateVector(reg, dict(AMPS)), "s", second, pair, out_pair, log=log)
            want_log = OpLog()
            want = apply_basis_change(StateVector(fresh(), dict(AMPS)), "s", second, pair, out_pair, log=want_log)
            assert bits(got) == bits(want), (first, second)
            assert log_bits(log)[1:] == log_bits(want_log)
            # equal bits share one plan, and any other sign of zero gets its own
            # the logged inverse holds u†, a bijection on the matrix bits
            same = bits(want_log.entries[0][1][1]) == bits(log.entries[0][1][1])
            assert len(basis_plans(reg)) == (1 if same else 2)


def test_rotation_hits_give_the_bits_of_a_fresh_build():
    for first in ANGLES:
        for second in ANGLES:
            reg = fresh()
            apply_rotation(StateVector(reg, dict(AMPS)), "s", ("z_up", "z_down"), first)
            got = apply_rotation(StateVector(reg, dict(AMPS)), "s", ("z_up", "z_down"), second)
            want = apply_rotation(StateVector(fresh(), dict(AMPS)), "s", ("z_up", "z_down"), second)
            assert bits(got) == bits(want), (first, second)


def test_every_operation_repeats_its_fresh_result_from_the_memo():
    reg = fresh()
    state = StateVector(reg, {k: a / math.sqrt(1.9) for k, a in AMPS.items()})
    calls = [
        lambda st: apply_split(st, "s", "z_up", ("x_plus", "x_minus")),
        lambda st: controlled_relabel(st, {"s": "z_up"}, [({"m": "a"}, {"m": "c"}), ({"m": "c"}, {"m": "a"})]),
        lambda st: controlled_relabel(st, {"s": "z_down"}, []),
        lambda st: controlled_phase(st, {"m": "b"}, -0.0),
        lambda st: project(st, "m", "b"),
        lambda st: postselect(st, {"m": "a", "s": "z_up"}),
        lambda st: postselect_out(st, {"m": "a"}),
        lambda st: apply_partial_outcome(st, "m", "a", 0.3, "no-click"),
        lambda st: apply_partial_outcome(st, "m", "a", 0.3, "click"),
        lambda st: born_probabilities(st, "m"),
        lambda st: joint_probability(st, {"s": "z_down"}),
        lambda st: superpose(st.register, [(0.6, {"m": "b", "s": "x_plus"}), (-0.8j, {"s": "z_up", "m": "c"})]),
    ]
    for call in calls:
        first = call(state)
        again = call(state)
        want = call(StateVector(fresh(), dict(state.amplitudes)))
        for got in (first, again):
            if hasattr(got, "post_state"):
                assert got.outcomes == want.outcomes and got.probability.hex() == want.probability.hex()
                got, want_state = got.post_state, want.post_state
            else:
                want_state = want
            assert bits(got) == bits(want_state)
    before = dict(reg._plans)
    for call in calls:
        call(state)
    assert reg._plans == before and all(reg._plans[k] is v for k, v in before.items())


# (error, call, plans that the call's valid arguments leave behind): a
# relabel resolves and keeps its condition, and each entry's items, before
# the mapping check that fails.
INVALID = [
    (ValueError, lambda st: apply_split(st, "q", "z_up", ("x_plus", "x_minus")), 0),
    (ValueError, lambda st: apply_split(st, "s", "nope", ("x_plus", "x_minus")), 0),
    (ValueError, lambda st: apply_split(st, "s", "z_up", ("x_plus", "z_up")), 0),
    (ValueError, lambda st: apply_rotation(st, "s", ("z_up", "z_up"), 0.3), 0),
    (ValueError, lambda st: apply_rotation(st, "s", ("z_up", "bad"), 0.3), 0),
    (TypeError, lambda st: apply_rotation(st, "s", ("z_up", "z_down"), "0.3"), 0),
    (TypeError, lambda st: apply_rotation(st, "s", ("z_up", "z_down"), 0.3j), 0),
    (ValueError, lambda st: apply_basis_change(st, "s", ((1.0, 0.0), (1.0, 1.0)), ("z_up", "z_down")), 0),
    (ValueError, lambda st: apply_basis_change(st, "s", ((S, S), (S, -S)), ("z_up", "z_up")), 0),
    (ValueError, lambda st: apply_basis_change(st, "s", ((S, S), (S, -S)), ("z_up", "z_down"), ("z_up", "x_minus")), 0),
    (ValueError, lambda st: apply_basis_change(st, "s", (("a", 0), (0, 1)), ("z_up", "z_down")), 0),
    (ValueError, lambda st: apply_basis_change(st, "q", ((S, S), (S, -S)), ("z_up", "z_down")), 0),
    (ValueError, lambda st: controlled_relabel(st, {"q": "a"}, [({"s": "z_up"}, {"s": "z_down"})]), 0),
    (ValueError, lambda st: controlled_relabel(st, {"q": "a"}, []), 0),
    (ValueError, lambda st: controlled_relabel(st, {}, [({"s": "z_up"}, {"s": "z_down"}), ({"m": "a"}, {"m": "b"})]), 1),
    (ValueError, lambda st: controlled_relabel(st, {}, [({"s": "z_up"}, {"m": "a"})]), 1),
    (ValueError, lambda st: controlled_relabel(st, {"s": "z_up"}, [({"s": "z_down"}, {"s": "x_plus"})]), 1),
    (ValueError, lambda st: controlled_relabel(st, {}, [({"m": "a"}, {"m": "b"}), ({"m": "a"}, {"m": "c"})]), 4),
    (ValueError, lambda st: controlled_relabel(st, {}, [({"m": "a"}, {"m": "zz"})]), 2),
    (ValueError, lambda st: controlled_phase(st, {"m": "zz"}, 0.1), 0),
    (ValueError, lambda st: project(st, "m", "zz"), 0),
    (ValueError, lambda st: project(st, "q", "a"), 0),
    (ValueError, lambda st: postselect(st, {"m": "a", "q": "a"}), 0),
    (ParameterError, lambda st: postselect(st, {}), 0),
    (ValueError, lambda st: postselect_out(st, {"m": "zz"}), 0),
    (ValueError, lambda st: apply_partial_outcome(st, "m", "zz", 0.3, "click"), 0),
    (ValueError, lambda st: born_probabilities(st, "q"), 0),
    (ValueError, lambda st: joint_probability(st, {"m": "zz"}), 0),
    (ValueError, lambda st: superpose(st.register, [(1.0, {"m": "a"})]), 0),
    (ValueError, lambda st: superpose(st.register, [(1.0, {"m": "a", "s": "z_up", "q": "a"})]), 0),
    (ValueError, lambda st: superpose(st.register, [(1.0, {"m": "zz", "s": "z_up"})]), 0),
]


@pytest.mark.parametrize("error, call, kept", INVALID)
def test_an_invalid_argument_raises_on_every_call_and_leaves_no_plan(error, call, kept):
    reg = fresh()
    state = StateVector(reg, {(0, 0): 0.6 + 0j, (1, 1): 0.8j})
    for _ in range(3):
        with pytest.raises(error):
            call(state)
        assert len(reg._plans) == kept
    # what stays is the plan of a valid argument, as a fresh build gives it
    for key, plan in reg._plans.items():
        assert key[0](fresh(), *key[1:]) == plan


def test_state_checks_run_on_every_call_after_a_hit():
    reg = fresh()
    # z_up -> z_down collides with a populated z_down branch on this state only
    mapping = [({"s": "z_up"}, {"s": "z_down"})]
    clash = StateVector(reg, {(0, 0): 0.6 + 0j, (1, 0): 0.8 + 0j})
    alone = StateVector(reg, {(0, 0): 0.6 + 0j, (2, 0): 0.8 + 0j})
    for _ in range(2):
        assert controlled_relabel(alone, {}, mapping).amplitudes == {(1, 0): 0.6 + 0j, (2, 0): 0.8 + 0j}
        with pytest.raises(ValueError, match="not a permutation"):
            controlled_relabel(clash, {}, mapping)
    # the probability floor, with the refused outcome named in full
    for _ in range(2):
        assert project(alone, "s", "x_plus").probability == pytest.approx(0.64)
        with pytest.raises(ImpossibleOutcomeError, match=r"^\{'s': 'x_minus'\} has Born weight 0"):
            project(alone, "s", "x_minus")
        with pytest.raises(ImpossibleOutcomeError, match=r"^complement of \{'m': 'a'\} has"):
            postselect_out(alone, {"m": "a"})
        with pytest.raises(ImpossibleOutcomeError, match=r"^partial outcome 'click' has"):
            apply_partial_outcome(alone, "m", "b", 0.5, "click")
    # an invalid outcome word is not a plan argument: it raises on every call
    for _ in range(2):
        with pytest.raises(ParameterError, match="'click' or 'no-click'"):
            apply_partial_outcome(alone, "m", "a", 0.3, "maybe")


def test_the_memo_stays_bounded(monkeypatch):
    monkeypatch.setattr(register_module, "PLAN_MEMO_SIZE", 8)
    reg = fresh()
    state = StateVector(reg, dict(AMPS))
    for k in range(50):
        apply_rotation(state, "s", ("z_up", "z_down"), 0.01 * k)
        assert len(reg._plans) <= 8
