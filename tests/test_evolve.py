import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ketsim import (
    OpLog,
    amplitude,
    apply_basis_change,
    apply_rotation,
    apply_split,
    controlled_phase,
    controlled_relabel,
    fidelity,
    new_register,
    recombine_probability,
    superpose,
    time_reverse,
)
from ketsim.evolve import _apply_columns, _label_columns
from ketsim.register import PRUNE_TOL, StateVector, prune

import oracles

S2 = 1.0 / math.sqrt(2.0)
H = ((S2, S2), (S2, -S2))


def path_register():
    return new_register([("p", ("src", "l1", "l2")), ("spin", ("up", "down"))])


def spin4_register():
    return new_register([("s", ("z_up", "z_down", "x_plus", "x_minus")), ("m", ("a", "b"))])


def test_split_forward():
    reg = path_register()
    state = superpose(reg, [(1.0, {"p": "src", "spin": "up"})])
    out = apply_split(state, "p", "src", ("l1", "l2"))
    assert abs(amplitude(out, {"p": "l1", "spin": "up"}) - S2) < 1e-12
    assert abs(amplitude(out, {"p": "l2", "spin": "up"}) - S2) < 1e-12
    assert amplitude(out, {"p": "src", "spin": "up"}) == 0j


def test_split_return_pass_recombines_symmetric_arm_state():
    reg = path_register()
    sym = superpose(reg, [(1.0, {"p": "l1", "spin": "up"}), (1.0, {"p": "l2", "spin": "up"})])
    out = apply_split(sym, "p", "src", ("l1", "l2"))
    assert abs(amplitude(out, {"p": "src", "spin": "up"}) - 1.0) < 1e-12
    assert out.support() == 1


def test_split_antisymmetric_arm_state_stays_in_arms():
    reg = path_register()
    anti = superpose(reg, [(1.0, {"p": "l1", "spin": "up"}), (-1.0, {"p": "l2", "spin": "up"})])
    out = apply_split(anti, "p", "src", ("l1", "l2"))
    # eigenvector of the return pass: nothing reaches the source port
    assert amplitude(out, {"p": "src", "spin": "up"}) == 0j
    assert fidelity(out, anti) == pytest.approx(1.0, abs=1e-12)


def test_split_is_self_inverse_and_matches_dense():
    reg = path_register()
    for seed in range(15):
        rng = np.random.default_rng(seed)
        state = oracles.random_state(reg, rng)
        once = apply_split(state, "p", "src", ("l1", "l2"))
        want = oracles.dense_apply_single(state, "p", ("src", "l1", "l2"), oracles.splitter3())
        assert np.allclose(oracles.dense_vector(once), want, atol=1e-12)
        twice = apply_split(once, "p", "src", ("l1", "l2"))
        assert fidelity(twice, state) == pytest.approx(1.0, abs=1e-12)
        assert abs(once.norm() - 1.0) < 1e-12


def test_split_label_validation():
    reg = path_register()
    state = superpose(reg, [(1.0, {"p": "src", "spin": "up"})])
    with pytest.raises(ValueError):
        apply_split(state, "p", "src", ("src", "l2"))


def test_rotation_orientation_and_composition():
    reg = path_register()
    state = superpose(reg, [(1.0, {"p": "l1", "spin": "up"})])
    alpha = 0.3
    out = apply_rotation(state, "p", ("l1", "l2"), alpha)
    assert abs(amplitude(out, {"p": "l1", "spin": "up"}) - math.cos(alpha)) < 1e-12
    assert abs(amplitude(out, {"p": "l2", "spin": "up"}) - math.sin(alpha)) < 1e-12

    chained = state
    for _ in range(7):
        chained = apply_rotation(chained, "p", ("l1", "l2"), alpha)
    single = apply_rotation(state, "p", ("l1", "l2"), 7 * alpha)
    assert fidelity(chained, single) == pytest.approx(1.0, abs=1e-12)


def test_rotation_inverse():
    reg = path_register()
    rng = np.random.default_rng(3)
    state = oracles.random_state(reg, rng)
    back = apply_rotation(apply_rotation(state, "p", ("l1", "l2"), 0.41), "p", ("l1", "l2"), -0.41)
    assert fidelity(back, state) == pytest.approx(1.0, abs=1e-12)


def test_basis_change_in_place_hadamard():
    reg = path_register()
    state = superpose(reg, [(1.0, {"spin": "up", "p": "src"})])
    out = apply_basis_change(state, "spin", H, ("up", "down"))
    assert abs(amplitude(out, {"spin": "up", "p": "src"}) - S2) < 1e-12
    assert abs(amplitude(out, {"spin": "down", "p": "src"}) - S2) < 1e-12
    again = apply_basis_change(out, "spin", H, ("up", "down"))
    assert fidelity(again, state) == pytest.approx(1.0, abs=1e-12)


def test_basis_change_rejects_non_unitary():
    reg = path_register()
    state = superpose(reg, [(1.0, {"spin": "up", "p": "src"})])
    with pytest.raises(ValueError):
        apply_basis_change(state, "spin", ((1.0, 0.0), (1.0, 1.0)), ("up", "down"))


@pytest.mark.parametrize("out_pair", [None, ("x_plus", "x_minus")])
def test_basis_change_refuses_a_matrix_that_is_not_2x2(out_pair):
    # a larger matrix whose top-left 2x2 block is the identity or the swap
    state = superpose(spin4_register(), [(1.0, {"s": "z_up", "m": "a"})])
    for u, rows in ((np.eye(3), r"\[3, 3, 3\]"), ([[0, 1, 5], [1, 0, 7]], r"\[3, 3\]")):
        with pytest.raises(ValueError, match="u must be a 2x2 matrix, got rows of lengths " + rows):
            apply_basis_change(state, "s", u, ("z_up", "z_down"), out_pair=out_pair)


def test_basis_change_cross_pair_moves_between_bases():
    reg = spin4_register()
    state = superpose(reg, [(1.0, {"s": "z_up", "m": "a"})])
    out = apply_basis_change(state, "s", H, ("z_up", "z_down"), out_pair=("x_plus", "x_minus"))
    assert abs(amplitude(out, {"s": "x_plus", "m": "a"}) - S2) < 1e-12
    assert abs(amplitude(out, {"s": "x_minus", "m": "a"}) - S2) < 1e-12
    assert amplitude(out, {"s": "z_up", "m": "a"}) == 0j
    # symmetric H block: the same call is its own inverse
    back = apply_basis_change(out, "s", H, ("z_up", "z_down"), out_pair=("x_plus", "x_minus"))
    assert fidelity(back, state) == pytest.approx(1.0, abs=1e-12)


def test_basis_change_cross_pair_needs_four_labels():
    reg = spin4_register()
    state = superpose(reg, [(1.0, {"s": "z_up", "m": "a"})])
    with pytest.raises(ValueError):
        apply_basis_change(state, "s", H, ("z_up", "z_down"), out_pair=("z_up", "x_minus"))


def test_controlled_relabel_swaps_only_matching_branches():
    reg = path_register()
    state = superpose(
        reg,
        [(1.0, {"p": "l1", "spin": "up"}), (1.0, {"p": "l1", "spin": "down"}), (1.0, {"p": "l2", "spin": "up"})],
    )
    out = controlled_relabel(state, {"spin": "up"}, [({"p": "l1"}, {"p": "src"})])
    assert abs(amplitude(out, {"p": "src", "spin": "up"})) > 0
    assert amplitude(out, {"p": "l1", "spin": "up"}) == 0j
    # non-matching branch untouched
    assert abs(amplitude(out, {"p": "l1", "spin": "down"}) - amplitude(state, {"p": "l1", "spin": "down"})) < 1e-15


def test_controlled_relabel_validation():
    reg = path_register()
    state = superpose(reg, [(1.0, {"p": "l1", "spin": "up"}), (1.0, {"p": "l2", "spin": "up"})])
    # mapping entries over different key sets
    with pytest.raises(ValueError):
        controlled_relabel(state, {}, [({"p": "l1"}, {"p": "l2"}), ({"spin": "up"}, {"spin": "down"})])
    # from/to keys differ
    with pytest.raises(ValueError):
        controlled_relabel(state, {}, [({"p": "l1"}, {"spin": "down"})])
    # condition overlaps mapping keys
    with pytest.raises(ValueError):
        controlled_relabel(state, {"p": "l1"}, [({"p": "l1"}, {"p": "l2"})])
    # duplicate from-pattern
    with pytest.raises(ValueError):
        controlled_relabel(state, {}, [({"p": "l1"}, {"p": "src"}), ({"p": "l1"}, {"p": "l2"})])
    # two branches collide on one target
    with pytest.raises(ValueError):
        controlled_relabel(state, {}, [({"p": "l1"}, {"p": "src"}), ({"p": "l2"}, {"p": "src"})])
    # target populated but not itself moved
    with pytest.raises(ValueError):
        controlled_relabel(state, {}, [({"p": "l1"}, {"p": "l2"})])


def test_controlled_relabel_empty_mapping_is_identity():
    reg = path_register()
    state = superpose(reg, [(1.0, {"p": "l1", "spin": "up"}), (1.0, {"p": "l2", "spin": "down"})])
    log = OpLog()
    out = controlled_relabel(state, {"spin": "up"}, [], log=log)
    assert fidelity(out, state) == pytest.approx(1.0, abs=1e-15)
    assert list(out.amplitudes.items()) == list(state.amplitudes.items())
    assert out.amplitudes is not state.amplitudes
    assert log == [(controlled_relabel, ({"spin": "up"}, []))]
    assert list(time_reverse(out, log).amplitudes.items()) == list(state.amplitudes.items())


def test_controlled_relabel_refuses_one_from_assignment_in_two_key_orders():
    reg = path_register()
    state = superpose(reg, [(1.0, {"p": "l1", "spin": "up"})])
    mapping = [
        ({"p": "l1", "spin": "up"}, {"p": "l2", "spin": "up"}),
        ({"spin": "up", "p": "l1"}, {"p": "src", "spin": "down"}),
    ]
    with pytest.raises(ValueError, match="duplicate from-assignment"):
        controlled_relabel(state, {}, mapping)


def test_an_oplog_is_a_plain_list():
    assert OpLog() == []
    reg = path_register()
    state = superpose(reg, [(1.0, {"p": "src", "spin": "up"}), (1.0, {"p": "l1", "spin": "down"})])
    logs = (OpLog(), [])
    for log in logs:
        out = apply_split(state, "p", "src", ("l1", "l2"), log=log)
        out = controlled_relabel(out, {"spin": "up"}, [({"p": "l1"}, {"p": "l2"}), ({"p": "l2"}, {"p": "l1"})], log=log)
        controlled_phase(out, {"p": "l1"}, 0.3, log=log)
    assert len(logs[0]) == 3
    assert logs[0] == logs[1]
    assert list(time_reverse(state, []).amplitudes.items()) == list(state.amplitudes.items())


def test_controlled_relabel_cycle():
    reg = path_register()
    state = superpose(
        reg, [(1.0, {"p": "src", "spin": "up"}), (1.0, {"p": "l1", "spin": "up"}), (1.0, {"p": "l2", "spin": "up"})]
    )
    out = controlled_relabel(
        state,
        {},
        [({"p": "src"}, {"p": "l1"}), ({"p": "l1"}, {"p": "l2"}), ({"p": "l2"}, {"p": "src"})],
    )
    assert abs(amplitude(out, {"p": "l1", "spin": "up"}) - amplitude(state, {"p": "src", "spin": "up"})) < 1e-15


def test_controlled_phase_targets_condition_only():
    reg = path_register()
    state = superpose(reg, [(1.0, {"p": "l1", "spin": "up"}), (1.0, {"p": "l2", "spin": "up"})])
    out = controlled_phase(state, {"p": "l1"}, math.pi / 2)
    a1 = amplitude(out, {"p": "l1", "spin": "up"})
    a2 = amplitude(out, {"p": "l2", "spin": "up"})
    assert abs(a1 - S2 * 1j) < 1e-12
    assert abs(a2 - S2) < 1e-12
    assert abs(out.norm() - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12))
def test_logged_circuit_time_reverses_exactly(seed, depth):
    """Random logged circuit, random state: reversal is an exact inverse."""
    reg = new_register(
        [("p", ("src", "l1", "l2")), ("s", ("z_up", "z_down", "x_plus", "x_minus")), ("d", ("q", "r"))]
    )
    rng = np.random.default_rng(seed)
    state = oracles.random_state(reg, rng)
    log = OpLog()
    out = state
    for _ in range(depth):
        op = rng.integers(0, 5)
        if op == 0:
            out = apply_split(out, "p", "src", ("l1", "l2"), log=log)
        elif op == 1:
            out = apply_rotation(out, "s", ("z_up", "z_down"), float(rng.normal()), log=log)
        elif op == 2:
            out = apply_basis_change(out, "s", H, ("z_up", "z_down"), out_pair=("x_plus", "x_minus"), log=log)
        elif op == 3:
            out = controlled_relabel(out, {"d": "q"}, [({"p": "l1"}, {"p": "l2"}), ({"p": "l2"}, {"p": "l1"})], log=log)
        else:
            out = controlled_phase(out, {"d": "r"}, float(rng.normal()), log=log)
    assert abs(out.norm() - 1.0) < 1e-9
    back = time_reverse(out, log)
    assert fidelity(back, state) == pytest.approx(1.0, abs=1e-9)
    # amplitude-level match, not just fidelity
    assert np.allclose(oracles.dense_vector(back), oracles.dense_vector(state), atol=1e-9)


@pytest.mark.parametrize("out_pair", [None, ("x_plus", "x_minus")])
def test_logged_complex_basis_change_time_reverses_to_the_original_amplitudes(out_pair):
    """u is complex and not symmetric, so neither u, its transpose nor its
    conjugate undoes it: only u† does."""
    c, s = math.cos(0.4), math.sin(0.4)
    u = (
        (c * complex(math.cos(0.3), math.sin(0.3)), -s * complex(math.cos(1.1), math.sin(1.1))),
        (s * complex(math.cos(-0.5), math.sin(-0.5)), c * complex(math.cos(0.3), math.sin(0.3))),
    )
    state = oracles.random_state(spin4_register(), np.random.default_rng(5))
    log = OpLog()
    out = apply_basis_change(state, "s", u, ("z_up", "z_down"), out_pair=out_pair, log=log)
    assert not np.allclose(oracles.dense_vector(out), oracles.dense_vector(state), atol=1e-3)
    back = time_reverse(out, log)
    assert np.allclose(oracles.dense_vector(back), oracles.dense_vector(state), rtol=0, atol=1e-12)


def test_time_reverse_keeps_its_own_copy_of_the_callers_arguments():
    reg = new_register([("p", ("src", "l1", "l2", "l3")), ("d", ("q", "r"))])
    state = oracles.random_state(reg, np.random.default_rng(3))

    def arguments():
        mapping = [({"p": "l1"}, {"p": "l2"}), ({"p": "l2"}, {"p": "l1"})]
        return {"d": "q"}, mapping, {"d": "r"}, ["l1", "l2"]

    def walk(log, relabel_condition, mapping, phase_condition, out_pair):
        out = controlled_relabel(state, relabel_condition, mapping, log=log)
        out = controlled_phase(out, phase_condition, 0.7, log=log)
        return apply_split(out, "p", "src", out_pair, log=log)

    log, untouched = OpLog(), OpLog()
    relabel_condition, mapping, phase_condition, out_pair = arguments()
    out = walk(log, relabel_condition, mapping, phase_condition, out_pair)
    assert walk(untouched, *arguments()).amplitudes == out.amplitudes
    # the caller reuses every object it passed in
    relabel_condition["d"] = "r"
    mapping[0][1]["p"] = "src"
    mapping.pop()
    phase_condition["d"] = "q"
    out_pair[1] = "l3"
    back = time_reverse(out, log)
    assert back.amplitudes == time_reverse(out, untouched).amplitudes
    assert np.allclose(oracles.dense_vector(back), oracles.dense_vector(state), rtol=0, atol=1e-12)


def test_recombine_probability_endpoints():
    reg = path_register()
    sym = superpose(reg, [(1.0, {"p": "l1", "spin": "up"}), (1.0, {"p": "l2", "spin": "up"})])
    anti = superpose(reg, [(1.0, {"p": "l1", "spin": "up"}), (-1.0, {"p": "l2", "spin": "up"})])
    lone = superpose(reg, [(1.0, {"p": "l1", "spin": "up"})])
    assert recombine_probability(sym, "p", ("l1", "l2"), "src") == pytest.approx(1.0, abs=1e-12)
    assert recombine_probability(anti, "p", ("l1", "l2"), "src") == pytest.approx(0.0, abs=1e-12)
    assert recombine_probability(lone, "p", ("l1", "l2"), "src") == pytest.approx(0.5, abs=1e-12)


def test_recombine_probability_matches_dense_oracle():
    reg = path_register()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        state = oracles.random_state(reg, rng)
        got = recombine_probability(state, "p", ("l1", "l2"), "src")
        after = oracles.dense_apply_single(state, "p", ("src", "l1", "l2"), oracles.splitter3())
        dims = oracles.dims_of(state)
        tensor = np.abs(after.reshape(dims)) ** 2
        assert got == pytest.approx(float(tensor[0].sum()), abs=1e-12)


def test_recombine_probability_does_not_mutate():
    reg = path_register()
    state = superpose(reg, [(1.0, {"p": "l1", "spin": "up"}), (1.0, {"p": "l2", "spin": "up"})])
    before = dict(state.amplitudes)
    recombine_probability(state, "p", ("l1", "l2"), "src")
    assert state.amplitudes == before


@pytest.mark.parametrize("pair, source", [(("l1", "l1"), "src"), (("src", "l2"), "src")])
def test_recombine_probability_rejects_repeated_labels(pair, source):
    reg = path_register()
    state = superpose(reg, [(1.0, {"p": "l1", "spin": "up"})])
    with pytest.raises(ValueError, match="must be distinct"):
        recombine_probability(state, "p", pair, source)


def row_walk_label_matrix(amplitudes, sub_index, label_indices, matrix):
    # Reference: a label matrix applied as a walk over the matrix rows for
    # each key. The per-label columns must give the same bits in the same
    # key order.
    pos = {li: p for p, li in enumerate(label_indices)}
    new_amps = {}
    for key, amp in amplitudes.items():
        p = pos.get(key[sub_index])
        if p is None:
            new_amps[key] = new_amps.get(key, 0j) + amp
            continue
        for j, lj in enumerate(label_indices):
            c = matrix[j][p]
            if c == 0:
                continue
            nk = key[:sub_index] + (lj,) + key[sub_index + 1 :]
            new_amps[nk] = new_amps.get(nk, 0j) + c * amp
    return prune(new_amps)


def wide_register():
    return new_register(
        [("m", ("a", "b")), ("p", ("src", "l1", "l2", "z_up", "z_down", "idle")), ("t", ("0", "1", "2"))]
    )


SPLITTER = ((0.0, S2, S2), (S2, 0.5, -0.5), (S2, -0.5, 0.5))
ROTATION = ((math.cos(0.3), -math.sin(0.3)), (math.sin(0.3), math.cos(0.3)))
_U = ((0.6 + 0j, 0.8j), (0.8j, 0.6 + 0j))
_Z = 0j
BLOCK = (
    (_Z, _Z, _U[0][0], _U[0][1]),
    (_Z, _Z, _U[1][0], _U[1][1]),
    (_U[0][0], _U[0][1], _Z, _Z),
    (_U[1][0], _U[1][1], _Z, _Z),
)
LABEL_MATRICES = [
    ((0, 1, 2), SPLITTER),
    ((1, 2), ROTATION),
    ((4, 2), ROTATION),
    ((1, 2, 3, 4), BLOCK),
]


def bits(amplitudes):
    return [(k, a.real.hex(), a.imag.hex()) for k, a in amplitudes.items()]


@pytest.mark.parametrize("labels, matrix", LABEL_MATRICES)
@pytest.mark.parametrize("seed", range(6))
def test_label_matrix_matches_the_row_by_row_walk(labels, matrix, seed):
    reg = wide_register()
    rng = np.random.default_rng(seed)
    keys = list(reg.keys())
    # a random sparse support in random order, with keys on labels the
    # matrix does not touch (z_up, z_down, idle) that pass through unchanged
    chosen = rng.permutation(len(keys))[: rng.integers(1, len(keys))]
    amps = {keys[i]: complex(rng.normal(), rng.normal()) for i in chosen}
    amps[keys[chosen[0]]] = complex(-0.0, rng.normal())
    state = StateVector(reg, amps)
    out = _apply_columns(state, 1, _label_columns(labels, matrix))
    ref = row_walk_label_matrix(amps, 1, labels, matrix)
    assert list(out.amplitudes.items()) == list(ref.items())
    assert bits(out.amplitudes) == bits(ref)


def test_label_matrix_prunes_amplitudes_that_cancel():
    reg = wide_register()
    # Equal arm amplitudes leave the arms through the splitter's return pass:
    # the arm terms cancel to 0, or to dust one ulp apart, and are pruned,
    # next to an idle key that passes through.
    for a2 in (S2, math.nextafter(S2, 1.0)):
        amps = {(0, 1, 0): S2 + 0j, (1, 5, 2): 0.5j, (0, 2, 0): complex(a2)}
        raw = 0.5 * S2 - 0.5 * a2
        assert abs(raw) < PRUNE_TOL
        out = _apply_columns(StateVector(reg, amps), 1, _label_columns((0, 1, 2), SPLITTER))
        ref = row_walk_label_matrix(amps, 1, (0, 1, 2), SPLITTER)
        assert list(out.amplitudes.items()) == list(ref.items())
        assert list(out.amplitudes) == [(0, 0, 0), (1, 5, 2)]
