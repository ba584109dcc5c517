import math
import re

import numpy as np
import pytest

from ketsim import (
    Register,
    StateVector,
    SubsystemSpec,
    amplitude,
    fidelity,
    new_register,
    overlap,
    superpose,
)
from ketsim.register import PRUNE_TOL, fold_sum, matches, prune

import oracles


def two_qubits():
    return new_register([("a", ("0", "1")), ("b", ("0", "1"))])


def test_subsystem_spec_validation():
    with pytest.raises(ValueError):
        SubsystemSpec("x", ("only",))
    with pytest.raises(ValueError):
        SubsystemSpec("x", ("l", "l"))
    with pytest.raises(ValueError):
        SubsystemSpec("", ("l1", "l2"))
    with pytest.raises(ValueError):
        SubsystemSpec("x", ("l1", ""))
    spec = SubsystemSpec("x", ["l1", "l2", "l3"])
    assert spec.dim == 3
    assert spec.labels == ("l1", "l2", "l3")


def test_register_validation():
    with pytest.raises(ValueError):
        Register([])
    s = SubsystemSpec("a", ("0", "1"))
    with pytest.raises(ValueError):
        Register([s, s])


def test_register_lookup():
    reg = new_register([("a", ("0", "1")), ("b", ("x", "y", "z"))])
    assert reg.names == ("a", "b")
    assert reg.dim == 6
    assert reg.index("b") == 1
    assert reg.label_index("b", "z") == 2
    with pytest.raises(ValueError):
        reg.index("c")
    with pytest.raises(ValueError):
        reg.label_index("a", "z")


def test_partial_items_memo_gives_the_plain_lookup_and_refuses_every_miss():
    reg = new_register([("a", ("0", "1")), ("b", ("x", "y", "z"))])
    for assignment in ({"b": "z"}, {"b": "y", "a": "1"}, {"a": "1", "b": "y"}, {}):
        plain = tuple((reg.index(n), reg.label_index(n, lab)) for n, lab in assignment.items())
        first = reg.partial_items(assignment)
        assert first == plain
        assert reg.partial_items(dict(assignment)) is first
    for bad, message in (({"c": "0"}, "unknown subsystem 'c'"), ({"a": "z"}, "has no label 'z'")):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                reg.partial_items(bad)
    # an equal register has its own memo with the same answers
    twin = new_register([("a", ("0", "1")), ("b", ("x", "y", "z"))])
    assert twin == reg and twin.partial_items({"b": "z"}) == ((1, 2),)


def test_key_requires_full_assignment():
    reg = two_qubits()
    assert reg.key({"a": "0", "b": "1"}) == (0, 1)
    with pytest.raises(ValueError):
        reg.key({"a": "0"})
    with pytest.raises(ValueError):
        reg.key({"a": "0", "b": "1", "c": "0"})


def test_assignment_roundtrip():
    reg = new_register([("a", ("0", "1")), ("b", ("x", "y", "z"))])
    for key in reg.keys():
        assert reg.key(reg.assignment(key)) == key


def test_canonical_key_order_first_subsystem_slowest():
    reg = two_qubits()
    assert list(reg.keys()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_superpose_normalizes_and_merges_duplicates():
    reg = two_qubits()
    state = superpose(
        reg,
        [
            (1.0, {"a": "0", "b": "0"}),
            (1.0, {"a": "0", "b": "0"}),
            (2.0, {"a": "1", "b": "1"}),
        ],
    )
    # amplitudes 2 and 2 normalize to 1/sqrt(2) each
    assert abs(amplitude(state, {"a": "0", "b": "0"}) - 1 / math.sqrt(2)) < 1e-12
    assert abs(amplitude(state, {"a": "1", "b": "1"}) - 1 / math.sqrt(2)) < 1e-12
    assert abs(state.norm() - 1.0) < 1e-12


def test_superpose_rejects_zero_and_unnormalized():
    reg = two_qubits()
    with pytest.raises(ValueError):
        superpose(reg, [(1.0, {"a": "0", "b": "0"}), (-1.0, {"a": "0", "b": "0"})])
    with pytest.raises(ValueError):
        superpose(reg, [(0.5, {"a": "0", "b": "0"})], normalize=False)
    state = superpose(reg, [(1.0, {"a": "0", "b": "0"})], normalize=False)
    assert state.support() == 1


@pytest.mark.parametrize(
    "coeff, shown",
    [(math.nan, "(nan+0j)"), (math.inf, "(inf+0j)"), (-math.inf, "(-inf+0j)"), (complex(1.0, math.nan), "(1+nanj)")],
)
@pytest.mark.parametrize("normalize", [True, False])
def test_superpose_refuses_a_non_finite_coefficient_by_its_term(coeff, shown, normalize):
    reg = two_qubits()
    terms = [(1.0, {"a": "0", "b": "0"}), (coeff, {"a": "1", "b": "0"})]
    want = f"coefficient of term {{'a': '1', 'b': '0'}} must be finite, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        superpose(reg, terms, normalize=normalize)


def test_amplitude_of_absent_branch_is_zero():
    reg = two_qubits()
    state = superpose(reg, [(1.0, {"a": "0", "b": "0"})])
    assert amplitude(state, {"a": "1", "b": "1"}) == 0j


def test_normalized_rejects_zero_state():
    reg = two_qubits()
    zero = StateVector(reg, {})
    with pytest.raises(ValueError):
        zero.normalized()


def test_prune_drops_dust():
    amps = {(0, 0): 1.0 + 0j, (1, 1): PRUNE_TOL / 2}
    assert set(prune(amps)) == {(0, 0)}


def test_fold_sum_adds_left_to_right():
    # A compensated sum (Python >= 3.12's builtin on floats) would give 1.0.
    assert fold_sum([1e16, 1.0, -1e16]) == 0.0
    assert fold_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3
    assert fold_sum([1j, 2.0]) == 2.0 + 1j
    empty = fold_sum([])
    assert empty == 0 and type(empty) is int


@pytest.mark.parametrize(
    "items, expected",
    [
        ((), True),
        (((0, 2),), True),
        (((0, 1),), False),
        (((1, 0), (2, 1)), True),
        (((2, 1), (1, 0), (0, 2)), True),
        (((1, 1), (2, 1)), False),
        (((1, 0), (2, 0)), False),
        (((0, 2), (0, 1)), False),
    ],
)
def test_matches_truth_table(items, expected):
    assert matches((2, 0, 1), items) is expected


def test_overlap_conjugate_symmetry_and_mismatch():
    reg = two_qubits()
    a = superpose(reg, [(1.0, {"a": "0", "b": "0"}), (1j, {"a": "1", "b": "1"})])
    b = superpose(reg, [(1.0, {"a": "0", "b": "0"}), (1.0, {"a": "0", "b": "1"}), (0.5, {"a": "1", "b": "1"})])
    assert abs(overlap(a, b) - overlap(b, a).conjugate()) < 1e-12
    other = new_register([("a", ("0", "1")), ("c", ("0", "1"))])
    c = superpose(other, [(1.0, {"a": "0", "c": "0"})])
    with pytest.raises(ValueError):
        overlap(a, c)


def test_fidelity_endpoints():
    reg = two_qubits()
    a = superpose(reg, [(1.0, {"a": "0", "b": "0"})])
    b = superpose(reg, [(1.0, {"a": "1", "b": "1"})])
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(a, b) == 0.0
    # global phase invisible
    c = superpose(reg, [(1j, {"a": "0", "b": "0"})])
    assert fidelity(a, c) == pytest.approx(1.0, abs=1e-12)


def test_overlap_matches_dense_oracle():
    reg = new_register([("a", ("0", "1", "2")), ("b", ("x", "y"))])
    for seed in range(20):
        rng = np.random.default_rng(seed)
        s1 = oracles.random_state(reg, rng)
        s2 = oracles.random_state(reg, rng)
        want = np.vdot(oracles.dense_vector(s1), oracles.dense_vector(s2))
        assert abs(overlap(s1, s2) - want) < 1e-12
        assert abs(s1.norm() - np.linalg.norm(oracles.dense_vector(s1))) < 1e-12
    # The bra's keys, in its order, fix the order of the terms; a smaller ket
    # walked in its own order would round differently on some pairs.
    keys = list(reg.keys())
    other_order = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        bra = StateVector(reg, {keys[i]: complex(*rng.normal(size=2)) for i in rng.permutation(len(keys))})
        ket = StateVector(reg, {keys[i]: complex(*rng.normal(size=2)) for i in rng.permutation(len(keys))[:4]})
        terms = [a.conjugate() * ket.amplitudes[k] for k, a in bra.amplitudes.items() if k in ket.amplitudes]
        want = fold_sum(terms)
        assert overlap(bra, ket) == want
        ket_order = [bra.amplitudes[k].conjugate() * b for k, b in ket.amplitudes.items()]
        other_order += fold_sum(ket_order) != want
    assert other_order > 0
