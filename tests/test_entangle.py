import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ketsim import (
    SchmidtSpectrum,
    StateVector,
    apply_rotation,
    cut_entropy,
    entropy,
    new_register,
    schmidt,
    superpose,
)

import oracles


def bell_pair():
    reg = new_register([("a", ("0", "1")), ("b", ("0", "1"))])
    return superpose(reg, [(1.0, {"a": "0", "b": "0"}), (1.0, {"a": "1", "b": "1"})])


def product_state():
    reg = new_register([("a", ("0", "1")), ("b", ("0", "1"))])
    return superpose(
        reg,
        [
            (1.0, {"a": "0", "b": "0"}),
            (1.0, {"a": "0", "b": "1"}),
            (1.0, {"a": "1", "b": "0"}),
            (1.0, {"a": "1", "b": "1"}),
        ],
    )


def test_bell_pair_diagnostics():
    state = bell_pair()
    spec = schmidt(state, ("a",))
    assert spec.coefficients == pytest.approx((0.5, 0.5), abs=1e-12)
    assert schmidt(state, ("b",)) == spec
    assert tuple(spec) == spec.coefficients
    assert entropy(spec) == entropy(spec.coefficients) == pytest.approx(1.0, abs=1e-12)
    assert cut_entropy(state, ("a",)) == entropy(spec)


def test_product_state_diagnostics():
    state = product_state()
    spec = schmidt(state, ("a",))
    assert spec.coefficients == pytest.approx((1.0,), abs=1e-12)
    assert entropy(spec) == 0.0
    assert cut_entropy(state, ("a",)) == pytest.approx(0.0, abs=1e-12)


def test_schmidt_validation():
    # one side names the cut; it must leave subsystems on both sides
    state = bell_pair()
    for side in ((), ("a", "b"), ("b", "a", "b")):
        for cut in (schmidt, cut_entropy):
            with pytest.raises(ValueError, match="^a cut needs subsystems on both sides$"):
                cut(state, side)
    with pytest.raises(ValueError, match="^unknown subsystem 'nope'$"):
        cut_entropy(state, ("a", "nope"))
    for side in (None, 3):
        with pytest.raises(ValueError, match=f"^a cut's side is a tuple of subsystem names, not {side!r}$"):
            schmidt(state, side)
    assert schmidt(state, ("a", "a")) == schmidt(state, ("a",))


def test_cuts_refuse_a_bare_string_and_name_an_unknown_subsystem():
    reg = new_register([("electron", ("0", "1")), ("positron", ("0", "1"))])
    state = oracles.random_state(reg, np.random.default_rng(3))
    with pytest.raises(ValueError, match="tuple of subsystem names"):
        cut_entropy(state, "electron")
    with pytest.raises(ValueError, match="tuple of subsystem names"):
        schmidt(state, "positron")
    with pytest.raises(ValueError, match="unknown subsystem 'muon'"):
        cut_entropy(state, ("muon",))
    with pytest.raises(ValueError, match="unknown subsystem 'muon'"):
        schmidt(state, ("electron", "muon"))


def test_schmidt_ignores_the_order_names_are_given_in():
    # Each side is laid out in register order, whatever order the caller names it in.
    reg = new_register([("a", ("0", "1", "2")), ("b", ("x", "y")), ("c", ("q", "r"))])
    state = oracles.random_state(reg, np.random.default_rng(7))
    assert schmidt(state, ("b", "a")) == schmidt(state, ("a", "b"))
    assert schmidt(state, ("c", "a")) == schmidt(state, ("a", "c"))
    assert schmidt(state, iter(("c", "a"))) == schmidt(state, ["a", "c"])
    assert cut_entropy(state, ("c", "a")) == cut_entropy(state, ("a", "c"))


def test_schmidt_spectrum_validation():
    with pytest.raises(ValueError):
        SchmidtSpectrum(())
    with pytest.raises(ValueError):
        SchmidtSpectrum((0.3, 0.7))  # ascending
    with pytest.raises(ValueError):
        SchmidtSpectrum((0.6, 0.3))  # sums to 0.9
    with pytest.raises(ValueError):
        SchmidtSpectrum((1.2, -0.2))


def test_entropy_inputs():
    assert entropy([1.0]) == 0.0
    assert entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
    assert entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)
    assert entropy([1.0, 0.0]) == 0.0  # exact zeros are skipped
    with pytest.raises(ValueError):
        entropy([1.1, -0.1])
    with pytest.raises(ValueError, match="below -1e-10"):
        entropy([1.0, -0.1])


@pytest.mark.parametrize("weights", ([math.nan, 0.5], [1.5, 0.2], [math.inf, 0.0], [0.5, 1.0 + 2e-9]))
def test_entropy_refuses_a_non_finite_weight_or_one_above_one(weights):
    bad = next(w for w in weights if not w <= 1.0 + 1e-9)
    with pytest.raises(ValueError, match=f"^eigenvalue {bad!r} is not a finite weight"):
        entropy(weights)


def test_product_state_entropy_is_never_negative():
    # A pure 14-qubit product state: every cut has one Schmidt weight, which
    # rounds away from 1 at some cuts; the entropy must still be exactly 0.
    n = 14
    reg = new_register([(f"q{i}", ("0", "1")) for i in range(n)])
    state = superpose(reg, [(1.0, {f"q{i}": "0" for i in range(n)})])
    for i in range(n):
        state = apply_rotation(state, f"q{i}", ("0", "1"), 0.3 + 0.1 * i)
    for k in range(1, n):
        s = cut_entropy(state, [f"q{i}" for i in range(k)])
        assert s == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_schmidt_matches_dense_svd_oracle(seed):
    reg = new_register([("a", ("0", "1", "2")), ("b", ("x", "y")), ("c", ("q", "r"))])
    rng = np.random.default_rng(seed)
    state = oracles.random_state(reg, rng)
    for part in (("a",), ("b",), ("c",), ("a", "c")):
        got = schmidt(state, part)
        want = oracles.schmidt_dense(state, part)
        assert len(got.coefficients) == len(want)
        assert got.coefficients == pytest.approx(want, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_cut_entropy_is_symmetric_across_the_cut(seed):
    reg = new_register([("a", ("0", "1", "2")), ("b", ("x", "y")), ("c", ("q", "r"))])
    rng = np.random.default_rng(seed)
    state = oracles.random_state(reg, rng)
    assert cut_entropy(state, ("a",)) == pytest.approx(cut_entropy(state, ("b", "c")), abs=1e-9)
    assert cut_entropy(state, ("a", "b")) == pytest.approx(cut_entropy(state, ("c",)), abs=1e-9)


def itertools_matrix(state, part_a):
    """The amplitude matrix across (part_a | the rest), each side in register
    order with its joint labels enumerated by itertools.product."""
    reg = state.register
    a_idx = [i for i, n in enumerate(reg.names) if n in part_a]
    b_idx = [i for i, n in enumerate(reg.names) if n not in part_a]
    a_pos = {c: r for r, c in enumerate(itertools.product(*(range(reg.subsystems[i].dim) for i in a_idx)))}
    b_pos = {c: r for r, c in enumerate(itertools.product(*(range(reg.subsystems[i].dim) for i in b_idx)))}
    m = np.zeros((len(a_pos), len(b_pos)), dtype=complex)
    for key, amp in state.amplitudes.items():
        m[a_pos[tuple(key[i] for i in a_idx)], b_pos[tuple(key[i] for i in b_idx)]] = amp
    return m


@pytest.mark.parametrize("seed", range(24))
def test_schmidt_is_bit_for_bit_the_svd_of_the_enumerated_matrix(seed):
    # The dense tensor, moved and reshaped across the cut, is the matrix that
    # enumerating each side's labels builds, so the SVD returns its bits.
    rng = np.random.default_rng(seed)
    dims = rng.integers(2, 5, size=rng.integers(2, 6))
    reg = new_register([(f"s{i}", tuple(f"l{j}" for j in range(d))) for i, d in enumerate(dims)])
    state = oracles.random_state(reg, rng)
    if seed % 2:
        keys = list(state.amplitudes)
        kept = rng.permutation(len(keys))[: rng.integers(1, len(keys) + 1)]
        state = StateVector(reg, {keys[i]: state.amplitudes[keys[i]] for i in kept}).normalized()
    for k in range(1, len(dims)):
        for part in itertools.combinations(reg.names, k):
            sv = np.linalg.svd(itertools_matrix(state, set(part)), compute_uv=False)
            want = sorted((float(s) ** 2 for s in sv if float(s) ** 2 >= 1e-12), reverse=True)
            got = schmidt(state, part).coefficients
            assert [c.hex() for c in got] == [c.hex() for c in want], part
