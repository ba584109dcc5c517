import cmath
import collections
import math
import re
import tracemalloc

import numpy as np
import pytest

from ketsim import (
    ImpossibleOutcomeError,
    MeasurementRecord,
    ParameterError,
    StateVector,
    WeakParams,
    amplitude,
    apply_partial_outcome,
    born_probabilities,
    erase_partial,
    fidelity,
    joint_probability,
    new_register,
    pointer_fidelities,
    pointer_readings,
    postselect,
    postselect_out,
    project,
    read_pointer,
    superpose,
    weak_measure,
)
from ketsim import measure
from ketsim.errors import conditioning_scale
from ketsim.grid import gaussian_packet, grid_xs
from ketsim.measure import WeakJointState
from ketsim.register import fold_sum

import numpy_baseline
import oracles


def pair_register():
    return new_register([("a", ("0", "1", "2")), ("b", ("x", "y"))])


def spin_register():
    return new_register([("spin", ("up", "down")), ("tag", ("t0", "t1"))])


def test_born_probabilities_match_dense_marginal():
    reg = pair_register()
    for seed in range(15):
        rng = np.random.default_rng(seed)
        state = oracles.random_state(reg, rng)
        dist = born_probabilities(state, "a")
        want = oracles.dense_marginal(state, "a")
        labels = state.register.spec("a").labels
        for i, lab in enumerate(labels):
            assert dist.get(lab, 0.0) == pytest.approx(float(want[i]), abs=1e-12)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError, match="^unknown subsystem 'nope'$"):
        born_probabilities(state, "nope")


def test_joint_probability_matches_dense():
    reg = pair_register()
    rng = np.random.default_rng(42)
    state = oracles.random_state(reg, rng)
    for assignments in ({"a": "1"}, {"b": "y"}, {"a": "2", "b": "x"}):
        assert joint_probability(state, assignments) == pytest.approx(
            oracles.dense_probability(state, assignments), abs=1e-12
        )


def test_project_collapses_and_reports_probability():
    reg = pair_register()
    state = superpose(reg, [(1.0, {"a": "0", "b": "x"}), (1.0, {"a": "1", "b": "y"}), (1.0, {"a": "2", "b": "y"})])
    rec = project(state, "b", "y")
    assert rec.probability == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rec.outcomes == {"b": "y"}
    assert born_probabilities(rec.post_state, "b") == {"y": pytest.approx(1.0, abs=1e-12)}
    assert abs(rec.post_state.norm() - 1.0) < 1e-12


def test_project_drops_dust_from_the_post_state_but_weighs_it():
    # Every sparse readout conditions by one rule: the Born weight adds every
    # amplitude of the kept branch, and the post state keeps none <= 1e-15.
    reg = pair_register()
    branch = {(0, 1): 1e-16 + 0j, (1, 1): 0.6 + 0j}
    state = StateVector(reg, {(0, 0): 0.8 + 0j, **branch})
    rec = project(state, "b", "y")
    assert rec.post_state.amplitudes == {(1, 1): 1.0 + 0j}
    assert rec.probability == fold_sum(abs(a) ** 2 for a in branch.values())


def test_project_impossible_outcome_raises():
    reg = pair_register()
    state = superpose(reg, [(1.0, {"a": "0", "b": "x"})])
    with pytest.raises(ImpossibleOutcomeError):
        project(state, "b", "y")
    with pytest.raises(ValueError):
        project(state, "b", "zzz")


def test_postselect_and_complement_partition_the_state():
    reg = pair_register()
    state = superpose(
        reg,
        [(1.0, {"a": "0", "b": "x"}), (1.0, {"a": "1", "b": "y"}), (1.0, {"a": "2", "b": "y"}), (1.0, {"a": "0", "b": "y"})],
    )
    inside = postselect(state, {"a": "0", "b": "y"})
    outside = postselect_out(state, {"a": "0", "b": "y"})
    assert inside.probability + outside.probability == pytest.approx(1.0, abs=1e-12)
    assert outside.negated and not inside.negated
    assert joint_probability(outside.post_state, {"a": "0", "b": "y"}) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ParameterError):
        postselect(state, {})
    with pytest.raises(ParameterError):
        postselect_out(state, {})


def test_postselect_out_impossible_when_everything_matches():
    reg = pair_register()
    state = superpose(reg, [(1.0, {"a": "0", "b": "x"})])
    with pytest.raises(ImpossibleOutcomeError):
        postselect_out(state, {"a": "0"})


def test_measurement_record_validation():
    reg = pair_register()
    good = superpose(reg, [(1.0, {"a": "0", "b": "x"})])
    with pytest.raises(ImpossibleOutcomeError):
        MeasurementRecord({"a": "0"}, 0.0, good)
    with pytest.raises(ImpossibleOutcomeError):
        MeasurementRecord({"a": "0"}, 1.5, good)
    bad = superpose(reg, [(1.0, {"a": "0", "b": "x"})], normalize=True)
    bad.amplitudes[(0, 0)] = 0.5  # break the norm behind the constructor's back
    with pytest.raises(ValueError):
        MeasurementRecord({"a": "0"}, 0.5, bad)


def test_partial_outcome_eps_range():
    reg = spin_register()
    state = superpose(reg, [(1.0, {"spin": "up", "tag": "t0"}), (1.0, {"spin": "down", "tag": "t0"})])
    for eps in (-0.1, 1.1):
        with pytest.raises(ParameterError, match=rf"^eps must lie in \[0, 1\], got {eps!r}$"):
            apply_partial_outcome(state, "spin", "down", eps, "click")
    assert apply_partial_outcome(state, "spin", "down", 0, "no-click").probability == pytest.approx(1.0, abs=1e-12)
    assert apply_partial_outcome(state, "spin", "down", 1, "click").probability == pytest.approx(0.5, abs=1e-12)


def test_partial_outcome_eps_is_coerced_and_nan_is_refused():
    reg = spin_register()
    state = superpose(reg, [(1.0, {"spin": "up", "tag": "t0"}), (1.0, {"spin": "down", "tag": "t0"})])
    with pytest.raises(ParameterError, match=r"^eps must lie in \[0, 1\], got nan$"):
        apply_partial_outcome(state, "spin", "down", float("nan"), "click")
    plain = apply_partial_outcome(state, "spin", "down", 0.25, "no-click")
    coerced = apply_partial_outcome(state, "spin", "down", np.float32(0.25), "no-click")
    assert coerced.probability == plain.probability
    assert coerced.post_state.amplitudes == plain.post_state.amplitudes


def test_click_probability_is_eps_times_the_branch_weight():
    reg = pair_register()
    for seed in range(10):
        state = oracles.random_state(reg, np.random.default_rng(seed))
        weight = born_probabilities(state, "a")["1"]
        for eps in (0.0, 0.1, 0.5, 0.9, 1.0):
            if eps == 0.0:
                with pytest.raises(ImpossibleOutcomeError):
                    apply_partial_outcome(state, "a", "1", eps, "click")
                continue
            click = apply_partial_outcome(state, "a", "1", eps, "click")
            noclick = apply_partial_outcome(state, "a", "1", eps, "no-click")
            assert click.probability == pytest.approx(eps * weight, abs=1e-12)
            assert noclick.probability == pytest.approx(1.0 - eps * weight, abs=1e-12)


def test_partial_outcome_probabilities_are_complete():
    reg = spin_register()
    state = superpose(reg, [(1.0, {"spin": "up", "tag": "t0"}), (1.0, {"spin": "down", "tag": "t0"})])
    eps = 0.2
    click = apply_partial_outcome(state, "spin", "down", eps, "click")
    noclick = apply_partial_outcome(state, "spin", "down", eps, "no-click")
    assert click.probability == pytest.approx(eps * 0.5, abs=1e-12)
    assert click.probability + noclick.probability == pytest.approx(1.0, abs=1e-12)
    # click collapses onto the monitored branch
    assert born_probabilities(click.post_state, "spin") == {"down": pytest.approx(1.0, abs=1e-12)}
    # null result damps the monitored branch by sqrt(1-eps)
    ratio = abs(amplitude(noclick.post_state, {"spin": "down", "tag": "t0"})) / abs(
        amplitude(noclick.post_state, {"spin": "up", "tag": "t0"})
    )
    assert ratio == pytest.approx(math.sqrt(1 - eps), abs=1e-12)


def test_partial_outcome_validation():
    reg = spin_register()
    state = superpose(reg, [(1.0, {"spin": "up", "tag": "t0"})])
    with pytest.raises(ParameterError):
        apply_partial_outcome(state, "spin", "up", 0.5, "maybe")
    with pytest.raises(ImpossibleOutcomeError):
        apply_partial_outcome(state, "spin", "down", 0.5, "click")


def test_null_result_walk_biases_state_monotonically():
    reg = spin_register()
    state = superpose(reg, [(1.0, {"spin": "up", "tag": "t0"}), (1.0, {"spin": "down", "tag": "t0"})])
    p_up = [born_probabilities(state, "spin")["up"]]
    for _ in range(12):
        state = apply_partial_outcome(state, "spin", "down", 0.3, "no-click").post_state
        p_up.append(born_probabilities(state, "spin")["up"])
    assert all(b > a for a, b in zip(p_up, p_up[1:]))
    assert p_up[-1] > 0.95


def test_erase_partial_restores_magnitudes_and_phase():
    reg = spin_register()
    phase = cmath.exp(0.9j)
    state = superpose(reg, [(1.0, {"spin": "up", "tag": "t0"}), (phase, {"spin": "down", "tag": "t0"})])
    # walk the state toward 'up' with null results
    eps = 0.25
    for _ in range(6):
        state = apply_partial_outcome(state, "spin", "down", eps, "no-click").post_state
    w = born_probabilities(state, "spin")
    eps_prime, success, post = erase_partial(state, "spin", ("up", "down"))
    assert success == pytest.approx(2 * w["down"], abs=1e-12)
    assert eps_prime == pytest.approx(1.0 - w["down"] / w["up"], abs=1e-12)
    target = superpose(reg, [(1.0, {"spin": "up", "tag": "t0"}), (phase, {"spin": "down", "tag": "t0"})])
    assert fidelity(post, target) == pytest.approx(1.0, abs=1e-12)
    # the relative phase specifically, not just |<a|b>|
    ratio = amplitude(post, {"spin": "down", "tag": "t0"}) / amplitude(post, {"spin": "up", "tag": "t0"})
    assert abs(ratio - phase) < 1e-12


def test_erase_partial_validation():
    reg = spin_register()
    lopsided = superpose(reg, [(math.sqrt(0.3), {"spin": "up", "tag": "t0"}), (math.sqrt(0.7), {"spin": "down", "tag": "t0"})],
                         normalize=False)
    with pytest.raises(ParameterError):
        erase_partial(lopsided, "spin", ("up", "down"))  # first label must dominate
    collapsed = superpose(reg, [(1.0, {"spin": "up", "tag": "t0"})])
    with pytest.raises(ImpossibleOutcomeError):
        erase_partial(collapsed, "spin", ("up", "down"))
    wide = pair_register()
    spread = superpose(
        wide, [(1.0, {"a": "0", "b": "x"}), (1.0, {"a": "1", "b": "x"}), (1.0, {"a": "2", "b": "x"})]
    )
    with pytest.raises(ParameterError):
        erase_partial(spread, "a", ("0", "1"))  # support leaks outside the pair


def test_erase_partial_refuses_a_repeated_or_unknown_label():
    state = superpose(spin_register(), [(1.0, {"spin": "up", "tag": "t0"}), (1.0, {"spin": "down", "tag": "t0"})])
    with pytest.raises(ParameterError, match="^pair names label 'up' twice$"):
        erase_partial(state, "spin", ("up", "up"))
    with pytest.raises(ParameterError, match=r"^pair names labels \['sideways'\] that subsystem 'spin' does not have$"):
        erase_partial(state, "spin", ("up", "sideways"))


def test_weak_params_validation():
    for sigma in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="sigma"):
            WeakParams(g=1.0, sigma=sigma)
    WeakParams(g=1.0, sigma=1.0)


def test_weak_measure_norm_and_validation():
    reg = spin_register()
    state = superpose(reg, [(1.0, {"spin": "up", "tag": "t0"}), (1.0, {"spin": "down", "tag": "t0"})])
    params = WeakParams(g=1.0, sigma=2.0)
    joint = weak_measure(state, "spin", {"up": 1.0, "down": -1.0}, params)
    assert joint.norm_sq() == pytest.approx(1.0, abs=1e-9)
    # half-width 10*sigma + 5*|g|*max|eigenvalue|, 8 points per sigma
    assert (joint.n, joint.x_min, joint.x_max) == (4096, -25.0, 25.0)
    with pytest.raises(ParameterError):
        weak_measure(state, "spin", {"up": 1.0}, params)  # missing eigenvalue
    for value in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="eigenvalue of label 'down' must be finite"):
            weak_measure(state, "spin", {"up": 1.0, "down": value}, params)
    # a key that is not a label of the subsystem, even next to a full observable
    with pytest.raises(ParameterError, match=r"observable names labels \['zz'\] that subsystem 'spin' does not"):
        weak_measure(state, "spin", {"up": 1.0, "down": -1.0, "zz": 50.0}, params)
    # a kick of 20 widths widens the grid instead of leaking off its edge
    far = weak_measure(state, "spin", {"up": 1.0, "down": -1.0}, WeakParams(g=40.0, sigma=2.0))
    assert far.norm_sq() == pytest.approx(1.0, abs=1e-9)
    assert all(abs(arr[0]) < 1e-12 and abs(arr[-1]) < 1e-12 for arr in far.pointers)
    # 8 points per sigma=0.01 over +-1500.1 would need more than 2**20 points
    with pytest.raises(ParameterError, match=str(2**20)):
        weak_measure(state, "spin", {"up": 1.0, "down": -1.0}, WeakParams(g=300.0, sigma=0.01))


def test_read_pointer_recovers_expectation_value():
    reg = spin_register()
    state = superpose(
        reg,
        [(math.sqrt(0.8), {"spin": "up", "tag": "t0"}), (math.sqrt(0.2), {"spin": "down", "tag": "t0"})],
        normalize=False,
    )
    params = WeakParams(g=1.0, sigma=2.0)
    joint = weak_measure(state, "spin", {"up": 1.0, "down": -1.0}, params)
    rng = np.random.default_rng(7)
    n = 4000
    readings = np.array([read_pointer(joint, rng)[0] for _ in range(n)])
    want = 0.8 - 0.2  # <A>
    se = math.sqrt(params.sigma**2 / 2 + params.g**2) / math.sqrt(n)
    assert abs(readings.mean() / params.g - want) < 4 * se
    # post state stays normalized
    _, post = read_pointer(joint, 5)
    assert abs(post.norm() - 1.0) < 1e-12


def test_read_pointer_seed_determinism():
    reg = spin_register()
    state = superpose(reg, [(1.0, {"spin": "up", "tag": "t0"}), (1.0, {"spin": "down", "tag": "t0"})])
    params = WeakParams(g=1.0, sigma=2.0)
    joint = weak_measure(state, "spin", {"up": 1.0, "down": -1.0}, params)
    r1, p1 = read_pointer(joint, 99)
    r2, p2 = read_pointer(joint, 99)
    assert r1 == r2
    assert fidelity(p1, p2) == pytest.approx(1.0, abs=1e-12)


def test_read_pointer_takes_an_int_seed_or_the_generator_it_makes():
    joint = balanced_joint()
    r1, p1 = read_pointer(joint, 7)
    r2, p2 = read_pointer(joint, np.random.default_rng(7))
    assert r1 == r2
    assert list(p1.amplitudes.items()) == list(p2.amplitudes.items())


def test_narrow_pointer_collapses_system():
    reg = spin_register()
    state = superpose(reg, [(1.0, {"spin": "up", "tag": "t0"}), (1.0, {"spin": "down", "tag": "t0"})])
    params = WeakParams(g=1.0, sigma=0.05)
    joint = weak_measure(state, "spin", {"up": 1.0, "down": -1.0}, params)
    rng = np.random.default_rng(13)
    for _ in range(20):
        _, post = read_pointer(joint, rng)
        top = max(born_probabilities(post, "spin").values())
        assert top > 0.999


def balanced_joint():
    reg = spin_register()
    state = superpose(reg, [(1.0, {"spin": "up", "tag": "t0"}), (1.0, {"spin": "down", "tag": "t0"})])
    params = WeakParams(g=1.0, sigma=2.0)
    return weak_measure(state, "spin", {"up": 1.0, "down": -1.0}, params)


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_pointer_readings_match_successive_read_pointer_calls(seed):
    joint = balanced_joint()
    k = 257
    one_by_one = np.random.default_rng(seed)
    singles = [read_pointer(joint, one_by_one)[0] for _ in range(k)]
    batched = np.random.default_rng(seed)
    readings = pointer_readings(joint, batched, k)
    assert readings.shape == (k,)
    assert readings.tolist() == singles
    assert batched.bit_generator.state == one_by_one.bit_generator.state


def test_read_pointer_draws_the_index_generator_choice_draws():
    # The cached cdf must reproduce Generator.choice(p=density/total) draw for
    # draw; if numpy ever changes choice, this fails instead of moving bytes.
    joint = balanced_joint()
    stack = joint.pointers
    density = np.sum(np.abs(stack) ** 2, axis=0) * joint.dx
    p = density / float(density.sum())
    ours = np.random.default_rng(11)
    theirs = np.random.default_rng(11)
    for _ in range(200):
        reading, _post = read_pointer(joint, ours)
        j = int(theirs.choice(joint.n, p=p))
        assert reading == joint.x_min + joint.dx * j
    assert ours.bit_generator.state == theirs.bit_generator.state


def spin_state(*terms):
    reg = new_register([("spin", ("up", "down"))])
    return superpose(reg, [(c, {"spin": label}) for c, label in terms])


@pytest.mark.parametrize("g", [0.5, 1.5, 50.0])
@pytest.mark.parametrize("sigma", [20.0, 5.0, 1.0])
def test_pointer_fidelities_match_read_pointer_then_fidelity(g, sigma):
    state = spin_state((1.0, "up"), (1.0, "down"))
    joint = weak_measure(state, "spin", {"up": 1.0, "down": 0.0}, WeakParams(g, sigma))
    references = (
        state,
        spin_state((0.6, "up"), (0.8 * cmath.exp(0.7j), "down")),
        spin_state((1.0, "up"),),  # smaller support than a post state
    )
    pruned = 0
    for seed, ref in enumerate(references):
        one_by_one = np.random.default_rng(seed)
        posts = [read_pointer(joint, one_by_one)[1] for _ in range(200)]
        batched = np.random.default_rng(seed)
        assert pointer_fidelities(joint, ref, batched, 200).tolist() == [fidelity(p, ref) for p in posts]
        assert batched.bit_generator.state == one_by_one.bit_generator.state
        pruned += sum(p.support() == 1 for p in posts)
    if (g, sigma) == (50.0, 1.0):
        assert pruned == 600  # every shot keeps one branch


def pointer_oracle_cases(seed: int, count: int = 120):
    """(joint, reference state, draw seed) triples for the scalar oracle.

    Joints carry 1-4 branches over two subsystems with complex amplitudes;
    references hold 1-4 keys in their own random order, so some lack a key
    of the joint and some are smaller than a post state. At g=50, sigma=1
    every shot prunes a whole spin branch.
    """
    rng = np.random.default_rng(seed)
    reg = spin_register()
    keys = [{"spin": s, "tag": t} for s in ("up", "down") for t in ("t0", "t1")]
    couplings = [(0.5, 20.0), (1.5, 5.0), (50.0, 1.0), (3.0, 1.0)]

    def random_state(size):
        return superpose(
            reg, [(complex(*rng.normal(size=2)), keys[i]) for i in rng.permutation(4)[:size]]
        )

    for case in range(count):
        state = random_state(1 + case % 4)
        g, sigma = couplings[case // 4 % 4]
        joint = weak_measure(state, "spin", {"up": 1.0, "down": 0.0}, WeakParams(g, sigma))
        yield joint, random_state(int(rng.integers(1, 5))), int(rng.integers(2**32))


def compare_pointer_batch_with_oracle(seed: int, shots: int = 30) -> collections.Counter:
    """Assert that pointer_fidelities and read_pointer give the scalar
    oracle's bits on every pointer_oracle_cases case; count what was covered."""
    seen = collections.Counter()
    for joint, ref, draw in pointer_oracle_cases(seed):
        ours, theirs = np.random.default_rng(draw), np.random.default_rng(draw)
        got = pointer_fidelities(joint, ref, ours, shots).tolist()
        assert got == oracles.reference_pointer_fidelities(joint, ref, theirs, shots)
        assert ours.bit_generator.state == theirs.bit_generator.state
        for _ in range(3):
            reading, post = read_pointer(joint, ours)
            want_reading, want = oracles.reference_read_pointer(joint, theirs)
            assert reading == want_reading
            assert repr(post.amplitudes) == repr(want.amplitudes)
            common = [k for k in post.amplitudes if k in ref.amplitudes]
            seen["pruned"] += post.support() < len(joint.keys)
            seen["ref lacks a key"] += len(common) < post.support()
            seen["ref smaller, other order"] += (
                post.support() > ref.support() and common != [k for k in ref.amplitudes if k in common]
            )
        assert ours.bit_generator.state == theirs.bit_generator.state
        seen["shots"] += shots + 3
    return seen


def test_pointer_batch_matches_the_scalar_oracle_bit_for_bit():
    seen = compare_pointer_batch_with_oracle(5)
    assert seen["shots"] >= 3000
    assert min(seen.values()) > 0, seen


def test_pointer_batch_adds_many_branches_in_order_for_one_shot():
    # With eight or more rows, a sum over axis 0 of one shot's column adds
    # pairwise; the batch must still add top to bottom, as the oracle does.
    reg = new_register([("spin", ("up", "down")), ("tag", tuple(f"t{i}" for i in range(12)))])
    rng = np.random.default_rng(3)
    terms = [(complex(*rng.normal(size=2)), {"spin": s, "tag": f"t{i}"}) for s in ("up", "down") for i in range(12)]
    state = superpose(reg, [terms[i] for i in rng.permutation(24)])
    ref = superpose(reg, [terms[i] for i in rng.permutation(24)[:15]])
    joint = weak_measure(state, "spin", {"up": 1.0, "down": -1.0}, WeakParams(0.7, 2.0))
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        reading, post = read_pointer(joint, ours)
        want_reading, want = oracles.reference_read_pointer(joint, theirs)
        assert reading == want_reading and repr(post.amplitudes) == repr(want.amplitudes)
        assert pointer_fidelities(joint, ref, ours, 1).tolist() == oracles.reference_pointer_fidelities(joint, ref, theirs, 1)


def test_pointer_batch_matches_the_scalar_oracle_at_numpy_baseline_simd():
    # The batch's bit identity rests on which numpy ops round like CPython's
    # scalar ones, and numpy picks its loops by CPU.
    out = numpy_baseline.run_at_baseline(
        """
        import test_measure
        print(test_measure.compare_pointer_batch_with_oracle(5)["shots"])
        """
    )
    assert int(out.split()[-1]) >= 3000


def check_pointer_batch_identities(seed: int) -> collections.Counter:
    """Assert the three numpy identities the pointer readout rests on; count
    the values compared.

    - np.float_power(x, 2.0) is Python's v ** 2, both libm pow, over
      magnitudes from subnormals up to 1e150 (squares from 0 up to 1e300);
    - measure._draw_indices is cdf.searchsorted(u, side="right"), with u
      on cdf entries (plateaus included), repeated u and 0, 1 or 200 000 u;
    - np.cumsum(x)[-1] is fold_sum(x.tolist()): both add left to right.
      They differ only when x starts with -0.0 (int 0 + -0.0 is 0.0), which
      no grid reading is.
    """
    from ketsim.measure import _draw_indices

    rng = np.random.default_rng(seed)
    seen = collections.Counter()
    x = np.ldexp(rng.uniform(1.0, 2.0, 1_200_000), rng.integers(-1074, 498, 1_200_000))
    x[rng.random(x.size) < 0.5] *= -1.0
    x[:3] = (0.0, -0.0, 5e-324)
    assert np.abs(x).max() < 1e150
    want = np.array([v ** 2 for v in x.tolist()])
    assert np.float_power(x, 2.0).tobytes() == want.tobytes()
    seen["squares"] += x.size
    seen["subnormal inputs"] += int(np.count_nonzero((x != 0) & (np.abs(x) < 2.2250738585072014e-308)))

    joint = balanced_joint()
    cdf = np.cumsum(sum(np.abs(row) ** 2 for row in joint.pointers))
    cdf /= cdf[-1]
    assert cdf[-2] == cdf[-1] == 1.0  # the right tail is a plateau
    # Half the u are fresh; the rest repeat a pool of cdf entries and others.
    pool = np.concatenate([cdf[rng.integers(cdf.size, size=64)], rng.random(64), [0.0]])
    for shots in (0, 1, 200_000):
        u = np.where(rng.random(shots) < 0.5, rng.random(shots), pool[rng.integers(pool.size, size=shots)])
        js = _draw_indices(cdf, u)
        want_js = cdf.searchsorted(u, side="right")
        assert js.dtype == want_js.dtype and np.array_equal(js, want_js)
        seen["draws"] += shots
        seen["draws on a cdf entry"] += int(np.isin(u, cdf).sum())
        seen["repeated draws"] += shots - np.unique(u).size

    for _ in range(3000):
        x = rng.normal(size=int(rng.integers(1, 400))) * 10.0 ** rng.uniform(-3, 3)
        assert np.cumsum(x)[-1].tobytes() == np.float64(fold_sum(x.tolist())).tobytes()
        seen["sums"] += 1
    readings = pointer_readings(balanced_joint(), seed, 10_000)
    assert np.cumsum(readings)[-1] == fold_sum(readings.tolist())
    seen["sums"] += 1
    return seen


def test_pointer_batch_identities_hold():
    seen = check_pointer_batch_identities(3)
    assert seen["squares"] >= 1_000_000 and seen["draws"] == 200_001 and seen["sums"] == 3001
    assert min(seen.values()) > 0, seen


def test_pointer_batch_identities_hold_at_numpy_baseline_simd():
    out = numpy_baseline.run_at_baseline(
        """
        import test_measure
        print(test_measure.check_pointer_batch_identities(3)["squares"])
        """
    )
    assert int(out.split()[-1]) >= 1_000_000


def test_pointer_batch_refuses_the_first_underflowing_shot_as_the_oracle_does():
    # Amplitudes at the prune tolerance on a very coarse grid: the sampler has
    # weight, yet every position but index 1 keeps no branch.
    reg = spin_register()
    key = (reg.label_index("spin", "up"), reg.label_index("tag", "t0"))
    arr = np.array([1e-15, 2e-15, 1e-15, 1e-15], dtype=complex)
    joint = WeakJointState(reg, 4, -1e20, 1e20, (key,), arr[None, :])
    ref = superpose(reg, [(1.0, {"spin": "up", "tag": "t0"})])
    later = 0
    for seed in range(20):
        with pytest.raises(ImpossibleOutcomeError, match=r"^pointer reading -?\d.* has Born weight 0;") as ours:
            pointer_fidelities(joint, ref, seed, 6)
        with pytest.raises(ImpossibleOutcomeError) as theirs:
            oracles.reference_pointer_fidelities(joint, ref, seed, 6)
        assert str(ours.value) == str(theirs.value)
        later += pointer_readings(joint, seed, 1)[0] == grid_xs(4, -1e20, 1e20)[1]
    assert later > 0  # some refused shot was not the first one


def test_weak_joint_arrays_match_out_of_place_formulas(monkeypatch):
    # weak_measure and the draw run in place to save n-point arrays; the
    # out-of-place expressions they replace must give the same bits.
    reg = spin_register()
    state = superpose(
        reg,
        [
            (0.6, {"spin": "up", "tag": "t0"}),
            (0.3 + 0.4j, {"spin": "up", "tag": "t1"}),
            (0.8 * cmath.exp(0.7j), {"spin": "down", "tag": "t0"}),
        ],
    )
    params = WeakParams(g=1.5, sigma=2.0)
    joint = weak_measure(state, "spin", {"up": 1.0, "down": -1.0}, params)
    for key, amp in state.amplitudes.items():
        center = params.g if key[0] == 0 else -params.g
        packet = gaussian_packet(joint.n, joint.x_min, joint.x_max, center, params.sigma)
        assert np.array_equal(joint.pointers[joint.keys.index(key)].view(float), (amp * packet.amplitudes).view(float))
    cdfs = []
    draw_indices = measure._draw_indices

    def keep_cdf(cdf, u):
        cdfs.append(cdf.copy())
        return draw_indices(cdf, u)

    monkeypatch.setattr(measure, "_draw_indices", keep_cdf)
    js, readings = measure._draw(joint, 0, 8)
    cdf = np.cumsum(sum(np.abs(arr) ** 2 for arr in joint.pointers))
    cdf /= cdf[-1]
    assert len(cdfs) == 1 and np.array_equal(cdfs[0], cdf)
    assert np.array_equal(js, cdf.searchsorted(np.random.default_rng(0).random(8), side="right"))
    assert np.array_equal(readings, grid_xs(joint.n, joint.x_min, joint.x_max)[js])
    # Dividing the density by its weight before the cumsum as well rounds the
    # cdf differently, but must not move a drawn index.
    density = sum(np.abs(arr) ** 2 for arr in joint.pointers) * joint.dx
    twice = (density / float(density.sum())).cumsum()
    twice /= twice[-1]
    u = np.random.default_rng(1).random(1_000_000)
    assert np.array_equal(cdf.searchsorted(u, side="right"), twice.searchsorted(u, side="right"))


def test_zero_weight_joint_raises_on_every_call():
    reg = spin_register()
    key = (reg.label_index("spin", "up"), reg.label_index("tag", "t0"))
    joint = WeakJointState(reg, 4096, -40.0, 40.0, (key,), np.zeros((1, 4096), dtype=complex))
    for _ in range(2):
        with pytest.raises(ImpossibleOutcomeError):
            read_pointer(joint, 0)
        with pytest.raises(ImpossibleOutcomeError):
            pointer_readings(joint, 0, 10)
        with pytest.raises(ImpossibleOutcomeError):
            pointer_fidelities(joint, superpose(reg, [(1.0, {"spin": "up", "tag": "t0"})]), 0, 10)


def test_a_readout_leaves_the_joint_as_it_found_it():
    # A joint is a plain value: no readout caches anything on it.
    joint = balanced_joint()
    ref = superpose(joint.register, [(1.0, {"spin": "up", "tag": "t0"})])
    before, block = dict(vars(joint)), joint.pointers.tobytes()
    for readout in (
        lambda: read_pointer(joint, 0),
        lambda: pointer_readings(joint, 0, 10),
        lambda: pointer_fidelities(joint, ref, 0, 10),
    ):
        readout()
        assert vars(joint).keys() == before.keys()
        assert all(vars(joint)[name] is value for name, value in before.items())
        assert joint.pointers.tobytes() == block


def test_weak_joint_refuses_a_block_of_the_wrong_shape():
    reg = spin_register()
    keys = ((0, 0), (1, 0))
    for shape in ((2, 3), (1, 4), (3, 4), (8,)):
        want = f"pointer block has shape {shape}, not (2, 4)"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            WeakJointState(reg, 4, -1.0, 1.0, keys, np.ones(shape, dtype=complex))
    WeakJointState(reg, 4, -1.0, 1.0, keys, np.ones((2, 4), dtype=complex))


def test_sampler_adds_the_rows_one_at_a_time():
    # A density of the whole block at once would hold K n-point arrays; the
    # row loop holds the running density and one row's density.
    n = 4096
    reg = spin_register()
    keys = ((0, 0), (0, 1), (1, 0), (1, 1))
    block = np.full((len(keys), n), 0.5 + 0.5j)
    grid_xs(n, -1.0, 1.0)  # the shared position grid is cached, not counted
    joint = WeakJointState(reg, n, -1.0, 1.0, keys, block)
    tracemalloc.start()
    try:
        measure._draw(joint, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n


def test_refusal_names_the_outcome_verbatim():
    # the outcome is never %-formatted, so a '%' in it stays as it is
    with pytest.raises(ImpossibleOutcomeError, match=r"^partial outcome '50%' has"):
        conditioning_scale(0.0, "partial outcome '50%'")
