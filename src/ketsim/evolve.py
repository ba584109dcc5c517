"""Unitary evolution on labeled registers, with an invertible operation log.

Every operation here acts as an exact unitary on the joint basis (splitters,
in-place rotations, basis changes between label pairs, conditional label
permutations, conditional phases). Operations optionally append their
inverse to an OpLog, as the call that undoes them; time_reverse makes those
calls in reverse order, so round trips are exact rather than numerically
approximate.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Mapping, Sequence

from .register import Register, StateVector, fold_sum, matches, prune

Matrix2 = Sequence[Sequence[complex]]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class OpLog:
    """Append-only record of operations applied during one scenario run.

    Each entry is (inverse, args): inverse(state, *args) undoes the logged
    operation. args hold their own copies of the caller's pairs and maps.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[Callable, tuple]] = []

    def record(self, inverse: Callable, args: tuple) -> None:
        self._entries.append((inverse, args))

    @property
    def entries(self) -> tuple[tuple[Callable, tuple], ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def _label_columns(label_indices: Sequence[int], matrix: Sequence[Sequence[complex]]) -> dict:
    """Each input label's column: ((output label,), coefficient) pairs, zeros
    dropped, in row order, so sums add in the same order as a row-by-row walk."""
    return {
        li: tuple(((lj,), matrix[j][p]) for j, lj in enumerate(label_indices) if matrix[j][p] != 0)
        for p, li in enumerate(label_indices)
    }


def _apply_columns(state: StateVector, sub_index: int, columns: dict) -> StateVector:
    """Apply label columns to one subsystem; other labels pass through."""
    new_amps: dict[tuple[int, ...], complex] = {}
    get = new_amps.get
    for key, amp in state.amplitudes.items():
        column = columns.get(key[sub_index])
        if column is None:
            # no column output carries this label, so nothing else lands here
            new_amps[key] = 0j + amp
            continue
        head = key[:sub_index]
        tail = key[sub_index + 1 :]
        for lj, c in column:
            nk = head + lj + tail
            new_amps[nk] = get(nk, 0j) + c * amp
    return StateVector(state.register, prune(new_amps))


def _complex_2x2(u: Matrix2) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    return ((complex(u[0][0]), complex(u[0][1])), (complex(u[1][0]), complex(u[1][1])))


def _check_unitary_2x2(u: Matrix2) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    m = _complex_2x2(u)
    # U†U = I within 1e-10
    for i in range(2):
        for j in range(2):
            acc = m[0][i].conjugate() * m[0][j] + m[1][i].conjugate() * m[1][j]
            want = 1.0 if i == j else 0.0
            if abs(acc - want) > 1e-10:
                raise ValueError("matrix is not unitary within 1e-10")
    return m


# A 2x2 complex matrix as its eight float parts, row by row: a plan key that
# tells signed zeros apart, which equal complex values do not.
_MATRIX_BITS = struct.Struct("<8d")


def _matrix_bits(m) -> bytes:
    (a, b), (c, d) = m
    return _MATRIX_BITS.pack(a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag)


def _matrix_from_bits(bits: bytes) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    ar, ai, br, bi, cr, ci, dr, di = _MATRIX_BITS.unpack(bits)
    return ((complex(ar, ai), complex(br, bi)), (complex(cr, ci), complex(dr, di)))


_SPLITTER = (
    (0.0, _INV_SQRT2, _INV_SQRT2),
    (_INV_SQRT2, 0.5, -0.5),
    (_INV_SQRT2, -0.5, 0.5),
)


def _split_plan(reg: Register, subsystem: str, source_label: str, out_pair) -> tuple:
    si = reg.index(subsystem)
    l1, l2 = out_pair
    idx = (
        reg.label_index(subsystem, source_label),
        reg.label_index(subsystem, l1),
        reg.label_index(subsystem, l2),
    )
    if len(set(idx)) != 3:
        raise ValueError("source label and arm pair must be three distinct labels")
    return si, _label_columns(idx, _SPLITTER)


def apply_split(
    state: StateVector,
    subsystem: str,
    source_label: str,
    out_pair: tuple[str, str],
    log: OpLog | None = None,
) -> StateVector:
    """Symmetric 50/50 splitter between a source port and an arm pair.

    Forward pass: |source> -> (|l1> + |l2>)/sqrt2. Return pass: the symmetric
    arm combination exits back through the source port, |l1> -> |source>/sqrt2
    + (|l1>-|l2>)/2 and |l2> -> |source>/sqrt2 - (|l1>-|l2>)/2, i.e. the
    antisymmetric combination plays the second exit port and stays in the
    arms. The map is real, symmetric and self-inverse, so applying it twice
    is the identity.
    """
    si, columns = state.register.plan((_split_plan, subsystem, source_label, out_pair))
    out = _apply_columns(state, si, columns)
    if log is not None:
        l1, l2 = out_pair
        log.record(apply_split, (subsystem, source_label, (l1, l2)))  # self-inverse
    return out


def _rotation_plan(reg: Register, subsystem: str, pair, alpha) -> tuple:
    si = reg.index(subsystem)
    la, lb = pair
    idx = (reg.label_index(subsystem, la), reg.label_index(subsystem, lb))
    if idx[0] == idx[1]:
        raise ValueError("rotation pair must be two distinct labels")
    # Equal angles give equal cos and sin, up to the sign of a zero sine,
    # and zero coefficients are dropped from the columns.
    c, s = math.cos(alpha), math.sin(alpha)
    return si, _label_columns(idx, ((c, -s), (s, c)))


def apply_rotation(
    state: StateVector,
    subsystem: str,
    pair: tuple[str, str],
    alpha: float,
    log: OpLog | None = None,
) -> StateVector:
    """In-place rotation on a label pair.

    |la> -> cos(a)|la> + sin(a)|lb>, |lb> -> -sin(a)|la> + cos(a)|lb>.
    n applications compose to a single rotation by n*a.
    """
    si, columns = state.register.plan((_rotation_plan, subsystem, pair, alpha))
    out = _apply_columns(state, si, columns)
    if log is not None:
        la, lb = pair
        log.record(apply_rotation, (subsystem, (la, lb), -alpha))
    return out


def _basis_plan(reg: Register, subsystem: str, bits: bytes, pair, out_pair) -> tuple:
    si = reg.index(subsystem)
    m = _check_unitary_2x2(_matrix_from_bits(bits))
    a1, a2 = pair
    ia = (reg.label_index(subsystem, a1), reg.label_index(subsystem, a2))
    if ia[0] == ia[1]:
        raise ValueError("basis pair must be two distinct labels")
    if out_pair is None:
        return si, _label_columns(ia, m)
    b1, b2 = out_pair
    ib = (reg.label_index(subsystem, b1), reg.label_index(subsystem, b2))
    allidx = ia + ib
    if len(set(allidx)) != 4:
        raise ValueError("pair and out_pair must be four distinct labels")
    z = 0j
    block = (
        (z, z, m[0][0], m[0][1]),
        (z, z, m[1][0], m[1][1]),
        (m[0][0], m[0][1], z, z),
        (m[1][0], m[1][1], z, z),
    )
    return si, _label_columns(allidx, block)


def apply_basis_change(
    state: StateVector,
    subsystem: str,
    u: Matrix2,
    pair: tuple[str, str],
    out_pair: tuple[str, str] | None = None,
    log: OpLog | None = None,
) -> StateVector:
    """2x2 unitary between label bases of one subsystem.

    Without out_pair the matrix acts in place on `pair`. With out_pair the
    subsystem carries two alternative bases as separate labels (spin Z+/Z-
    versus X+/X-) and the map sends |pair_i> -> sum_j u[j][i] |out_pair_j>
    while moving any out_pair amplitude back onto `pair` through the same
    matrix. Both forms are exactly unitary; the inverse is u† on the same
    pairs.
    """
    m = _complex_2x2(u)
    si, columns = state.register.plan((_basis_plan, subsystem, _matrix_bits(m), pair, out_pair))
    out = _apply_columns(state, si, columns)
    if log is not None:
        log.record(apply_basis_change, (subsystem, _dagger(m), tuple(pair), out_pair and tuple(out_pair)))
    return out


def _dagger(m: Matrix2) -> tuple:
    return (
        (complex(m[0][0]).conjugate(), complex(m[1][0]).conjugate()),
        (complex(m[0][1]).conjugate(), complex(m[1][1]).conjugate()),
    )


def controlled_relabel(
    state: StateVector,
    condition: Mapping[str, str],
    mapping: Sequence[tuple[Mapping[str, str], Mapping[str, str]]],
    log: OpLog | None = None,
) -> StateVector:
    """Permute joint basis labels on every branch matching `condition`.

    Each mapping entry is (from-assignment, to-assignment) over one common set
    of subsystems; from-patterns must be pairwise distinct, and condition keys
    must not overlap mapping keys (this keeps the inverse exact: flip the
    pairs, keep the condition). The induced map must extend to a permutation
    of the joint basis: on the populated support, every target key must be
    either another source or unpopulated. Violations raise before any state
    is built. An empty mapping is the identity.
    """
    reg = state.register
    cond_items = reg.partial_items(condition)
    if not mapping:
        if log is not None:
            log.record(controlled_relabel, (dict(condition), []))
        return StateVector(reg, dict(state.amplitudes))

    keysets = {frozenset(frm) for frm, _ in mapping}
    if len(keysets) != 1:
        raise ValueError("all mapping entries must address the same subsystems")
    for frm, to in mapping:
        if set(frm) != set(to):
            raise ValueError("from/to assignments must address the same subsystems")
    if set(condition) & set(mapping[0][0]):
        raise ValueError("condition keys must be disjoint from mapping keys")

    pairs = []
    seen_from = set()
    for frm, to in mapping:
        fi = reg.partial_items(frm)
        ti = reg.partial_items(to)
        fkey = tuple(sorted(fi))
        if fkey in seen_from:
            raise ValueError("duplicate from-assignment in mapping")
        seen_from.add(fkey)
        pairs.append((fi, ti))

    moves: dict[tuple[int, ...], tuple[int, ...]] = {}
    for key, _ in state.amplitudes.items():
        if not matches(key, cond_items):
            continue
        hit = None
        for fi, ti in pairs:
            if matches(key, fi):
                hit = ti
                break
        if hit is None:
            continue
        nk = list(key)
        for si, li in hit:
            nk[si] = li
        moves[key] = tuple(nk)

    sources = set(moves)
    targets = list(moves.values())
    if len(set(targets)) != len(targets):
        raise ValueError("mapping is not a permutation: two branches collide on one target")
    for t in targets:
        if t not in sources and t in state.amplitudes:
            raise ValueError(
                "mapping is not a permutation: target "
                f"{reg.assignment(t)} is already populated and is not itself relabeled"
            )

    new_amps = {k: a for k, a in state.amplitudes.items() if k not in sources}
    for src, dst in moves.items():
        new_amps[dst] = state.amplitudes[src]
    if log is not None:
        # the inverse keeps the condition and flips the pairs
        log.record(controlled_relabel, (dict(condition), [(dict(to), dict(frm)) for frm, to in mapping]))
    return StateVector(reg, new_amps)


def controlled_phase(
    state: StateVector,
    condition: Mapping[str, str],
    phi: float,
    log: OpLog | None = None,
) -> StateVector:
    """Multiply every branch matching the partial assignment by exp(i*phi)."""
    reg = state.register
    cond_items = reg.partial_items(condition)
    phase = complex(math.cos(phi), math.sin(phi))
    new_amps = {
        k: (a * phase if matches(k, cond_items) else a) for k, a in state.amplitudes.items()
    }
    if log is not None:
        log.record(controlled_phase, (dict(condition), -phi))
    return StateVector(reg, new_amps)


def time_reverse(state: StateVector, log: OpLog) -> StateVector:
    """Make every logged inverse call, last operation first.

    The inverses were logged with their parameters, not found by matrix
    inversion, so the round trip is exact: the splitter is its own inverse,
    rotations flip the angle, basis changes use u†, relabelings flip their
    pairs, phases flip sign.
    """
    out = state
    for inverse, args in reversed(log.entries):
        out = inverse(out, *args)
    return out


def recombine_probability(
    state: StateVector,
    subsystem: str,
    pair: tuple[str, str],
    source_label: str,
) -> float:
    """Probability of finding the subsystem back at its source after the
    inverse split, without mutating the state.

    Feeds the arm pair through the splitter's return pass and reads the Born
    weight of the source exit port: per spectator branch this is
    |a_l1 + a_l2|^2 / 2. Apply it to pre-recombination states; amplitude
    already sitting on the source label re-splits into the arms and
    contributes nothing to the source port.
    """
    after = apply_split(state, subsystem, source_label, pair)
    si = state.register.index(subsystem)
    isrc = state.register.label_index(subsystem, source_label)
    return float(fold_sum(abs(a) ** 2 for k, a in after.amplitudes.items() if k[si] == isrc))
