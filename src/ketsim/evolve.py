"""Unitary evolution on labeled registers, with an invertible operation log.

Every operation here acts as an exact unitary on the joint basis (splitters,
in-place rotations, basis changes between label pairs, conditional label
permutations, conditional phases). Operations optionally append their
inverse to an OpLog, a plain list of the calls that undo them; time_reverse
makes those calls in reverse order, so round trips are exact rather than
numerically approximate. Nothing here reads a probability: a readout that
runs a state through an operation first, such as recombine_probability,
lives in measure.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

from .register import Register, StateVector, matches, prune

Matrix2 = Sequence[Sequence[complex]]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


# One scenario run's operations, in order: each entry is (inverse, args), and
# inverse(state, *args) undoes the logged operation. args hold their own
# copies of the caller's pairs and maps. OpLog() builds an empty log.
OpLog = list[tuple[Callable, tuple]]


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


def _columns_plan(reg: Register, subsystem: str, labels: tuple, matrix: tuple) -> tuple:
    """Plan of a unitary on distinct labels of one subsystem: (subsystem
    index, label columns).

    The memo keys this plan by the matrix's value. Matrices equal as values
    differ at most in the sign of a zero part, and no such sign reaches a
    state: zero coefficients are dropped, and every output amplitude is a sum
    that starts from +0j, which a signed-zero product leaves as it is.
    """
    si = reg.index(subsystem)
    idx = tuple(reg.label_index(subsystem, lab) for lab in labels)
    if len(set(idx)) != len(idx):
        raise ValueError(f"labels {labels} of subsystem {subsystem!r} must be distinct")
    n = len(idx)
    # U†U = I within 1e-10, written so that a NaN entry fails too
    for i in range(n):
        for j in range(n):
            acc = sum(matrix[k][i].conjugate() * matrix[k][j] for k in range(n))
            if not abs(acc - (i == j)) <= 1e-10:
                raise ValueError(f"matrix {matrix} is not unitary within 1e-10")
    return si, _label_columns(idx, matrix)


_SPLITTER = (
    (0.0, _INV_SQRT2, _INV_SQRT2),
    (_INV_SQRT2, 0.5, -0.5),
    (_INV_SQRT2, -0.5, 0.5),
)


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
    l1, l2 = out_pair
    si, columns = state.register.plan((_columns_plan, subsystem, (source_label, l1, l2), _SPLITTER))
    out = _apply_columns(state, si, columns)
    if log is not None:
        log.append((apply_split, (subsystem, source_label, (l1, l2))))  # self-inverse
    return out


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
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    la, lb = pair
    c, s = math.cos(alpha), math.sin(alpha)
    si, columns = state.register.plan((_columns_plan, subsystem, (la, lb), ((c, -s), (s, c))))
    out = _apply_columns(state, si, columns)
    if log is not None:
        log.append((apply_rotation, (subsystem, (la, lb), -alpha)))
    return out


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
    rows = [len(row) for row in u]
    if rows != [2, 2]:
        raise ValueError(f"u must be a 2x2 matrix, got rows of lengths {rows}")
    (p, q), (r, t) = m = ((complex(u[0][0]), complex(u[0][1])), (complex(u[1][0]), complex(u[1][1])))
    a1, a2 = pair
    if out_pair is None:
        labels, matrix = (a1, a2), m
    else:
        b1, b2 = out_pair
        z = 0j
        labels, matrix = (a1, a2, b1, b2), ((z, z, p, q), (z, z, r, t), (p, q, z, z), (r, t, z, z))
    si, columns = state.register.plan((_columns_plan, subsystem, labels, matrix))
    out = _apply_columns(state, si, columns)
    if log is not None:
        dagger = ((p.conjugate(), r.conjugate()), (q.conjugate(), t.conjugate()))
        log.append((apply_basis_change, (subsystem, dagger, tuple(pair), out_pair and tuple(out_pair))))
    return out


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
    is built. An empty mapping is the identity, logged like any other.
    """
    reg = state.register
    cond_items = reg.partial_items(condition)
    names = set(mapping[0][0]) if mapping else set()
    for frm, to in mapping:
        if set(frm) != names:
            raise ValueError("all mapping entries must address the same subsystems")
        if set(to) != names:
            raise ValueError("from/to assignments must address the same subsystems")
    if names & set(condition):
        raise ValueError("condition keys must be disjoint from mapping keys")

    # from-pattern items (sorted, so key order cannot hide a repeat) -> to items
    pairs: dict[tuple, tuple] = {}
    for frm, to in mapping:
        fi = reg.partial_items(frm)
        ti = reg.partial_items(to)
        fkey = tuple(sorted(fi))
        if fkey in pairs:
            raise ValueError("duplicate from-assignment in mapping")
        pairs[fkey] = ti

    moves: dict[tuple[int, ...], tuple[int, ...]] = {}
    for key in state.amplitudes:
        if not matches(key, cond_items):
            continue
        for fi, ti in pairs.items():
            if matches(key, fi):
                nk = list(key)
                for si, li in ti:
                    nk[si] = li
                moves[key] = tuple(nk)
                break

    if len(set(moves.values())) != len(moves):
        raise ValueError("mapping is not a permutation: two branches collide on one target")
    for t in moves.values():
        if t not in moves and t in state.amplitudes:
            raise ValueError(
                "mapping is not a permutation: target "
                f"{reg.assignment(t)} is already populated and is not itself relabeled"
            )

    new_amps = {k: a for k, a in state.amplitudes.items() if k not in moves}
    for src, dst in moves.items():
        new_amps[dst] = state.amplitudes[src]
    if log is not None:
        # the inverse keeps the condition and flips the pairs
        log.append((controlled_relabel, (dict(condition), [(dict(to), dict(frm)) for frm, to in mapping])))
    return StateVector(reg, new_amps)


def controlled_phase(
    state: StateVector,
    condition: Mapping[str, str],
    phi: float,
    log: OpLog | None = None,
) -> StateVector:
    """Multiply every branch matching the partial assignment by exp(i*phi)."""
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    reg = state.register
    cond_items = reg.partial_items(condition)
    phase = complex(math.cos(phi), math.sin(phi))
    new_amps = {
        k: (a * phase if matches(k, cond_items) else a) for k, a in state.amplitudes.items()
    }
    if log is not None:
        log.append((controlled_phase, (dict(condition), -phi)))
    return StateVector(reg, new_amps)


def time_reverse(state: StateVector, log: OpLog) -> StateVector:
    """Make every logged inverse call, last operation first.

    The inverses were logged with their parameters, not found by matrix
    inversion, so the round trip is exact: the splitter is its own inverse,
    rotations flip the angle, basis changes use u†, relabelings flip their
    pairs, phases flip sign.
    """
    out = state
    for inverse, args in reversed(log):
        out = inverse(out, *args)
    return out

