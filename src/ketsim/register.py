"""Labeled quantum registers and sparse state vectors.

A register is an ordered collection of named subsystems, each spanned by a
small set of string-labeled basis states (paths, spin directions, detector
readouts, bookkeeping flags). A pure state over a register is stored sparsely
as a map from joint label assignments to complex amplitudes; assignments that
never appear carry amplitude zero.

Joint basis keys are tuples of per-subsystem label indices. The canonical
enumeration order is lexicographic over those tuples, so the first subsystem
varies slowest.

StateVector instances are treated as immutable values: every operation in
this package returns a fresh state and never mutates its input. Sharing a
state between concurrent readers is therefore safe by construction.

Plan memo: each Register keeps one memo of operation plans. A plan is what
an operation works out from its non-state arguments alone: resolved
subsystem and label indices, a partial or full assignment's keys, a
matrix's unitarity verdict and its label columns. `Register.plan` builds it
with a pure function of the register and those arguments and stores it
under them, so a repeated call does only the work that reads the state.
A plan hit gives the bits of a fresh build for every input the API takes.
A matrix is keyed by its value: matrices equal as values differ at most in
the sign of a zero part, and no such sign reaches a state, because zero
coefficients are dropped and every output amplitude is a sum that starts
from +0j. A build that raises stores nothing, so an invalid argument raises
on every call. Checks that read the state (a relabel's permutation check, a
readout's probability floor and norm check) run on every call. The memo
holds at most PLAN_MEMO_SIZE plans. It caches pure values only: threads that
share a register may build one plan more than once, and every copy is equal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

NORM_TOL = 1e-10
# Amplitudes below this magnitude are dropped from the sparse map. Well below
# every tolerance used by callers (tightest check tolerance is 1e-12).
PRUNE_TOL = 1e-15
# A register's plan memo is emptied when it reaches this many plans, so a
# caller that sweeps an angle on one register keeps its memory bounded.
PLAN_MEMO_SIZE = 4096


@dataclass(frozen=True)
class SubsystemSpec:
    """One named subsystem with at least two distinct basis labels."""

    name: str
    labels: tuple[str, ...]

    def __init__(self, name: str, labels: Sequence[str]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "labels", tuple(labels))
        if not isinstance(name, str) or not name:
            raise ValueError("subsystem name must be a non-empty string")
        if len(self.labels) < 2:
            raise ValueError(
                f"subsystem {name!r} needs at least two labels, got {len(self.labels)}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"subsystem {name!r} has duplicate labels")
        for lab in self.labels:
            if not isinstance(lab, str) or not lab:
                raise ValueError(f"subsystem {name!r} has a non-string or empty label")

    @property
    def dim(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Register:
    """Ordered, uniquely named subsystems defining a joint basis."""

    subsystems: tuple[SubsystemSpec, ...]

    def __init__(self, subsystems: Sequence[SubsystemSpec]):
        object.__setattr__(self, "subsystems", tuple(subsystems))
        if not self.subsystems:
            raise ValueError("register needs at least one subsystem")
        names = [s.name for s in self.subsystems]
        if len(set(names)) != len(names):
            raise ValueError("subsystem names must be unique")
        object.__setattr__(self, "_index", {s.name: i for i, s in enumerate(self.subsystems)})
        object.__setattr__(
            self, "_label_index", tuple({lab: i for i, lab in enumerate(s.labels)} for s in self.subsystems)
        )
        # The plan memo (module docstring); never part of equality or repr.
        object.__setattr__(self, "_plans", {})

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.subsystems)

    @property
    def dim(self) -> int:
        d = 1
        for s in self.subsystems:
            d *= s.dim
        return d

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):
            raise ValueError(f"unknown subsystem {name!r}") from None

    def spec(self, name: str) -> SubsystemSpec:
        return self.subsystems[self.index(name)]

    def label_index(self, name: str, label: str) -> int:
        si = self.index(name)
        try:
            return self._label_index[si][label]
        except (KeyError, TypeError):
            raise ValueError(f"subsystem {name!r} has no label {label!r}") from None

    def key(self, assignment: Mapping[str, str]) -> tuple[int, ...]:
        """Full assignment (every subsystem) -> joint basis key."""
        return self.plan((_full_key, tuple(assignment.items())))

    def partial_items(self, assignment: Mapping[str, str]) -> tuple[tuple[int, int], ...]:
        """Partial assignment -> ((subsystem index, label index), ...), in the
        assignment's order."""
        return self.plan((_resolve, tuple(assignment.items())))

    def plan(self, key: tuple):
        """build(self, *args) for key = (build, *args), memoized on this
        register under the key.

        `build` must depend on nothing but the register and `args`. A build
        that raises stores nothing, and a key that cannot be hashed is built
        and not stored.
        """
        plans = self._plans
        try:
            found = plans.get(key)
        except TypeError:
            return key[0](self, *key[1:])
        if found is None:
            if len(plans) >= PLAN_MEMO_SIZE:
                plans.clear()
            found = plans[key] = key[0](self, *key[1:])
        return found

    def assignment(self, key: Sequence[int]) -> dict[str, str]:
        return {s.name: s.labels[key[i]] for i, s in enumerate(self.subsystems)}

    def keys(self) -> Iterator[tuple[int, ...]]:
        """All joint basis keys in canonical order (first subsystem slowest)."""
        return itertools.product(*(range(s.dim) for s in self.subsystems))


def _resolve(reg: Register, items: tuple) -> tuple[tuple[int, int], ...]:
    """((name, label), ...) -> ((subsystem index, label index), ...)."""
    return tuple((reg.index(n), reg.label_index(n, lab)) for n, lab in items)


def _full_key(reg: Register, items: tuple) -> tuple[int, ...]:
    """((name, label), ...) covering every subsystem -> joint basis key."""
    assignment = dict(items)
    if assignment.keys() != set(reg.names):
        missing = set(reg.names) - set(assignment)
        extra = set(assignment) - set(reg.names)
        raise ValueError(
            f"assignment must cover every subsystem exactly; missing={sorted(missing)} unknown={sorted(extra)}"
        )
    return tuple(reg.label_index(n, assignment[n]) for n in reg.names)


def new_register(specs: Iterable[tuple[str, Sequence[str]]]) -> Register:
    """Build a register from (name, labels) pairs; Register takes SubsystemSpec values."""
    return Register([SubsystemSpec(name, labels) for name, labels in specs])


def fold_sum(terms):
    """Add terms left to right: Python 3.11's builtin sum, bit for bit.

    Every Python-level float or complex reduction in ketsim goes through
    here, because builtin sum compensates float rounding from Python 3.12 on
    and would move the last digit of some reports; the means of a pointer
    array (the readings' and the single-shot fidelities') take np.cumsum's
    last entry, which adds in the same order, and grid reductions use
    numpy's pairwise np.sum. No terms give int 0, as sum() does.
    """
    return reduce(add, terms, 0)


def born_weight(amplitudes):
    """fold_sum of abs(a) ** 2 over the amplitudes, left to right; inf where
    Python's float ** would raise OverflowError, so a refusal can name it."""
    try:
        return fold_sum(abs(a) ** 2 for a in amplitudes)
    except OverflowError:
        return math.inf


def matches(key: tuple[int, ...], items: tuple[tuple[int, int], ...]) -> bool:
    """True if the joint key agrees with every (subsystem, label) constraint."""
    for si, li in items:
        if key[si] != li:
            return False
    return True


@dataclass
class StateVector:
    """Sparse pure state: joint basis key -> complex amplitude.

    Treat instances as immutable; operations return new states.
    """

    register: Register
    amplitudes: dict[tuple[int, ...], complex]

    def norm(self) -> float:
        return math.sqrt(born_weight(self.amplitudes.values()))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if not 1e-12 <= n < math.inf:
            raise ValueError(f"cannot normalize a state of norm {n!r}")
        return StateVector(self.register, {k: a / n for k, a in self.amplitudes.items()})

    def support(self) -> int:
        return len(self.amplitudes)


def prune(amplitudes: dict[tuple[int, ...], complex]) -> dict[tuple[int, ...], complex]:
    """Drop every amplitude of magnitude at most PRUNE_TOL; a NaN is kept, so
    a weight taken afterwards refuses it."""
    return {k: a for k, a in amplitudes.items() if not abs(a) <= PRUNE_TOL}


def superpose(
    register: Register,
    terms: Sequence[tuple[complex, Mapping[str, str]]],
    normalize: bool = True,
) -> StateVector:
    """Build a state from (amplitude, full assignment) terms.

    Duplicate assignments have their amplitudes summed. With normalize=False
    the coefficients must already carry unit norm within 1e-10. A NaN or
    infinite coefficient is refused, naming its term.
    """
    amps: dict[tuple[int, ...], complex] = {}
    for coeff, assignment in terms:
        k = register.key(assignment)
        c = complex(coeff)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError(f"coefficient of term {dict(assignment)} must be finite, got {c!r}")
        amps[k] = amps.get(k, 0j) + c
    state = StateVector(register, prune(amps))
    if normalize:
        return state.normalized()
    n = state.norm()
    if not abs(n - 1.0) <= NORM_TOL:
        raise ValueError(f"norm is {n!r}, not 1 within {NORM_TOL} (pass normalize=True?)")
    return state


def amplitude(state: StateVector, assignment: Mapping[str, str]) -> complex:
    """Amplitude of one fully specified joint basis state (0 if absent)."""
    return state.amplitudes.get(state.register.key(assignment), 0j)


def overlap(a: StateVector, b: StateVector) -> complex:
    """<a|b> over the shared register."""
    if a.register != b.register:
        raise ValueError("states live on different registers")
    return amplitude_overlap(a.amplitudes, b.amplitudes)


def amplitude_overlap(a: Mapping, b: Mapping) -> complex:
    """<a|b> of two amplitude maps on one register: conj(a_k) * b_k added
    left to right over the bra's keys, in a's order."""
    acc = 0j
    for k, amp in a.items():
        other = b.get(k)
        if other is not None:
            acc += amp.conjugate() * other
    return acc


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2. Insensitive to global phase. Registers must match."""
    return abs(overlap(a, b)) ** 2
