"""Scenario catalog: named, parameterized, seeded experiment scripts.

Each scenario validates its parameters against a schema before doing any
work, runs a fixed timeline, and returns a ScenarioReport. A scenario's run
takes the seed; one that draws builds its generator with `scenario_rng`,
from (seed, scenario name), so runs are reproducible and two scenarios never
share a stream for the same seed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..errors import ImpossibleOutcomeError, ParameterError
from ..report import ScenarioReport

_S = 1.0 / math.sqrt(2.0)
# Two-level Hadamard matrix, the basis change the catalog's interferometers share.
HADAMARD = ((_S, _S), (_S, -_S))


@dataclass(frozen=True)
class ParamSpec:
    """Schema entry for one scenario parameter."""

    name: str
    kind: str  # "float" or "int"
    default: float | int
    low: float | None = None
    high: float | None = None
    low_open: bool = False
    high_open: bool = False
    doc: str = ""

    def coerce(self, raw) -> float | int:
        try:
            value = int(raw) if self.kind == "int" else float(raw)
        except (TypeError, ValueError):
            raise ParameterError(f"parameter {self.name!r} expects {self.kind}, got {raw!r}")
        if self.kind == "int" and isinstance(raw, float) and raw != value:
            raise ParameterError(f"parameter {self.name!r} expects an integer, got {raw!r}")
        if not math.isfinite(value):
            raise ParameterError(f"parameter {self.name!r} must be finite")
        if self.low is not None:
            if value < self.low or (self.low_open and value == self.low):
                raise ParameterError(
                    f"parameter {self.name!r}={value!r} below allowed range "
                    f"({'open' if self.low_open else 'closed'} bound {self.low!r})"
                )
        if self.high is not None:
            if value > self.high or (self.high_open and value == self.high):
                raise ParameterError(
                    f"parameter {self.name!r}={value!r} above allowed range "
                    f"({'open' if self.high_open else 'closed'} bound {self.high!r})"
                )
        return value


@dataclass(frozen=True)
class Scenario:
    name: str
    summary: str
    params: tuple[ParamSpec, ...]
    run: Callable[[dict, int], tuple]  # (resolved params, seed)


class StepFailure(RuntimeError):
    """A timeline step hit an impossible outcome; names the scenario and step."""

    def __init__(self, scenario: str | None, step: str, cause: Exception):
        super().__init__(f"scenario {scenario!r} failed at step {step!r}: {cause}")
        self.scenario = scenario
        self.step = step
        self.cause = cause


@contextmanager
def guard(step: str):
    """Wrap a timeline step so outcome errors carry the step label; run_scenario adds the scenario's name."""
    try:
        yield
    except ImpossibleOutcomeError as exc:
        raise StepFailure(None, step, exc) from exc


def scenario_rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


@functools.cache
def catalog() -> dict[str, Scenario]:
    # Imported lazily so the package can load without pulling every module
    # at import time; order here is the catalog order.
    from . import annihilation, collisions, incomplete, interference, spatial, zeno

    ordered = (
        annihilation.QO_CORE,
        annihilation.HARDY_CI,
        collisions.ATOM_COLLISION,
        collisions.OBLIVION_WITH_POINTERS,
        zeno.ZENO_BASIC,
        zeno.ZENO_COUNTERFACTUAL,
        zeno.ZENO_GHOST_ENTANGLEMENT,
        incomplete.PARTIAL_ERASURE,
        incomplete.WEAK_ENSEMBLE,
        interference.QUANTUM_ERASURE,
        annihilation.GHOSTLY_MIRROR,
        spatial.DICKE_TRAY_SPOON,
        interference.AB_TOY,
    )
    return {s.name: s for s in ordered}


def list_scenarios() -> list[tuple[str, dict, str]]:
    """(name, parameter schema: each ParamSpec's fields but its name, summary) per scenario."""
    fields = [f.name for f in dataclasses.fields(ParamSpec) if f.name != "name"]
    return [
        (s.name, {p.name: {f: getattr(p, f) for f in fields} for p in s.params}, s.summary)
        for s in catalog().values()
    ]


def run_scenario(name: str, params: Mapping | None = None, seed: int = 0) -> ScenarioReport:
    """Validate parameters, run the named scenario, return its report."""
    try:
        scenario = catalog()[name]
    except KeyError:
        raise ParameterError(f"unknown scenario {name!r}") from None
    try:
        seed = operator.index(seed)  # a plain int, as the report must hold
    except TypeError:
        pass
    if type(seed) is not int or seed < 0:
        raise ParameterError(f"seed expects a non-negative integer, got {seed!r}")
    params = dict(params or {})
    known = {p.name for p in scenario.params}
    for key in params:
        if key not in known:
            raise ParameterError(f"scenario {name!r} has no parameter {key!r}")
    resolved = {p.name: p.coerce(params.get(p.name, p.default)) for p in scenario.params}
    try:
        steps, checks, notes = scenario.run(resolved, seed)
    except StepFailure as exc:
        raise StepFailure(name, exc.step, exc.cause) from exc.cause
    return ScenarioReport(
        scenario=name,
        params=resolved,
        seed=seed,
        steps=tuple(steps),
        checks=tuple(checks),
        notes=tuple(notes),
    )
