"""Per-layer spans recorded from outside the program.

`install` wraps every public function of the ketsim layer modules, on every
name a caller sees it by: `ketsim.scenarios.zeno.apply_rotation` and
`ketsim.evolve.apply_rotation` get the same wrapper, and so does
`ketsim.run_scenario`, which the benchmark itself calls.  A wrapper times
its span, and a layer's self time is its spans minus the time of the spans
they caused.  Spans are folded into per-layer totals as they close, so a
long traced run needs no memory for them.
"""

from __future__ import annotations

import sys
import time
import types
from contextlib import contextmanager

LAYERS = ("scenarios", "register", "evolve", "measure", "measure.read_pointer", "entangle", "grid", "report")

# Module that defines a function -> layer name.
_MODULE_LAYER = {
    "ketsim.register": "register",
    "ketsim.evolve": "evolve",
    "ketsim.measure": "measure",
    "ketsim.entangle": "entangle",
    "ketsim.grid": "grid",
    "ketsim.report": "report",
}

# Work counted per layer, by the metric name it is reported under.
WORK_NAME = {
    "register": "amps_in",
    "evolve": "amps_in",
    "measure": "amps_in",
    "measure.read_pointer": "bytes",
    "entangle": "matrix_elems",
    "grid": "fft_points",
    "report": "bytes_out",
}


def _layer_of(fn) -> str | None:
    mod = fn.__module__ or ""
    if mod == "ketsim.scenarios" or mod.startswith("ketsim.scenarios."):
        return "scenarios"
    layer = _MODULE_LAYER.get(mod)
    if layer == "measure" and fn.__name__ == "read_pointer":
        return "measure.read_pointer"
    return layer


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _work_counter(layer: str, fn):
    """Function (args, kwargs) -> work units for one call, or None."""
    name = fn.__name__
    if layer in ("register", "evolve", "measure"):
        from ketsim.register import StateVector

        def amps_in(args, kwargs):
            return sum(len(a.amplitudes) for a in (*args, *kwargs.values()) if isinstance(a, StateVector))

        return amps_in
    if layer == "measure.read_pointer":
        # complex128 pointer arrays: branches x grid points x 16 bytes
        def read_bytes(args, kwargs):
            joint = _first(args, kwargs, "joint")
            return len(joint.pointers) * joint.n * 16

        return read_bytes
    if layer == "entangle" and name in ("schmidt", "partial_trace"):
        # the dense amplitude matrix across the cut spans the whole register
        return lambda args, kwargs: _first(args, kwargs, "state").register.dim
    if layer == "grid":
        # FFT points at the functions that call numpy.fft themselves
        if name == "momentum_amplitudes":
            return lambda args, kwargs: _first(args, kwargs, "wf").n
        if name == "translate":
            return lambda args, kwargs: 2 * _first(args, kwargs, "wf").n
        if name == "from_momentum_amplitudes":
            return lambda args, kwargs: args[2] if len(args) > 2 else kwargs["n"]
        return None
    if layer == "report" and name == "write_output":
        return lambda args, kwargs: len(_first(args, kwargs, "text").encode())
    return None


class Tracer:
    """Per-layer totals: calls, self seconds, work units."""

    def __init__(self) -> None:
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.work = {layer: 0 for layer in LAYERS}
        self._stack: list[float] = []
        self._paused = False
        self._undo: list[tuple] = []

    def wrap(self, fn, layer: str):
        work = _work_counter(layer, fn)
        stack = self._stack
        calls, self_s, totals = self.calls, self.self_s, self.work
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                calls[layer] += 1
                self_s[layer] += dur - child
                if work is not None:
                    totals[layer] += work(args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap each public layer function on every ketsim module that holds it."""
        wrappers: dict[int, object] = {}
        modules = [m for n, m in sorted(sys.modules.items()) if n == "ketsim" or n.startswith("ketsim.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                layer = _layer_of(value)
                if layer is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self.wrap(value, layer)
                self._undo.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    @contextmanager
    def paused(self):
        """Run the body untraced, for the benchmark's own checks."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def per_report(self, reports: int) -> dict:
        """Metric name -> (value, unit), every total divided by the report count."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer] / reports, "count/report")
            out[f"{layer}.self_ms"] = (self.self_s[layer] * 1e3 / reports, "ms/report")
            if layer in WORK_NAME:
                unit = "B/report" if WORK_NAME[layer] in ("bytes", "bytes_out") else "count/report"
                out[f"{layer}.{WORK_NAME[layer]}"] = (self.work[layer] / reports, unit)
        return out
