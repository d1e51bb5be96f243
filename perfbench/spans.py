"""Layer spans for the traced run, recorded from outside the package.

`Tracer.installed()` replaces the public calls listed below with wrappers
that time each call.  A span's self time is its duration minus the time of
the spans it encloses, so the self times of all spans plus the uncovered
time add up to the op's wall time.  `field`, `geometry` and `poly` have no
spans: they run only under the layers that call them and are charged there.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _perm_span(args, kwargs):
    side = args[1] if len(args) > 1 else kwargs["side"]
    return f"dynamics.perm_{side}"


def _step_span(args, kwargs):
    """phase_step(s, P, side): the chart route when P carries that side's parameter."""
    P, side = args[1], args[2]
    param = P.sx if side == "x" else P.sy
    return "blowup.chart_step" if param is not None else "involution.vieta_step"


# (module, function, span name or naming function).  A function is patched in
# every wehlerk3 module that holds it, so calls between modules are caught.
FUNCTIONS = (
    ("wehlerk3.surface", "random_surface", "surface.random_surface"),
    ("wehlerk3.surface", "degenerate_fibers", "surface.degenerate_fibers"),
    ("wehlerk3.surface", "gh_system", "surface.gh_system"),
    ("wehlerk3.blowup", "build_chart", "blowup.chart_build"),
    ("wehlerk3.blowup", "exceptional_points", "blowup.exceptional_points"),
    ("wehlerk3.dynamics", "cycle_decomposition", "dynamics.cycle_walk"),
    ("wehlerk3.dynamics", "asymmetric_pairing", "dynamics.pairing"),
    ("wehlerk3.dynamics", "phase_step", _step_span),
    ("wehlerk3.stats", "empirical_curve", "stats.curve"),
    ("wehlerk3.stats", "area_error", "stats.curve"),
    ("wehlerk3.stats", "sanity_windows", "stats.windows"),
)
# (module, class, method, span name or naming function).
METHODS = (
    ("wehlerk3.dynamics", "PhaseSpace", "__init__", "dynamics.phase_space"),
    ("wehlerk3.dynamics", "PhaseSpace", "perm", _perm_span),
    ("wehlerk3._engine", "SurfaceEngine", "cor1_swap", "engine.cor1_swap"),
)
# Spans whose result length is counted (boundary points per chart).
ITEM_SPANS = ("blowup.exceptional_points",)


class Tracer:
    """Span self times and call counts of the ops run inside `installed()`."""

    def __init__(self):
        self._undo: list = []
        self.reset()

    def reset(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self.covered_s = 0.0
        self._stack: list[float] = []

    def _wrap(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            stack = tracer._stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                tracer.self_s[span] += dur - stack.pop()
                tracer.calls[span] += 1
                if stack:
                    stack[-1] += dur
                else:
                    tracer.covered_s += dur
            if span in ITEM_SPANS:
                tracer.items[span] += len(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    @contextmanager
    def installed(self):
        """Patch the spans in for the duration of the block."""
        for modname, attr, name in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(orig, name)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").split(".")[0] == "wehlerk3"
                        and getattr(mod, attr, None) is orig):
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, name))
        try:
            yield self
        finally:
            while self._undo:
                obj, attr, orig = self._undo.pop()
                setattr(obj, attr, orig)
