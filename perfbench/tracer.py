"""Span tracing for one gridhalo process, installed from outside the package.

``Tracer.install`` wraps the public functions of each gridhalo module and
the public methods of its public classes, then rebinds every module-level
name in the package that refers to a wrapped function (``from .maxop
import max_field_fast`` copies, and the command table in ``cli``).  No
package source changes.

A span is named ``<module>.<function>``; methods are named after the
module too, so ``grid.refine`` covers ``GridSet.refine`` and
``StepFunction.refine``.  Per name the tracer keeps the call count, the
inclusive time (outermost occurrence only, so nesting under the same name
is not counted twice) and the self time: the span's time minus the time
its child spans cover.

Counting hooks run after a span closes.  Their time is taken out of every
open span and reported as ``hook_s``, so counting never shows up as work
of a layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from fractions import Fraction

LAYERS = (
    "grid",
    "maxop",
    "halo",
    "rotate",
    "witness",
    "resonance",
    "experiments",
    "reports",
)

# geometry value types whose methods are per-cell accessors (rotation_preimage
# calls DyadicGrid.cell_center once per cell); a span there would cost more
# than the call it measures
_UNTRACED_CLASSES = {"DyadicGrid", "AxisRect"}


def _cell_mass(f) -> Fraction:
    """Sum of the step function's cell values, exact in rational mode."""
    if f.mode != "rational":
        return Fraction(float(f.values.sum()))
    # cells share value objects, so count per object instead of adding
    # one Fraction per cell
    flat = f.values.ravel()
    by_id = {id(v): v for v in flat}
    counts = Counter(map(id, flat))
    return sum((by_id[i] * n for i, n in counts.items()), Fraction(0))


def _count_max_field(counts, original, result, bound):
    """Shapes requested, shape x cell work, and shapes whose exact bound
    sum(f) / |R| exceeds the level-set threshold 1 (the others can never
    raise the field above 1)."""
    f = bound["f"]
    shapes = bound["shapes"]
    if shapes is None:
        shapes = original["maxop.enumerate_shapes"](
            bound["basis"], f.grid, bound["r"], bound["ladder"]
        )
    mass = _cell_mass(f)
    useful = 0
    for shape in shapes:
        cells = 1
        for w in shape:
            cells *= w
        useful += mass > cells
    counts["maxop.shapes"] += len(shapes)
    counts["maxop.useful_shapes"] += useful
    counts["maxop.shape_cells"] += len(shapes) * f.grid.total_cells


def _count_independence(counts, original, result, bound):
    counts["resonance.independence_subsets"] += len(result)


_HOOKS = {
    "maxop.max_field_fast": _count_max_field,
    "maxop.max_field_brute": _count_max_field,
    "resonance.check_independence": _count_independence,
}


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive_s, self_s]
        self.counts = Counter()
        self.hook_s = 0.0
        self.covered_s = 0.0  # time under outermost spans
        self._open = []  # (name, [child_s]) per open span, innermost last
        self._original = {}  # span name -> unwrapped function

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            self._open.append((name, child))
            hook_before = self.hook_s
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start - (self.hook_s - hook_before)
                self._open.pop()
                self._close(name, elapsed, child[0])
            if hook is not None:
                t = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, self._original, result, bound.arguments)
                self.hook_s += time.perf_counter() - t
            return result

        self._original.setdefault(name, fn)
        return wrapper

    def _close(self, name, elapsed, child_s):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[2] += elapsed - child_s
        if all(outer != name for outer, _ in self._open):
            stat[1] += elapsed
        if self._open:
            self._open[-1][1][0] += elapsed
        else:
            self.covered_s += elapsed

    def install(self):
        wrapped = {}  # original function -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"gridhalo.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and attr not in _UNTRACED_CLASSES:
                    self._wrap_methods(layer, obj)
        for name, module in list(sys.modules.items()):
            if name != "gridhalo" and not name.startswith("gridhalo."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in wrapped:
                            obj[key] = wrapped[value]

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw))

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"calls": calls, "s": total, "self_s": own}
                for name, (calls, total, own) in sorted(self.stats.items())
            },
            "counts": dict(self.counts),
            "covered_s": self.covered_s,
            "hook_s": self.hook_s,
        }
