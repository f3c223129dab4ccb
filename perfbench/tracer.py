"""Per-function call counts and self times for the zenoport layers.

The tracer wraps the public functions of each layer module and a few
named methods, and patches the wrappers in where callers look the names
up: every ``zenoport`` module namespace that binds the original function
(``zenoport.cli.counterport``, ``zenoport.analysis.apply``, ...) and every
module-level dict that holds it (``cli._DISPATCH``).  Modules are reached
through ``sys.modules``, because ``zenoport.counterport`` as an attribute
of the package is the re-exported function, not the module.

A span wrapper records calls and self time: its own duration minus the
time covered by the spans it encloses.  Spans are aggregated as they end,
so memory stays bounded however many calls a run makes.  Hot primitives
are wrapped by a count-only wrapper; their time stays in the caller's
self time.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("qstate", "optics", "cqze", "counterport", "analysis", "cli")

# (layer, class, method, metric name); "__init__" counts constructions
METHODS = (
    ("qstate", "LinearMap", "__init__", "qstate.LinearMap"),
    ("qstate", "LinearMap", "adjoint", "qstate.LinearMap.adjoint"),
    ("qstate", "StateVector", "__init__", "qstate.StateVector"),
    ("optics", "CircuitSchedule", "step_maps", "optics.CircuitSchedule.step_maps"),
    ("optics", "CircuitSchedule", "adjoint_step_maps",
     "optics.CircuitSchedule.adjoint_step_maps"),
)

COUNT_ONLY = frozenset({
    "qstate.label", "qstate.StateVector", "qstate.inner", "qstate.project", "qstate.is_sink",
})

AUDITED_KINDS = ("unitary", "isometry")


def layer_module(layer: str):
    return sys.modules[f"zenoport.{layer}"]


class Tracer:
    """Wraps zenoport's public functions while installed; see the module docstring."""

    def __init__(self):
        self.records: dict[str, list] = {}  # name -> [calls, self seconds]
        self.column_pairs = 0
        self._stack: list[float] = []
        self._undo: list[tuple] = []

    # ---------------------------------------------------------------- wrappers

    def _record(self, name: str) -> list:
        return self.records.setdefault(name, [0, 0.0])

    def _count(self, name: str, fn):
        rec = self._record(name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            rec[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name: str, fn, after=None):
        rec = self._record(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                rec[0] += 1
                rec[1] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if after is not None:
                after(args)
            return result
        return spanned

    def _wrap(self, name: str, fn, after=None):
        if name in COUNT_ONLY:
            return self._count(name, fn)
        return self._span(name, fn, after)

    def _count_audit(self, args) -> None:
        # the audit of a unitary or isometry checks every pair of columns
        m = args[0]
        if m.kind in AUDITED_KINDS:
            n = len(m.columns)
            self.column_pairs += n * (n - 1) // 2

    # ------------------------------------------------------------ install/undo

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = layer_module(layer)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(layer_module(layer), cls_name)
            fn = cls.__dict__[meth]
            after = self._count_audit if name == "qstate.LinearMap" else None
            setattr(cls, meth, self._wrap(name, fn, after))
            self._undo.append((cls, meth, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "zenoport" and not mod_name.startswith("zenoport."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if _is_wrapped(val, wrappers):
                            obj[key] = wrappers[val]
                            self._undo.append((obj, key, val))
                elif _is_wrapped(obj, wrappers):
                    setattr(mod, attr, wrappers[obj])
                    self._undo.append((mod, attr, obj))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    # ----------------------------------------------------------------- results

    def calls(self, name: str) -> int:
        return self.records.get(name, [0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.records.get(name, [0, 0.0])[1]

    def table(self) -> dict[str, dict]:
        """Every wrapped name that was called, with its calls (and self time for spans)."""
        out = {}
        for name, (calls, self_s) in sorted(self.records.items()):
            if calls:
                out[name] = {"calls": calls} if name in COUNT_ONLY else {
                    "calls": calls, "self_s": self_s}
        return out


def _is_wrapped(obj, wrappers: dict) -> bool:
    try:
        return obj in wrappers
    except TypeError:  # unhashable values never hold a function
        return False
