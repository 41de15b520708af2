"""Span tracing at the boundaries of the library's layers, from outside it.

``install`` wraps every public function, constructor and public method of
the ten layer modules, and every private function another module of the
package imports by name (``cli`` reads its input files through
``serialize._load_json``).  Module-level functions are rebound everywhere a
module holds them, including names bound by ``from .x import y``; classes
are patched in place, so every binding of a class sees the wrapped
constructor and methods.  Element-level accessors (``mul``, ``act`` and the
like) stay unwrapped: they run millions of times inside the searches and
their cost is part of the caller's own work.

A span is recorded when a call enters a layer from another layer (or from
the benchmark): function id, start, end and parent span.  Calls inside one
layer add no span but still feed the per-layer counters.  Spans live in the
job process's memory and are written to one file per job when it ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List

LAYERS = ("groups", "intlinalg", "abelian", "rrb", "modules", "extensions",
          "cohomology", "wells", "serialize", "cli")

ACCESSORS = {
    "groups": {"FiniteGroup.mul", "FiniteGroup.inv", "FiniteGroup.conj",
               "FiniteGroup.elements", "FiniteGroup.element_order"},
    "rrb": {"RRBGroup.act"},
    "modules": {"ActionQuadruple.nu_inv", "RRBModule.beta", "RRBModule.circ"},
    "extensions": {"Extension.k_index", "Extension.l_index",
                   "Extension.decompose_h", "Extension.decompose_g"},
    "abelian": {"AbelianPresentation.vec", "AbelianPresentation.elem"},
}


def _cells(args, kwargs) -> int:
    mat = args[0] if args else kwargs.get("mat")
    shape = getattr(mat, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0]) * int(shape[1])
    return len(mat) * (len(mat[0]) if len(mat) else 0)


def _constraint_cells(args, kwargs) -> int:
    shape = getattr(getattr(args[0], "constraint_matrix", None), "shape", (0, 0))
    return int(shape[0]) * int(shape[1])


# Per-layer counters: function name -> [(counter, value of one call)].  The
# value is a number, or a function of (args, kwargs, result, ok).
COUNTERS: Dict[str, list] = {
    "intlinalg.smith_normal_form": [("intlinalg.snf_calls", 1),
                                    ("intlinalg.snf_cells", lambda a, k, r, ok: _cells(a, k))],
    "intlinalg.solve_with_snf": [("intlinalg.solve_calls", 1)],
    "abelian.AbelianPresentation.__init__": [("abelian.presentations", 1)],
    "abelian.SubgroupPresentation.__init__": [("abelian.presentations", 1)],
    "abelian.SubquotientPresentation.__init__": [("abelian.presentations", 1)],
    "cohomology.CochainComplex.__init__": [
        ("cohomology.complexes", 1),
        ("cohomology.constraint_cells",
         lambda a, k, r, ok: _constraint_cells(a, k) if ok else 0)],
    "cohomology.CochainComplex.class_of": [("cohomology.class_of_calls", 1)],
    "groups.automorphism_group": [("groups.aut_searches", 1),
                                  ("groups.auts_found", lambda a, k, r, ok: len(r) if ok else 0)],
    "groups.FiniteGroup.__init__": [("groups.tables_validated", 1)],
    "rrb.RRBMorphism.__init__": [("rrb.morphism_checks", 1),
                                 ("rrb.morphisms_kept", lambda a, k, r, ok: int(ok))],
    "rrb.rrb_automorphism_group": [("rrb.aut_pair_searches", 1)],
    "rrb.enumerate_rrb_operators": [("rrb.operators_found",
                                     lambda a, k, r, ok: len(r) if ok else 0)],
    "wells.pair_is_compatible": [("wells.pairs_tested", 1),
                                 ("wells.pairs_compatible", lambda a, k, r, ok: int(bool(r)))],
    "wells.wells_map": [("wells.obstructions", 1)],
    "wells.is_inducible": [("wells.inducible_calls", 1)],
}


class Tracer:
    """Span and counter store of one job process."""

    def __init__(self):
        self.active = False
        self.names: List[str] = []   # function id -> "layer.qualname"
        self.layer_of: List[int] = []
        self.spans: List[list] = []  # [function id, start ns, end ns, parent]
        self.stack: List[int] = []
        self.counts: Counter = Counter()

    def register(self, layer: int, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def wrap(self, fn: Callable, layer: int, name: str) -> Callable:
        fid = self.register(layer, name)
        counters = COUNTERS.get(name, ())
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            enters = not stack or tracer.layer_of[tracer.spans[stack[-1]][0]] != layer
            if enters:
                span = [fid, time.perf_counter_ns(), 0, stack[-1] if stack else -1]
                stack.append(len(tracer.spans))
                tracer.spans.append(span)
            ok, result = False, None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                if enters:
                    span[2] = time.perf_counter_ns()
                    stack.pop()
                for counter, value in counters:
                    tracer.counts[counter] += value if isinstance(value, int) \
                        else value(args, kwargs, result, ok)
        return traced

    def dump(self, path: str, job_id: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": job_id, "names": self.names, "layer_of": self.layer_of,
                       "spans": self.spans, "counts": self.counts}, fh,
                      separators=(",", ":"))


def _methods(cls) -> List[str]:
    out = []
    for attr, value in vars(cls).items():
        if attr == "__init__" or (not attr.startswith("_") and (
                inspect.isfunction(value) or isinstance(value, functools._lru_cache_wrapper))):
            out.append(attr)
    return out


def install(tracer: Tracer) -> None:
    """Wrap every layer's public callables; the tracer stays inactive."""
    modules = {name: importlib.import_module(f"rrbgroups.{name}") for name in LAYERS}
    package = [mod for mod in list(sys.modules.values())
               if getattr(mod, "__name__", "").split(".")[0] == "rrbgroups"]
    # Functions some module holds under a binding of its own, i.e. imported.
    imported = {id(obj) for mod in package for obj in vars(mod).values()
                if inspect.isfunction(obj) and obj.__module__ != mod.__name__}
    wrapped: Dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    for layer, (lname, mod) in enumerate(modules.items()):
        skip = ACCESSORS.get(lname, set())
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if attr.startswith("_") and id(obj) not in imported:
                continue
            if inspect.isclass(obj):
                if issubclass(obj, BaseException):
                    continue
                for meth in _methods(obj):
                    qual = f"{obj.__name__}.{meth}"
                    if qual not in skip:
                        setattr(obj, meth, tracer.wrap(vars(obj)[meth], layer,
                                                       f"{lname}.{qual}"))
            elif callable(obj):
                wrapped[id(obj)] = (obj, tracer.wrap(obj, layer, f"{lname}.{attr}"))
    # Rebind each wrapped function wherever a module of the package holds it.
    for mod in package:
        for attr, obj in list(vars(mod).items()):
            original, wrapper = wrapped.get(id(obj), (None, None))
            if original is obj:
                setattr(mod, attr, wrapper)


def layer_totals(dumps: List[dict]) -> Dict[str, float]:
    """Per-layer self seconds, boundary calls and counters over all jobs."""
    nlayers = len(LAYERS)
    self_ns = [0] * nlayers
    calls = [0] * nlayers
    counts: Counter = Counter()
    for dump in dumps:
        spans = dump["spans"]
        child_ns = [0] * len(spans)
        for fid, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (fid, start, end, _), inner in zip(spans, child_ns):
            layer = dump["layer_of"][fid]
            self_ns[layer] += end - start - inner
            calls[layer] += 1
        counts.update(dump["counts"])
    out: Dict[str, float] = {}
    for i, name in enumerate(LAYERS):
        out[f"{name}.self_s"] = self_ns[i] / 1e9
        out[f"{name}.calls"] = calls[i]
    ratio_parts = {"rrb.morphisms_kept", "wells.pairs_compatible"}
    for key in sorted({c for entries in COUNTERS.values() for c, _ in entries} - ratio_parts):
        out[key] = counts.get(key, 0)
    out["rrb.morphism_kept_ratio"] = _ratio(counts.get("rrb.morphisms_kept", 0),
                                            counts.get("rrb.morphism_checks", 0))
    out["wells.pairs_compatible_ratio"] = _ratio(counts.get("wells.pairs_compatible", 0),
                                                 counts.get("wells.pairs_tested", 0))
    return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def child_hook(job_id: str, spans_path: str) -> Callable[[], Callable[[], None]]:
    """The runner hook: trace inside the job process, dump spans at its end.

    The wrappers are installed in the job process only, so the parent
    process and every untraced job run the library unchanged.
    """
    def start() -> Callable[[], None]:
        tracer = Tracer()
        install(tracer)
        tracer.active = True

        def finish() -> None:
            tracer.active = False
            tracer.dump(spans_path, job_id)
        return finish
    return start
