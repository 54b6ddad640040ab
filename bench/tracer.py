"""Spans around every public dezaforge function and method, installed from outside.

`Tracer.install()` wraps each public function (a name without a leading
underscore) of every loaded `dezaforge` module and rebinds the wrapper in
every `dezaforge` module namespace that holds the same function object, so a
call made through `from .spectra import certify_spectrum` is traced as well
as one made inside `spectra`. Public methods, class methods and static
methods of classes defined in `dezaforge` are wrapped on the class.
Properties and dunder methods are left alone: they run far more often than
any layer boundary and carry no work of their own.

A span is (name, start, end, parent), kept in flat arrays in memory and
written out once by `dump()`. A handful of boundaries also feed counters
from their arguments or results; `summarize()` turns spans and counters into
per-layer figures. This module imports only the standard library, so the
traced process loads nothing the program does not load itself.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array

PACKAGE = "dezaforge"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.stack: list[int] = [-1]
        self.counters: dict[str, int] = {}
        self.cache_base: dict[str, int] = {}
        self._caches: dict[str, object] = {}

    # -- counters fed at boundaries -------------------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _observe(self, qualname: str, args, kwargs, result) -> None:
        if qualname == "spectra.annihilation_check":
            thetas = args[1] if len(args) > 1 else kwargs["thetas"]
            self._count("spectra.products", len(thetas))
            if result is False:
                self._count("spectra.annihilation_rejected")
        elif qualname == "spectra.power_traces":
            t = args[1] if len(args) > 1 else kwargs["t"]
            self._count("spectra.products", max(int(t) - 1, 0))
        elif qualname == "permgroup.StabilizerChain.add_generator":
            self._count("permgroup.generators_offered")
            if result:
                self._count("permgroup.generators_added")
        elif qualname == "autiso.automorphism_group":
            self._count("autiso.nodes", result.nodes_searched)

    _OBSERVED = {
        "spectra.annihilation_check",
        "spectra.power_traces",
        "permgroup.StabilizerChain.add_generator",
        "autiso.automorphism_group",
    }

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn, qualname: str):
        nid = len(self.names)
        self.names.append(qualname)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack
        )
        clock = time.perf_counter
        observe = self._observe if qualname in self._OBSERVED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(qualname, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        wrapped: dict[int, object] = {}
        classes: set[type] = set()

        def short(modname: str) -> str:
            return modname.split(".", 1)[1] if "." in modname else modname

        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                owner = getattr(value, "__module__", None)
                if owner not in modules:
                    continue
                if isinstance(value, type):
                    classes.add(value)
                    continue
                if attr.startswith("_") or not callable(value):
                    continue
                if not isinstance(value, types.FunctionType) and not hasattr(value, "cache_info"):
                    continue
                if id(value) not in wrapped:
                    qual = f"{short(owner)}.{value.__name__}"
                    wrapped[id(value)] = self._wrap(value, qual)
                    if hasattr(value, "cache_info") and owner == PACKAGE + ".catalog":
                        self._caches[qual] = value
                setattr(mod, attr, wrapped[id(value)])

        for cls in classes:
            prefix = f"{short(cls.__module__)}.{cls.__name__}"
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType):
                    setattr(cls, attr, self._wrap(value, f"{prefix}.{attr}"))
                elif isinstance(value, (classmethod, staticmethod)):
                    inner = self._wrap(value.__func__, f"{prefix}.{attr}")
                    setattr(cls, attr, type(value)(inner))
        self.cache_base = {q: fn.cache_info().misses for q, fn in self._caches.items()}

    def dump(self, path: str) -> None:
        misses = sum(
            fn.cache_info().misses - self.cache_base[q] for q, fn in self._caches.items()
        )
        self._count("catalog.cache_misses", misses)
        with open(path, "w") as out:
            json.dump(
                {
                    "names": self.names,
                    "name_of": self.name_of.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "counters": self.counters,
                },
                out,
            )


# -- reduction to per-layer figures ---------------------------------------------

CALL_COUNTS = {
    "graphcore.int_adjacency_calls": "graphcore.Graph.int_adjacency",
    "gf3.mat_mul_calls": "gf3.mat_mul",
    "permgroup.sifts": "permgroup.StabilizerChain.sift",
}
EXACT_COUNTS = (
    "spectra.products",
    "spectra.annihilation_rejected",
    "catalog.cache_misses",
    "permgroup.generators_offered",
    "permgroup.generators_added",
    "autiso.nodes",
)
MODULE_TIMES = ("certify", "catalog", "gf3", "permgroup", "autiso", "graphcore", "cli", "pipeline", "golay")


def summarize(trace: dict) -> dict[str, float]:
    """Self time per layer in ms, and exact counts, over the whole trace.

    A span's self time is its duration less the durations of its direct
    children. A module's time is the sum of its spans' self times; spectra
    time is split by the outermost spectra call it sits under
    (certify_spectrum or discover_spectrum).
    """
    names = trace["names"]
    name_of, parent = trace["name_of"], trace["parent"]
    start, end = trace["start"], trace["end"]
    n = len(name_of)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    module = [names[k].split(".", 1)[0] for k in range(len(names))]
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    spectra_root = [""] * n
    for i in range(n):
        qual = names[name_of[i]]
        calls[qual] = calls.get(qual, 0) + 1
        mod = module[name_of[i]]
        own = (end[i] - start[i] - child[i]) * 1000.0
        ms[mod] = ms.get(mod, 0.0) + own
        if qual.startswith("graphcore.") and qual.endswith("graph6"):
            ms["graph6"] = ms.get("graph6", 0.0) + own
        if mod == "spectra":
            p = parent[i]
            root = qual
            if p >= 0 and module[name_of[p]] == "spectra":
                root = spectra_root[p]
            spectra_root[i] = root
            key = {"spectra.certify_spectrum": "certify", "spectra.discover_spectrum": "discover"}.get(root)
            if key:
                ms["spectra." + key] = ms.get("spectra." + key, 0.0) + own
    out: dict[str, float] = {
        "spectra.certify_ms": ms.get("spectra.certify", 0.0),
        "spectra.discover_ms": ms.get("spectra.discover", 0.0),
        "graphcore.graph6_ms": ms.get("graph6", 0.0),
    }
    for mod in MODULE_TIMES:
        out[f"{mod}.ms"] = ms.get(mod, 0.0)
    for metric, qual in CALL_COUNTS.items():
        out[metric] = calls.get(qual, 0)
    for key in EXACT_COUNTS:
        out[key] = trace["counters"].get(key, 0)
    return out
