"""Span tracer that wraps a package's functions from outside.

Every public function of every loaded submodule, and the public methods,
`__init__` and `__eq__` of its public classes, is replaced by a wrapper
that records one span (name, start, end, parent).  Every other binding of
the same function object, such as the names a `from .x import y` copied
into another module, is rebound too, otherwise those calls would be
missed.  A few accessors that run millions of times with no work of their
own stay unwrapped; their time falls into the caller's self time.

Spans live in flat arrays and are written out once, at exit, together with
the counters taken from arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

# accessors with no work of their own, called per edge or per link
UNWRAPPED = {
    "space.Entourage.related",
    "rips.RipsSkeleton.step_gen",
    "rips.RipsSkeleton.is_tree_edge",
    "chains.Trivalue.is_yes",
    "chains.Trivalue.is_no",
    "chains.Trivalue.is_unknown",
}


def _count_unit_pivots(counters, args, kwargs, result):
    subs, core = result
    counters["snf.relator_rows"] += len(args[0])
    counters["snf.unit_pivots"] += len(subs)
    counters["snf.core_rows"] += len(core)
    counters["snf.core_cols"] += len({c for row in core for c in row})


def _count_skeleton(counters, args, kwargs, result):
    skel = args[0]
    counters["rips.edges"] += len(skel.edges)
    counters["rips.triangles"] += len(skel.triangles)


def _count_decision(counters, args, kwargs, result):
    counters[f"chains.{result.kind}"] += 1
    if result.certificate is not None:
        counters["chains.cert_moves"] += len(result.certificate.moves)


def _count_c2(counters, args, kwargs, result):
    counters["cover.c2_pairs"] += int(result.get("examined", 0))


COUNTERS = {
    "snf.eliminate_unit_pivots": _count_unit_pivots,
    "rips.RipsSkeleton.__init__": _count_skeleton,
    "chains.decide_homotopic": _count_decision,
    "cover.c2_check": _count_c2,
}


class Tracer:
    """Wraps a package on construction; `dump` writes spans and counters."""

    def __init__(self, package):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._join_keys: set = set()
        self._install(package)

    def _install(self, package) -> None:
        prefix = package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if name == package.__name__ or name.startswith(prefix)]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(f"{short}.{attr}", obj, mod.__file__)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def _wrap_class(self, qual: str, cls, filename: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__eq__"):
                continue
            name = f"{qual}.{attr}"
            if name in UNWRAPPED:
                continue
            if isinstance(obj, (staticmethod, classmethod)):
                setattr(cls, attr, type(obj)(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj) and obj.__code__.co_filename == filename:
                setattr(cls, attr, self._wrap(name, obj))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        kind, parent, start, end, stack = self.kind, self.parent, self.start, self.end, self.stack
        counters = self.counters
        hook = COUNTERS.get(name)
        if name == "tower.joinability_witness":
            hook = self._join_hook(fn)
        clock = time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    def _join_hook(self, fn):
        signature = inspect.signature(fn)

        def hook(counters, args, kwargs, result):
            bound = signature.bind(*args, **kwargs).arguments
            key = (bound["x"], bound["y"], bound["target"], bound["fine"])
            if key in self._join_keys:
                counters["tower.join_repeats"] += 1
            self._join_keys.add(key)

        return hook

    def dump(self, path: str) -> None:
        """Write spans as arrays plus names and counters as json metadata."""
        with open(path, "wb") as fh:
            np.savez(
                fh,
                kind=np.frombuffer(self.kind, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
                meta=np.frombuffer(
                    json.dumps({"names": self.names, "counters": self.counters}).encode(),
                    dtype=np.uint8,
                ),
            )
