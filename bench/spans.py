"""Outside-in span recording for the traced benchmark run.

The tracer replaces maxconf's public functions, the constructors of its
validating dataclasses and ``numpy.linalg.{eigh,eigvalsh,svd}`` with wrappers
that record one span per call: (op id, name, start, end, parent span,
raised, repeated input).  maxconf's modules bind each other's functions with
``from .x import y``, so a wrapper is installed in every module namespace
that holds the original object, not only in the defining module.  Spans stay
in memory until ``write``.  Nothing in ``src`` is changed; ``uninstall``
puts every original back.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "specio", "reports", "linalg", "ensembles", "measurement",
          "nosignalling", "transforms")
DECOMPOSITIONS = ("eigh", "eigvalsh", "svd")

# Called once per number written; a span there would cost more than the work
# it measures.  Its time stays in the self time of matrix_to_json.
_NOT_WRAPPED = {"specio.complex_to_pair"}


class Tracer:
    """Spans in memory, and the wrappers that record them."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._seen = set()
        self._patches = []

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._seen = set()

    def wrap(self, name: str, fn, decomposition: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            repeated = False
            if decomposition:
                arr = np.ascontiguousarray(args[0])
                key = (arr.shape, arr.dtype.str,
                       hashlib.blake2b(arr.tobytes(), digest_size=16).digest())
                repeated = key in tracer._seen
                tracer._seen.add(key)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            raised = True
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (tracer.op, name, t0, t1, parent, raised, repeated)

        return wrapper

    def _public(self):
        """(span name, object) for each public function and dataclass of maxconf."""
        for layer in LAYERS:
            mod = importlib.import_module(f"maxconf.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in _NOT_WRAPPED
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj) or (inspect.isclass(obj)
                                               and dataclasses.is_dataclass(obj)):
                    yield name, obj

    def install(self) -> None:
        wrappers = {}
        for name, obj in self._public():
            if inspect.isclass(obj):
                # Dataclass constructors run the library's validation; wrapping
                # __init__ on the class reaches every caller.
                init = obj.__init__
                obj.__init__ = self.wrap(name, init)
                self._patches.append((obj, "__init__", init))
            else:
                wrappers[id(obj)] = self.wrap(name, obj)
        for attr in DECOMPOSITIONS:
            fn = getattr(np.linalg, attr)
            wrappers[id(fn)] = self.wrap(f"numpy.{attr}", fn, decomposition=True)
        self._patches += bind(wrappers)

    def uninstall(self) -> None:
        restore(self._patches)

    def write(self, path: str, ops: list) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"ops": ops, "spans": self.spans}, fh)


def bind(wrappers):
    """Put each wrapper, keyed by id() of the object it replaces, in every
    namespace of numpy.linalg and maxconf that holds that object; returns the
    patches for ``restore``.  Every layer is imported first: a module
    imported later would bind the wrapper for good."""
    for layer in LAYERS:
        importlib.import_module(f"maxconf.{layer}")
    patches = []
    namespaces = [m for n, m in sys.modules.items()
                  if n == "numpy.linalg" or n.startswith("maxconf")]
    for mod in namespaces:
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
                patches.append((mod, attr, value))
    return patches


def restore(patches) -> None:
    for target, attr, value in reversed(patches):
        setattr(target, attr, value)
    patches.clear()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans):
    """Per-name totals: calls, inclusive and self seconds, escaped errors,
    repeated decomposition inputs."""
    child_time = defaultdict(float)
    for op, name, t0, t1, parent, raised, repeated in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                 "errors": 0, "repeats": 0})
    for idx, (op, name, t0, t1, parent, raised, repeated) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["total_s"] += t1 - t0
        s["self_s"] += (t1 - t0) - child_time[idx]
        s["repeats"] += repeated
        # An exception escapes a layer at its outermost span in that layer.
        if raised and (parent < 0 or layer_of(spans[parent][1]) != layer_of(name)):
            s["errors"] += 1
    return stats


def per_op_counts(spans, within=None):
    """{op id: {decomposition name: calls}} for exact per-op pinning; with
    `within`, only the calls made inside a span of that name."""
    out = defaultdict(lambda: dict.fromkeys(DECOMPOSITIONS, 0))
    for op, name, _, _, parent, _, _ in spans:
        if not name.startswith("numpy."):
            continue
        while within is not None and parent >= 0 and spans[parent][1] != within:
            parent = spans[parent][4]
        if within is None or parent >= 0:
            out[op][name[len("numpy."):]] += 1
    return out
