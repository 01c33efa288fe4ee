"""Span recording around calls into seqcoal's modules, from outside them.

Tracing replaces module attributes with timing wrappers.  It reaches calls
between seqcoal's own modules because module-level lookups go through the
module dict: after patching, `ra_chain.log_gamma_diff` (a by-name import) and
`kingman.extend_recursive` (called from `build_pebls`) both resolve to the
wrapper.  Nothing inside `src/` is edited.

A span is (id, parent id, name, start, end, chunk).  Spans stay in memory
and are folded into per-chunk aggregates as each chunk ends, so memory does
not grow with run length; the raw spans of one chunk are kept for writing.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import types
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

LAYERS = ("kingman", "aldous", "ra_chain", "limit_chain", "numerics",
          "stats", "streams", "verify", "cli")

# Methods reached through the class, so they are patched on the class.
_METHODS = (
    ("kingman", "Trajectory", "validate", "kingman.Trajectory.validate"),
    ("aldous", "StickField", "__init__", "aldous.StickField"),
    ("limit_chain", "WnLaw", "build", "limit_chain.WnLaw.build"),
)

REGION = "bench"


class Tracer:
    """Collects spans; a per-thread stack links each span to its parent.

    Every workload calls seqcoal from one thread (verify criterion 4 runs
    with threads=1), so all spans of a chunk form one tree.
    """

    def __init__(self):
        self.spans: list = []
        self.chunk = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1, tracer.chunk))

        return traced

    @contextmanager
    def region(self, name: str):
        """A benchmark-side span grouping the calls of one chunk phase."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, f"{REGION}.{name}", t0, t1,
                               self.chunk))

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


class NoTracer:
    """Stand-in used for timed runs: regions cost one attribute lookup."""

    chunk = None

    @staticmethod
    def region(name: str):
        return nullcontext()


def instrument(tracer: Tracer):
    """Patch every public function, the listed methods and the verify
    criteria table.  Returns (span names installed, restore callable)."""
    modules = {layer: importlib.import_module(f"seqcoal.{layer}")
               for layer in LAYERS}
    wrappers = {}  # id(original) -> (original, wrapper)
    names = set()
    undo = []

    for layer, mod in modules.items():
        public = getattr(mod, "__all__", None)
        if public is None:
            public = [n for n in vars(mod) if not n.startswith("_")]
        for attr in public:
            obj = getattr(mod, attr, None)
            if (isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, tracer.wrap(name, obj))
                names.add(name)

    # Rebind the wrappers wherever the originals are reachable by name,
    # which covers by-name imports and the package namespace.
    package = importlib.import_module("seqcoal")
    for mod in list(modules.values()) + [package]:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                undo.append((setattr, mod, attr, obj))

    for layer, cls_name, meth, name in _METHODS:
        cls = getattr(modules[layer], cls_name, None)
        raw = None if cls is None else cls.__dict__.get(meth)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            patched = classmethod(tracer.wrap(name, raw.__func__))
        else:
            patched = tracer.wrap(name, raw)
        setattr(cls, meth, patched)
        undo.append((setattr, cls, meth, raw))
        names.add(name)

    table = getattr(modules["verify"], "CRITERIA", {})
    for number, fn in list(table.items()):
        name = f"verify.c{number:02d}"
        table[number] = tracer.wrap(name, fn)
        undo.append((table.__setitem__, number, fn))
        names.add(name)

    def restore():
        for op, *args in reversed(undo):
            op(*args)

    return names, restore


class Aggregate:
    """Per-chunk fold of spans into sums keyed for the metric table.

    For every span it records the region (the nearest benchmark-side span
    above it) and the top call (the outermost seqcoal call inside that
    region), so a metric can ask, say, for `Trajectory.validate` calls made
    inside `build_pebls` within the `c11` region.
    """

    def __init__(self):
        self.chunks = 0
        # (name, region, top) -> [calls, inclusive seconds]
        self.calls = defaultdict(lambda: [0, 0.0])
        self.layer_self = defaultdict(float)

    def add_chunk(self, spans: list):
        self.chunks += 1
        spans = sorted(spans)  # ids grow with start order, parents first
        info = {}
        children = defaultdict(list)
        for sid, parent, name, t0, t1, _ in spans:
            if parent is not None:
                children[parent].append((t0, t1))
            region, top = info.get(parent, (None, None))
            if name.startswith(REGION + "."):
                info[sid] = (name[len(REGION) + 1:], None)
                continue
            top = top or name
            info[sid] = (region, top)
            acc = self.calls[(name, region, top)]
            acc[0] += 1
            acc[1] += t1 - t0
        for sid, parent, name, t0, t1, _ in spans:
            if name.startswith(REGION + "."):
                continue
            self.layer_self[name.split(".", 1)[0]] += (
                t1 - t0 - _covered(children.get(sid, ()), t0, t1))

    def count(self, name, region="*", top="*") -> int:
        return sum(v[0] for k, v in self.calls.items()
                   if k[0] == name and region in ("*", k[1]) and top in ("*", k[2]))

    def seconds(self, name, region="*", top="*") -> float:
        return sum(v[1] for k, v in self.calls.items()
                   if k[0] == name and region in ("*", k[1]) and top in ("*", k[2]))


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
