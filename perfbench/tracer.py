"""Span tracing around quotcat's public functions, from outside the library.

A layer is a name plus the functions (or methods) that make up its public
boundary.  Installing the tracer replaces each of those functions, in every
`quotcat` module that bound it, by a wrapper that records one span per call:
(layer, verdict id, parent span, start, end).  Spans live in flat arrays while
the benchmark runs and are written to disk once, at the end.  A layer's self
time is the duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

MARK = "__perfbench_traced__"

# The span every verdict hangs from: the benchmark's own call into the pipeline.
VERDICT = "verdict"
# Verdict id given to spans outside any verdict (set-up).
SETUP_ID = -1


@dataclass
class Layer:
    """One traced layer: its name, its boundary and an optional post-call hook.

    `targets` lists (owner, attribute) pairs; an owner is a module or a class.
    `observe(args, result)` runs after each call that returns normally.
    """

    name: str
    targets: list
    observe: Callable | None = None


def _quotcat_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "quotcat" or n.startswith("quotcat.")]


class Tracer:
    """Spans and counts for one traced run; layer 0 is the verdict root."""

    def __init__(self, layers: list[Layer]):
        self.layers = [Layer(VERDICT, [])] + list(layers)
        self.layer = array("B")
        self.verdict_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._verdict = SETUP_ID
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, int] = {}

    # -- recording -------------------------------------------------------------

    def _open(self, layer_id: int) -> int:
        idx = len(self.start)
        self.layer.append(layer_id)
        self.verdict_of.append(self._verdict)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, k: int = 1):
        self.counters[name] = self.counters.get(name, 0) + k

    def verdict(self, verdict_id: int, fn, *args, **kwargs):
        """Run fn as verdict `verdict_id`, under a root span of its own."""
        self._verdict = verdict_id
        idx = self._open(0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)
            self._verdict = SETUP_ID

    def _wrap(self, layer_id: int, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(layer_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(args, out)
            return out

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        setattr(traced, MARK, True)
        return traced

    # -- patching --------------------------------------------------------------

    def install(self):
        """Wrap every target wherever a quotcat module bound it."""
        modules = _quotcat_modules()
        for layer_id, layer in enumerate(self.layers):
            for owner, attr in layer.targets:
                if isinstance(owner, type):
                    orig = owner.__dict__[attr]
                    self._patches.append((owner, attr, orig))
                    setattr(owner, attr, self._wrap(layer_id, orig, layer.observe))
                    continue
                orig = getattr(owner, attr)
                wrapper = self._wrap(layer_id, orig, layer.observe)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, name, orig))
                            setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def per_layer(self) -> dict[str, tuple[int, float]]:
        """{layer: (calls, self seconds)} over every recorded span."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.layers)
        self_s = [0.0] * len(self.layers)
        for i in range(n):
            lid = self.layer[i]
            calls[lid] += 1
            self_s[lid] += self.end[i] - self.start[i] - child[i]
        return {layer.name: (calls[i], self_s[i]) for i, layer in enumerate(self.layers)}

    def write(self, path: str):
        """Header line (JSON), then the raw bytes of each span column."""
        columns = ["layer", "verdict_of", "parent", "start", "end"]
        header = {
            "layers": [layer.name for layer in self.layers],
            "spans": len(self.start),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(fh)


def read_spans(path: str) -> tuple[dict, dict[str, array]]:
    """Inverse of Tracer.write: (header, {column: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for name, code in header["columns"]:
            col = array(code)
            col.fromfile(fh, header["spans"])
            cols[name] = col
    return header, cols


def leftover_wrappers() -> list[str]:
    """Names of quotcat attributes (module or class level) still wrapped."""
    out = []
    for mod in _quotcat_modules():
        for name, value in vars(mod).items():
            if getattr(value, MARK, False):
                out.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, MARK, False):
                        out.append(f"{mod.__name__}.{name}.{attr}")
    return out
