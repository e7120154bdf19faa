"""Span tracing around calls into fastmld's layers, from outside the package.

``Tracer.install`` replaces, in every layer module, each public fastmld
function that module can call by name with a wrapper that records a span.
A call is wrapped in the namespace of the module that makes it, so a call
from ``decoder`` into ``vec_times_matrix`` is a ``mailman`` span whose
parent is the ``decoder`` span around it.  The benchmark calls the
program through the same module attributes, so its own calls are spans
too.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import types
from array import array
from collections import defaultdict
from time import perf_counter

#: Modules measured as layers; cli and fileio only parse input.
LAYERS = ("codes", "mailman", "channels", "decoder", "oracle", "simulate")


class Tracer:
    """Records name, phase, parent, start and end of each wrapped call.

    ``phase`` is set by the benchmark to label what it is running (for
    example ``mc.ml`` or ``decode.list``); every span started meanwhile
    carries that label.  Spans live in flat arrays rather than one object
    each, so a long trace adds no work for the garbage collector.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.phases: list[str] = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.phase = ""
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, fn):
        names, phases, parents, starts, ends = self.names, self.phases, self.parents, self.starts, self.ends
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name)
            phases.append(self.phase)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return traced

    def install(self, package) -> None:
        """Wrap the public functions (``package.__all__``) in every layer module."""
        public = set(package.__all__)
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if attr not in public or not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if owner not in LAYERS:
                    continue
                setattr(module, attr, self._wrap(f"{owner}.{attr}", obj))
                self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def durations(self) -> dict[tuple[str, str], tuple[list[float], list[float]]]:
        """Per (phase, name): total and self seconds of every span.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap, as the benchmark
        runs one caller.
        """
        spans = range(len(self.starts))
        length = [self.ends[i] - self.starts[i] for i in spans]
        child = [0.0] * len(length)
        for i in spans:
            if self.parents[i] >= 0:
                child[self.parents[i]] += length[i]
        out: dict[tuple[str, str], tuple[list[float], list[float]]] = defaultdict(lambda: ([], []))
        for i in spans:
            total, own = out[(self.phases[i], self.names[i])]
            total.append(length[i])
            own.append(length[i] - child[i])
        return out

    def write(self, path) -> None:
        """One CSV line per span; ``request`` is the index of its top-level span."""
        origin = self.starts[0] if self.starts else 0.0
        request = []
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,request,phase,name,start_us,duration_us\n")
            for i, parent in enumerate(self.parents):
                request.append(i if parent < 0 else request[parent])
                out.write(
                    f"{i},{parent},{request[i]},{self.phases[i]},{self.names[i]},"
                    f"{(self.starts[i] - origin) * 1e6:.3f},{(self.ends[i] - self.starts[i]) * 1e6:.3f}\n"
                )
