"""In-memory span tracer for the public functions of the wavecontrol modules.

``Tracer.install`` wraps every function listed in a module's ``__all__`` and
rebinds every module-level reference to that function object across the
given modules, including values of module-level dicts.  Calls made through
names imported with ``from .x import f`` are therefore traced as well as
calls through the defining module.  A span is ``[name, start, end, parent]``
with ``parent`` the index of the enclosing span (-1 for a root); spans stay in
memory until the caller serializes them.

The program runs single-threaded, so the spans of one call form a tree whose
children are disjoint in time, and the time a span's children cover is the
sum of their durations.
"""

from __future__ import annotations

import collections
import functools
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = collections.Counter()  # calls of counted, unspanned callables
        self.iterations = collections.Counter()  # sum of returned `.iterations`
        self._open = [-1]  # indices of the open spans
        self._rebound = []  # (namespace, key, original) to undo

    def wrap(self, name, fn):
        """Record a span named ``name`` ("<layer>.<function>") for every call."""
        spans, stack, clock, iterations = self.spans, self._open, self.clock, self.iterations

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            its = getattr(result, "iterations", None)
            if isinstance(its, int):
                iterations[name] += its
            return result

        return traced

    def counter(self, name, fn):
        """Wrap ``fn`` so that calls are counted, with no span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, modules, counted=(), skip=()):
        """Trace the ``__all__`` functions of ``modules`` (layer name -> module).

        ``counted`` holds ``(module, attribute, counter name)`` triples for
        callables that are counted, not spanned (such as a library routine a
        layer imports); ``skip`` holds "<layer>.<function>" names left alone.
        Every module-level binding of each wrapped object in ``modules`` is
        rebound.
        """
        replace = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if f"{layer}.{attr}" in skip:
                    continue
                if callable(obj) and not isinstance(obj, type):
                    if getattr(obj, "__module__", None) == mod.__name__:
                        replace[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod, attr, name in counted:
            obj = getattr(mod, attr)
            replace[id(obj)] = (obj, self.counter(name, obj))
        for mod in modules.values():
            self._rebind(vars(mod), replace)
            for value in list(vars(mod).values()):
                if isinstance(value, dict):
                    self._rebind(value, replace)

    def _rebind(self, namespace, replace):
        for key, value in list(namespace.items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                self._rebound.append((namespace, key, value))
                namespace[key] = hit[1]

    def uninstall(self):
        for namespace, key, original in reversed(self._rebound):
            namespace[key] = original
        self._rebound.clear()


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, start, end, _), c in zip(spans, covered)]


def layer_breakdown(spans, wall_s):
    """Aggregate the spans of one traced repetition lasting ``wall_s`` seconds.

    Returns ``<layer>.self_s`` per layer; per function ``<name>.calls`` and
    ``<name>.s``, the time in its calls not nested in another of its own
    calls; and ``untraced_s``, the part of the wall time no root span covers.
    The self times plus ``untraced_s`` add up to ``wall_s``.
    """
    out = collections.defaultdict(float)
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        out[name.split(".", 1)[0] + ".self_s"] += own
        out[f"{name}.calls"] += 1
        if not _inside(spans, parent, name):
            out[f"{name}.s"] += end - start
    out["untraced_s"] = wall_s - sum(end - start for _, start, end, parent in spans if parent < 0)
    return dict(out)


def _inside(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
