"""Spans and counters around hopfgalois' public functions, installed from
outside the package.

Modules bind names with ``from .x import y``, so a wrapper is put into
every ``hopfgalois`` module namespace (and class) that holds the original
object, e.g. both ``factory.class_index`` and ``realize.class_index``.
Spans stay in memory as ``[name, start, end, parent]`` lists; parents
come from a per-thread stack, so spans made in a worker thread are roots.
A few functions only get a call counter (see ``COUNTED``).
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time

# Layer name -> (module, attribute path).  The layer name is the metric
# prefix; it names the module that defines the function.
LAYERS = {
    "realize.regular_subgroups": ("hopfgalois.realize", "regular_subgroups"),
    "realize.crossed_homomorphisms": ("hopfgalois.realize", "crossed_homomorphisms"),
    "realize.realizable_via_cocycles": ("hopfgalois.realize", "realizable_via_cocycles"),
    "realize.count_crossed_pairs": ("hopfgalois.realize", "count_crossed_pairs"),
    "realize.transport_characteristic": ("hopfgalois.realize", "transport_characteristic"),
    "factory.holomorph": ("hopfgalois.factory", "holomorph"),
    "factory.class_index": ("hopfgalois.factory", "class_index"),
    "factory.catalog": ("hopfgalois.factory", "catalog"),
    "factory.build": ("hopfgalois.factory", "build"),
    "factory.automorphism_group": ("hopfgalois.factory", "automorphism_group"),
    "groups.are_isomorphic": ("hopfgalois.groups", "are_isomorphic"),
    "groups.homomorphisms": ("hopfgalois.groups", "homomorphisms"),
    "groups.subgroups_of_order": ("hopfgalois.groups", "subgroups_of_order"),
    "groups.PermGroup.table": ("hopfgalois.groups", "PermGroup.table"),
    "groups.PermGroup.minimal_generating_set": (
        "hopfgalois.groups",
        "PermGroup.minimal_generating_set",
    ),
    "brace.brace_from_regular": ("hopfgalois.brace", "brace_from_regular"),
    "brace.verify_brace": ("hopfgalois.brace", "verify_brace"),
    "brace.lambda_circ_in_hol": ("hopfgalois.brace", "lambda_circ_in_hol"),
    "audit.run_audit": ("hopfgalois.audit", "run_audit"),
    "audit.cached_realizable": ("hopfgalois.audit", "cached_realizable"),
    "store.AutCache.load": ("hopfgalois.store", "AutCache.__init__"),
    "store.AutCache.get": ("hopfgalois.store", "AutCache.get"),
    "store.AutCache.put": ("hopfgalois.store", "AutCache.put"),
    "store.ResultsStore.record": ("hopfgalois.store", "ResultsStore.record"),
    "cli.main": ("hopfgalois.cli", "main"),
}

# Functions that only get a call counter: ``perm.compose`` runs millions
# of times, and a span on ``parallel_map`` would take the self time of
# the search callbacks it runs.
COUNTED = {
    "perm.compose": ("hopfgalois.perm", "compose"),
    "parallel.parallel_map": ("hopfgalois.parallel", "parallel_map"),
}


def _counting(fn, bump):
    """``fn`` with a call counter; ``bump`` is ``next`` of an
    ``itertools.count``, atomic under the GIL unlike ``+=`` on an int."""

    def counted(*args, **kwargs):
        bump()
        return fn(*args, **kwargs)

    return counted


def _distinct_size(attr):
    """Observer adding the size of each result object seen for the first time
    (holomorphs and Aut groups are cached on N, so repeats are lookups)."""

    def observe(tracer, key, result):
        if id(result) not in tracer.seen:
            tracer.seen[id(result)] = result
            size = len(getattr(result, attr) if attr else result)
            tracer.add(key, size)

    return observe


def _length(tracer, key, result):
    tracer.add(key, len(result))


def _truthy(tracer, key, result):
    tracer.add(key, 1 if result else 0)


def _not_none(tracer, key, result):
    tracer.add(key, 0 if result is None else 1)


# Layer -> (counter suffix, observer) pairs for counts beyond calls and time.
OBSERVERS = {
    "realize.regular_subgroups": (("found", _length),),
    "factory.holomorph": (("elements", _distinct_size("group")),),
    "factory.automorphism_group": (("elements", _distinct_size(None)),),
    "groups.are_isomorphic": (("matched", _not_none),),
    "groups.homomorphisms": (("found", _length),),
    "realize.crossed_homomorphisms": (("witnesses", _length), ("hits", _truthy)),
    "store.AutCache.get": (("hits", _not_none),),
}


class Tracer:
    """Collects spans and counters while installed; ``uninstall`` restores
    every original binding."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.seen = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []
        self._counters = {}

    def add(self, key, n):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        spans = self.spans
        stack_of = self._stack
        observers = [(f"{name}.{suffix}", obs) for suffix, obs in OBSERVERS.get(name, ())]

        def wrapper(*args, **kwargs):
            stack = stack_of()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            for key, obs in observers:
                obs(self, key, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        modules = [
            m
            for n, m in list(sys.modules.items())
            if (n == "hopfgalois" or n.startswith("hopfgalois.")) and m is not None
        ]

        def replace_everywhere(original, wrapper):
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)

        for name, (module_name, path) in LAYERS.items():
            owner = importlib.import_module(module_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            if cls_path:
                self._set(owner, attr, wrapper)
            else:
                replace_everywhere(original, wrapper)
        for name, (module_name, attr) in COUNTED.items():
            original = getattr(importlib.import_module(module_name), attr)
            counter = itertools.count()
            self._counters[name] = counter
            replace_everywhere(original, _counting(original, counter.__next__))

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        for name, counter in self._counters.items():
            self.counts[f"{name}.calls"] = next(counter)
        self._counters = {}

    def export(self):
        """Spans and counters as plain JSON-ready data."""
        return {"spans": self.spans, "counts": dict(self.counts)}


def summarize(traces, since=None):
    """Per-layer totals over one or more exported traces.

    ``<layer>.s`` sums the outermost spans of a layer (a recursive call is
    not counted twice), ``<layer>.self_s`` sums span time minus direct
    child spans, ``<layer>.calls`` counts every span.  With ``since``,
    only spans that start at or after that clock reading count.
    """
    stats = {}
    for name in LAYERS:
        stats[f"{name}.s"] = 0.0
        stats[f"{name}.self_s"] = 0.0
        stats[f"{name}.calls"] = 0
    misses = 0
    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            if since is not None and start < since:
                continue
            dur = end - start
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_s"] += dur - child_time[i]
            p = parent
            outermost = True
            while p >= 0:
                if spans[p][0] == name:
                    outermost = False
                    break
                p = spans[p][3]
            if outermost:
                stats[f"{name}.s"] += dur
            if name == "realize.realizable_via_cocycles" and parent >= 0:
                if spans[parent][0] == "audit.cached_realizable":
                    misses += 1
        for key, value in trace["counts"].items():
            stats[key] = stats.get(key, 0) + value
    stats["audit.cached_realizable.misses"] = misses
    return stats
