"""Span tracer installed from outside the package for the traced run.

`Tracer.install` replaces every public function of the package's modules,
plus `WeightedMultigraph.parse` and the `SeriesProvider` lookups, with a
wrapper that records a span (name, start, end, parent, completed).  Modules
import each other's functions by name, so a function is replaced in every
`maxmaxflow.*` module dict that holds the identical object.  `uninstall`
puts the originals back.  Spans stay in memory; self time is a span's
duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np

MODULES = ("graph", "flowcut", "invariants", "counting", "intervals", "bounds", "chromatic", "cli")
PROVIDER_METHODS = ("edge_class", "walk_total", "saw", "fpw", "through_edge")
EDGE_KINDS = frozenset({"T", "F", "H", "C", "BT", "BF", "BFSTAR", "B", "BLOCKPATH"})


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_accepted(counters, args, kwargs, result):
    counters["is_in_class.accepted"] += bool(result)


def _count_subsets(counters, args, kwargs, result):
    # edge-subset kinds visit every subset of at most M edges
    g, spec, M = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "spec"), _arg(args, kwargs, 2, "M")
    if spec.kind in EDGE_KINDS:
        counters["subsets_visited"] += sum(math.comb(g.m, k) for k in range(min(M, g.m) + 1))


def _count_log_args(counters, args, kwargs, result):
    counters["log_args"].add((Fraction(_arg(args, kwargs, 0, "q")), _arg(args, kwargs, 1, "tol")))


def _count_trials(counters, args, kwargs, result):
    counters["hunt.trials"] += _arg(args, kwargs, 1, "trials")


HOOKS = {
    "counting.is_in_class": _count_accepted,
    "counting.class_count_series": _count_subsets,
    "intervals.log_interval": _count_log_args,
    "bounds.hunt": _count_trials,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.done = array("b")
        self.stack = [-1]
        self.counters = {"is_in_class.accepted": 0, "subsets_visited": 0,
                         "hunt.trials": 0, "log_args": set()}
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        ids, parents, starts, ends, done = self.nid, self.parent, self.start, self.end, self.done
        stack, counters, clock = self.stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            done.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            done[i] = 1
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        package = [m for k, m in sys.modules.items() if k == "maxmaxflow" or k.startswith("maxmaxflow.")]
        for short in MODULES:
            mod = sys.modules[f"maxmaxflow.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for holder in package:
                    for key, val in list(vars(holder).items()):
                        if val is fn:
                            self._patch(holder, key, wrapper)
        graph_cls = sys.modules["maxmaxflow.graph"].WeightedMultigraph
        parse = vars(graph_cls)["parse"]
        self._patch(graph_cls, "parse", classmethod(self._wrap("graph.parse", parse.__func__)))
        provider = sys.modules["maxmaxflow.bounds"].SeriesProvider
        for attr in PROVIDER_METHODS:
            if attr in vars(provider):
                self._patch(provider, attr, self._wrap(f"bounds.SeriesProvider.{attr}", vars(provider)[attr]))

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def _arrays(self):
        nid = np.frombuffer(self.nid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return nid, parent, dur - child, nested

    def metrics(self, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Per-layer values by metric name.

        `<span>.calls` and `<span>.self_s` exist for every wrapped function;
        a function that the package no longer has is simply absent.
        """
        nid, parent, self_s, nested = self._arrays()
        calls_by = np.bincount(nid, minlength=len(self.names))
        self_by = np.bincount(nid, weights=self_s, minlength=len(self.names))
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):  # a name repeats once per install
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + int(calls_by[i])
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + float(self_by[i])
        c = self.counters
        out["counting.is_in_class.accepted"] = c["is_in_class.accepted"]
        out["counting.subsets_visited"] = c["subsets_visited"]
        out["counting.accept_ratio"] = _ratio(c["is_in_class.accepted"], c["subsets_visited"])
        log_calls = out.get("intervals.log_interval.calls", 0)
        out["intervals.log_interval.distinct_args"] = len(c["log_args"])
        out["intervals.log_interval.repeat_ratio"] = _ratio(log_calls - len(c["log_args"]), log_calls)

        def spans_named(pred):
            return np.array([pred(name) for name in self.names], dtype=bool)[nid]

        parent_of = np.where(nested, parent, 0)
        # a SeriesProvider lookup misses when it calls into a counting series
        provider = spans_named(lambda n: n.startswith("bounds.SeriesProvider."))
        series = spans_named(lambda n: n.startswith("counting.") and n != "counting.class_spec")
        lookups = int(provider.sum())
        misses = len(np.unique(parent[nested & series & provider[parent_of]]))
        out["bounds.series_cache_hit_ratio"] = _ratio(lookups - misses, lookups)
        # a trial reaches a verdict when its verify_bound call inside hunt returns
        returned = np.frombuffer(self.done, dtype=np.int8) == 1
        verdicts = spans_named(lambda n: n == "bounds.verify_bound") & returned & nested
        verdicts &= spans_named(lambda n: n == "bounds.hunt")[parent_of]
        out["bounds.hunt.verdict_ratio"] = _ratio(int(verdicts.sum()), c["hunt.trials"])
        for short in MODULES:
            share = sum(v for k, v in out.items() if k.startswith(short + ".") and k.endswith(".self_s"))
            out[f"{short}.self_frac"] = share / traced_s
        out["trace.overhead_frac"] = traced_s / untraced_s - 1
        return out

    def save(self, path: Path):
        """Write every span for offline inspection (numpy .npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), nid=np.frombuffer(self.nid, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32), start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end), done=np.frombuffer(self.done, dtype=np.int8))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
