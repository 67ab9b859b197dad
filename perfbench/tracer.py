"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces each traced function at the module attribute
its caller looks it up by (``harness.davenport_sum``,
``experiments.sieve_liouville``, ``gc_stats.map_indexed`` ...) with a
wrapper that records a span: name, start, end, parent span and run id.
Spans stay in memory until ``uninstall``; ``layer_metrics`` turns one pass
worth of them into the per-layer metrics.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from dataclasses import dataclass

# span name -> (module, attribute) sites it is installed at
SITES = {
    "arith.sieve": [
        (m, f) for m in ("harness", "experiments", "acceptance")
        for f in ("sieve_mobius", "sieve_liouville")
    ] + [("arith", "sieve_mobius")],
    "arith.mertens_prefix": [("harness", "mertens_prefix"), ("acceptance", "mertens_prefix"),
                             ("dynsys", "mertens_prefix")],
    "arith.bfree_indicator": [("harness", "bfree_indicator"), ("acceptance", "bfree_indicator"),
                              ("averaging", "bfree_indicator")],
    "arith.brute_arith": [("acceptance", "brute_arith")],
    "harness.cache": [("harness", "cached_sieve")],
    "harness.write_csv": [("harness", "write_csv")],
    "harness.prepare_run": [("harness", "prepare_run")],
    "experiments.davenport_sum": [("harness", "davenport_sum"), ("acceptance", "davenport_sum")],
    "experiments.zhan_sup": [("harness", "zhan_sup")],
    "experiments.correlations": [("experiments", "correlations"), ("acceptance", "correlations")],
    "experiments.chowla_decay": [("harness", "chowla_decay"), ("acceptance", "chowla_decay")],
    "experiments.short_interval_sup": [("harness", "short_interval_sup"),
                                       ("acceptance", "short_interval_sup")],
    "experiments.interval_second_moment": [("harness", "interval_second_moment"),
                                           ("acceptance", "interval_second_moment")],
    "experiments.partition_mertens_sum": [("harness", "partition_mertens_sum"),
                                          ("acceptance", "partition_mertens_sum")],
    "experiments.disjointness_sum": [("harness", "disjointness_sum")],
    "experiments.random_mertens_sim": [("harness", "random_mertens_sim"),
                                       ("acceptance", "random_mertens_sim")],
    "gc_stats.is_shattered": [("harness", "is_shattered"), ("gc_stats", "is_shattered")],
    "gc_stats.covering_number": [("harness", "covering_number"), ("gc_stats", "covering_number")],
    "gc_stats.empirical_sample": [("harness", "empirical_sample"), ("gc_stats", "empirical_sample")],
    "gc_stats.entropy_rate": [("harness", "entropy_rate"), ("acceptance", "entropy_rate")],
    "gc_stats.shattering_probability": [("harness", "shattering_probability"),
                                        ("acceptance", "shattering_probability")],
    "gc_stats.shattering_dimension": [("harness", "shattering_dimension")],
    "gc_stats.empirical_sup_deviation": [("harness", "empirical_sup_deviation")],
    "averaging.mean_equicontinuity_probe": [("harness", "mean_equicontinuity_probe")],
    "averaging.besicovitch": [
        (m, f) for m in ("harness", "averaging")
        for f in ("besicovitch_seminorm", "besicovitch_distance")
    ],
}
# stream classes whose ``take`` method is traced as dynsys.take
STREAMS = ("RotationStream", "SturmianStream", "SkewStream", "BernoulliStream", "TableStream")
POOL_SITES = (("experiments", "map_indexed"), ("gc_stats", "map_indexed"))
CRITERIA = (1, 2, 3, 5, 7, 9, 11)


def _size(value) -> int:
    return len(getattr(value, "values", value))


# span name -> attrs taken from (args, result)
_ATTRS = {
    "arith.sieve": lambda args, result: {"entries": _size(result)},
    "dynsys.take": lambda args, result: {"values": _size(result)},
    "harness.write_csv": lambda args, result: {
        "rows": len(args[2]), "bytes": os.path.getsize(args[0])
    },
}


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int  # 0 for a root span
    run: int
    name: str
    start: float
    end: float
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.sid, "parent": self.parent, "run": self.run, "name": self.name,
                "start": self.start, "end": self.end, **(self.attrs or {})}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._runs = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None, attrs=None):
        """fn(*args, **kwargs) inside a span; ``parent`` is a (span id, run
        id) pair for spans started on another thread than their parent."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else (0, next(self._runs))
        sid = next(self._ids)
        stack.append((sid, parent[1]))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        measured = _ATTRS[name](args, result) if name in _ATTRS else None
        if attrs or measured:
            measured = {**(attrs or {}), **(measured or {})}
        self.spans.append(Span(sid, parent[0], parent[1], name, start, end, measured))
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def _wrap_pool(self, map_indexed):
        tracer = self

        @functools.wraps(map_indexed)
        def traced(fn, count, threads=1):
            used = threads if threads > 1 and count > 1 else 1
            layer = fn.__module__.rpartition(".")[2]

            def pool(fn, count, threads):
                parent = tracer._stack()[-1]

                def task(i):
                    return tracer.call("util.task", fn, (i,), {}, parent, {"layer": layer})

                return map_indexed(task, count, threads)

            return tracer.call("util.map_indexed", pool, (fn, count, threads), {},
                               attrs={"tasks": count, "threads": used})

        return traced

    # -- installing ----------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append(functools.partial(setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, modules: dict) -> list:
        """Wrap every traced site; ``modules`` maps short names to modules.
        Returns the sites that no longer exist in the program."""
        sites = [(m, a, functools.partial(self.wrap, name)) for name, where in SITES.items()
                 for m, a in where]
        sites += [(m, a, self._wrap_pool) for m, a in POOL_SITES]
        missing = []
        for module, attr, make in sites:
            owner = modules[module]
            if hasattr(owner, attr):
                self._patch(owner, attr, make(getattr(owner, attr)))
            else:
                missing.append(f"{module}.{attr}")
        for cls_name in STREAMS:
            cls = getattr(modules["dynsys"], cls_name)
            self._patch(cls, "take", self.wrap("dynsys.take", cls.take))
        # run_suite looks criteria up by id in this table
        table = modules["acceptance"]._CRITERIA
        for cid in CRITERIA:
            self._undo.append(functools.partial(table.__setitem__, cid, table[cid]))
            table[cid] = self.wrap(f"acceptance.criterion_{cid}", table[cid])
        return missing

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


# ---------------------------------------------------------------------------
# metrics


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _layer(span: Span) -> str:
    if span.name == "util.task":
        return span.attrs["layer"]
    return span.name.partition(".")[0]


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one pass: calls, inclusive seconds (outermost
    span of a name only), self seconds, and the derived counts and ratios."""
    by_id = {s.sid: s for s in spans}
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def ancestors(s):
        while s.parent in by_id:
            s = by_id[s.parent]
            yield s

    self_s = {
        s.sid: s.seconds - _covered([(c.start, c.end) for c in children.get(s.sid, ())],
                                    s.start, s.end)
        for s in spans
    }
    calls: dict = {}
    incl: dict = {}
    selfs: dict = {}
    layers: dict = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        if all(a.name != s.name for a in ancestors(s)):
            incl[s.name] = incl.get(s.name, 0.0) + s.seconds
        selfs[s.name] = selfs.get(s.name, 0.0) + self_s[s.sid]
        layers[_layer(s)] = layers.get(_layer(s), 0.0) + self_s[s.sid]

    def total(name, key):
        return sum(s.attrs[key] for s in spans if s.name == name)

    def ratio(a, b):
        return a / b if b else 0.0

    misses = sum(
        1 for s in spans
        if s.name == "harness.cache"
        and any(c.name == "arith.sieve" for c in children.get(s.sid, ()))
    )
    pool_capacity = sum(s.seconds * s.attrs["threads"] for s in spans if s.name == "util.map_indexed")
    task_s = sum(s.seconds for s in spans if s.name == "util.task")
    m = {
        "arith.sieve.calls": calls.get("arith.sieve", 0),
        "arith.sieve.s": incl.get("arith.sieve", 0.0),
        "arith.sieve.entries": total("arith.sieve", "entries"),
        "arith.sieve.entries_per_s": ratio(total("arith.sieve", "entries"), incl.get("arith.sieve", 0.0)),
        "arith.mertens_prefix.calls": calls.get("arith.mertens_prefix", 0),
        "arith.mertens_prefix.s": incl.get("arith.mertens_prefix", 0.0),
        "arith.bfree_indicator.s": incl.get("arith.bfree_indicator", 0.0),
        "arith.brute_arith.calls": calls.get("arith.brute_arith", 0),
        "arith.brute_arith.s": incl.get("arith.brute_arith", 0.0),
        "harness.cache.calls": calls.get("harness.cache", 0),
        "harness.cache.misses": misses,
        "harness.cache.hit_ratio": ratio(calls.get("harness.cache", 0) - misses, calls.get("harness.cache", 0)),
        "harness.cache.self_s": selfs.get("harness.cache", 0.0),
        "harness.write_csv.calls": calls.get("harness.write_csv", 0),
        "harness.write_csv.s": incl.get("harness.write_csv", 0.0),
        "harness.write_csv.rows": total("harness.write_csv", "rows"),
        "harness.emit.bytes": total("harness.write_csv", "bytes"),
        "harness.emit.mb_per_s": ratio(total("harness.write_csv", "bytes") / 1e6, incl.get("harness.write_csv", 0.0)),
        "harness.prepare_run.s": incl.get("harness.prepare_run", 0.0),
        "harness.run.calls": calls.get("harness.run", 0),
        "harness.run.self_s": selfs.get("harness.run", 0.0),
        "util.map_indexed.calls": calls.get("util.map_indexed", 0),
        "util.map_indexed.tasks": total("util.map_indexed", "tasks"),
        "util.map_indexed.s": incl.get("util.map_indexed", 0.0),
        "util.task_s": task_s,
        "util.idle_ratio": 1.0 - ratio(task_s, pool_capacity) if pool_capacity else 0.0,
        "dynsys.take.calls": calls.get("dynsys.take", 0),
        "dynsys.take.s": incl.get("dynsys.take", 0.0),
        "dynsys.take.values": total("dynsys.take", "values"),
    }
    for name in ("davenport_sum", "correlations", "random_mertens_sim"):
        m[f"experiments.{name}.calls"] = calls.get(f"experiments.{name}", 0)
    for name in ("is_shattered", "covering_number", "empirical_sample"):
        m[f"gc_stats.{name}.calls"] = calls.get(f"gc_stats.{name}", 0)
    for name in SITES:
        if name.startswith(("experiments.", "gc_stats.", "averaging.")):
            m[f"{name}.s"] = incl.get(name, 0.0)
    for cid in CRITERIA:
        m[f"acceptance.criterion_{cid}.s"] = incl.get(f"acceptance.criterion_{cid}", 0.0)
    for layer in ("arith", "harness", "experiments", "gc_stats", "averaging", "dynsys", "util", "acceptance"):
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
    return m
