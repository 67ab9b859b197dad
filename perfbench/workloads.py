"""The benchmark's four fixed run lists.

A pass of a workload is a list of ``(experiment, config)`` runs that the
benchmark hands to ``ergolab.harness.run_experiment`` one after another, or
(for ``verify-quick``) one call of ``ergolab.acceptance.run_suite``.  Every
run gets the workload seed as its ``seed`` argument, which is all the seeded
(Monte-Carlo) experiments draw from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_SQRT2M1 = math.sqrt(2) - 1
_WALK_GRID = [1 << j for j in range(10, 21)]


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    runs: tuple = ()  # (experiment, config) pairs, in pass order
    warm_cache: bool = False  # set-up runs one pass to fill the sieve cache
    cold_cache: bool = False  # every pass starts from an empty cache dir
    determinism_threads: int | None = None  # rerun once at this count, bytes must match
    suite: str | None = None  # acceptance suite instead of a run list


def _nt_warm() -> tuple:
    return (
        ("davenport", {"xs": [10**4, 10**5, 10**6]}),
        ("zhan", {"x": 200_000, "tau": 0.7, "thetas": 64}),
        ("chowla", {"kind": "liouville", "schedule": [1 << 16, 1 << 18, 1 << 20]}),
        ("short-interval", {"xs": [10**5, 10**6, 10**7], "tau": 0.6}),
        ("second-moment", {"xs": [10**5, 10**6, 4 * 10**6]}),
        ("partition", {"rule": "squares", "top": 10**7}),
        ("besicovitch", {"kind": "mobius", "other": "liouville", "limit": 1 << 22}),
        ("disjointness", {"n": 10**6, "system": {"variant": "skew-affine", "alpha": _SQRT2M1}}),
    )


def _montecarlo() -> tuple:
    return (
        ("random-mertens", {"grid": _WALK_GRID, "tau": 0.5, "paths": 64}),
        ("random-mertens", {"grid": _WALK_GRID, "tau": 0.6, "paths": 64}),
        ("covering", {"ns": [64, 256, 1024, 4096], "reps": 16}),
        ("gc-deviation", {"family": {"type": "bernoulli", "size": 4096}, "n": 1024, "reps": 64}),
        ("shatter-prob", {"family": {"type": "bernoulli", "size": 65536}, "n": 12, "reps": 8}),
        ("shatter", {"family": {"type": "bernoulli", "size": 65536}, "n": 12, "budget": 12}),
        ("probe-equicont", {"n": 32768}),
    )


def _tables_cold() -> tuple:
    return (
        ("sieve", {"kind": "mobius", "limit": 10**8, "head": 10**6}),
        ("mertens", {"limit": 5 * 10**7, "head": 10**5}),
        ("mertens", {"limit": 10**8, "head": 10**5}),
        ("sieve", {"kind": "liouville", "limit": 3 * 10**7, "head": 10**5}),
        ("bfree", {"limit": 10**7, "head": 5 * 10**5}),
        ("orbit", {"n": 250_000}),
    )


NAMES = ("nt-warm", "montecarlo", "tables-cold", "verify-quick")


def build(name: str) -> Workload:
    """The workload called ``name``; BENCHMARK.json says why each one exists."""
    if name == "nt-warm":
        return Workload(name, threads=1, runs=_nt_warm(), warm_cache=True)
    if name == "montecarlo":
        return Workload(name, threads=2, runs=_montecarlo(), determinism_threads=1)
    if name == "tables-cold":
        return Workload(name, threads=1, runs=_tables_cold(), cold_cache=True)
    if name == "verify-quick":
        return Workload(name, threads=1, suite="quick")
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
