"""End-to-end verification suite.

Each criterion is an exact-oracle equality check or a monotone-trend
property sized to run on a desk machine, reported as a single pass/fail
row.  The quick suite covers the exact checks; the full suite adds the
trend and Monte-Carlo criteria plus a thread-determinism comparison.

A criterion whose numbers a registry run writes reads them from its outputs
(RUNS); runs and criteria share one sieve cache in the suite's own directory.
"""

from __future__ import annotations

import csv
import io
import math
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import harness
from ._util import generator
from .arith import BFreeSpec, bfree_indicator, brute_arith, table_from_bytes
from .averaging import FolnerSchedule, bfree_approximation_gap
from .errors import ParameterError
from .experiments import correlations, mertens_prefix

__all__ = ["CriterionResult", "run_suite", "QUICK", "FULL"]

_GRID = [1 << j for j in range(10, 21)]
_ROTATION = {"type": "rotation", "alpha": math.sqrt(2) - 1, "size": 256}
_BERNOULLI = {"type": "bernoulli", "size": 1 << 14}
_GAP = {"alpha": 0.25, "beta": 0.75, "reps": 64}

# The registry runs criteria 4 to 10 read their numbers from and criterion 12
# repeats at threads 1 and 2, by label: (experiment, config), all at seed 0.
RUNS = {
    "chowla liouville": ("chowla", {"kind": "liouville", "schedule": [1 << j for j in (12, 14, 16, 18, 20)]}),
    "davenport": ("davenport", {"xs": [10**3, 10**4, 10**5, 10**6]}),
    "mertens head=100000": ("mertens", {"limit": 10**5, "head": 10**5}),
    "short-interval tau=0.6": ("short-interval", {"xs": [10**4, 10**5, 10**6, 10**7], "tau": 0.6}),
    "second-moment": ("second-moment", {"xs": [10**4, 10**5, 10**6]}),
    "partition squares top=10000": ("partition", {"rule": "squares", "top": 10**4}),
    "partition squares top=1000000": ("partition", {"rule": "squares", "top": 10**6}),
    "partition linear top=10000": ("partition", {"rule": "linear", "top": 10**4}),
    "sieve mobius head=10000": ("sieve", {"kind": "mobius", "limit": 10**4, "head": 10**4}),
    "random-mertens tau=0.5": ("random-mertens", {"grid": _GRID, "tau": 0.5, "paths": 256}),
    "random-mertens tau=0.6": ("random-mertens", {"grid": _GRID, "tau": 0.6, "paths": 256}),
    "veech": ("veech", {}),
    "covering rotation": (
        "covering",
        {"family": _ROTATION, "ns": [64, 1024], "eps": 0.1, "reps": 32, "sample_n": 1},
    ),
    "covering bernoulli": (
        "covering",
        {"family": _BERNOULLI, "ns": [2, 4, 6, 8, 10, 12], "eps": 0.1, "reps": 8, "sample_n": 1},
    ),
    "shatter-prob bernoulli n=8": ("shatter-prob", {"family": _BERNOULLI, "n": 8, **_GAP}),
    **{
        f"shatter-prob rotation n={n}": ("shatter-prob", {"family": _ROTATION, "n": n, **_GAP})
        for n in (2, 4, 6)
    },
    "gc-deviation": ("gc-deviation", {"reps": 8}),
}


@lru_cache(maxsize=1)
def _scratch() -> tempfile.TemporaryDirectory:
    """The suite's own directory: its run directories and its sieve cache.
    The suite never reads ./cache, $ERGOLAB_CACHE_DIR or ./results, so no
    stale table feeds it.  cache_clear() drops and removes the directory."""
    return tempfile.TemporaryDirectory(prefix="ergolab-verify-")


def _table(kind: str, limit: int) -> np.ndarray:
    # looked up on the harness module, like the registry runners' tables
    return harness.cached_sieve(kind, limit, Path(_scratch().name) / "cache")


@lru_cache(maxsize=None)
def _outputs(label: str, threads: int) -> dict:
    """{file name: bytes} of every output but the manifest of run RUNS[label]."""
    name, config = RUNS[label]
    root = Path(_scratch().name)
    run_dir = harness.run_experiment(name, config, seed=0, out=root / "runs", threads=threads, cache=root / "cache")
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.name != "manifest.json"}


def _rows(label: str, name: str) -> list[dict]:
    """The rows of one CSV output of RUNS[label] at threads 1, as {column: text}."""
    return list(csv.DictReader(io.StringIO(_outputs(label, 1)[name].decode("ascii"))))


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def criterion_1() -> CriterionResult:
    """Sieved mu/lambda equal trial division; divisor sums of mu vanish off 1."""
    t0 = time.perf_counter()
    limit, small = 10**6, 10**4
    mob = _table("mobius", limit)
    lio = _table("liouville", limit)
    points = np.concatenate([generator(0).integers(1, limit + 1, size=10**4), np.arange(1, small + 1)])
    mu, lam = brute_arith(points)
    bad = int(np.count_nonzero((mob[points - 1] != mu) | (lio[points - 1] != lam)))
    # acc[n] = sum of mu(d) over the divisors d of n: one weight mu(d) on each
    # multiple d * j <= small, binned at once; the float sums are of at most
    # 10^4 terms of size 1, so exact
    ds = np.arange(1, small + 1)
    counts = small // ds
    divisors = np.repeat(ds, counts)
    j = np.arange(len(divisors)) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    acc = np.bincount(divisors * j, weights=mob[divisors - 1], minlength=small + 1)
    identity_bad = int(acc[1] != 1) + int(np.count_nonzero(acc[2:]))
    passed = bad == 0 and identity_bad == 0
    detail = (
        f"{bad} mismatches vs trial division on {len(points)} points, "
        f"{identity_bad} divisor-sum failures below {small}"
    )
    return CriterionResult(1, "sieve-exactness", passed, detail, time.perf_counter() - t0)


def criterion_2() -> CriterionResult:
    """Mertens prefix increments reproduce mu pointwise; M(10) = -1."""
    t0 = time.perf_counter()
    limit = 10**6
    mob = _table("mobius", limit)
    prefix = mertens_prefix(mob)
    step_bad = int(np.count_nonzero(np.diff(prefix[0 : limit + 1]) != mob))
    m10 = int(prefix[10])
    passed = step_bad == 0 and m10 == -1
    detail = f"{step_bad} increment mismatches up to {limit}; M(10)={m10}"
    return CriterionResult(2, "mertens-consistency", passed, detail, time.perf_counter() - t0)


def criterion_3() -> CriterionResult:
    """FFT autocorrelations match the O(N^2) direct sums exactly at N=4096."""
    t0 = time.perf_counter()
    n = 1 << 12
    bad = {}
    for kind in ("mobius", "liouville"):
        values = _table(kind, 2 * n)
        fft = correlations(values, n, method="fft")
        bad[kind] = int(np.count_nonzero(fft != correlations(values, n, method="direct")))
    passed = all(v == 0 for v in bad.values())
    detail = ", ".join(f"{kind}: {v} lag mismatches" for kind, v in bad.items())
    return CriterionResult(3, "correlation-fft-vs-direct", passed, detail, time.perf_counter() - t0)


def criterion_4() -> CriterionResult:
    """Order-two average correlation of lambda decays and at least halves."""
    t0 = time.perf_counter()
    vals = [float(r["value"]) for r in _rows("chowla liouville", "decay.csv")]
    strict = _rows("chowla liouville", "fit.csv")[0]["strictly_decreasing"] == "true"
    passed = strict and vals[-1] < vals[0] / 2
    detail = (
        "D=" + "/".join(f"{v:.4f}" for v in vals)
        + f", strict decrease={strict}, end/start={vals[-1] / vals[0]:.3f}"
    )
    return CriterionResult(4, "chowla-average-decay", passed, detail, time.perf_counter() - t0)


def criterion_5() -> CriterionResult:
    """Exponential-sum peak: theta=0 value is |M(x)|; normalized peak shrinks."""
    t0 = time.perf_counter()
    peaks = {int(r["x"]): r for r in _rows("davenport", "davenport.csv")}
    mertens = _outputs("mertens head=100000", 1)["mertens.csv"].split(b"\n")  # line x is "x,M(x)"
    exact = [float(peaks[x]["theta0"]) == abs(int(mertens[x].split(b",")[1])) for x in (10**3, 10**4, 10**5)]
    ratios = [float(peaks[x]["ratio"]) for x in (10**4, 10**5, 10**6)]
    trend = all(b <= 1.2 * a for a, b in zip(ratios, ratios[1:]))
    passed = all(exact) and trend
    detail = (
        f"theta0 exact at {sum(exact)}/3 points; "
        "ratios " + "/".join(f"{r:.4f}" for r in ratios) + f" non-increasing(1.2x)={trend}"
    )
    return CriterionResult(5, "davenport-peak", passed, detail, time.perf_counter() - t0)


def criterion_6() -> CriterionResult:
    """Short-interval sups shrink with x; normalized second moment decreases."""
    t0 = time.perf_counter()
    sups = [float(r["sup"]) for r in _rows("short-interval tau=0.6", "intervals.csv")]
    sup_trend = all(b <= 1.2 * a for a, b in zip(sups, sups[1:]))
    moments = [float(r["normalized"]) for r in _rows("second-moment", "moments.csv")]
    moment_trend = all(b < a for a, b in zip(moments, moments[1:]))
    passed = sup_trend and moment_trend
    detail = (
        "sups " + "/".join(f"{s:.5f}" for s in sups) + f" non-increasing(1.2x)={sup_trend}; "
        "moments " + "/".join(f"{m:.4f}" for m in moments) + f" decreasing={moment_trend}"
    )
    return CriterionResult(6, "short-interval-trend", passed, detail, time.perf_counter() - t0)


def criterion_7() -> CriterionResult:
    """Partition variation of M: square partition shrinks >= 25%; unit partition
    counts squarefree integers exactly."""
    t0 = time.perf_counter()
    top = 10**4
    ratios = {
        t: float(_rows(f"partition squares top={t}", "summary.csv")[0]["ratio"]) for t in (top, 10**6)
    }
    drop = 1.0 - ratios[10**6] / ratios[top]
    unit = _rows(f"partition linear top={top}", "summary.csv")[0]
    abs_sum = int(unit["abs_sum"])
    mob = table_from_bytes("mobius", _outputs(f"sieve mobius head={top}", 1)["table.bin"])
    squarefree = int(np.count_nonzero(mob[1:top]))
    exact = abs_sum == squarefree and float(unit["ratio"]) == squarefree / top
    passed = drop >= 0.25 and exact
    detail = (
        f"square-partition ratio {ratios[top]:.4f}->{ratios[10**6]:.4f} (drop {drop:.1%}); "
        f"unit-partition sum {abs_sum} vs squarefree count {squarefree}"
    )
    return CriterionResult(7, "partition-variation", passed, detail, time.perf_counter() - t0)


def criterion_8() -> CriterionResult:
    """Random-walk analogue: RMS sup bounded at tau=1/2; small tails at tau=0.6."""
    t0 = time.perf_counter()
    rms = np.array([float(r["rms"]) for r in _rows("random-mertens tau=0.5", "rms.csv")])
    sups = _rows("random-mertens tau=0.6", "sups.csv")
    last = np.array([float(r["sup"]) for r in sups if int(r["x"]) == _GRID[-1]])
    rms_ok = bool(np.all(rms <= 2.414))
    tail = float(np.mean(last < 0.05))
    passed = rms_ok and tail >= 0.95
    detail = (
        f"max RMS {rms.max():.4f} (cap 2.414); "
        f"{tail:.1%} of paths below 0.05 at x=2^20 (need 95%)"
    )
    return CriterionResult(8, "random-walk-mertens", passed, detail, time.perf_counter() - t0)


def criterion_9() -> CriterionResult:
    """Window-closure scan of the alternating triangular step function finds
    exactly the three constant windows."""
    t0 = time.perf_counter()
    found = [r["window"] for r in _rows("veech", "above-threshold.csv")]
    length = 2 * int(_rows("veech", "summary.csv")[0]["w"]) + 1
    passed = set(found) == {"+" * length, "-" * length, "0" * length}
    shown = ", ".join(sorted(found)) or "none"
    detail = f"{len(found)} persistent windows: {shown}"
    return CriterionResult(9, "step-function-window-closure", passed, detail, time.perf_counter() - t0)


def criterion_10() -> CriterionResult:
    """Covering entropy collapses for rotations but not for coordinate maps;
    shattering probability separates the two the same way."""
    t0 = time.perf_counter()
    rot_entropy = [float(r["e_mean"]) for r in _rows("covering rotation", "entropy.csv")]
    ber_entropy = [float(r["e_mean"]) for r in _rows("covering bernoulli", "entropy.csv")]
    ber_root = float(_rows("shatter-prob bernoulli n=8", "result.csv")[0]["root"])
    rot_shatter = [_rows(f"shatter-prob rotation n={n}", "result.csv")[0] for n in (2, 4, 6)]
    rot_roots = [float(s["root"]) for s in rot_shatter]
    rot_ratio = rot_entropy[0] / rot_entropy[1]
    rot_ok = rot_ratio >= 4.0
    ber_floor = min(ber_entropy)
    ber_ok = ber_floor >= 0.5 * math.log(2)
    shatter_ok = ber_root >= 0.9
    # Translates of one unimodal circle function realize at most 2n of the
    # 2^n dichotomies on n points: the shifts that put some point in the gap
    # [alpha, beta] form 2n arcs, and each of the <= 2n pieces left over fixes
    # one dichotomy.  So no sample with n >= 3 can be shattered, while n = 2
    # (4 dichotomies, bound 4) can.
    bound_ok = all(int(s["shattered"]) == 0 for s in rot_shatter if int(s["n"]) >= 3)
    roots_ok = bound_ok and rot_roots[0] > 0 and all(r < ber_root for r in rot_roots)
    passed = rot_ok and ber_ok and shatter_ok and roots_ok
    counts = ", ".join(
        f"n={s['n']} {s['shattered']}/{s['reps']} root {r:.3f}" for s, r in zip(rot_shatter, rot_roots)
    )
    detail = (
        f"rotation e_64/e_1024={rot_ratio:.1f} (need >=4); "
        f"bernoulli min e_n={ber_floor:.3f} (need >={0.5 * math.log(2):.3f}); "
        f"bernoulli root={ber_root:.3f} (need >=0.9); "
        f"rotation shattered {counts} (need 0 at n>=3, since translates realize <=2n of 2^n "
        f"dichotomies; root at n={rot_shatter[0]['n']} >0; every root <{ber_root:.3f}) ok={roots_ok}"
    )
    return CriterionResult(10, "entropy-shattering-contrast", passed, detail, time.perf_counter() - t0)


def criterion_11() -> CriterionResult:
    """Truncation gap density for {2,3} sits at 1/6 under the tail bound;
    the prime-square indicator reproduces mu^2 exactly."""
    t0 = time.perf_counter()
    n = 10**6
    spec = BFreeSpec((2, 3))
    gap = bfree_approximation_gap(spec, 1, FolnerSchedule((n,)))
    g = float(gap.gaps[-1])
    near = abs(g - 1.0 / 6.0) <= 1e-2
    bounded = g <= spec.tail_sum(1) + 2.0 / math.sqrt(n)
    mob = _table("mobius", n)
    free = bfree_indicator(BFreeSpec.prime_squares(n), n)
    chi_bad = int(np.count_nonzero(free.astype(np.int64) != mob.astype(np.int64) ** 2))
    passed = near and bounded and chi_bad == 0
    detail = (
        f"gap {g:.6f} vs 1/6 (|diff|={abs(g - 1 / 6):.2e}, bound ok={bounded}); "
        f"{chi_bad} mu^2 mismatches up to {n}"
    )
    return CriterionResult(11, "bfree-approximation", passed, detail, time.perf_counter() - t0)


def criterion_12() -> CriterionResult:
    """Every run in RUNS writes byte-identical files at threads 1 and 2."""
    t0 = time.perf_counter()
    same = {label: _outputs(label, 1) == _outputs(label, 2) for label in RUNS}
    passed = all(same.values())
    detail = ", ".join(f"{label} {'identical' if ok else 'DIFFERS'}" for label, ok in same.items())
    return CriterionResult(12, "thread-determinism", passed, detail, time.perf_counter() - t0)


_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
}

QUICK = (1, 2, 3, 5, 7, 9, 11)
FULL = tuple(sorted(_CRITERIA))


def run_suite(which: str = "quick") -> list[CriterionResult]:
    """Run the named suite and return one result row per criterion."""
    if which == "quick":
        cids = QUICK
    elif which == "full":
        cids = FULL
    else:
        raise ParameterError(f"unknown suite {which!r}; expected 'quick' or 'full'")
    return [_CRITERIA[cid]() for cid in cids]
