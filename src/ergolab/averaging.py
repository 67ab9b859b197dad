"""Besicovitch-style averaging along Folner windows.

The windows are initial segments {1, ..., N_j} with geometrically growing
lengths.  The seminorm of a bounded sequence is estimated by the running
window averages of |g|; since the defining limsup cannot be observed at
finite scale, the reported estimate is the maximum over the last few
windows (default 3).

Everything operates on materialized value arrays; orbit streams and
arithmetic tables are read through their first N entries, so g(t) for
t = 1..N is values[t-1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import BFreeSpec, bfree_indicator
from .dynsys import OrbitStream
from .errors import ParameterError


@dataclass(frozen=True)
class FolnerSchedule:
    """Strictly increasing window lengths N_1 < N_2 < ..."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        lengths = tuple(int(n) for n in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if not lengths:
            raise ParameterError("schedule needs at least one window")
        if lengths[0] < 1:
            raise ParameterError("window lengths must be positive")
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ParameterError("window lengths must strictly increase")

    @classmethod
    def geometric(
        cls,
        start: int = 1024,
        ratio: int = 2,
        cap: int | None = None,
        count: int | None = None,
    ) -> "FolnerSchedule":
        """Windows start, start*ratio, ... up to cap (or `count` of them)."""
        if start < 1:
            raise ParameterError("start must be >= 1")
        if ratio < 2:
            raise ParameterError("ratio must be >= 2")
        if (cap is None) == (count is None):
            raise ParameterError("give exactly one of cap or count")
        lengths = []
        n = start
        if count is not None:
            for _ in range(count):
                lengths.append(n)
                n *= ratio
        else:
            while n <= cap:
                lengths.append(n)
                n *= ratio
            if not lengths:
                raise ParameterError(f"cap {cap} is below the first window {start}")
        return cls(tuple(lengths))

    def clipped(self, n: int) -> "FolnerSchedule":
        """Drop windows longer than n."""
        kept = tuple(m for m in self.lengths if m <= n)
        if not kept:
            raise ParameterError(
                f"only {n} values available but the smallest window is {self.lengths[0]}"
            )
        return FolnerSchedule(kept)

    @property
    def max_length(self) -> int:
        return self.lengths[-1]


def _materialize(source, n: int) -> np.ndarray:
    if isinstance(source, OrbitStream):
        return np.asarray(source.take(n))
    values = np.asarray(source)
    if values.ndim != 1:
        raise ParameterError("need a one-dimensional value sequence")
    if len(values) < n:
        raise ParameterError(f"need {n} values but only {len(values)} are available")
    return values[:n]


def folner_average(source, n: int) -> float:
    """(1/n) * sum_{t=1..n} |g(t)|."""
    if n < 1:
        raise ParameterError("window length must be >= 1")
    values = _materialize(source, n)
    return float(np.abs(values).mean())


@dataclass(frozen=True)
class SeminormEstimate:
    """Window averages of |g| and the max over the last r of them."""

    lengths: tuple[int, ...]
    averages: np.ndarray
    r: int

    @property
    def estimate(self) -> float:
        return float(self.averages[-self.r :].max())


def besicovitch_seminorm(source, schedule: FolnerSchedule | None = None, r: int = 3) -> SeminormEstimate:
    """Finite-scale estimate of limsup (1/N) sum_{t<=N} |g(t)|."""
    if r < 1:
        raise ParameterError("r must be >= 1")
    if schedule is None:
        if isinstance(source, OrbitStream):
            raise ParameterError("streams need an explicit schedule")
        schedule = FolnerSchedule.geometric(cap=len(np.asarray(source)))
    values = np.abs(_materialize(source, schedule.max_length).astype(np.complex128))
    prefix = np.concatenate([[0.0], np.cumsum(values.real)])
    lengths = np.asarray(schedule.lengths)
    averages = prefix[lengths] / lengths
    return SeminormEstimate(schedule.lengths, averages, min(r, len(lengths)))


def besicovitch_distance(f, g, schedule: FolnerSchedule | None = None, r: int = 3) -> SeminormEstimate:
    """Seminorm estimate of the difference sequence |f - g|."""
    if schedule is None:
        fa, ga = np.asarray(f), np.asarray(g)
        schedule = FolnerSchedule.geometric(cap=min(len(fa), len(ga)))
    n = schedule.max_length
    diff = _materialize(f, n).astype(np.complex128) - _materialize(g, n).astype(np.complex128)
    return besicovitch_seminorm(diff, schedule, r)


# ---------------------------------------------------------------------------
# B-free approximation gap


@dataclass(frozen=True)
class BFreeGap:
    """Window densities of the symmetric difference between the multiple set
    of the full family and of its K-member truncation, with the tail bound
    sum_{k>K} 1/b_k.  within[j] records gap <= bound + 2/sqrt(N_j)."""

    k: int
    lengths: tuple[int, ...]
    gaps: np.ndarray
    tail_bound: float
    within: np.ndarray


def bfree_approximation_gap(
    spec: BFreeSpec, k: int, schedule: FolnerSchedule | None = None
) -> BFreeGap:
    if schedule is None:
        schedule = FolnerSchedule.geometric(cap=1 << 18)
    n = schedule.max_length
    _, mult_full = bfree_indicator(spec, n)
    _, mult_trunc = bfree_indicator(spec.truncate(k), n)
    diff = np.abs(mult_full.values.astype(np.int64) - mult_trunc.values.astype(np.int64))
    prefix = np.concatenate([[0], np.cumsum(diff)])
    lengths = np.asarray(schedule.lengths)
    gaps = prefix[lengths] / lengths
    tail = spec.tail_sum(k)
    within = gaps <= tail + 2.0 / np.sqrt(lengths)
    return BFreeGap(k, schedule.lengths, gaps, tail, within)


# ---------------------------------------------------------------------------
# mean equicontinuity probe


@dataclass(frozen=True)
class ProbeRow:
    delta: float
    mean_estimate: float
    max_estimate: float
    envelope: float
    pairs: int


_DEFAULT_DELTAS = tuple(2.0**-j for j in range(1, 11))


def mean_equicontinuity_probe(
    stream: OrbitStream,
    deltas=_DEFAULT_DELTAS,
    pairs: int = 32,
    n: int = 1 << 14,
    seed: int = 0,
    schedule: FolnerSchedule | None = None,
    r: int = 3,
) -> list[ProbeRow]:
    """Estimate the Besicovitch distance between orbits of nearby points.

    Pairs come from `stream.shifted_pair`: the system's parameters stay and
    the start point is drawn.  For each delta (sorted increasingly) the mean
    and max of the distance estimates over `pairs` sampled point pairs are
    reported; envelope is the running maximum of the means, i.e. a monotone
    summary of the empirical modulus of continuity.
    """
    if pairs < 1:
        raise ParameterError("need at least one pair per delta")
    if schedule is None:
        schedule = FolnerSchedule.geometric(start=min(1024, n), cap=n)
    rows: list[ProbeRow] = []
    envelope = 0.0
    for i, delta in enumerate(sorted(deltas)):
        if not 0 < delta <= 1:
            raise ParameterError(f"delta {delta} outside (0, 1]")
        rng = np.random.default_rng(seed ^ (i + 1))
        ests = []
        for _ in range(pairs):
            f, g = stream.shifted_pair(delta, rng, schedule.max_length)
            ests.append(besicovitch_distance(f, g, schedule, r).estimate)
        mean_est = float(np.mean(ests))
        envelope = max(envelope, mean_est)
        rows.append(ProbeRow(float(delta), mean_est, float(np.max(ests)), envelope, pairs))
    return rows


# ---------------------------------------------------------------------------
# upper Banach density


@dataclass(frozen=True)
class BanachDensity:
    """Best sliding-window count for a 0/1 sequence; exact integers."""

    window: int
    count: int
    offset: int

    @property
    def density(self) -> float:
        return self.count / self.window


def upper_banach_density(indicator, window: int) -> BanachDensity:
    values = np.asarray(indicator)
    if values.ndim != 1 or len(values) == 0:
        raise ParameterError("need a nonempty one-dimensional 0/1 sequence")
    if not np.isin(values, (0, 1)).all():
        raise ParameterError("indicator values must be 0 or 1")
    if not 1 <= window <= len(values):
        raise ParameterError(f"window {window} outside [1, {len(values)}]")
    prefix = np.concatenate([[0], np.cumsum(values.astype(np.int64))])
    sums = prefix[window:] - prefix[:-window]
    offset = int(np.argmax(sums))
    return BanachDensity(window, int(sums[offset]), offset)
