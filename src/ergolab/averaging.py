"""Besicovitch-style averaging along Folner windows.

The windows are initial segments {1, ..., N_j} with geometrically growing
lengths.  The seminorm of a bounded sequence is estimated by the running
window averages of |g|; since the defining limsup cannot be observed at
finite scale, the reported estimate is the maximum over the last r
windows.

Everything operates on materialized value arrays; an orbit stream or a
value array is read through its first N entries (`_materialize`, which
the number-theory kernels in `experiments` share), so g(t) for t = 1..N
is values[t-1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import PROBE, generator, map_indexed
from .arith import _SEGMENT, BFreeSpec, _check_window, multiples_mask
from .dynsys import OrbitStream
from .errors import ParameterError, ResourceLimitError


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
    def geometric(cls, start: int = 1024, *, cap: int) -> "FolnerSchedule":
        """Windows start, 2*start, 4*start, ... up to cap."""
        if start < 1:
            raise ParameterError("start must be >= 1")
        lengths = []
        n = start
        while n <= cap:
            lengths.append(n)
            n *= 2
        if not lengths:
            raise ParameterError(f"cap {cap} is below the first window {start}")
        return cls(tuple(lengths))

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


def besicovitch_seminorm(source, schedule: FolnerSchedule, r: int) -> SeminormEstimate:
    """Finite-scale estimate of limsup (1/N) sum_{t<=N} |g(t)|.

    |g| is taken in float64 from real values and in complex128 from complex
    ones, and the window sums are one running float64 sum.  Integer values
    and their partial sums below 2^53 are exact floats.
    """
    if r < 1:
        raise ParameterError("r must be >= 1")
    values = _materialize(source, schedule.max_length)
    if values.dtype.kind == "c":
        sums = np.abs(values.astype(np.complex128, copy=False))
    else:
        sums = np.abs(values, dtype=np.float64)
    np.cumsum(sums, out=sums)
    lengths = np.asarray(schedule.lengths)
    averages = sums[lengths - 1] / lengths
    return SeminormEstimate(schedule.lengths, averages, min(r, len(lengths)))


def besicovitch_distance(f, g, schedule: FolnerSchedule, r: int) -> SeminormEstimate:
    """Seminorm estimate of the difference sequence |f - g|, subtracted in
    float64 (complex128 if either sequence is complex)."""
    n = schedule.max_length
    a, b = _materialize(f, n), _materialize(g, n)
    diff = np.subtract(a, b, dtype=np.result_type(a, b, np.float64))
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


def bfree_approximation_gap(spec: BFreeSpec, k: int, schedule: FolnerSchedule) -> BFreeGap:
    """The gap at N is the count of n <= N that some member after the first
    k divides and none of the first k does, over N.  The counts are taken
    one segment of [1, max N] at a time, between consecutive lengths."""
    n = schedule.max_length
    _check_window(1, n)
    tail = spec.tail_sum(k)
    lengths = np.asarray(schedule.lengths)
    counts = np.zeros(len(lengths), dtype=np.int64)
    for lo in range(0, n, _SEGMENT):
        hi = min(lo + _SEGMENT, n)
        differ = multiples_mask(spec.members[k:], lo, hi)
        differ &= ~multiples_mask(spec.members[:k], lo, hi)
        cuts = np.clip(lengths, lo, hi) - lo  # the end of each window within this segment
        counts += np.cumsum([np.count_nonzero(differ[a:b]) for a, b in zip([0, *cuts[:-1]], cuts)])
    gaps = counts / lengths
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


def mean_equicontinuity_probe(
    stream: OrbitStream,
    deltas,
    pairs: int,
    n: int,
    r: int,
    seed: int = 0,
    threads: int = 1,
) -> list[ProbeRow]:
    """Estimate the Besicovitch distance between orbits of nearby points.

    Pairs come from `stream.shifted_pair`: the system's parameters stay and
    the start point is drawn.  For each delta (sorted increasingly; the i-th
    draws from _util.generator(seed, PROBE, i)) the mean and max of the
    distance estimates over `pairs` sampled point pairs are reported;
    envelope is the running maximum of the means, i.e. a monotone summary of
    the empirical modulus of continuity.  The deltas may run on `threads`
    threads; the rows do not depend on it.
    """
    if pairs < 1:
        raise ParameterError("need at least one pair per delta")
    deltas = sorted(deltas)
    if not deltas:
        raise ParameterError("need at least one delta")
    for delta in deltas:
        if not 0 < delta <= 1:
            raise ParameterError(f"delta {delta} outside (0, 1]")
    schedule = FolnerSchedule.geometric(start=min(1024, n), cap=n)

    def estimates(i: int) -> list[float]:
        rng = generator(seed, PROBE, i)
        ests = []
        for _ in range(pairs):
            f, g = stream.shifted_pair(deltas[i], rng, schedule.max_length)
            ests.append(besicovitch_distance(f, g, schedule, r).estimate)
        return ests

    rows: list[ProbeRow] = []
    envelope = 0.0
    for delta, ests in zip(deltas, map_indexed(estimates, len(deltas), threads)):
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
    """The first offset s with the most ones in indicator[s : s + window].

    The window sums W(s) are taken one segment of offsets at a time from a
    running total: W(s) - W(s - 1) = v[s + window - 1] - v[s - 1].  Besides
    the input only one int32 segment is allocated, never a full prefix: a
    window sum is at most the window, and a window past 2^31 - 1 raises
    ResourceLimitError.
    """
    values = np.asarray(indicator)
    if values.ndim != 1 or len(values) == 0:
        raise ParameterError("need a nonempty one-dimensional 0/1 sequence")
    if not 1 <= window <= len(values):
        raise ParameterError(f"window {window} outside [1, {len(values)}]")
    if window > np.iinfo(np.int32).max:
        raise ResourceLimitError(f"window {window} exceeds the int32 bound of the window sums")
    for lo in range(0, len(values), _SEGMENT):
        part = values[lo : lo + _SEGMENT]
        if not ((part == 0) | (part == 1)).all():
            raise ParameterError("indicator values must be 0 or 1")
    starts = len(values) - window + 1
    total = int(np.count_nonzero(values[:window]))  # W(0)
    count, offset = total, 0
    buffer = np.empty(min(_SEGMENT, starts), dtype=np.int32)
    for lo in range(1, starts, _SEGMENT):
        hi = min(lo + _SEGMENT, starts)
        sums = buffer[: hi - lo]
        # 0/1 floats cast to exact integers
        np.subtract(values[lo + window - 1 : hi + window - 1], values[lo - 1 : hi - 1],
                    out=sums, dtype=np.int32, casting="unsafe")
        np.cumsum(sums, out=sums)
        sums += total
        total = int(sums[-1])
        k = int(np.argmax(sums))  # the first maximum wins
        if sums[k] > count:
            count, offset = int(sums[k]), lo + k
    return BanachDensity(window, count, offset)
