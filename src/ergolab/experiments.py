"""Desk-scale statistics built on the sieves: weighted orbit averages,
exponential-sum maximization, pair correlations and their Cesàro averages,
short-interval partial-sum statistics, partition sums, and a random-walk
analogue of the Mertens function.

All limit statements behind these quantities are finitized as monotone-trend
checks over geometric grids; nothing here asserts an asymptotic.  Estimated
suprema over continuous parameters (`davenport_sum`, `zhan_sup`) are honest
lower bounds: a dense grid plus local refinement, with the grid parameters
recorded in the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import DRAW_CHUNK, WALK, generator, map_indexed, uniform_chunks
from .arith import _SEGMENT
from .averaging import _materialize
from .dynsys import OrbitStream, VeechSpec
from .errors import ParameterError, ResourceLimitError

MAX_FFT = 1 << 25  # longest transform (and theta grid) any kernel here allocates
_GOLDEN = (math.sqrt(5) - 1) / 2
_TAYLOR_TERMS = 20  # (pi/4)^20 / 20! < 4e-21, see _local_series
_SERIES_BLOCK = 1 << 16  # indices of v per block of _local_series
_SUP_BLOCK = 1024  # walk indices per block bounded at once by _interval_sup
_AT_BLOCKS = 64  # blocks of indices a MertensWalk rebuilds at once
MAX_WALK = (1 << 31) - 1  # longest random walk: its int32 values |W(k)| <= k stay exact


# ---------------------------------------------------------------------------
# weighted orbit averages


@dataclass(frozen=True)
class DisjointnessResult:
    """Running averages (1/k) sum_{n<=k} nu(n) f(T^n x) for k = 1..N."""

    n: int
    path: np.ndarray

    @property
    def value(self):
        return self.path[-1].item()


def disjointness_sum(nu, orbit: OrbitStream, n: int) -> DisjointnessResult:
    """(1/N) sum_{n=1}^{N} nu(n) f(T^n x), with the full partial-sum path,
    from int8 weights nu(1..N), the first N entries of ``nu``.

    The stream's start point is x; the sum pairs nu(n) with the n-th
    iterate, so the first observable used is f(Tx).
    """
    n = int(n)
    if n < 1:
        raise ParameterError("need n >= 1")
    weights = _materialize(nu, n).astype(np.float64)
    observed = orbit.take(n + 1)[1:]
    terms = weights * np.asarray(observed)
    path = np.cumsum(terms) / np.arange(1, n + 1)
    return DisjointnessResult(n, path)


# ---------------------------------------------------------------------------
# exponential-sum maximization


@dataclass(frozen=True)
class DavenportResult:
    """Grid/refined maximum of |sum_{k<=x} v(k) e^(ik theta)| over theta.

    theta0 is the exact integer |sum v(k)| (the theta = 0 grid value);
    max_value is a lower bound for the true supremum; ratio compares it
    against x / (log x)^a.
    """

    x: int
    a: float
    grid_size: int
    theta0: int
    grid_max: float
    max_value: float
    argmax_theta: float
    ratio: float


def _phased(v: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of v_k e^(ik theta), k = 1..len(v), built in place."""
    phase = np.arange(1, len(v) + 1, dtype=np.float64)
    phase *= theta
    re = np.cos(phase)
    im = np.sin(phase, out=phase)
    re *= v
    im *= v
    return re, im


def _local_series(v: np.ndarray, center: float, step: float) -> list[complex]:
    """Coefficients c_m, m < _TAYLOR_TERMS, with |S(center + t*step)| =
    |sum_m c_m t^m| for |t| <= 1, S(theta) = sum_{k=1..n} v_k e^(ik theta).

    The series is centred on the middle index K = (n + 1) / 2:
    S(center + t*step) = e^(iK t step) sum_m c_m t^m with
    c_m = (i^m / m!) sum_k ((k - K) step)^m v_k e^(ik center), and the unit
    factor drops out of |S|.  When n * step <= pi/2 (as in davenport_sum),
    |k - K| step <= pi/4, so the truncation error is below
    sum|v_k| (pi/4)^M / M! < 4e-21 sum|v_k| at M = 20.

    Only the nonzero v_k enter, _SERIES_BLOCK indices of v at a time, so the
    scratch stays a few MiB at any n.  Each block adds its sums to the
    coefficients by np.einsum, not by a BLAS dot: every sum runs in a fixed
    order on one thread, so the coefficients (and every byte downstream) do
    not depend on the BLAS thread count.
    """
    sums = np.zeros((_TAYLOR_TERMS, 2))  # real and imaginary parts of m! c_m / i^m
    middle = (len(v) + 1) / 2
    for lo in range(0, len(v), _SERIES_BLOCK):
        block = v[lo : lo + _SERIES_BLOCK]
        nonzero = np.flatnonzero(block)
        k = nonzero + (lo + 1.0)
        terms = np.empty((2, len(k)))  # v_k e^(ik center)
        np.cos(k * center, out=terms[0])
        np.sin(k * center, out=terms[1])
        terms *= block[nonzero]
        offset = k
        offset -= middle
        offset *= step
        power = np.ones(len(k))
        for m in range(_TAYLOR_TERMS):
            sums[m] += np.einsum("ij,j->i", terms, power)
            power *= offset
    return [complex(re, im) * 1j**m / math.factorial(m) for m, (re, im) in enumerate(sums)]


def davenport_sum(values, x: int, a: float, refine: bool) -> DavenportResult:
    """Maximum over theta of |S(theta)| = |sum_{k<=x} v(k) e^(ik theta)|, for
    int8 values v(1..x), the first x entries of ``values``.

    A zero-padded real FFT of length pad >= 4x evaluates |S| on the grid
    theta_j = 2 pi j / pad, j <= pad/2 (|S| is even in theta for real v, so
    the other half adds nothing).  Tie rule: the smallest maximizing j wins.
    The theta = 0 bin is replaced by the exact integer theta0 = |sum v(k)|.

    With ``refine``, a 48-step golden-section search runs on
    [theta_j - step, theta_j + step], step = 2 pi / pad, over the Taylor
    expansion of S about theta_j, centred on the middle index (`_local_series`:
    20 einsum sums over the nonzero v(k), one block of indices at a time;
    since |k - (x+1)/2|*step <= pi/4 the truncation error is below
    4e-21 sum|v(k)|, and no sum goes through BLAS, so the result is the same
    at every BLAS thread count).  |S| at
    the final point is then summed directly and replaces the grid value only
    if larger, so max_value is a directly evaluated lower bound for the
    supremum and max_value >= grid_max >= theta0.  That direct sum carries
    the rounding of cos/sin at arguments up to x*theta: about 1e-8 absolute
    at x = 10^6.
    """
    x = int(x)
    if x < 2:
        raise ParameterError("need x >= 2")
    pad = 1 << (4 * x - 1).bit_length()
    if pad > MAX_FFT:
        raise ParameterError(f"transform length {pad} exceeds the memory cap {MAX_FFT}")
    v = _materialize(values, x)  # exact integers; each float use converts them as it reads
    buf = np.zeros(pad)
    buf[1 : x + 1] = v
    spectrum = np.fft.rfft(buf)
    mags = np.abs(spectrum, out=buf[: len(spectrum)])  # buf is spent: reuse it
    del spectrum
    theta0 = abs(int(v.sum(dtype=np.int64)))
    mags[0] = float(theta0)
    j = int(np.argmax(mags))
    grid_max = float(mags[j])
    del buf, mags  # the final direct sum allocates its own O(x) arrays; keep the peak at the grid's
    argmax_theta = 2 * math.pi * j / pad
    max_value = grid_max
    if refine:
        step = 2 * math.pi / pad
        coeffs = _local_series(v, argmax_theta, step)[::-1]

        def g(theta: float) -> float:
            t = (theta - argmax_theta) / step
            acc = 0j
            for coeff in coeffs:
                acc = acc * t + coeff
            return abs(acc)

        lo, hi = argmax_theta - step, argmax_theta + step
        c = hi - _GOLDEN * (hi - lo)
        d = lo + _GOLDEN * (hi - lo)
        fc, fd = g(c), g(d)
        for _ in range(48):
            if fc < fd:
                lo, c, fc = c, d, fd
                d = lo + _GOLDEN * (hi - lo)
                fd = g(d)
            else:
                hi, d, fd = d, c, fc
                c = hi - _GOLDEN * (hi - lo)
                fc = g(c)
        theta_r = (lo + hi) / 2
        re, im = _phased(v, theta_r)
        value_r = math.hypot(re.sum(), im.sum())
        if value_r > max_value:
            max_value = value_r
            argmax_theta = theta_r % (2 * math.pi)
    ratio = max_value / (x / math.log(x) ** a)
    return DavenportResult(x, float(a), pad, theta0, grid_max, max_value, argmax_theta, ratio)


# ---------------------------------------------------------------------------
# pair correlations


def correlations(values, n: int, method: str = "fft") -> np.ndarray:
    """c(m) = sum_{k=1}^{n} v(k) v(k+m) for m = 1..n, as exact integers, for
    int8 values v(1..2n), the first 2n entries of ``values`` (a non-integer
    array is cast to int64).

    The FFT route computes all lags at once and rounds to integers; the
    direct route is the O(n^2) reference summation.  The FFT's circular
    correlation of v(1..2n) with v(1..n), zero-padded to length pad, reads
    index k + m at lag m; for k < n and 1 <= m <= n that index is below
    2n <= pad, so no term wraps and a transform of length >= 2n is exact
    after rounding.  A pad past MAX_FFT is refused before anything is read.
    """
    n = int(n)
    if n < 1:
        raise ParameterError("need n >= 1")
    if method not in ("fft", "direct"):
        raise ParameterError(f"unknown method {method!r}; use 'fft' or 'direct'")
    pad = 1 << (2 * n - 1).bit_length()
    if pad > MAX_FFT:
        raise ParameterError(f"transform length {pad} exceeds the memory cap {MAX_FFT}")
    v = _materialize(values, 2 * n)
    if method == "direct":
        v = v.astype(np.int64)
        head = v[:n]
        return np.array([head @ v[m : m + n] for m in range(1, n + 1)], dtype=np.int64)
    if v.dtype.kind not in "biu":
        v = v.astype(np.int64)
    fa = np.fft.rfft(v, pad)
    fb = np.fft.rfft(v[:n], pad)
    fa *= np.conj(fb, out=fb)
    return np.rint(np.fft.irfft(fa, pad)[1 : n + 1]).astype(np.int64)


@dataclass(frozen=True)
class ChowlaPoint:
    """D(N) = (1/N^2) sum_{m=1}^{N} |c(m)| with its exact integer numerator."""

    n: int
    numerator: int

    @property
    def value(self) -> float:
        return self.numerator / self.n**2


def average_chowla(values, n: int) -> ChowlaPoint:
    c = correlations(values, n)
    return ChowlaPoint(int(n), int(np.abs(c).sum()))


@dataclass(frozen=True)
class DecaySeries:
    """D(N_j) over a schedule with a least-squares fit D ~ C / (log N)^kappa.

    The fit regresses log D on log log N; residual is the RMS misfit in log
    space.  Non-positive values make the fit undefined (NaN parameters).
    """

    abscissae: tuple[int, ...]
    values: np.ndarray
    c: float
    kappa: float
    residual: float
    strictly_decreasing: bool


def _fit_decay(ns: tuple[int, ...], ds: np.ndarray) -> DecaySeries:
    decreasing = bool(np.all(np.diff(ds) < 0))
    if len(ns) >= 2 and np.all(ds > 0):
        x = np.log(np.log(np.asarray(ns, dtype=np.float64)))
        y = np.log(ds)
        slope, intercept = np.polyfit(x, y, 1)
        residual = float(np.sqrt(np.mean((y - (intercept + slope * x)) ** 2)))
        return DecaySeries(ns, ds, float(np.exp(intercept)), float(-slope), residual, decreasing)
    return DecaySeries(ns, ds, math.nan, math.nan, math.nan, decreasing)


def chowla_decay(values, schedule) -> DecaySeries:
    """D(N) of int8 weights v(1..n), n >= 2*max(schedule), across a strictly
    increasing schedule, with the decay fit."""
    ns = _decay_schedule(schedule)
    ds = np.array([average_chowla(values, n).value for n in ns])
    return _fit_decay(ns, ds)


def _decay_schedule(schedule) -> tuple[int, ...]:
    """A chowla_decay schedule: two or more strictly increasing positive ints."""
    ns = tuple(int(n) for n in schedule)
    if len(ns) < 2:
        raise ParameterError("need at least two schedule points")
    if any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1:
        raise ParameterError("schedule must be strictly increasing and positive")
    return ns


# ---------------------------------------------------------------------------
# short-interval statistics


@dataclass(frozen=True)
class IntervalStat:
    """sup over integer h in [h_min, h_max] of |M(x+h) - M(x)| / h."""

    x: int
    tau: float
    h_min: int
    h_max: int
    sup: float
    argmax_h: int


def _h_floor(x: int, tau: float) -> int:
    if not 0 < tau <= 1:
        raise ParameterError(f"tau={tau} outside (0, 1]")
    return min(max(1, math.ceil(x**tau)), x)


class MertensWalk:
    """M(0..limit), M(n) = v(1) + ... + v(n), for a table v of int8 values
    with |v| <= 1 (mu: the Mertens function), kept as checkpoints: M at each
    block start b * _SUP_BLOCK in int64, and the sum of |v| over each block's
    values, in int32 (12 bytes per block).  Both come from int8 block sums
    over whole blocks of values that ``read(start, stop)`` returns
    (v(start + 1 .. stop), int8), about one _SEGMENT at a time; no read is
    kept.

    Indexing by an int, a slice or a sorted index array gives int32 values
    (exact, as |M(n)| <= n <= MAX_SIEVE_LIMIT), rebuilt from the block's
    checkpoint and a cumulative sum of the values ``read`` returns, read back
    only for the indices asked for.
    """

    def __init__(self, limit: int, read):
        sums, mass = [], []
        chunk = _SUP_BLOCK * max(1, _SEGMENT // _SUP_BLOCK)
        for lo in range(0, limit, chunk):
            values = read(lo, min(lo + chunk, limit))
            if len(values) % _SUP_BLOCK:  # the last block, short of _SUP_BLOCK values
                values = np.concatenate([values, np.zeros(-len(values) % _SUP_BLOCK, dtype=np.int8)])
            rows = values.reshape(-1, _SUP_BLOCK)
            sums.append(rows.sum(axis=1, dtype=np.int32))
            mass.append(np.abs(rows).sum(axis=1, dtype=np.int32))
        self.limit = limit
        self.mass = np.concatenate(mass)
        self.starts = np.zeros(len(self.mass) + 1, dtype=np.int64)  # M(min(b * _SUP_BLOCK, limit))
        np.cumsum(np.concatenate(sums), dtype=np.int64, out=self.starts[1:])
        self.read = read

    def __len__(self) -> int:
        return self.limit + 1

    def __getitem__(self, k):
        if isinstance(k, slice):
            lo, hi, step = k.indices(len(self))
            if step != 1:
                raise IndexError("a MertensWalk slice takes step 1")
            return self._span(lo, max(lo, hi))
        if isinstance(k, (int, np.integer)):
            if not 0 <= k <= self.limit:
                raise IndexError(f"index {k} outside [0, {self.limit}]")
            return self._span(int(k), int(k) + 1)[0]
        k = np.asarray(k, dtype=np.int64)
        if k.ndim != 1:
            raise IndexError("a MertensWalk index array must be 1-D")
        if len(k) and (k[0] < 0 or k[-1] > self.limit or np.any(k[1:] < k[:-1])):
            raise IndexError(f"a MertensWalk index array must be sorted inside [0, {self.limit}]")
        return self._at(k)

    def _span(self, lo: int, hi: int) -> np.ndarray:
        """M(lo .. hi - 1), from the checkpoint of lo's block and one read."""
        first = lo - lo % _SUP_BLOCK
        out = np.zeros(hi - first, dtype=np.int32)
        if hi > lo:
            np.cumsum(self.read(first, hi - 1), dtype=np.int32, out=out[1:])
            out += int(self.starts[first // _SUP_BLOCK])
        return out[lo - first :]

    def _at(self, k: np.ndarray) -> np.ndarray:
        """M at the sorted indices k: the checkpoint of each one's block plus
        the sum of the block's values before it, _AT_BLOCKS blocks of
        indices at a time, each stretch read at once and its blocks summed
        cumulatively."""
        out = np.empty(len(k), dtype=np.int32)
        stretch = _AT_BLOCKS * _SUP_BLOCK
        edges = np.searchsorted(k, np.arange(0, self.limit + 1 + stretch, stretch))
        for i, j in zip(edges[:-1].tolist(), edges[1:].tolist()):
            if i == j:
                continue
            blocks = k[i:j] // _SUP_BLOCK
            enters = np.empty(len(blocks), dtype=bool)  # where the indices enter a new block
            enters[0] = True
            np.not_equal(blocks[1:], blocks[:-1], out=enters[1:])
            need = blocks[enters]
            first, last = int(need[0]), int(need[-1])
            values = np.zeros((last - first + 1) * _SUP_BLOCK, dtype=np.int8)
            span = self.read(first * _SUP_BLOCK, min((last + 1) * _SUP_BLOCK, self.limit))
            values[: len(span)] = span
            rows = values.reshape(-1, _SUP_BLOCK)[need - first]
            # index n of block b sits at shift[b - first] + n in the rows, flattened
            shift = np.zeros(last - first + 1, dtype=np.int64)
            shift[need - first] = (np.arange(len(need)) - need) * _SUP_BLOCK
            at = k[i:j] + shift[blocks - first]
            sums = np.zeros(rows.shape, dtype=np.int32)
            np.cumsum(rows[:, :-1], axis=1, dtype=np.int32, out=sums[:, 1:])
            sums += self.starts[need].astype(np.int32)[:, None]
            out[i:j] = sums.reshape(-1)[at]
        return out

    def envelope(self) -> tuple[np.ndarray, np.ndarray]:
        """(upper, lower): bounds on M over each whole block
        [b * _SUP_BLOCK, (b + 1) * _SUP_BLOCK - 1] <= limit, for `_interval_sup`.
        From the block's start M, sum s and sum of |v| a: every M in the
        block lies in [M - (a - s) / 2, M + (a + s) / 2], since a partial sum
        of the block's values is at least minus the sum of its negative
        values and at most the sum of its positive ones."""
        blocks = len(self) // _SUP_BLOCK
        start = self.starts[:blocks]
        rise = self.starts[1 : blocks + 1] - start
        mass = self.mass[:blocks]
        return start + (mass + rise) // 2, start - (mass - rise) // 2


def mertens_prefix(values) -> MertensWalk:
    """M(0..n) as a `MertensWalk` over int8 Mobius values v(1..n), read by
    slicing them."""
    v = _materialize(values, np.size(values))  # all of them, checked one-dimensional
    if len(v) > MAX_WALK:
        raise ResourceLimitError(f"prefix limit {len(v)} exceeds the int32 bound {MAX_WALK}")
    return MertensWalk(len(v), lambda start, stop: v[start:stop])


def _interval_sup(walk, x: int, h_min: int, extrema) -> tuple[float, int]:
    """max over h in [h_min, x] of |walk[x+h] - walk[x]| / h, and the smallest h
    attaining it, equal to a scan of every h.

    ``extrema`` is (upper, lower), with upper[b] and lower[b] bounds on the
    walk over the aligned block walk[b*B : (b+1)*B], B = _SUP_BLOCK, for
    every such block from b = 0 up to the last one ending at or before
    walk[2x]: a `MertensWalk.envelope`, or a `_PackedWalk.block_extrema`.
    A block starting at walk index x + h_lo has every |walk[x+h] - walk[x]| / h
    below max(|upper - walk[x]|, |lower - walk[x]|) / h_lo, and rounded
    division is monotone, so that bound holds for the float ratios too.  The
    ragged ends and the block with the top bound are scanned first; then
    every block whose bound is >= the best value so far (ties included, so
    the smallest maximizing h is found).  ``walk`` is read only at the
    indices scanned; a difference of two int32 walk values spans at most x
    steps, so it is exact in int32 and each ratio is the same float.
    """
    bmax, bmin = extrema
    b_lo = -(-(x + h_min) // _SUP_BLOCK)
    b_hi = max((2 * x + 1) // _SUP_BLOCK, b_lo)
    base = walk[x]

    def scan(start: int, stop: int) -> tuple[float, int]:
        if start >= stop:
            return -1.0, 0
        ratios = np.abs(walk[start:stop] - base) / np.arange(start - x, stop - x, dtype=np.int64)
        k = int(np.argmax(ratios))
        return float(ratios[k]), start - x + k

    found = [scan(x + h_min, min(b_lo * _SUP_BLOCK, 2 * x + 1)), scan(b_hi * _SUP_BLOCK, 2 * x + 1)]
    if b_hi > b_lo:
        span = slice(b_lo, b_hi)
        reach = np.maximum(np.abs(bmax[span] - base), np.abs(bmin[span] - base))
        bounds = reach / (np.arange(b_lo, b_hi, dtype=np.int64) * _SUP_BLOCK - x)
        top = int(np.argmax(bounds))
        start = (b_lo + top) * _SUP_BLOCK
        best = max(max(found)[0], scan(start, start + _SUP_BLOCK)[0])
        chosen = np.flatnonzero(bounds >= best) + b_lo
        if len(chosen):
            idx = (chosen[:, None] * _SUP_BLOCK + np.arange(_SUP_BLOCK)).ravel()
            ratios = np.abs(walk[idx] - base) / (idx - x)
            k = int(np.argmax(ratios))
            found.append((float(ratios[k]), int(idx[k]) - x))
    sup = max(v for v, _ in found)
    return sup, min(h for v, h in found if v == sup)


def short_interval_sup(walk: MertensWalk, x: int, tau: float) -> IntervalStat:
    """Exact sup over every integer h in [ceil(x^tau), x], with the smallest
    maximizing h; `_interval_sup` bounds each block of h from the walk's
    `envelope` and reads back only the blocks it cannot bound below the
    running best."""
    x = int(x)
    if x < 1:
        raise ParameterError("need x >= 1")
    h_min = _h_floor(x, tau)
    if walk.limit < 2 * x:
        raise ParameterError(f"walk limit {walk.limit} below the required 2x = {2 * x}")
    sup, argmax_h = _interval_sup(walk, x, h_min, walk.envelope())
    return IntervalStat(x, float(tau), h_min, x, sup, argmax_h)


@dataclass(frozen=True)
class SecondMoment:
    """(1/X) sum_{x=X}^{2X-1} |M(x+h) - M(x)|^2 and its h^2 normalization."""

    x: int
    h: int
    value: float

    @property
    def normalized(self) -> float:
        return self.value / self.h**2


def interval_second_moment(walk: MertensWalk, big_x: int, h: int) -> SecondMoment:
    """The sum of (M(y + h) - M(y))^2 over y in [X, 2X), one _SEGMENT of y
    at a time, each difference taken between two walk spans.  The int32
    differences are exact, and so are their squares in int32 for h <= 46340
    (in int64 past that), since |M(y + h) - M(y)| <= h; the squares are
    summed in int64, and the total is divided by X as an int64."""
    big_x, h = int(big_x), int(h)
    if big_x < 1 or h < 1:
        raise ParameterError(f"need X >= 1 and h >= 1, got X = {big_x}, h = {h}")
    if walk.limit < 2 * big_x + h:
        raise ParameterError(
            f"walk limit {walk.limit} below the required 2X + h = {2 * big_x + h}"
        )
    square = np.int32 if h <= 46340 else np.int64
    total = np.int64(0)
    for lo in range(big_x, 2 * big_x, _SEGMENT):
        hi = min(lo + _SEGMENT, 2 * big_x)
        deltas = walk[lo + h : hi + h] - walk[lo:hi]
        total += np.square(deltas, dtype=square).sum(dtype=np.int64)
    return SecondMoment(big_x, h, float(total / big_x))


@dataclass(frozen=True, eq=False)
class PartitionResult:
    """Normalized variation of M over a partition, with the step signs.

    points is the partition as int64, deltas[k] = M(x_{k+1}) - M(x_k)
    (int32) and signs[k] = sgn(deltas[k]) with sgn(0) := +1 (int8).  When
    the partition gaps strictly increase, the signed steps materialize as a
    step-function spec in `veech`.  As the fields hold arrays, results
    compare (and hash) by identity; compare two field by field, the arrays
    with `np.array_equal`.
    """

    points: np.ndarray
    deltas: np.ndarray
    signs: np.ndarray
    abs_sum: int
    ratio: float
    veech: VeechSpec | None


def partition_mertens_sum(walk: MertensWalk, partition) -> PartitionResult:
    """M at each partition point (read from the walk's checkpoints and the
    blocks holding the points), and the variation sum |M(x_{k+1}) - M(x_k)|."""
    points = np.asarray(partition, dtype=np.int64)
    if points.ndim != 1 or len(points) < 2:
        raise ParameterError("need at least two partition points")
    gaps = np.diff(points)
    if points[0] < 1 or not np.all(gaps > 0):
        raise ParameterError("partition must be strictly increasing and start at >= 1")
    if points[-1] > walk.limit:
        raise ParameterError(f"partition end {points[-1]} beyond walk limit {walk.limit}")
    deltas = np.diff(walk[points])
    signs = np.where(deltas >= 0, np.int8(1), np.int8(-1))
    abs_sum = int(np.abs(deltas).sum())
    veech = None
    if np.all(gaps[1:] > gaps[:-1]):
        veech = VeechSpec(starts=tuple(points.tolist()), signs=tuple(signs.tolist()))
    return PartitionResult(points, deltas, signs, abs_sum, abs_sum / int(points[-1]), veech)


# ---------------------------------------------------------------------------
# random-walk analogue of the Mertens function


@dataclass(frozen=True)
class RandomMertensResult:
    """Per-path short-interval sups for a +-1 random walk, against the
    reference curve (sqrt(2)+1) x^(1/2 - tau)."""

    grid: tuple[int, ...]
    tau: float
    paths: int
    sups: np.ndarray  # shape (paths, len(grid))
    rms: np.ndarray
    bound: np.ndarray


# W(8j + i) - W(8j) for an octet of steps packed as np.packbits packs them
# (step 8j + 1 + i is bit 7 - i, a set bit is +1), i = 0..7; the octet's
# whole step sum, and the extrema of its eight prefix values
_OCTET_STEPS = 2 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(np.int32) - 1
_OCTET_PART = np.cumsum(_OCTET_STEPS, axis=1, dtype=np.int32) - _OCTET_STEPS
_OCTET_SUM = _OCTET_STEPS.sum(axis=1, dtype=np.int32)
_OCTET_MAX = _OCTET_PART.max(axis=1)
_OCTET_MIN = _OCTET_PART.min(axis=1)


class _PackedWalk:
    """W(0..n): W(0) = 0 and step k is +1 if the k-th uniform draw is < p, else -1.

    The steps are packed one bit each, one draw chunk at a time, and W(8j)
    is kept in int32 (exact, since |W(k)| <= k <= n <= MAX_WALK): 5/8 byte
    per step, where W(8j + i) = starts[j] + _OCTET_PART[octets[j], i].
    Indexing by an int, a slice or an index array gives the int32 values
    of the full walk; no per-step prefix is ever built.
    """

    def __init__(self, rng: np.random.Generator, n: int, p: float):
        self.n = n
        self.octets = np.zeros(n // 8 + 1, dtype=np.uint8)  # the last one is partial or empty
        self.starts = np.zeros(n // 8 + 1, dtype=np.int32)
        hits = np.empty(min(n, DRAW_CHUNK), dtype=np.bool_)
        for start, u in uniform_chunks(rng, n):  # DRAW_CHUNK is a multiple of 8
            packed = np.packbits(np.less(u, p, out=hits[: len(u)]))
            j, full = start // 8, (start + len(u)) // 8  # octets j..full-1 are whole
            self.octets[j : j + len(packed)] = packed
            self.starts[j + 1 : full + 1] = np.take(_OCTET_SUM, packed[: full - j])
        # W(8j) for j <= n // 8, in one same-dtype cumsum (a casting one holds the GIL)
        np.cumsum(self.starts, out=self.starts)

    def __len__(self) -> int:
        return self.n + 1

    def __getitem__(self, k):
        if isinstance(k, slice):
            lo, hi, step = k.indices(len(self))
            if step == 1:  # the eight values of each octet holding lo..hi-1
                j, stop = lo >> 3, -(-hi // 8)
                rows = self.starts[j:stop, None] + _OCTET_PART[self.octets[j:stop]]
                return rows.ravel()[lo - 8 * j : hi - 8 * j]
            k = np.arange(lo, hi, step)
        j = k >> 3
        return self.starts[j] + _OCTET_PART[self.octets[j], k & 7]

    def block_extrema(self) -> tuple[np.ndarray, np.ndarray]:
        """(max, min) over each whole block walk[b*B : (b+1)*B],
        B = _SUP_BLOCK, from each octet's extrema, one draw chunk at a time."""
        blocks = len(self) // _SUP_BLOCK
        shape = (blocks, _SUP_BLOCK // 8)
        octets = self.octets[: blocks * shape[1]].reshape(shape)
        starts = self.starts[: blocks * shape[1]].reshape(shape)
        bmax, bmin = np.empty(blocks, dtype=np.int32), np.empty(blocks, dtype=np.int32)
        for lo in range(0, blocks, DRAW_CHUNK // _SUP_BLOCK):
            rows = slice(lo, lo + DRAW_CHUNK // _SUP_BLOCK)
            np.max(np.take(_OCTET_MAX, octets[rows]) + starts[rows], axis=1, out=bmax[rows])
            np.min(np.take(_OCTET_MIN, octets[rows]) + starts[rows], axis=1, out=bmin[rows])
        return bmax, bmin


def random_mertens_sim(
    grid, tau: float, paths: int, p: float, seed: int = 0, threads: int = 1
) -> RandomMertensResult:
    """Walk M(n) = sum of i.i.d. +-1 with P(+1) = p; per path and per grid x,
    the exact sup over h in [ceil(x^tau), x] of |M(x+h) - M(x)| / h.  Each
    walk's block extrema are taken once and serve every grid x
    (`_interval_sup`).  Walks are `_PackedWalk`s with int32 values, so
    2 * max(grid) past MAX_WALK raises ResourceLimitError before anything is
    drawn or allocated.

    Path i draws from _util.generator(seed, WALK, i): different seeds give
    independent paths, and results do not depend on the thread count.
    """
    xs = tuple(int(x) for x in grid)
    if not xs or xs[0] < 1 or any(b <= a for a, b in zip(xs, xs[1:])):
        raise ParameterError("grid must be nonempty, positive, strictly increasing")
    if paths < 1:
        raise ParameterError("need paths >= 1")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"bias p={p} outside [0, 1]")
    h_mins = [_h_floor(x, tau) for x in xs]
    n_max = 2 * xs[-1]
    if n_max > MAX_WALK:
        raise ResourceLimitError(f"a walk of 2 * {xs[-1]} steps exceeds the int32 bound {MAX_WALK}")

    def one(path: int) -> np.ndarray:
        walk = _PackedWalk(generator(seed, WALK, path), n_max, p)
        extrema = walk.block_extrema()
        return np.array([_interval_sup(walk, x, h, extrema)[0] for x, h in zip(xs, h_mins)])

    sups = np.array(map_indexed(one, paths, threads))
    rms = np.sqrt(np.mean(sups**2, axis=0))
    bound = (math.sqrt(2) + 1) * np.asarray(xs, dtype=np.float64) ** (0.5 - tau)
    return RandomMertensResult(xs, float(tau), int(paths), sups, rms, bound)


# ---------------------------------------------------------------------------
# short-interval exponential sums


@dataclass(frozen=True)
class ZhanResult:
    """Double sup of |(1/h) sum_{x<n<=x+h} v(n) e^(in theta)| over a dyadic
    h ladder and an equispaced theta grid; a lower bound with the grid
    parameters recorded."""

    x: int
    tau: float
    thetas: int
    h_values: tuple[int, ...]
    per_h: np.ndarray
    theta0_values: np.ndarray
    sup: float
    argmax_h: int
    argmax_theta: float


def zhan_sup(values, x: int, tau: float, thetas: int) -> ZhanResult:
    """Double sup over h and theta of |(1/h) sum_{x<n<=x+h} v(n) e^(in theta)|,
    for int8 values v(1..2x), the first 2x entries of ``values``.

    h runs over the ladder ceil(x^tau), doubling, capped at x; theta over the
    grid theta_j = 2 pi j / T, T = ``thetas`` <= MAX_FFT.  On that grid
    e^(in theta_j) depends only on n mod T, so each window is folded into
    exact integer residue sums F_h[r] = sum_{n = r mod T} v(n) and one
    length-T real FFT gives every |S_h(theta_j)|: O(h + T log T) per h.
    FFT rounding is ~1e-16 relative to sum |v(n)|; the theta = 0 value is
    the exact |M(x+h) - M(x)| / h.

    Tie rule: for real v, |S_h(theta_j)| = |S_h(theta_{T-j})|, so only
    j <= T/2 is scanned and the smallest maximizing j wins, both for each h
    and for the overall argmax_theta.  Among h, the first (smallest) h
    reaching the sup wins.
    """
    x = int(x)
    if x < 1:
        raise ParameterError("need x >= 1")
    if not 1 <= thetas <= MAX_FFT:
        raise ParameterError(f"thetas={thetas} outside [1, {MAX_FFT}]")
    h_min = _h_floor(x, tau)
    h_values = [h_min]
    while h_values[-1] < x:
        h_values.append(min(2 * h_values[-1], x))
    window = _materialize(values, 2 * x)[x:]
    residues = np.arange(x + 1, 2 * x + 1, dtype=np.int64) % thetas
    per_h, theta0_vals = [], []
    sup, argmax_h, argmax_theta = -1.0, h_values[0], 0.0
    for h in h_values:
        folded = np.bincount(residues[:h], weights=window[:h], minlength=thetas)
        mags = np.abs(np.fft.rfft(folded))
        mags[0] = abs(int(window[:h].sum(dtype=np.int64)))
        mags /= h
        j = int(np.argmax(mags))
        best = float(mags[j])
        per_h.append(best)
        theta0_vals.append(float(mags[0]))
        if best > sup:
            sup, argmax_h, argmax_theta = best, h, 2 * math.pi * j / thetas
    return ZhanResult(
        x, float(tau), int(thetas), tuple(h_values),
        np.array(per_h), np.array(theta0_vals), sup, argmax_h, argmax_theta,
    )
