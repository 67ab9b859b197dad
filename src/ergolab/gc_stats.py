"""Finite-sample estimators for uniform laws of large numbers.

A function family is a finite collection {f_t : t < T} of bounded functions
on a probability space, given concretely by a point sampler and an
evaluation matrix V[t, i] = f_t(x_i).  The estimators here measure how far
the family is from being Glivenko-Cantelli at finite n:

  * empirical_sup_deviation   sup_t |empirical mean - true mean|
  * covering_number           greedy upper/lower bounds for N(eps) in the
                              normalized l1 or the sup norm on sample columns
  * entropy_rate              e_n = (1/n) * mean over reps of log N_upper
  * is_shattered              (alpha, beta)-dichotomy check: one pass reads
                              the dichotomy each row realizes
  * shattering_probability    fraction of sampled n-tuples shattered, and
                              its n-th root
  * shattering_dimension      greedy lower bound on the largest shattered n

Norms on sample columns: "mean-l1" is (1/n) sum_i |x_i| (with absolute
values), "linf" is max_i |x_i|.

Per-rep randomness is seeded as seed XOR rep-index, so results are
independent of thread scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import fill_signs, map_indexed
from .dynsys import _guard_irrational, to_state
from .errors import ParameterError, ResourceLimitError

_MAX_SHATTER_POINTS = 24


class FunctionFamily:
    """Protocol-style base: a sampler plus an evaluation matrix."""

    size: int
    bound: float

    def sample_points(self, n: int, rng: np.random.Generator):
        raise NotImplementedError

    def evaluate(self, points) -> np.ndarray:
        raise NotImplementedError

    def true_means(self) -> np.ndarray:
        raise NotImplementedError


class RotationFamily(FunctionFamily):
    """f_t(x) = cos(2 pi (x + t*alpha)) for t < size, x uniform on the circle.

    All translates share the mean 0, which the deviation estimator uses as
    the exact reference.
    """

    def __init__(self, alpha, size: int, check: bool = True):
        if size < 1:
            raise ParameterError("family size must be >= 1")
        self.alpha_state = to_state(alpha)
        if check:
            _guard_irrational(self.alpha_state, "alpha")
        self.size = int(size)
        self.bound = 1.0

    def sample_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, 2**64, size=n, dtype=np.uint64)

    def evaluate(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.uint64)
        shifts = np.arange(self.size, dtype=np.uint64) * np.uint64(self.alpha_state)
        states = shifts[:, None] + pts[None, :]
        return np.cos(2 * np.pi * (states.astype(np.float64) * 2.0**-64))

    def true_means(self) -> np.ndarray:
        return np.zeros(self.size)


class BernoulliCoordinateFamily(FunctionFamily):
    """Coordinate maps f_t(omega) = omega_t on +-1 sequences, P(+1) = p."""

    def __init__(self, size: int, p: float = 0.5):
        if size < 1:
            raise ParameterError("family size must be >= 1")
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"bias p={p} outside [0, 1]")
        self.size = int(size)
        self.p = float(p)
        self.bound = 1.0

    def sample_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        points = np.empty((n, self.size), dtype=np.int8)
        fill_signs(rng, points, self.p)
        return points

    def evaluate(self, points) -> np.ndarray:
        # int8 +-1 values: every mean and distance taken of them sums exact
        # integers, so the results equal those of a float64 matrix
        return np.asarray(points, dtype=np.int8).T

    def true_means(self) -> np.ndarray:
        return np.full(self.size, 2 * self.p - 1)


class SubshiftWindowFamily(FunctionFamily):
    """f_t(u) = values[u + t] for window positions u in a long sequence.

    The reference mean is the global average of the sequence, a documented
    surrogate for the (unknown) ergodic mean.
    """

    def __init__(self, values, size: int):
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1 or len(vals) < size:
            raise ParameterError("need a 1-d value sequence at least `size` long")
        self.values = vals
        self.size = int(size)
        self.bound = float(np.abs(vals).max()) if len(vals) else 0.0

    def sample_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, len(self.values) - self.size + 1, size=n)

    def evaluate(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.int64)
        idx = np.arange(self.size)[:, None] + pts[None, :]
        return self.values[idx]

    def true_means(self) -> np.ndarray:
        return np.full(self.size, self.values.mean())


class FiniteFamily(FunctionFamily):
    """Explicit T x m value matrix on a uniform m-atom space."""

    def __init__(self, matrix):
        try:
            m = np.asarray(matrix, dtype=np.float64)
        except ValueError as exc:  # rows of unequal length
            raise ParameterError(f"need a rectangular matrix: {exc}") from exc
        if m.ndim != 2 or m.size == 0:
            raise ParameterError("need a nonempty 2-d matrix")
        self.matrix = m
        self.size = m.shape[0]
        self.atoms = m.shape[1]
        self.bound = float(np.abs(m).max())

    def sample_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.atoms, size=n)

    def evaluate(self, points) -> np.ndarray:
        return self.matrix[:, np.asarray(points, dtype=np.int64)]

    def true_means(self) -> np.ndarray:
        return self.matrix.mean(axis=1)


@dataclass(frozen=True)
class EmpiricalSample:
    points: np.ndarray
    matrix: np.ndarray


def empirical_sample(family: FunctionFamily, n: int, rng: np.random.Generator) -> EmpiricalSample:
    points = family.sample_points(n, rng)
    return EmpiricalSample(points, family.evaluate(points))


# ---------------------------------------------------------------------------
# sup deviation


@dataclass(frozen=True)
class DeviationResult:
    n: int
    reps: int
    deviations: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.deviations.mean())

    @property
    def median(self) -> float:
        return float(np.median(self.deviations))

    @property
    def max(self) -> float:
        return float(self.deviations.max())


def empirical_sup_deviation(
    family: FunctionFamily, n: int, reps: int = 32, seed: int = 0, threads: int = 1
) -> DeviationResult:
    """Per-rep sup_t |(1/n) sum_i f_t(x_i) - E f_t| over fresh samples."""
    if n < 1 or reps < 1:
        raise ParameterError("n and reps must be >= 1")
    means = family.true_means()

    def one(rep: int) -> float:
        rng = np.random.default_rng(seed ^ rep)
        sample = empirical_sample(family, n, rng)
        return float(np.abs(sample.matrix.mean(axis=1) - means).max())

    devs = np.array(map_indexed(one, reps, threads))
    return DeviationResult(n, reps, devs)


# ---------------------------------------------------------------------------
# covering numbers


@dataclass(frozen=True)
class CoveringBounds:
    eps: float
    norm: str
    upper: int
    lower: int


def _column_dist(matrix: np.ndarray, row: np.ndarray, norm: str) -> np.ndarray:
    diff = np.abs(matrix - row)
    return diff.mean(axis=1) if norm == "mean-l1" else diff.max(axis=1)


def _greedy_separated(matrix: np.ndarray, radius: float, norm: str) -> int:
    """Size of the first-index greedy set with pairwise distance > radius.

    The chosen points form a radius-cover of the input rows, so the result
    upper-bounds N(radius); with radius = 2*eps it lower-bounds N(eps).
    """
    remaining = matrix
    count = 0
    while len(remaining):
        count += 1
        d = _column_dist(remaining, remaining[0], norm)
        remaining = remaining[d > radius]
    return count


def covering_number(sample, eps: float, norm: str = "mean-l1") -> CoveringBounds:
    """Greedy bracket [lower, upper] for the eps-covering number of the rows."""
    if norm not in ("mean-l1", "linf"):
        raise ParameterError(f"unknown norm {norm!r}; use 'mean-l1' or 'linf'")
    if not (eps > 0 and math.isfinite(eps)):
        raise ParameterError(f"eps must be positive and finite, got {eps}")
    matrix = sample.matrix if isinstance(sample, EmpiricalSample) else np.asarray(sample)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ParameterError("need a nonempty 2-d evaluation matrix")
    rows = np.unique(matrix, axis=0)
    upper = _greedy_separated(rows, eps, norm)
    lower = _greedy_separated(rows, 2 * eps, norm)
    return CoveringBounds(float(eps), norm, upper, lower)


@dataclass(frozen=True)
class EntropyPoint:
    n: int
    reps: int
    e_mean: float
    e_std: float


def entropy_rate(
    family: FunctionFamily,
    ns,
    eps: float = 0.1,
    reps: int = 32,
    seed: int = 0,
    norm: str = "mean-l1",
    threads: int = 1,
) -> list[EntropyPoint]:
    """e_n = (1/n) log N_upper(eps), averaged over reps, for each n in ns."""
    out = []
    for j, n in enumerate(ns):
        if n < 1:
            raise ParameterError("sample sizes must be >= 1")

        def one(rep: int, n=n, j=j) -> float:
            rng = np.random.default_rng(seed ^ (j * 1_000_003 + rep))
            sample = empirical_sample(family, n, rng)
            return math.log(covering_number(sample, eps, norm).upper) / n

        es = np.array(map_indexed(one, reps, threads))
        out.append(EntropyPoint(int(n), reps, float(es.mean()), float(es.std())))
    return out


# ---------------------------------------------------------------------------
# shattering


def is_shattered(values, alpha: float, beta: float, *, return_witnesses: bool = False):
    """Whether every dichotomy of the sample columns is realized.

    values is the (T, n) evaluation matrix.  A row realizes the dichotomy
    G (bitmask over columns) when it is < alpha on the columns in G and
    > beta off G.  Since alpha < beta, a row with every entry < alpha or
    > beta realizes exactly one dichotomy, its below-alpha mask, and any
    other row (an entry in [alpha, beta] or NaN) realizes none.  So one pass
    reads each decided row's mask; the sample is shattered iff all 2^n masks
    occur.  witnesses[G] is the first row realizing G.  n is capped at 24.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ParameterError(f"thresholds must be finite, got alpha={alpha}, beta={beta}")
    if not alpha < beta:
        raise ParameterError(f"need alpha < beta, got {alpha} >= {beta}")
    matrix = np.asarray(values, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ParameterError("need a nonempty 2-d evaluation matrix")
    n = matrix.shape[1]
    if n > _MAX_SHATTER_POINTS:
        raise ResourceLimitError(f"{n} points exceed the shattering cap {_MAX_SHATTER_POINTS}")
    below = matrix < alpha
    decided = np.flatnonzero((below | (matrix > beta)).all(axis=1))
    patterns = below[decided] @ (1 << np.arange(n, dtype=np.int64))
    realized, first = np.unique(patterns, return_index=True)
    if len(realized) < (1 << n):
        return (False, None) if return_witnesses else False
    return (True, decided[first]) if return_witnesses else True


@dataclass(frozen=True)
class ShatterProbability:
    n: int
    reps: int
    shattered: int

    @property
    def fraction(self) -> float:
        return self.shattered / self.reps

    @property
    def root(self) -> float:
        return self.fraction ** (1.0 / self.n)


def shattering_probability(
    family: FunctionFamily,
    n: int,
    alpha: float,
    beta: float,
    reps: int = 64,
    seed: int = 0,
    threads: int = 1,
) -> ShatterProbability:
    """Fraction of i.i.d. n-point samples whose evaluation matrix is shattered."""
    if n < 1 or reps < 1:
        raise ParameterError("n and reps must be >= 1")

    def one(rep: int) -> bool:
        rng = np.random.default_rng(seed ^ rep)
        sample = empirical_sample(family, n, rng)
        return bool(is_shattered(sample.matrix, alpha, beta))

    hits = sum(map_indexed(one, reps, threads))
    return ShatterProbability(n, reps, int(hits))


def shattering_dimension(
    family: FunctionFamily, alpha: float, beta: float, budget: int = 1000, seed: int = 0
) -> int:
    """Greedy lower bound: grow a shattered tuple one random point at a time.

    Each candidate extension costs one is_shattered evaluation; the search
    stops when the budget is spent or the point cap is reached.
    """
    if budget < 1:
        raise ParameterError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    current = None
    best = 0
    for _ in range(budget):
        cand = family.sample_points(1, rng)
        trial = cand if current is None else np.concatenate([current, cand], axis=0)
        if trial.shape[0] > _MAX_SHATTER_POINTS:
            break
        if is_shattered(family.evaluate(trial), alpha, beta):
            current = trial
            best = trial.shape[0]
    return best
