"""Deterministic orbit streams for a small zoo of dynamical systems.

Torus coordinates are stored as 64-bit fixed point: a state s in [0, 2^64)
represents the real number s / 2^64, and addition mod 1 is plain uint64
wrap-around.  Orbits are therefore bit-exact and advancing a stream commutes
with reading it.

Systems:
  * rotation          x -> x + alpha,      observable e^(2 pi i x)
  * skew-additive     (x, y) -> (x, x+y),  observable e^(2 pi i y)
  * skew-affine       (x, y) -> (x+alpha, x+y)
  * sturmian          symbolic coding of a rotation, w_n in {0, 1}
  * bernoulli         i.i.d. +-1 stream (the positive-entropy contrast)
  * table shift       reads a value array (a sieve table's values) through the left shift

Step functions with growing plateaus (VeechSpec / veech_function) live here
too, together with the window-closure scan that looks for the constant limit
windows.

Every stream but the table shift has shifted_pair, which samples a start
point from the natural measure and returns the orbits of it and of a point
delta away; the mean-equicontinuity probe is built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .arith import MertensPrefix, mertens_prefix
from .errors import ParameterError, ResourceLimitError

_MASK = (1 << 64) - 1
_SCALE = 1 << 64
_MAX_TAKE = 2**31

# denominators up to 2^16 correspond to states divisible by 2^48
_RATIONAL_STRIDE = 1 << 48


def to_state(value: float | int | Fraction) -> int:
    """Reduce a real number mod 1 and round it to 64-bit fixed point."""
    if isinstance(value, (int, np.integer)):
        frac = Fraction(int(value))
    elif isinstance(value, float):
        frac = Fraction(value)
    elif isinstance(value, Fraction):
        frac = value
    else:
        raise ParameterError(f"cannot convert {type(value).__name__} to a torus point")
    frac -= math.floor(frac)
    return round(frac * _SCALE) % _SCALE


def state_fraction(state: int) -> float:
    """The real number in [0, 1) represented by a fixed-point state."""
    return (state & _MASK) / _SCALE


def _guard_irrational(state: int, name: str) -> None:
    if state % _RATIONAL_STRIDE == 0:
        denom = _SCALE // math.gcd(state % _SCALE, _SCALE) if state % _SCALE else 1
        raise ParameterError(
            f"{name} is exactly rational with denominator {denom} <= 2^16; "
            "pass check=False to allow it"
        )


def _check_take(n: int) -> None:
    if n < 0:
        raise ParameterError(f"cannot take {n} values")
    if n > _MAX_TAKE:
        raise ResourceLimitError(f"stream length {n} exceeds the bound {_MAX_TAKE}")


def _linear_states(x0: int, step: int, n: int) -> np.ndarray:
    idx = np.arange(n, dtype=np.uint64)
    return idx * np.uint64(step & _MASK) + np.uint64(x0 & _MASK)


def _phase(states: np.ndarray) -> np.ndarray:
    return np.exp(2j * np.pi * (states.astype(np.float64) * 2.0**-64))


class OrbitStream:
    """Deterministic sequence of observable values f(T^n x), n = 0, 1, ..."""

    def take(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def advance(self, m: int) -> "OrbitStream":
        """The stream started at T^m x; advance then take equals skipping."""
        raise NotImplementedError

    def shifted_pair(self, delta: float, rng: np.random.Generator, n: int):
        """The first n values of the orbits of a start point drawn from rng
        (under the natural measure) and of a point delta away from it."""
        raise NotImplementedError


def _draw_state(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**64, dtype=np.uint64))


@dataclass(frozen=True)
class _CircleStream(OrbitStream):
    """Orbit of the rotation by alpha; subclasses choose the observable."""

    alpha_state: int
    x_state: int

    def states(self, n: int) -> np.ndarray:
        _check_take(n)
        return _linear_states(self.x_state, self.alpha_state, n)

    def advance(self, m: int):
        return replace(self, x_state=(self.x_state + m * self.alpha_state) & _MASK)

    def shifted_pair(self, delta, rng, n):
        x = _draw_state(rng)
        f = replace(self, x_state=x)
        g = replace(self, x_state=(x + to_state(delta)) & _MASK)
        return f.take(n), g.take(n)


@dataclass(frozen=True)
class RotationStream(_CircleStream):
    def take(self, n: int) -> np.ndarray:
        return _phase(self.states(n))


@dataclass(frozen=True)
class SturmianStream(_CircleStream):
    def take(self, n: int) -> np.ndarray:
        states = self.states(n)
        if self.alpha_state % _SCALE == 0:
            return np.zeros(n, dtype=np.int8)
        threshold = np.uint64(_SCALE - (self.alpha_state % _SCALE))
        return (states >= threshold).astype(np.int8)


@dataclass(frozen=True)
class SkewStream(OrbitStream):
    """Skew product over the torus; the observable reads the fiber."""

    variant: str  # "additive" or "affine"
    alpha_state: int
    x_state: int
    y_state: int

    def fiber_states(self, n: int) -> np.ndarray:
        _check_take(n)
        idx = np.arange(n, dtype=np.uint64)
        out = idx * np.uint64(self.x_state) + np.uint64(self.y_state)
        if self.variant == "affine":
            # y_n picks up binomial(n, 2) * alpha; idx*(idx-1) is exact in
            # uint64 because take lengths are capped below 2^32
            tri = (idx * np.where(idx > 0, idx - 1, 0)) // np.uint64(2)
            out = out + tri * np.uint64(self.alpha_state)
        return out

    def take(self, n: int) -> np.ndarray:
        return _phase(self.fiber_states(n))

    def advance(self, m: int) -> "SkewStream":
        x = (self.x_state + (m * self.alpha_state if self.variant == "affine" else 0)) & _MASK
        y = (self.y_state + m * self.x_state + (m * (m - 1) // 2) * self.alpha_state) & _MASK
        return SkewStream(self.variant, self.alpha_state, x, y)

    def shifted_pair(self, delta, rng, n):
        # the fiber coordinate is drawn; so is the base coordinate of the
        # affine product, which the rotation distributes, while the additive
        # base point is fixed by the system
        x = _draw_state(rng) if self.variant == "affine" else self.x_state
        y = _draw_state(rng)
        f = SkewStream(self.variant, self.alpha_state, x, y)
        g = SkewStream(self.variant, self.alpha_state, x, (y + to_state(delta)) & _MASK)
        return f.take(n), g.take(n)


@dataclass(frozen=True)
class BernoulliStream(OrbitStream):
    """I.i.d. +-1 values with P(+1) = p, reproducible from the seed."""

    p: float
    seed: int
    offset: int = 0

    def take(self, n: int) -> np.ndarray:
        _check_take(self.offset + n)
        rng = np.random.default_rng(self.seed)
        raw = rng.random(self.offset + n)
        return np.where(raw < self.p, 1, -1).astype(np.int8)[self.offset :]

    def advance(self, m: int) -> "BernoulliStream":
        return BernoulliStream(self.p, self.seed, self.offset + m)

    def shifted_pair(self, delta, rng, n):
        # points delta apart in the shift metric share their first
        # ceil(log2(1/delta)) coordinates; the tails are independent
        prefix_len = min(n, max(0, math.ceil(math.log2(1.0 / delta)))) if delta < 1 else 0
        s1, s2 = int(rng.integers(0, 2**63)), int(rng.integers(0, 2**63))
        f = BernoulliStream(self.p, s1).take(n)
        g = f.copy()
        if prefix_len < n:
            g[prefix_len:] = BernoulliStream(self.p, s2).take(n)[prefix_len:]
        return f, g


@dataclass(frozen=True)
class TableStream(OrbitStream):
    values: np.ndarray
    offset: int = 0

    def take(self, n: int) -> np.ndarray:
        _check_take(n)
        if self.offset + n > len(self.values):
            raise ParameterError(
                f"table stream exhausted: need {self.offset + n} values, have {len(self.values)}"
            )
        return self.values[self.offset : self.offset + n]

    def advance(self, m: int) -> "TableStream":
        return TableStream(self.values, self.offset + m)


# ---------------------------------------------------------------------------
# factories


def rotation_orbit(alpha, x0=0.0, *, check: bool = True) -> RotationStream:
    """Orbit of the rotation x -> x + alpha with observable e^(2 pi i x)."""
    a = to_state(alpha)
    if check:
        _guard_irrational(a, "alpha")
    return RotationStream(a, to_state(x0))

def skew_orbit(variant: str, x0=0.0, y0=0.0, alpha=None, *, check: bool = True) -> SkewStream:
    """Skew-product orbit; "additive" is (x,y)->(x,x+y), "affine" adds alpha."""
    if variant not in ("additive", "affine"):
        raise ParameterError(f"unknown skew variant {variant!r}")
    x = to_state(x0)
    if variant == "additive":
        a = 0
        if check:
            _guard_irrational(x, "x0")
    else:
        if alpha is None:
            raise ParameterError("affine skew products need alpha")
        a = to_state(alpha)
        if check:
            _guard_irrational(a, "alpha")
    return SkewStream(variant, a, x, to_state(y0))


def sturmian_word(alpha, x0=0.0, *, check: bool = True) -> SturmianStream:
    """Sturmian coding w_n = 1 iff x0 + n*alpha mod 1 lands in [1-alpha, 1)."""
    a = to_state(alpha)
    if check:
        _guard_irrational(a, "alpha")
    return SturmianStream(a, to_state(x0))


def bernoulli_stream(p: float = 0.5, seed: int = 0) -> BernoulliStream:
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"bias p={p} outside [0, 1]")
    return BernoulliStream(float(p), int(seed))


# ---------------------------------------------------------------------------
# step functions with strictly growing plateaus


@dataclass(frozen=True)
class VeechSpec:
    """Start points n_1 < n_2 < ... with strictly increasing gaps, plus the
    sign of each block [n_k, n_{k+1}).  Either fully explicit or generated.
    """

    starts: tuple[int, ...] | None = None
    signs: tuple[int, ...] | None = None
    generator: str | None = None
    sign_rule: str | None = None
    mertens_limit: int | None = None

    def __post_init__(self):
        explicit = self.starts is not None or self.signs is not None
        generated = self.generator is not None
        if explicit == generated:
            raise ParameterError("spec must be either explicit (starts+signs) or generated")
        if explicit:
            if self.starts is None or self.signs is None:
                raise ParameterError("explicit specs need both starts and signs")
            starts = tuple(int(s) for s in self.starts)
            signs = tuple(int(s) for s in self.signs)
            object.__setattr__(self, "starts", starts)
            object.__setattr__(self, "signs", signs)
            if len(starts) < 2 or len(signs) != len(starts) - 1:
                raise ParameterError("need len(signs) == len(starts) - 1 >= 1")
            if starts[0] < 1:
                raise ParameterError("starts must be positive integers")
            gaps = [b - a for a, b in zip(starts, starts[1:])]
            if any(g <= 0 for g in gaps):
                raise ParameterError("starts must be strictly increasing")
            if any(b <= a for a, b in zip(gaps, gaps[1:])):
                raise ParameterError("gaps between starts must strictly increase")
            if any(s not in (-1, 1) for s in signs):
                raise ParameterError("signs must be +-1")
        else:
            if self.generator != "triangular":
                raise ParameterError(f"unknown generator {self.generator!r}")
            if self.sign_rule not in ("alternating", "plus", "minus", "mertens"):
                raise ParameterError(f"unknown sign rule {self.sign_rule!r}")
            if self.sign_rule == "mertens" and not self.mertens_limit:
                raise ParameterError("the mertens sign rule needs mertens_limit")

    @classmethod
    def explicit(cls, starts, signs) -> "VeechSpec":
        return cls(starts=tuple(starts), signs=tuple(signs))

    @classmethod
    def generated(cls, generator: str, sign_rule: str, mertens_limit: int | None = None) -> "VeechSpec":
        return cls(generator=generator, sign_rule=sign_rule, mertens_limit=mertens_limit)


class VeechFunction:
    """f(n) = sign of the block containing n, 0 for n below the first start.

    Generated specs materialize blocks on demand; explicit specs raise a
    ParameterError when evaluated at or beyond their last start.
    """

    def __init__(self, spec: VeechSpec):
        self.spec = spec
        self._mertens: MertensPrefix | None = None
        if spec.generator is None:
            self._starts = list(spec.starts)
            self._signs = list(spec.signs)
            self._growable = False
        else:
            if spec.sign_rule == "mertens":
                self._mertens = mertens_prefix(spec.mertens_limit)
            self._starts = [1]
            self._signs = []
            self._growable = True
            self._extend(8)

    def _next_start(self) -> int:
        k = len(self._starts) + 1
        return k * (k + 1) // 2

    def _block_sign(self, index: int) -> int:
        rule = self.spec.sign_rule
        if rule == "alternating":
            return 1 if index % 2 == 0 else -1
        if rule == "plus":
            return 1
        if rule == "minus":
            return -1
        lo, hi = self._starts[index], self._starts[index + 1]
        if hi > self._mertens.limit:
            raise ParameterError(
                f"mertens_limit {self._mertens.limit} too small for start {hi}"
            )
        inc = self._mertens.range_sum(lo, hi)
        return -1 if inc < 0 else 1

    def _extend(self, blocks: int) -> None:
        for _ in range(blocks):
            self._starts.append(self._next_start())
            self._signs.append(self._block_sign(len(self._signs)))

    def _ensure_covering(self, n: int) -> None:
        if n < self._starts[-1]:
            return
        if not self._growable:
            raise ParameterError(
                f"n={n} is at or beyond the last start {self._starts[-1]} of an explicit spec"
            )
        while self._starts[-1] <= n:
            self._extend(1)

    def ensure_blocks(self, count: int) -> None:
        """Materialize at least `count` sign blocks (generated specs only)."""
        if len(self._signs) >= count:
            return
        if not self._growable:
            raise ParameterError(f"explicit spec has only {len(self._signs)} blocks")
        self._extend(count - len(self._signs))

    @property
    def starts(self) -> list[int]:
        return list(self._starts)

    @property
    def signs(self) -> list[int]:
        return list(self._signs)

    def values_range(self, lo: int, hi: int) -> np.ndarray:
        """f on the inclusive integer window [lo, hi] as an int8 array."""
        if hi < lo:
            raise ParameterError(f"bad window [{lo}, {hi}]")
        self._ensure_covering(hi)
        out = np.zeros(hi - lo + 1, dtype=np.int8)
        first = self._starts[0]
        if hi >= first:
            positions = np.arange(max(lo, first), hi + 1)
            starts = np.asarray(self._starts)
            idx = np.searchsorted(starts, positions, side="right") - 1
            signs = np.asarray(self._signs, dtype=np.int8)
            out[positions - lo] = signs[idx]
        return out

    def __call__(self, n: int) -> int:
        return int(self.values_range(n, n)[0])

    def runs(self) -> list[tuple[int | None, int, int]]:
        """Maximal constant runs (lo, hi, value) over the materialized range.

        The first run is the zero tail with lo=None standing for -infinity;
        adjacent blocks with equal signs merge.  The last run is clipped at
        the materialized horizon starts[-1] - 1.
        """
        out: list[tuple[int | None, int, int]] = [(None, self._starts[0] - 1, 0)]
        run_lo = self._starts[0]
        run_val = self._signs[0] if self._signs else 0
        for i in range(1, len(self._signs)):
            if self._signs[i] != run_val:
                out.append((run_lo, self._starts[i] - 1, run_val))
                run_lo, run_val = self._starts[i], self._signs[i]
        if self._signs:
            out.append((run_lo, self._starts[-1] - 1, run_val))
        return out


def veech_function(spec: VeechSpec) -> VeechFunction:
    return VeechFunction(spec)


# ---------------------------------------------------------------------------
# window closure scan


@dataclass(frozen=True)
class WindowSample:
    center: int
    radius: int
    window: tuple[int, ...]


@dataclass(frozen=True)
class WindowScan:
    """Result of sampling windows of radius w around shifted centers.

    A center's constancy radius is its distance to the boundary of the
    maximal constant run containing it.  above_threshold maps each window
    seen with radius > max_gap/3 to the best radius observed for it;
    persistent_constants restricts that to constant windows, keyed by value.
    """

    w: int
    samples: tuple[WindowSample, ...]
    max_gap: int
    threshold: float
    above_threshold: dict
    persistent_constants: dict


def _constancy_radius(center: int, runs) -> int:
    for lo, hi, _ in runs:
        if (lo is None or center >= lo) and center <= hi:
            if lo is None:
                return hi - center
            return min(center - lo, hi - center)
    return 0


def veech_window_closure(spec: VeechSpec, w: int, budget: int = 256) -> WindowScan:
    """Sample length-(2w+1) windows of f and flag the persistent constants.

    Centers combine the midpoint of every sampled block (these sit in the
    middle third, so their constancy radius grows with the gaps), a
    geometric ladder of negative centers probing the zero tail, and a
    uniform spread.  Windows whose best constancy radius exceeds
    max_gap / 3 are reported in above_threshold.
    """
    if w < 0:
        raise ParameterError("window radius must be >= 0")
    if budget < 8:
        raise ParameterError("budget must be at least 8")
    f = veech_function(spec)

    n_neg = min(8, max(2, budget // 16))
    n_spread = budget // 4
    n_mid = max(1, budget - n_neg - n_spread)
    if f._growable:
        f.ensure_blocks(n_mid + 1)
    n_mid = min(n_mid, len(f.signs))

    starts = f.starts
    centers: set[int] = set()
    sampled_gaps = []
    horizon = starts[min(n_mid, len(starts) - 1)] - 1
    for i in range(n_mid):
        gap = starts[i + 1] - starts[i]
        sampled_gaps.append(gap)
        centers.add(starts[i] + gap // 2)
    for j in range(n_neg):
        centers.add(-((w + 1) << j))
    lo_r, hi_r = min(centers) - 1, horizon
    for c in np.linspace(lo_r + w, hi_r - w, n_spread):
        centers.add(int(c))

    if not f._growable:
        centers = {c for c in centers if c + w <= starts[-1] - 1}

    runs = None
    samples = []
    for center in sorted(centers):
        window = tuple(int(v) for v in f.values_range(center - w, center + w))
        runs = f.runs()  # may have grown while reading the window
        radius = _constancy_radius(center, runs)
        samples.append(WindowSample(center, radius, window))

    max_gap = max(sampled_gaps) if sampled_gaps else 1
    threshold = max_gap / 3
    above: dict[tuple[int, ...], int] = {}
    for s in samples:
        if s.radius > threshold:
            above[s.window] = max(above.get(s.window, 0), s.radius)
    constants = {
        win[0]: rad for win, rad in above.items() if len(set(win)) == 1
    }
    return WindowScan(
        w=w,
        samples=tuple(samples),
        max_gap=max_gap,
        threshold=threshold,
        above_threshold=above,
        persistent_constants=constants,
    )
