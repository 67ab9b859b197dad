"""Reference implementations used as independent oracles in the tests.

Everything here is deliberately naive: trial division, explicit loops,
O(N^2) correlation sums.  Slow but obviously correct, so the fast package
code can be checked against it.
"""

from __future__ import annotations

import cmath
import csv
import math

import numpy as np

from ergolab import experiments
from ergolab._util import DRAW_CHUNK, fill_signs
from ergolab.averaging import BanachDensity, BFreeGap
from ergolab.dynsys import (
    SkewStream,
    bernoulli_stream,
    rotation_orbit,
    skew_orbit,
    sturmian_word,
    to_state,
)
from ergolab.errors import ParameterError


def ref_factorization(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d = 3 if d == 2 else d + 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def ref_mobius(n: int) -> int:
    fs = ref_factorization(n)
    if any(e > 1 for e in fs.values()):
        return 0
    return (-1) ** len(fs)


def ref_liouville(n: int) -> int:
    return (-1) ** sum(ref_factorization(n).values())


def ref_sieve_segments(kind: str, lo: int, hi: int, segment: int):
    """mu or lambda on [lo, hi], `segment` values at a time, by the plain
    strided sieve: a signed int32 accumulator starts at 1 and is multiplied
    by -p for each multiple of p (mu; multiples of p^2 are then zeroed) or
    of every prime power p^k <= hi (lambda), over the primes p <= sqrt(hi);
    the sign flips once more where |acc| != n."""
    flags = np.ones(math.isqrt(hi) + 1, dtype=bool)
    flags[:2] = False
    for d in range(2, math.isqrt(len(flags)) + 1):
        flags[d * d :: d] = False
    primes = [int(p) for p in np.flatnonzero(flags)]
    for seg_lo in range(lo, hi + 1, segment):
        seg_hi = min(seg_lo + segment - 1, hi)
        acc = np.ones(seg_hi - seg_lo + 1, dtype=np.int32)
        for p in primes:
            if p * p > seg_hi:
                break
            if kind == "mobius":
                acc[-seg_lo % p :: p] *= -p
                acc[-seg_lo % (p * p) :: p * p] = 0
                continue
            q = p
            while q <= seg_hi:
                acc[-seg_lo % q :: q] *= -p
                q *= p
        out = np.sign(acc).astype(np.int8)
        out[np.abs(acc) != np.arange(seg_lo, seg_hi + 1)] *= -1
        yield out


def ref_mertens(x: int) -> int:
    return sum(ref_mobius(n) for n in range(1, x + 1))


def ref_is_bfree(n: int, members) -> bool:
    return all(n % b != 0 for b in members)


def ref_squarefree(n: int) -> bool:
    return ref_mobius(n) != 0


def ref_upper_banach_density(indicator, window: int) -> BanachDensity:
    """upper_banach_density from one full-length int64 prefix: every window
    sum at once, the first maximum by np.argmax."""
    values = np.asarray(indicator)
    if values.ndim != 1 or len(values) == 0:
        raise ParameterError("need a nonempty one-dimensional 0/1 sequence")
    if not np.isin(values, (0, 1)).all():
        raise ParameterError("indicator values must be 0 or 1")
    if not 1 <= window <= len(values):
        raise ParameterError(f"window {window} outside [1, {len(values)}]")
    prefix = np.concatenate(([0], np.cumsum(values.astype(np.int64))))
    sums = prefix[window:] - prefix[: len(values) - window + 1]
    k = int(np.argmax(sums))
    return BanachDensity(window, int(sums[k]), k)


def ref_bfree_approximation_gap(spec, k: int, schedule) -> BFreeGap:
    """bfree_approximation_gap from the two full multiple tables and one
    full-length int64 prefix of the positions where they differ."""
    n = schedule.max_length
    mult_full, mult_trunc = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    for i, b in enumerate(spec.members):
        mult_full[b - 1 :: b] = True
        if i < k:
            mult_trunc[b - 1 :: b] = True
    prefix = np.concatenate(([0], np.cumsum(mult_full != mult_trunc, dtype=np.int64)))
    lengths = np.asarray(schedule.lengths)
    gaps = prefix[lengths] / lengths
    tail = spec.tail_sum(k)
    return BFreeGap(k, schedule.lengths, gaps, tail, gaps <= tail + 2.0 / np.sqrt(lengths))


def ref_correlation(values, m: int, n_max: int) -> int:
    """sum_{n=1..n_max} v(n) v(n+m) with values[i] holding v(i+1)."""
    total = 0
    for n in range(1, n_max + 1):
        total += int(values[n - 1]) * int(values[n + m - 1])
    return total


def ref_exp_sum(values, theta: float, first: int = 1) -> complex:
    """sum_k v_k e^(i (first + k) theta) over values[k], summed term by term."""
    return sum(int(v) * cmath.exp(1j * (first + k) * theta) for k, v in enumerate(values))


def ref_davenport_refine(values, center: float, step: float) -> tuple[float, float]:
    """48-step golden-section search for the max of |sum_{k>=1} v_k e^(ik theta)|
    on [center - step, center + step], every evaluation a direct sum.

    Returns (theta_r, |S(theta_r)|) at the bracket midpoint.
    """
    golden = (math.sqrt(5) - 1) / 2
    v = np.asarray(values, dtype=np.float64)
    ks = np.arange(1, len(v) + 1, dtype=np.float64)

    def g(theta):
        return float(np.abs(np.dot(v, np.exp(1j * theta * ks))))

    lo, hi = center - step, center + step
    c = hi - golden * (hi - lo)
    d = lo + golden * (hi - lo)
    fc, fd = g(c), g(d)
    for _ in range(48):
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + golden * (hi - lo)
            fd = g(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - golden * (hi - lo)
            fc = g(c)
    theta_r = (lo + hi) / 2
    return theta_r, g(theta_r)


def ref_davenport(values, x: int) -> dict:
    """Grid maximum of |sum_{k<=x} v_k e^(ik theta)| from a zero-padded rfft
    of length pad >= 4x (theta = 0 bin exact), then `ref_davenport_refine`."""
    pad = 1 << (4 * x - 1).bit_length()
    buf = np.zeros(pad)
    buf[1 : x + 1] = values[:x]
    mags = np.abs(np.fft.rfft(buf))
    theta0 = abs(sum(int(v) for v in values[:x]))
    mags[0] = float(theta0)
    j = int(np.argmax(mags))
    center, step = 2 * math.pi * j / pad, 2 * math.pi / pad
    theta_r, value_r = ref_davenport_refine(values[:x], center, step)
    return {
        "grid_size": pad, "theta0": theta0, "grid_max": float(mags[j]),
        "center": center, "step": step, "theta_r": theta_r, "value_r": value_r,
    }


def ref_zhan(values, x: int, h_values, thetas: int) -> dict:
    """The theta x h double loop: |(1/h) sum_{x<n<=x+h} v(n) e^(in theta)| for
    every theta_j = 2 pi j / T and every h, each a direct sum over the window.

    values[i] holds v(i+1).  Returns the full (len(h_values), T) table plus
    per-h maxima and theta = 0 values.
    """
    table = np.empty((len(h_values), thetas))
    for i, h in enumerate(h_values):
        window = values[x : x + h]
        for j in range(thetas):
            table[i, j] = abs(ref_exp_sum(window, 2 * math.pi * j / thetas, first=x + 1)) / h
    theta0 = [abs(sum(int(v) for v in values[x : x + h])) / h for h in h_values]
    return {"table": table, "per_h": table.max(axis=1), "theta0_values": theta0}


def ref_is_shattered(values, alpha: float, beta: float):
    """(alpha, beta)-shattering straight from the definition: for every
    dichotomy G (bitmask over the n columns) look through the rows for one
    that is < alpha on the columns in G and > beta on the others.

    Returns (True, witnesses) with witnesses[G] the first such row, or
    (False, None) at the first dichotomy no row realizes.
    """
    rows = [[float(v) for v in row] for row in values]
    n = len(rows[0])
    witnesses = []
    for g in range(1 << n):
        for t, row in enumerate(rows):
            if all(row[i] < alpha if g >> i & 1 else row[i] > beta for i in range(n)):
                witnesses.append(t)
                break
        else:
            return False, None
    return True, witnesses


def ref_unique_rows(matrix) -> np.ndarray:
    """The distinct rows in lexicographic order, as NumPy's own unique."""
    return np.unique(np.asarray(matrix), axis=0)


def ref_covering_number(matrix, eps: float, norm: str) -> tuple[int, int]:
    """(upper, lower) of the first-index greedy over ref_unique_rows at
    radii eps and 2*eps, each distance taken on the values themselves
    (no packing, no ordering other than NumPy's)."""

    def column_dist(matrix, row):
        diff = np.abs(matrix - row)
        return diff.mean(axis=1) if norm == "mean-l1" else diff.max(axis=1)

    def greedy_separated(matrix, radius):
        remaining = matrix
        count = 0
        while len(remaining):
            count += 1
            d = column_dist(remaining, remaining[0])
            remaining = remaining[d > radius]
        return count

    rows = ref_unique_rows(matrix)
    return greedy_separated(rows, eps), greedy_separated(rows, 2 * eps)


def ref_random_walk(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """W(0..n) in full: W(0) = 0 and step k is +1 if the k-th uniform draw is
    < p, else -1.  W is int32, exact since |W(k)| <= k <= n < 2^31; it is
    built one draw chunk at a time (int8 steps, then a cumsum shifted by the
    walk so far), 4 bytes per step."""
    walk = np.empty(n + 1, dtype=np.int32)
    walk[0] = 0
    steps = np.empty(min(n, DRAW_CHUNK), dtype=np.int8)
    for start in range(0, n, DRAW_CHUNK):
        stop = min(start + DRAW_CHUNK, n)
        part = steps[: stop - start]
        fill_signs(rng, part, p)
        np.cumsum(part, dtype=np.int32, out=walk[start + 1 : stop + 1])
        walk[start + 1 : stop + 1] += walk[start]
    return walk


def ref_interval_sup(walk, x: int, h_min: int) -> tuple[float, int]:
    """max over h in [h_min, x] of |walk[x+h] - walk[x]| / h, one h at a time,
    and the smallest h attaining it.  Python's int / int is correctly
    rounded, as is the float division of the same exact integers."""
    base = int(walk[x])
    best, argmax_h = -1.0, None
    for h in range(h_min, x + 1):
        ratio = abs(int(walk[x + h]) - base) / h
        if ratio > best:
            best, argmax_h = ratio, h
    return best, argmax_h


def ref_block_extrema(walk, lo: int, hi: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(first, max, min) over the aligned blocks walk[b*B : (b+1)*B],
    B = experiments._SUP_BLOCK, that lie inside walk[lo : hi + 1], each
    taken whole; max[i] and min[i] belong to block first + i."""
    block = experiments._SUP_BLOCK
    first = -(-lo // block)
    stop = max((hi + 1) // block, first)
    blocks = np.asarray(walk[first * block : stop * block]).reshape(-1, block)
    return first, blocks.max(axis=1), blocks.min(axis=1)


def walk_of(values) -> experiments.MertensWalk:
    """`mertens_prefix` of values v(1..n), cast to int8."""
    return experiments.mertens_prefix(np.asarray(values, dtype=np.int8))


def walk_of_prefix(prefix) -> experiments.MertensWalk:
    """walk_of the steps of a prefix array with prefix[0] == 0."""
    assert prefix[0] == 0
    return walk_of(np.diff(np.asarray(prefix, dtype=np.int64)))


def ref_complex_window_averages(f, g, lengths) -> np.ndarray:
    """Window averages of |f - g| (of |f| when g is None) the long way: each
    sequence copied to complex128, the difference and its abs taken there,
    and a float64 running sum with a leading 0."""
    values = np.asarray(f).astype(np.complex128)
    if g is not None:
        values = values - np.asarray(g).astype(np.complex128)
    prefix = np.concatenate([[0.0], np.cumsum(np.abs(values).real)])
    lengths = np.asarray(lengths)
    return prefix[lengths] / lengths


def ref_constancy_radius(center: int, runs) -> int:
    """Distance from center to the boundary of the first of ``runs`` (lo, hi,
    value), lo None for -infinity, that holds it, by a linear search; 0 when
    none does."""
    for lo, hi, _ in runs:
        if (lo is None or center >= lo) and center <= hi:
            return hi - center if lo is None else min(center - lo, hi - center)
    return 0


def ref_veech_value(starts, signs, n: int) -> int:
    """Sign of the last block start <= n, 0 below the first start."""
    value = 0
    for start, sign in zip(starts, signs):
        if start <= n:
            value = sign
    return value


def ref_subword_count(word, k: int) -> int:
    """Number of distinct length-k blocks in the sequence."""
    seen = set()
    for i in range(len(word) - k + 1):
        seen.add(tuple(int(c) for c in word[i : i + k]))
    return len(seen)


def gcd_all_pairs_coprime(members) -> bool:
    ms = list(members)
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if math.gcd(ms[i], ms[j]) != 1:
                return False
    return True


def ref_pair_streams(spec, delta: float, rng: np.random.Generator, n: int):
    """Two orbits started at points delta apart, sampled from the natural measure.

    The per-variant pair sampler the probe used before the streams had
    `shifted_pair`, kept as its reference; `spec` is anything with a
    `variant` name and a `params` dict of that variant's config keys.
    """
    variant = spec.variant
    p = spec.params
    check = bool(p.get("check", True))
    mask = (1 << 64) - 1
    if variant in ("rotation", "sturmian"):
        make = rotation_orbit if variant == "rotation" else sturmian_word
        base = make(p["alpha"], 0.0, check=check)
        x = int(rng.integers(0, 2**64, dtype=np.uint64))
        f = type(base)(base.alpha_state, x)
        g = type(base)(base.alpha_state, (x + to_state(delta)) & mask)
        return f.take(n), g.take(n)
    if variant in ("skew-additive", "skew-affine"):
        skew_variant = "additive" if variant == "skew-additive" else "affine"
        base = skew_orbit(
            skew_variant,
            x0=p.get("x0", 0.0),
            y0=0.0,
            alpha=p.get("alpha"),
            check=check,
        )
        x = base.x_state
        if skew_variant == "affine":
            # the base coordinate is distributed by the rotation; draw it
            x = int(rng.integers(0, 2**64, dtype=np.uint64))
        y = int(rng.integers(0, 2**64, dtype=np.uint64))
        f = SkewStream(skew_variant, base.alpha_state, x, y)
        g = SkewStream(skew_variant, base.alpha_state, x, (y + to_state(delta)) & mask)
        return f.take(n), g.take(n)
    if variant == "bernoulli":
        bias = p.get("p", 0.5)
        prefix_len = min(n, max(0, math.ceil(math.log2(1.0 / delta)))) if delta < 1 else 0
        s1, s2 = int(rng.integers(0, 2**63)), int(rng.integers(0, 2**63))
        f = bernoulli_stream(bias, s1).take(n)
        g = f.copy()
        if prefix_len < n:
            g[prefix_len:] = bernoulli_stream(bias, s2).take(n)[prefix_len:]
        return f, g
    raise ParameterError(f"no pair sampler for variant {variant!r}")


def ref_format_cell(value) -> str:
    """One CSV cell as text: None empty, bools true/false, floats by repr."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def ref_write_csv(path, header, rows) -> None:
    """The row-at-a-time CSV writer, one ref_format_cell call per cell."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([ref_format_cell(cell) for cell in row])


def ref_rotation_values(alpha_state: int, size: int, points) -> np.ndarray:
    """cos(2 pi (x + t alpha)) over t < size and the uint64 points x, by the
    one-expression rule the rotation family evaluated before its angle was
    scaled in place."""
    shifts = np.arange(size, dtype=np.uint64) * np.uint64(alpha_state)
    states = shifts[:, None] + np.asarray(points, dtype=np.uint64)[None, :]
    return np.cos(2 * np.pi * (states.astype(np.float64) * 2.0**-64))
