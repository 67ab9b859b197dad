"""Reference implementations used as independent oracles in the tests.

Everything here is deliberately naive: trial division, explicit loops,
O(N^2) correlation sums.  Slow but obviously correct, so the fast package
code can be checked against it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

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


def ref_mertens(x: int) -> int:
    return sum(ref_mobius(n) for n in range(1, x + 1))


def ref_is_bfree(n: int, members) -> bool:
    return all(n % b != 0 for b in members)


def ref_squarefree(n: int) -> bool:
    return ref_mobius(n) != 0


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
