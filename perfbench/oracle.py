"""Output checks that do not trust the program under test.

Reference values come from this file alone: trial division, a
smallest-prime-factor factorization sieve, closed forms, and a few published
values of the Mertens function.  ``check_run`` reads one run directory and
returns the list of problems it found (empty when the run is right).
"""

from __future__ import annotations

import csv
import json
import math
import struct
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

# M(10^k), k = 0..8 (OEIS A084237)
_MERTENS_POWERS = (1, -1, 1, 2, -23, -48, 212, 1037, 1928)
_SAMPLES = 64


def trial_mu_lambda(n: int) -> tuple[int, int]:
    """(mu(n), lambda(n)) by trial division."""
    mu, big_omega, squarefree = 1, 0, True
    d = 2
    while d * d <= n:
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        if k:
            mu, big_omega, squarefree = -mu, big_omega + k, squarefree and k == 1
        d += 1 if d == 2 else 2
    if n > 1:
        mu, big_omega = -mu, big_omega + 1
    return (mu if squarefree else 0), (-1) ** big_omega


class Reference:
    """mu, lambda and M on [0, limit] from a smallest-prime-factor table:
    with p = spf(n) and m = n / p, mu(n) = -mu(m) unless p divides m, and
    lambda(n) = -lambda(m).  Index 0 holds mu = lambda = 0."""

    def __init__(self, limit: int):
        self.limit = limit = max(int(limit), 10)
        root = math.isqrt(limit)
        composite = np.zeros(root + 1, dtype=bool)
        for p in range(2, math.isqrt(root) + 1):
            composite[p * p :: p] |= not composite[p]
        spf = np.zeros(limit + 1, dtype=np.int32)
        for p in reversed(range(2, root + 1)):  # smaller primes overwrite larger ones
            if not composite[p]:
                spf[p * p :: p] = p
        self.mu = np.zeros(limit + 1, dtype=np.int8)
        self.lam = np.zeros(limit + 1, dtype=np.int8)
        self.mu[1] = self.lam[1] = 1
        lo = 2
        while lo <= limit:  # n / spf(n) <= n / 2 < lo, so each block reads finished values
            hi = min(2 * lo, limit + 1)
            n = np.arange(lo, hi, dtype=np.int64)
            p = spf[lo:hi].astype(np.int64)
            p[p == 0] = n[p == 0]
            m = n // p
            self.mu[lo:hi] = np.where(m % p == 0, 0, -self.mu[m])
            self.lam[lo:hi] = -self.lam[m]
            lo = hi
        self.mertens = np.concatenate([[0], np.cumsum(self.mu[1:], dtype=np.int64)])

    def table(self, kind: str) -> np.ndarray:
        return self.mu if kind == "mobius" else self.lam

    def self_check(self) -> list:
        """The reference must agree with trial division and published M(10^k)."""
        problems = []
        rng = np.random.default_rng(1)
        points = rng.integers(1, self.limit + 1, size=_SAMPLES).tolist()
        for n in points + list(range(1, min(200, self.limit + 1))):
            if (int(self.mu[n]), int(self.lam[n])) != trial_mu_lambda(n):
                problems.append(f"reference sieve disagrees with trial division at n={n}")
        for k, m in enumerate(_MERTENS_POWERS):
            if 10**k <= self.limit and int(self.mertens[10**k]) != m:
                problems.append(f"reference M(10^{k})={int(self.mertens[10**k])}, published {m}")
        return problems


def reference_limit(runs) -> int:
    """Largest n whose mu/lambda/M the checks of these runs look up."""
    need = 10
    for name, p in runs:
        if name == "davenport":
            need = max(need, max(p["xs"]))
        elif name in ("zhan", "short-interval"):
            need = max(need, 2 * (p["x"] if name == "zhan" else max(p["xs"])))
        elif name == "chowla":
            need = max(need, 2 * max(p["schedule"]))
        elif name == "second-moment":
            need = max(need, max(2 * x + int(x**0.2) for x in p["xs"]))
        elif name in ("partition", "besicovitch"):
            need = max(need, p.get("top", p.get("limit", 0)))
        elif name == "disjointness":
            need = max(need, p["n"])
        elif name in ("sieve", "mertens"):
            need = max(need, min(p["head"], p["limit"]))
    return need


# ---------------------------------------------------------------------------
# reading outputs


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.reader(fh))[1:]


def _columns(path: Path, dtype) -> np.ndarray:
    """All data rows of a numeric CSV as a 2-d array (one column per field)."""
    text = path.read_text(encoding="ascii")
    header, _, body = text.partition("\n")
    width = header.count(",") + 1
    return np.array(body.replace(",", "\n").split(), dtype=dtype).reshape(-1, width)


def _close(a, b, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _squarefree_count(limit: int, members) -> int:
    """Integers in [1, limit] divisible by no member (members pairwise coprime)."""
    total = 0
    for r in range(len(members) + 1):
        for subset in combinations(members, r):
            total += (-1) ** r * (limit // math.prod(subset))
    return total


# ---------------------------------------------------------------------------
# per-experiment checks; each returns a list of problems


def _check_sieve(p, d, ref):
    problems = []
    head = min(p["head"], p["limit"])
    cols = _columns(d / "table.csv", np.int64)
    if not np.array_equal(cols[:, 0], np.arange(1, head + 1)):
        return ["table.csv does not list n = 1..head"]
    values = cols[:, 1]
    if not np.array_equal(values, ref.table(p["kind"])[1 : head + 1]):
        problems.append("table.csv values differ from the reference sieve")
    rng = np.random.default_rng(2)
    for n in rng.integers(1, head + 1, size=_SAMPLES).tolist():
        want = trial_mu_lambda(n)[0 if p["kind"] == "mobius" else 1]
        if values[n - 1] != want:
            problems.append(f"table.csv n={n}: {values[n - 1]} != trial division {want}")
    blob = (d / "table.bin").read_bytes()
    magic, code, lo, hi = struct.unpack_from("<6sHII", blob)
    body = np.frombuffer(blob, dtype=np.int8, offset=struct.calcsize("<6sHII"))
    want_code = {"mobius": 1, "liouville": 2}[p["kind"]]
    if (magic, code, lo, hi) != (b"ATBL01", want_code, 1, head):
        problems.append(f"table.bin header {(magic, code, lo, hi)} is wrong")
    elif not np.array_equal(body, values):
        problems.append("table.bin body differs from table.csv")
    return problems


def _check_mertens(p, d, ref):
    head = min(p["head"], p["limit"])
    cols = _columns(d / "mertens.csv", np.int64)
    if not np.array_equal(cols[:, 0], np.arange(1, head + 1)):
        return ["mertens.csv does not list x = 1..head"]
    if not np.array_equal(cols[:, 1], ref.mertens[1 : head + 1]):
        return ["mertens.csv M(x) differs from the reference"]
    return []


def _check_bfree(p, d, ref):
    problems = []
    members, limit = p["members"], p["limit"]
    head = min(p["head"], limit)
    cols = _columns(d / "indicator.csv", np.int64)
    n = np.arange(1, head + 1)
    free = np.ones(head, dtype=np.int64)
    for b in members:
        free[n % b == 0] = 0
    if not (np.array_equal(cols[:, 0], n) and np.array_equal(cols[:, 1], free)
            and np.array_equal(cols[:, 2], 1 - free)):
        problems.append("indicator.csv differs from direct divisibility")
    (row,) = _rows(d / "density.csv")
    count = _squarefree_count(limit, members)
    if int(row[0]) != limit or int(row[1]) != count:
        problems.append(f"free_count {row[1]} != inclusion-exclusion count {count}")
    if not _close(float(row[2]), count / limit):
        problems.append(f"density {row[2]} != {count}/{limit}")
    return problems


def _check_orbit(p, d, ref):
    system = p["system"]
    if system.get("variant") != "rotation":
        return []
    cols = _columns(d / "orbit.csv", np.float64)
    n = p["n"]
    if len(cols) != n or not np.array_equal(cols[:, 0], np.arange(n)):
        return ["orbit.csv does not list n = 0..N-1"]
    scale = 1 << 64
    alpha = Fraction(system["alpha"]) % 1
    x0 = Fraction(system.get("x0", 0.0)) % 1
    step, start = round(alpha * scale) % scale, round(x0 * scale) % scale
    rng = np.random.default_rng(3)
    for k in rng.integers(0, n, size=_SAMPLES).tolist() + [0, n - 1]:
        z = complex(math.cos(2 * math.pi * ((start + k * step) % scale) / scale),
                    math.sin(2 * math.pi * ((start + k * step) % scale) / scale))
        if abs(complex(cols[k, 1], cols[k, 2]) - z) > 1e-9:
            return [f"orbit.csv n={k} is not e(x0 + n alpha)"]
    return []


def _check_davenport(p, d, ref):
    problems = []
    for x, theta0, grid, grid_max, max_value, _theta, ratio in _rows(d / "davenport.csv"):
        x = int(x)
        if int(theta0) != abs(int(ref.mertens[x])):
            problems.append(f"davenport theta0 {theta0} != |M({x})| = {abs(int(ref.mertens[x]))}")
        if int(grid) != 1 << (4 * x - 1).bit_length():
            problems.append(f"davenport grid size {grid} is wrong at x={x}")
        if not float(max_value) >= float(grid_max) >= int(theta0):
            problems.append(f"davenport max {max_value} < grid max {grid_max} or theta0")
        if not _close(float(ratio), float(max_value) / (x / math.log(x) ** p["a"])):
            problems.append(f"davenport ratio {ratio} is inconsistent at x={x}")
    return problems


def _check_zhan(p, d, ref):
    problems = []
    x = p["x"]
    h_min = min(max(1, math.ceil(x ** p["tau"])), x)
    ladder = [h_min]
    while ladder[-1] < x:
        ladder.append(min(2 * ladder[-1], x))
    rows = _rows(d / "zhan.csv")
    if [int(r[0]) for r in rows] != ladder:
        return [f"zhan h ladder {[r[0] for r in rows]} != {ladder}"]
    for h, best, at0 in rows:
        h = int(h)
        want = abs(int(ref.mertens[x + h] - ref.mertens[x])) / h
        if not _close(float(at0), want) or float(best) < float(at0):
            problems.append(f"zhan theta=0 value {at0} != |M(x+h)-M(x)|/h = {want} at h={h}")
    (summary,) = _rows(d / "summary.csv")
    if float(summary[3]) != max(float(r[1]) for r in rows):
        problems.append("zhan sup is not the max over h")
    return problems


def _correlation_numerator(v: np.ndarray, n: int) -> int:
    """sum_{m=1}^{n} |sum_{k=1}^{n} v(k) v(k+m)|, v given on 1..2n."""
    size = 1 << (3 * n).bit_length()
    spec = np.fft.rfft(v[: 2 * n].astype(np.float64), size)
    head = np.fft.rfft(v[:n].astype(np.float64), size)
    c = np.rint(np.fft.irfft(spec * np.conj(head), size)[1 : n + 1]).astype(np.int64)
    return int(np.abs(c).sum())


def _check_chowla(p, d, ref):
    problems = []
    v = ref.table(p["kind"])[1:]
    rows = _rows(d / "decay.csv")
    values = []
    for n, value in rows:
        n = int(n)
        want = _correlation_numerator(v, n) / n**2
        values.append(float(value))
        if float(value) != want:
            problems.append(f"chowla D({n}) = {value} != {want}")
    (fit,) = _rows(d / "fit.csv")
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    if fit[3] != ("true" if decreasing else "false"):
        problems.append("chowla strictly_decreasing flag is wrong")
    return problems


def _check_short_interval(p, d, ref):
    problems = []
    for x, tau, h_min, h_max, sup, argmax_h in _rows(d / "intervals.csv"):
        x = int(x)
        hs = np.arange(min(max(1, math.ceil(x ** float(tau))), x), x + 1, dtype=np.int64)
        ratios = np.abs(ref.mertens[x + hs] - ref.mertens[x]) / hs
        if (int(h_min), int(h_max)) != (int(hs[0]), x) or float(sup) != float(ratios.max()):
            problems.append(f"short-interval sup {sup} != {ratios.max()} at x={x}")
        elif abs(int(ref.mertens[x + int(argmax_h)] - ref.mertens[x])) / int(argmax_h) != float(sup):
            problems.append(f"short-interval argmax_h {argmax_h} does not attain the sup")
    return problems


def _check_second_moment(p, d, ref):
    problems = []
    for x, h, value, normalized in _rows(d / "moments.csv"):
        x, h = int(x), int(h)
        if p["h"] is None and h != int(x ** p["exponent"]):
            problems.append(f"second-moment h={h} != floor(x^exponent)")
        xs = np.arange(x, 2 * x)
        delta = ref.mertens[xs + h] - ref.mertens[xs]
        want = int(np.dot(delta, delta)) / x
        if float(value) != want or not _close(float(normalized), want / h**2):
            problems.append(f"second-moment value {value} != {want} at x={x}")
    return problems


def _check_partition(p, d, ref):
    if p["rule"] != "squares":
        return []
    points = [k * k for k in range(1, math.isqrt(p["top"]) + 1)]
    m = ref.mertens[np.asarray(points)]
    deltas = np.diff(m)
    cols = _columns(d / "steps.csv", np.int64)
    want = np.column_stack([
        np.arange(1, len(points)), points[:-1], points[1:], deltas, np.where(deltas >= 0, 1, -1),
    ])
    if not np.array_equal(cols, want):
        return ["partition steps differ from the reference M"]
    (summary,) = _rows(d / "summary.csv")
    abs_sum = int(np.abs(deltas).sum())
    if int(summary[1]) != abs_sum or float(summary[2]) != abs_sum / points[-1]:
        return [f"partition abs_sum {summary[1]} != {abs_sum}"]
    return []


def _check_besicovitch(p, d, ref):
    f = ref.table(p["kind"])[1 : p["limit"] + 1].astype(np.int64)
    g = ref.table(p["other"])[1 : p["limit"] + 1].astype(np.int64) if p["other"] else 0
    prefix = np.concatenate([[0], np.cumsum(np.abs(f - g))])
    cols = _columns(d / "averages.csv", np.float64)
    lengths = cols[:, 0].astype(np.int64)
    if not np.array_equal(cols[:, 1], prefix[lengths] / lengths):
        return ["besicovitch window averages differ from the reference"]
    (summary,) = _rows(d / "summary.csv")
    if float(summary[3]) != cols[-int(summary[2]):, 1].max():
        return ["besicovitch estimate is not the max of the last r averages"]
    return []


def _check_disjointness(p, d, ref):
    n = p["n"]
    support = np.concatenate([[0], np.cumsum(ref.table(p["kind"])[1 : n + 1] != 0)])
    weight = support[n] / n
    cols = _columns(d / "path.csv", np.float64)
    (summary,) = _rows(d / "summary.csv")
    summary = [float(v) for v in summary]
    if not _close(summary[4], weight):
        return [f"disjointness weight average {summary[4]} != {weight}"]
    if np.any(np.abs(np.hypot(cols[:, 1], cols[:, 2]) - cols[:, 3]) > 1e-12):
        return ["disjointness |path| column is not the modulus"]
    ks = cols[:, 0].astype(np.int64)
    if np.any(cols[:, 3] > support[ks] / ks + 1e-12):
        return ["disjointness |average| exceeds (1/k) sum |nu(n)|"]
    if int(cols[-1, 0]) != n or (cols[-1, 1], cols[-1, 2]) != (summary[1], summary[2]):
        return ["disjointness summary is not the last path value"]
    return []


def _check_random_mertens(p, d, ref):
    rms = _columns(d / "rms.csv", np.float64)
    sups = _columns(d / "sups.csv", np.float64)
    grid = p["grid"]
    if len(sups) != p["paths"] * len(grid) or np.any(sups[:, 2] < 0) or np.any(sups[:, 2] > 1):
        return ["random-mertens sups.csv has the wrong shape or a sup outside [0, 1]"]
    per_x = sups[:, 2].reshape(p["paths"], len(grid))
    bound = (math.sqrt(2) + 1) * np.asarray(grid, dtype=np.float64) ** (0.5 - p["tau"])
    if not (np.array_equal(rms[:, 0], grid)
            and np.allclose(rms[:, 1], np.sqrt(np.mean(per_x**2, axis=0)), rtol=1e-9, atol=0)
            and np.allclose(rms[:, 2], bound, rtol=1e-12, atol=0)):
        return ["random-mertens rms.csv is inconsistent with sups.csv"]
    return []


def _check_gc_deviation(p, d, ref):
    devs = _columns(d / "deviations.csv", np.float64)[:, 1]
    (summary,) = _rows(d / "summary.csv")
    n, reps, mean, median, top = summary
    if (int(n), int(reps), len(devs)) != (p["n"], p["reps"], p["reps"]) or np.any(devs < 0):
        return ["gc-deviation has the wrong shape"]
    if not (_close(float(mean), devs.mean(), 1e-9) and float(median) == np.median(devs)
            and float(top) == devs.max()):
        return ["gc-deviation summary is inconsistent with deviations.csv"]
    return []


def _check_covering(p, d, ref):
    (bounds,) = _rows(d / "bounds.csv")
    if not 1 <= int(bounds[3]) <= int(bounds[4]):
        return [f"covering bracket {bounds[3]}..{bounds[4]} is empty"]
    entropy = _rows(d / "entropy.csv")
    if [int(r[0]) for r in entropy] != p["ns"] or any(float(r[2]) < 0 for r in entropy):
        return ["covering entropy rows are wrong"]
    return []


def _check_shatter_prob(p, d, ref):
    (row,) = _rows(d / "result.csv")
    n, reps, shattered, fraction, root = int(row[0]), int(row[1]), int(row[2]), *map(float, row[3:])
    if (n, reps) != (p["n"], p["reps"]) or not 0 <= shattered <= reps:
        return ["shatter-prob counts are wrong"]
    if fraction != shattered / reps or not _close(root, (shattered / reps) ** (1 / n)):
        return ["shatter-prob fraction/root are inconsistent"]
    return []


def _check_shatter(p, d, ref):
    (row,) = _rows(d / "result.csv")
    if int(row[0]) != p["n"] or not 0 <= int(row[4]) <= 24:
        return ["shatter result row is wrong"]
    if row[3] == "true":
        patterns = [r[0] for r in _rows(d / "witnesses.csv")]
        if patterns != [format(g, f"0{p['n']}b") for g in range(1 << p["n"])]:
            return ["shatter witnesses do not list every dichotomy"]
    return []


def _check_probe(p, d, ref):
    rows = [[float(v) for v in r] for r in _rows(d / "probe.csv")]
    envelope = 0.0
    for delta, mean, top, env, pairs in rows:
        envelope = max(envelope, mean)
        if not (mean <= top and env == envelope and pairs == p["pairs"]):
            return ["probe-equicont rows are inconsistent"]
    return [] if rows else ["probe-equicont wrote no rows"]


_CHECKS = {
    "sieve": _check_sieve,
    "mertens": _check_mertens,
    "bfree": _check_bfree,
    "orbit": _check_orbit,
    "davenport": _check_davenport,
    "zhan": _check_zhan,
    "chowla": _check_chowla,
    "short-interval": _check_short_interval,
    "second-moment": _check_second_moment,
    "partition": _check_partition,
    "besicovitch": _check_besicovitch,
    "disjointness": _check_disjointness,
    "random-mertens": _check_random_mertens,
    "gc-deviation": _check_gc_deviation,
    "covering": _check_covering,
    "shatter-prob": _check_shatter_prob,
    "shatter": _check_shatter,
    "probe-equicont": _check_probe,
}


def manifest_problems(run_dir: Path) -> list:
    """The manifest must list exactly the files present besides itself."""
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    present = {f.name for f in run_dir.iterdir()} - {"manifest.json"}
    if set(manifest["outputs"]) != present or len(manifest["outputs"]) != len(present):
        return [f"manifest lists {sorted(manifest['outputs'])} but {sorted(present)} exist"]
    return []


def check_run(run_dir: Path, ref: Reference) -> list:
    """Problems with one run's outputs, judged against the reference."""
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    check = _CHECKS.get(manifest["experiment"])
    if check is None:
        return [f"no output check for experiment {manifest['experiment']!r}"]
    return check(manifest["parameters"], run_dir, ref)


def check_cache(cache: Path, ref: Reference) -> list:
    """Every sieve-cache entry must hold the right values: its head against
    the reference, and sampled entries across the whole table by trial
    division."""
    problems = []
    rng = np.random.default_rng(4)
    for path in sorted(cache.glob("*.npy")):
        kind, _, limit = path.stem.rpartition("-")
        values = np.load(path, mmap_mode="r")
        if len(values) != int(limit):
            problems.append(f"cache {path.name} holds {len(values)} values")
            continue
        head = min(len(values), ref.limit)
        if not np.array_equal(values[:head], ref.table(kind)[1 : head + 1]):
            problems.append(f"cache {path.name} differs from the reference")
        for n in rng.integers(1, len(values) + 1, size=_SAMPLES).tolist():
            if values[n - 1] != trial_mu_lambda(n)[0 if kind == "mobius" else 1]:
                problems.append(f"cache {path.name} n={n} differs from trial division")
                break
    return problems
