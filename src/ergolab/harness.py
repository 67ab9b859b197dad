"""Experiment registry and deterministic run plumbing.

Every experiment is a named entry with a JSON-schema parameter document, a
one-line description, and a runner producing CSV tables.  A run writes its
tables under ``<out>/<experiment>/<timestamp>-<seed>/`` followed by a
``manifest.json`` (written last, via atomic rename) recording the parameter
map, the seed, the sieve limits used, timestamps, output names, and the
package version.

Determinism contract: given (parameters, seed), every emitted byte is
reproducible and independent of the thread count; timestamps appear only in
the manifest and in the run directory name.  Sieve tables are cached on disk
as ``<kind>-<limit>.npy`` under ``./cache`` or ``$ERGOLAB_CACHE_DIR``.

CSV dialect: comma separators, one header row, ``.`` decimal point, LF line
endings; floats are written with ``repr`` (shortest round-trip form).
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from jsonschema import Draft202012Validator, validators
from jsonschema.exceptions import best_match, relevance

from . import __version__
from .arith import (
    BFreeSpec,
    ArithmeticTable,
    admissibility_report,
    bfree_indicator,
    is_admissible,
    mertens_prefix,
    sieve_liouville,
    sieve_mobius,
)
from .averaging import (
    FolnerSchedule,
    besicovitch_distance,
    besicovitch_seminorm,
    bfree_approximation_gap,
    folner_average,
    mean_equicontinuity_probe,
    upper_banach_density,
)
from .dynsys import (
    VeechSpec,
    bernoulli_stream,
    rotation_orbit,
    skew_orbit,
    sturmian_word,
    veech_window_closure,
)
from .errors import ParameterError
from .experiments import (
    MAX_FFT,
    chowla_decay,
    davenport_sum,
    disjointness_sum,
    interval_second_moment,
    partition_mertens_sum,
    random_mertens_sim,
    short_interval_sup,
    zhan_sup,
)
from .gc_stats import (
    BernoulliCoordinateFamily,
    FiniteFamily,
    RotationFamily,
    SubshiftWindowFamily,
    covering_number,
    empirical_sample,
    empirical_sup_deviation,
    entropy_rate,
    is_shattered,
    shattering_dimension,
    shattering_probability,
)

CACHE_ENV = "ERGOLAB_CACHE_DIR"
_SQRT2M1 = math.sqrt(2) - 1
_DEFAULT_SYSTEM = {"variant": "rotation", "alpha": _SQRT2M1}


# ---------------------------------------------------------------------------
# CSV emission


def format_cell(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(cell) for cell in row])


@dataclass(frozen=True)
class CsvTable:
    name: str
    header: tuple
    rows: list


@dataclass(frozen=True)
class BinaryBlob:
    name: str
    data: bytes


# ---------------------------------------------------------------------------
# sieve cache


def cache_dir_path(override=None) -> Path:
    if override is not None:
        return Path(override)
    env = os.environ.get(CACHE_ENV)
    return Path(env) if env else Path("cache")


def cached_sieve(kind: str, limit: int, cache: Path) -> ArithmeticTable:
    """Sieve table, memoized on disk keyed by (kind, limit)."""
    if kind not in ("mobius", "liouville"):
        raise ParameterError(f"unknown sieve kind {kind!r}")
    limit = int(limit)
    path = cache / f"{kind}-{limit}.npy"
    if path.exists():
        return ArithmeticTable(kind, 1, limit, np.load(path).astype(np.int8, copy=False))
    table = sieve_mobius(limit) if kind == "mobius" else sieve_liouville(limit)
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache, suffix=".npy.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, table.values)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return table


@dataclass
class RunContext:
    """Per-run seed, thread budget, cache handle, and the limits ledger."""

    seed: int = 0
    threads: int = 1
    cache: Path = field(default_factory=cache_dir_path)
    limits: dict = field(default_factory=dict)

    def table(self, kind: str, limit: int) -> ArithmeticTable:
        table = cached_sieve(kind, limit, self.cache)
        self.limits[kind] = max(self.limits.get(kind, 0), int(limit))
        return table

    def prefix(self, limit: int):
        return mertens_prefix(self.table("mobius", limit))


# ---------------------------------------------------------------------------
# shared builders


# Both builders take documents that prepare_run has validated against
# _FAMILY / _SYSTEM and filled with the defaults of their branch.


def build_family(doc, ctx: RunContext):
    """Function family from a `family` document: rotation translates,
    coordinate maps on sign sequences, sliding windows of a sieve table, or
    an explicit matrix."""
    kind = doc["type"]
    if kind == "rotation":
        return RotationFamily(doc["alpha"], doc["size"], check=doc["check"])
    if kind == "bernoulli":
        return BernoulliCoordinateFamily(doc["size"], doc["p"])
    if kind == "subshift":
        table = ctx.table(doc["kind"], doc["length"])
        return SubshiftWindowFamily(table.values.astype(np.float64), doc["size"])
    return FiniteFamily(doc["matrix"])


def build_system(doc):
    """Orbit stream from a `system` document."""
    variant = doc["variant"]
    if variant == "rotation":
        return rotation_orbit(doc["alpha"], doc["x0"], check=doc["check"])
    if variant == "sturmian":
        return sturmian_word(doc["alpha"], doc["x0"], check=doc["check"])
    if variant == "skew-additive":
        return skew_orbit("additive", doc["x0"], doc["y0"], check=doc["check"])
    if variant == "skew-affine":
        return skew_orbit("affine", doc["x0"], doc["y0"], doc["alpha"], check=doc["check"])
    return bernoulli_stream(doc["p"], doc["seed"])


def _window_string(window) -> str:
    return "".join({1: "+", -1: "-", 0: "0"}[int(v)] for v in window)


def _geometric_checkpoints(n: int) -> list:
    ks = sorted({1 << j for j in range(n.bit_length()) if 1 << j <= n} | {n})
    return ks


# ---------------------------------------------------------------------------
# runners (params come pre-validated and default-filled)


def _run_sieve(p, ctx):
    table = ctx.table(p["kind"], p["limit"])
    head = min(p["head"], p["limit"])
    head_table = ArithmeticTable(p["kind"], 1, head, table.values[:head])
    rows = [(n, table.value_at(n)) for n in range(1, head + 1)]
    return [
        CsvTable("table.csv", ("n", "value"), rows),
        BinaryBlob("table.bin", head_table.to_bytes()),
    ]


def _run_mertens(p, ctx):
    prefix = ctx.prefix(p["limit"])
    head = min(p["head"], p["limit"])
    rows = [(x, prefix.m(x)) for x in range(1, head + 1)]
    return [CsvTable("mertens.csv", ("x", "m"), rows)]


def _run_bfree(p, ctx):
    spec = BFreeSpec(tuple(p["members"]))
    limit = p["limit"]
    free, mult = bfree_indicator(spec, limit)
    head = min(p["head"], limit)
    indicator = [(n, free.value_at(n), mult.value_at(n)) for n in range(1, head + 1)]
    density = float(free.values.mean())
    banach = upper_banach_density(free.values, min(p["window"], limit))
    gap = bfree_approximation_gap(spec, p["k"], FolnerSchedule.geometric(cap=limit))
    gap_rows = [
        (length, gap.gaps[i], bool(gap.within[i])) for i, length in enumerate(gap.lengths)
    ]
    return [
        CsvTable("indicator.csv", ("n", "free", "multiple"), indicator),
        CsvTable(
            "density.csv",
            ("limit", "free_count", "density", "banach_window", "banach_count", "banach_density"),
            [(limit, int(free.values.sum()), density, banach.window, banach.count, banach.density)],
        ),
        CsvTable("gap.csv", ("length", "gap", "within_bound"), gap_rows),
        CsvTable("gap-summary.csv", ("k", "tail_bound"), [(gap.k, gap.tail_bound)]),
    ]


def _run_admissible(p, ctx):
    spec = BFreeSpec(tuple(p["members"]))
    checks = admissibility_report(tuple(p["block"]), spec)
    verdict = is_admissible(tuple(p["block"]), spec)
    rows = [(c.modulus, c.checked, c.omitted_residue) for c in checks]
    return [
        CsvTable("result.csv", ("admissible", "block_length"), [(verdict, len(p["block"]))]),
        CsvTable("checks.csv", ("modulus", "checked", "omitted_residue"), rows),
    ]


def _run_veech(p, ctx):
    spec = VeechSpec(**p["spec"])
    scan = veech_window_closure(spec, p["w"], p["budget"])
    samples = [(s.center, s.radius, _window_string(s.window)) for s in scan.samples]
    above = [
        (_window_string(win), radius) for win, radius in sorted(scan.above_threshold.items())
    ]
    constants = [(value, radius) for value, radius in sorted(scan.persistent_constants.items())]
    summary = [(scan.w, p["budget"], scan.max_gap, scan.threshold, len(scan.above_threshold))]
    return [
        CsvTable("samples.csv", ("center", "radius", "window"), samples),
        CsvTable("above-threshold.csv", ("window", "radius"), above),
        CsvTable("constants.csv", ("value", "radius"), constants),
        CsvTable("summary.csv", ("w", "budget", "max_gap", "threshold", "n_above"), summary),
    ]


def _run_orbit(p, ctx):
    values = build_system(p["system"]).take(p["n"])
    if np.iscomplexobj(values):
        rows = [(i, v.real, v.imag) for i, v in enumerate(values)]
        return [CsvTable("orbit.csv", ("n", "re", "im"), rows)]
    rows = list(enumerate(values))
    return [CsvTable("orbit.csv", ("n", "value"), rows)]


def _run_besicovitch(p, ctx):
    values = ctx.table(p["kind"], p["limit"]).values
    schedule = FolnerSchedule.geometric(cap=p["limit"])
    if p["other"] is not None:
        other = ctx.table(p["other"], p["limit"]).values
        est = besicovitch_distance(values, other, schedule, p["r"])
    else:
        est = besicovitch_seminorm(values, schedule, p["r"])
    rows = list(zip(est.lengths, est.averages))
    summary = [(p["kind"], p["other"], est.r, est.estimate)]
    return [
        CsvTable("averages.csv", ("length", "average"), rows),
        CsvTable("summary.csv", ("kind", "other", "r", "estimate"), summary),
    ]


def _run_probe_equicont(p, ctx):
    stream = build_system(p["system"])
    kwargs = {}
    if p["deltas"] is not None:
        kwargs["deltas"] = tuple(p["deltas"])
    rows = mean_equicontinuity_probe(
        stream, pairs=p["pairs"], n=p["n"], seed=ctx.seed, r=p["r"], **kwargs
    )
    out = [(r.delta, r.mean_estimate, r.max_estimate, r.envelope, r.pairs) for r in rows]
    return [CsvTable("probe.csv", ("delta", "mean", "max", "envelope", "pairs"), out)]


def _run_gc_deviation(p, ctx):
    family = build_family(p["family"], ctx)
    res = empirical_sup_deviation(family, p["n"], p["reps"], seed=ctx.seed, threads=ctx.threads)
    rows = list(enumerate(res.deviations))
    summary = [(res.n, res.reps, res.mean, res.median, res.max)]
    return [
        CsvTable("deviations.csv", ("rep", "deviation"), rows),
        CsvTable("summary.csv", ("n", "reps", "mean", "median", "max"), summary),
    ]


def _run_covering(p, ctx):
    family = build_family(p["family"], ctx)
    rng = np.random.default_rng(ctx.seed)
    sample = empirical_sample(family, p["sample_n"], rng)
    bounds = covering_number(sample, p["eps"], p["norm"])
    points = entropy_rate(
        family, p["ns"], eps=p["eps"], reps=p["reps"], seed=ctx.seed,
        norm=p["norm"], threads=ctx.threads,
    )
    entropy_rows = [(pt.n, pt.reps, pt.e_mean, pt.e_std) for pt in points]
    return [
        CsvTable(
            "bounds.csv",
            ("eps", "norm", "n", "lower", "upper"),
            [(bounds.eps, bounds.norm, p["sample_n"], bounds.lower, bounds.upper)],
        ),
        CsvTable("entropy.csv", ("n", "reps", "e_mean", "e_std"), entropy_rows),
    ]


def _run_shatter(p, ctx):
    family = build_family(p["family"], ctx)
    rng = np.random.default_rng(ctx.seed)
    sample = empirical_sample(family, p["n"], rng)
    shattered, witnesses = is_shattered(
        sample.matrix, p["alpha"], p["beta"], return_witnesses=True
    )
    dim = shattering_dimension(family, p["alpha"], p["beta"], budget=p["budget"], seed=ctx.seed)
    tables = [
        CsvTable(
            "result.csv",
            ("n", "alpha", "beta", "shattered", "greedy_dimension"),
            [(p["n"], p["alpha"], p["beta"], shattered, dim)],
        )
    ]
    if shattered:
        rows = [(format(g, f"0{p['n']}b"), int(w)) for g, w in enumerate(witnesses)]
        tables.append(CsvTable("witnesses.csv", ("pattern", "row"), rows))
    return tables


def _run_shatter_prob(p, ctx):
    family = build_family(p["family"], ctx)
    res = shattering_probability(
        family, p["n"], p["alpha"], p["beta"], reps=p["reps"],
        seed=ctx.seed, threads=ctx.threads,
    )
    row = [(res.n, res.reps, res.shattered, res.fraction, res.root)]
    return [CsvTable("result.csv", ("n", "reps", "shattered", "fraction", "root"), row)]


def _run_davenport(p, ctx):
    table = ctx.table("mobius", max(p["xs"]))
    rows = []
    for x in p["xs"]:
        r = davenport_sum(table, x, a=p["a"], refine=p["refine"])
        rows.append((r.x, r.theta0, r.grid_size, r.grid_max, r.max_value, r.argmax_theta, r.ratio))
    header = ("x", "theta0", "grid_size", "grid_max", "max_value", "argmax_theta", "ratio")
    return [CsvTable("davenport.csv", header, rows)]


def _run_chowla(p, ctx):
    top = 2 * max(p["schedule"])
    if p["kind"] == "ones":
        values = np.ones(top, dtype=np.int8)
    else:
        values = ctx.table(p["kind"], top).values
    series = chowla_decay(values, p["schedule"])
    decay = list(zip(series.abscissae, series.values))
    fit = [(series.c, series.kappa, series.residual, series.strictly_decreasing)]
    return [
        CsvTable("decay.csv", ("n", "value"), decay),
        CsvTable("fit.csv", ("c", "kappa", "residual", "strictly_decreasing"), fit),
    ]


def _run_disjointness(p, ctx):
    table = ctx.table(p["kind"], p["n"])
    res = disjointness_sum(table, build_system(p["system"]), p["n"])
    path = np.asarray(res.path, dtype=np.complex128)
    rows = [(k, path[k - 1].real, path[k - 1].imag, abs(path[k - 1]))
            for k in _geometric_checkpoints(p["n"])]
    bound = folner_average(np.abs(table.values[: p["n"]]), p["n"])
    value = complex(res.value)
    summary = [(p["n"], value.real, value.imag, abs(value), bound)]
    return [
        CsvTable("path.csv", ("n", "re", "im", "abs"), rows),
        CsvTable("summary.csv", ("n", "re", "im", "abs", "weight_average"), summary),
    ]


def _run_short_interval(p, ctx):
    prefix = ctx.prefix(2 * max(p["xs"]))
    rows = []
    for x in p["xs"]:
        r = short_interval_sup(prefix, x, p["tau"])
        rows.append((r.x, r.tau, r.h_min, r.h_max, r.sup, r.argmax_h))
    return [CsvTable("intervals.csv", ("x", "tau", "h_min", "h_max", "sup", "argmax_h"), rows)]


def _run_second_moment(p, ctx):
    rows = []
    for x in p["xs"]:
        h = p["h"] if p["h"] is not None else int(x ** p["exponent"])
        prefix = ctx.prefix(2 * x + h)
        r = interval_second_moment(prefix, x, h)
        rows.append((r.x, r.h, r.value, r.normalized))
    return [CsvTable("moments.csv", ("x", "h", "value", "normalized"), rows)]


def _partition_points(p) -> list:
    if p["rule"] == "explicit":
        if not p["points"]:
            raise ParameterError("explicit rule needs a nonempty 'points' array")
        return [int(v) for v in p["points"]]
    top = p["top"]
    if p["rule"] == "squares":
        return [k * k for k in range(1, math.isqrt(top) + 1)]
    return list(range(1, top + 1))


def _run_partition(p, ctx):
    points = _partition_points(p)
    prefix = ctx.prefix(points[-1])
    res = partition_mertens_sum(prefix, points)
    steps = [
        (k + 1, points[k], points[k + 1], res.deltas[k], res.signs[k])
        for k in range(len(points) - 1)
    ]
    summary = [(len(points) - 1, res.abs_sum, res.ratio, res.veech is not None)]
    return [
        CsvTable("steps.csv", ("k", "x_k", "x_k1", "delta", "sign"), steps),
        CsvTable("summary.csv", ("intervals", "abs_sum", "ratio", "veech"), summary),
    ]


def _run_random_mertens(p, ctx):
    res = random_mertens_sim(
        p["grid"], p["tau"], paths=p["paths"], p=p["p"], seed=ctx.seed, threads=ctx.threads
    )
    rms = list(zip(res.grid, res.rms, res.bound))
    sups = [
        (path, x, res.sups[path, i])
        for path in range(res.paths)
        for i, x in enumerate(res.grid)
    ]
    return [
        CsvTable("rms.csv", ("x", "rms", "bound"), rms),
        CsvTable("sups.csv", ("path", "x", "sup"), sups),
    ]


def _run_zhan(p, ctx):
    table = ctx.table("mobius", 2 * p["x"])
    res = zhan_sup(table, p["x"], p["tau"], thetas=p["thetas"])
    rows = list(zip(res.h_values, res.per_h, res.theta0_values))
    summary = [(res.x, res.tau, res.thetas, res.sup, res.argmax_h, res.argmax_theta)]
    return [
        CsvTable("zhan.csv", ("h", "max_value", "theta0_value"), rows),
        CsvTable("summary.csv", ("x", "tau", "thetas", "sup", "argmax_h", "argmax_theta"), summary),
    ]


# ---------------------------------------------------------------------------
# registry


def _int(default, minimum=1):
    return {"type": "integer", "minimum": minimum, "default": default}


def _num(default):
    return {"type": "number", "default": default}


def _int_array(default):
    return {
        "type": "array",
        "items": {"type": "integer", "minimum": 1},
        "minItems": 1,
        "default": default,
    }


_KIND_ENUM = {"enum": ["mobius", "liouville"], "default": "mobius"}
_NUMBER = {"type": "number"}
_CHECK = {"type": "boolean", "default": True}
_BIAS = {"type": "number", "minimum": 0, "maximum": 1, "default": 0.5}


def _defaults(properties) -> dict:
    return {k: v["default"] for k, v in properties.items() if "default" in v}


def _object(required, **properties):
    return {
        "type": "object",
        "properties": properties,
        "required": list(required),
        "additionalProperties": False,
    }


# Sub-documents: one branch per family type, system variant and veech form.
# prepare_run fills in the defaults of the branch a document matches.
_FAMILY = {"oneOf": [
    _object(["type"], type={"const": "rotation"}, alpha=_num(_SQRT2M1), size=_int(64), check=_CHECK),
    _object(["type"], type={"const": "bernoulli"}, size=_int(1024), p=_BIAS),
    _object(["type"], type={"const": "subshift"}, kind=_KIND_ENUM, length=_int(1 << 16), size=_int(64)),
    _object(["type", "matrix"], type={"const": "finite"}, matrix={
        "type": "array", "minItems": 1,
        "items": {"type": "array", "minItems": 1, "items": _NUMBER},
    }),
]}
_SYSTEM = {"oneOf": [
    _object(["variant", "alpha"], variant={"const": "rotation"}, alpha=_NUMBER, x0=_num(0.0), check=_CHECK),
    _object(["variant", "x0"], variant={"const": "skew-additive"}, x0=_NUMBER, y0=_num(0.0), check=_CHECK),
    _object(["variant", "alpha"], variant={"const": "skew-affine"}, alpha=_NUMBER, x0=_num(0.0),
         y0=_num(0.0), check=_CHECK),
    _object(["variant", "alpha"], variant={"const": "sturmian"}, alpha=_NUMBER, x0=_num(0.0), check=_CHECK),
    # check is accepted for every variant; a Bernoulli stream has nothing to check
    _object(["variant"], variant={"const": "bernoulli"}, p=_BIAS, seed=_int(0, minimum=0), check=_CHECK),
]}
_INTEGERS = {"type": "array", "items": {"type": "integer"}}
_VEECH_SPEC = {"oneOf": [
    _object(["starts", "signs"], starts=_INTEGERS, signs=_INTEGERS),
    _object(
        ["generator"],
        generator={"enum": ["triangular"]},
        sign_rule={"enum": ["alternating", "plus", "minus", "mertens"], "default": "alternating"},
        mertens_limit={"type": ["integer", "null"], "default": None},
    ),
]}


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    properties: dict
    runner: Callable
    required: tuple = ()

    def schema(self) -> dict:
        props = {
            "experiment": {"const": self.name},
            "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        }
        props.update(self.properties)
        return {
            "type": "object",
            "properties": props,
            "required": list(self.required),
            "additionalProperties": False,
        }

    def defaults(self) -> dict:
        return _defaults(self.properties)


_EXPERIMENTS = [
    Experiment(
        "sieve",
        "exact squarefree/prime-parity sign tables, dumped as CSV and binary",
        {"kind": _KIND_ENUM, "limit": _int(1000), "head": _int(100)},
        _run_sieve,
    ),
    Experiment(
        "mertens",
        "prefix sums M(x) of the sign table up to a limit",
        {"limit": _int(1000), "head": _int(10000)},
        _run_mertens,
    ),
    Experiment(
        "bfree",
        "indicator of integers free of the given divisors, with densities and truncation gap",
        {
            "members": _int_array([4, 9, 25, 49]),
            "limit": _int(100000),
            "head": _int(100),
            "window": _int(1000),
            "k": _int(1),
        },
        _run_bfree,
    ),
    Experiment(
        "admissible",
        "residue-class admissibility check of an integer block against divisor members",
        {
            "block": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
            "members": _int_array([4, 9, 25]),
        },
        _run_admissible,
        required=("block",),
    ),
    Experiment(
        "veech",
        "window-closure scan of a growing-plateau step function",
        {
            "spec": {**_VEECH_SPEC, "default": {"generator": "triangular"}},
            "w": _int(8, minimum=0),
            "budget": _int(256, minimum=8),
        },
        _run_veech,
    ),
    Experiment(
        "orbit",
        "observable values along a torus/symbolic orbit",
        {"system": {**_SYSTEM, "default": _DEFAULT_SYSTEM}, "n": _int(100)},
        _run_orbit,
    ),
    Experiment(
        "besicovitch",
        "window averages and seminorm estimate of a sign table (or distance between two)",
        {
            "kind": _KIND_ENUM,
            "other": {"enum": ["mobius", "liouville", None], "default": None},
            "limit": _int(1 << 16),
            "r": _int(3),
        },
        _run_besicovitch,
    ),
    Experiment(
        "probe-equicont",
        "orbit-distance probe: seminorm of |f(orbit of x) - f(orbit of x+delta)| over a delta grid",
        {
            "system": {**_SYSTEM, "default": _DEFAULT_SYSTEM},
            "deltas": {"type": ["array", "null"], "items": {"type": "number"}, "default": None},
            "pairs": _int(32),
            "n": _int(1 << 14),
            "r": _int(3),
        },
        _run_probe_equicont,
    ),
    Experiment(
        "gc-deviation",
        "empirical sup-deviation of a function family over repeated samples",
        {"family": {**_FAMILY, "default": {"type": "rotation"}}, "n": _int(256), "reps": _int(32)},
        _run_gc_deviation,
    ),
    Experiment(
        "covering",
        "greedy covering-number bounds and entropy rates of a function family",
        {
            "family": {**_FAMILY, "default": {"type": "rotation"}},
            "ns": _int_array([64, 256, 1024]),
            "sample_n": _int(256),
            "eps": _num(0.1),
            "norm": {"enum": ["mean-l1", "linf"], "default": "mean-l1"},
            "reps": _int(16),
        },
        _run_covering,
    ),
    Experiment(
        "shatter",
        "two-threshold dichotomy check on one sampled point set, plus a greedy dimension",
        {
            "family": {**_FAMILY, "default": {"type": "bernoulli", "size": 4096}},
            "n": _int(8),
            "alpha": _num(-0.5),
            "beta": _num(0.5),
            "budget": _int(200),
        },
        _run_shatter,
    ),
    Experiment(
        "shatter-prob",
        "fraction of sampled point sets shattered at the two thresholds",
        {
            "family": {**_FAMILY, "default": {"type": "bernoulli", "size": 4096}},
            "n": _int(8),
            "alpha": _num(-0.5),
            "beta": _num(0.5),
            "reps": _int(64),
        },
        _run_shatter_prob,
    ),
    Experiment(
        "davenport",
        "grid+refined maximum of the sign-weighted exponential sum over the circle",
        {"xs": _int_array([1000, 10000, 100000]), "a": _num(2.0), "refine": {"type": "boolean", "default": True}},
        _run_davenport,
    ),
    Experiment(
        "chowla",
        "averaged pair-correlation decay D(N) over a schedule, with a power-law fit",
        {"kind": {"enum": ["mobius", "liouville", "ones"], "default": "liouville"}, "schedule": _int_array([4096, 16384, 65536])},
        _run_chowla,
    ),
    Experiment(
        "disjointness",
        "sign-weighted orbit averages (1/N) sum nu(n) f(T^n x) with the partial-sum path",
        {"kind": _KIND_ENUM, "system": {**_SYSTEM, "default": _DEFAULT_SYSTEM}, "n": _int(10000)},
        _run_disjointness,
    ),
    Experiment(
        "short-interval",
        "exact sup of |M(x+h)-M(x)|/h over h in [x^tau, x]",
        {"xs": _int_array([10000]), "tau": _num(0.6)},
        _run_short_interval,
    ),
    Experiment(
        "second-moment",
        "mean squared short-interval increment of M over a dyadic window",
        {
            "xs": _int_array([10000]),
            "h": {"type": ["integer", "null"], "minimum": 0, "default": None},
            "exponent": _num(0.2),
        },
        _run_second_moment,
    ),
    Experiment(
        "partition",
        "normalized variation of M over a partition, with step signs",
        {
            "rule": {"enum": ["squares", "linear", "explicit"], "default": "squares"},
            "top": _int(10000),
            "points": {"type": ["array", "null"], "items": {"type": "integer", "minimum": 1}, "default": None},
        },
        _run_partition,
    ),
    Experiment(
        "random-mertens",
        "short-interval sup statistics of a random +-1 walk across many paths",
        {
            "grid": _int_array([1 << 10, 1 << 12, 1 << 14]),
            "tau": _num(0.5),
            "paths": _int(64),
            "p": _num(0.5),
        },
        _run_random_mertens,
    ),
    Experiment(
        "zhan",
        "double sup of short-interval exponential sums over dyadic h and a theta grid",
        {"x": _int(10000), "tau": _num(0.7), "thetas": {**_int(64), "maximum": MAX_FFT}},
        _run_zhan,
    ),
]

REGISTRY = {e.name: e for e in _EXPERIMENTS}


def list_experiments() -> list:
    """(name, description) pairs in registry order."""
    return [(e.name, e.description) for e in _EXPERIMENTS]


# ---------------------------------------------------------------------------
# config handling


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParameterError("config must be a JSON object")
    return doc


def _non_finite(value) -> bool:
    """Whether a JSON value holds NaN or an infinity anywhere (json.load
    accepts both, and the schema's "number" lets them through)."""
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, list) and any(_non_finite(v) for v in value)


def _is_integer(checker, instance) -> bool:
    # 2.0 is not an integer: every count and limit in a config is used as an int
    return isinstance(instance, int) and not isinstance(instance, bool)


_Validator = validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine("integer", _is_integer),
)


def _relevance(error):
    """best_match's order, except that inside a oneOf the errors of a branch
    whose "type" or "variant" tag the document does not carry come last:
    they say nothing about the document."""
    parent = error.parent
    off = parent is not None and any(
        e.validator == "const" and e.relative_schema_path[0] == error.relative_schema_path[0]
        for e in parent.context
    )
    return (off, *relevance(error))


def validate_config(experiment: Experiment, doc: dict) -> None:
    error = best_match(_Validator(experiment.schema()).iter_errors(doc), key=_relevance)
    if error is not None:
        where = ".".join(str(part) for part in error.absolute_path)
        raise ParameterError(f"invalid config: {where + ': ' if where else ''}{error.message}")
    if _non_finite(doc):
        raise ParameterError("invalid config: NaN and Infinity are not allowed")


def prepare_run(experiment: Experiment, config: dict | None, seed: int | None):
    """Merged parameter map and effective seed for a run."""
    doc = dict(config or {})
    if "experiment" in doc and doc["experiment"] != experiment.name:
        raise ParameterError(
            f"config selects experiment {doc['experiment']!r} but {experiment.name!r} was invoked"
        )
    validate_config(experiment, doc)
    eff_seed = int(seed) if seed is not None else int(doc.get("seed", 0))
    params = experiment.defaults()
    params.update({k: v for k, v in doc.items() if k not in ("experiment", "seed")})
    for key, prop in experiment.properties.items():
        if "oneOf" in prop:
            branch = next(b for b in prop["oneOf"] if _Validator(b).is_valid(params[key]))
            params[key] = {**_defaults(branch["properties"]), **params[key]}
    return params, eff_seed


# ---------------------------------------------------------------------------
# manifests and run execution


@dataclass(frozen=True)
class RunManifest:
    """What a run did: parameters, seed, sieve limits, timing, outputs."""

    experiment: str
    parameters: dict
    seed: int
    limits: dict
    started: str
    finished: str
    elapsed: float
    outputs: tuple
    version: str

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "parameters": self.parameters,
            "seed": self.seed,
            "limits": self.limits,
            "started": self.started,
            "finished": self.finished,
            "elapsed": self.elapsed,
            "outputs": list(self.outputs),
            "version": self.version,
        }


def _utc_stamp() -> str:
    return time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())


def _iso_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _new_run_dir(out: Path, experiment: str, seed: int) -> Path:
    base = out / experiment
    stem = f"{_utc_stamp()}-{seed}"
    candidate = base / stem
    k = 1
    while candidate.exists():
        k += 1
        candidate = base / f"{stem}-{k}"
    candidate.mkdir(parents=True)
    return candidate


def _write_manifest(path: Path, manifest: RunManifest) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".json.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(manifest.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_experiment(
    name: str,
    config: dict | None = None,
    seed: int | None = None,
    out="results",
    threads: int = 1,
    cache=None,
) -> Path:
    """Execute one experiment and return its run directory.

    All CSV outputs are written first; the manifest lands last via an atomic
    rename, so a manifest's presence certifies a complete run.
    """
    if name not in REGISTRY:
        raise ParameterError(f"unknown experiment {name!r}")
    experiment = REGISTRY[name]
    params, eff_seed = prepare_run(experiment, config, seed)
    ctx = RunContext(seed=eff_seed, threads=max(1, int(threads)), cache=cache_dir_path(cache))
    started = _iso_now()
    t0 = time.monotonic()
    tables = experiment.runner(params, ctx)
    run_dir = _new_run_dir(Path(out), name, eff_seed)
    outputs = []
    for table in tables:
        if isinstance(table, BinaryBlob):
            (run_dir / table.name).write_bytes(table.data)
        else:
            write_csv(run_dir / table.name, table.header, table.rows)
        outputs.append(table.name)
    manifest = RunManifest(
        experiment=name,
        parameters=params,
        seed=eff_seed,
        limits=dict(ctx.limits),
        started=started,
        finished=_iso_now(),
        elapsed=time.monotonic() - t0,
        outputs=tuple(outputs),
        version=__version__,
    )
    _write_manifest(run_dir / "manifest.json", manifest)
    return run_dir
