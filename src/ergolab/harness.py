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

CSV dialect: comma separators, LF line endings, one header row, ``.`` decimal
point; floats by ``repr`` (shortest round-trip form), bools ``true``/``false``,
None empty.  Nothing is quoted and files are ASCII: ``write_csv`` refuses a
cell or header name holding ``,``, ``"``, CR, LF, NUL or a non-ASCII
character, and an empty cell in a one-column table, before it opens the file.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
import re
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from ._util import COVERING_SAMPLE, SHATTER_SAMPLE, generator
from .arith import (
    BFreeSpec,
    _check_window,
    _in_range,
    admissibility_report,
    bfree_indicator,
    is_admissible,
    sieve_liouville,
    sieve_mobius,
    table_bytes,
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
    veech_last_start,
    veech_window_closure,
)
from .errors import ParameterError
from .experiments import (
    MAX_FFT,
    MertensWalk,
    _decay_schedule,
    chowla_decay,
    davenport_sum,
    disjointness_sum,
    interval_second_moment,
    mertens_prefix,
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
    _check_thresholds,
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
    return str(value)  # a float's str is its repr


_ROW_BLOCK = 1 << 15  # rows per write; a block holds the cell matrices of every column of its rows at once
_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)
_QUOTED = re.compile(r'[,"\r\n\0]')


def _int_cells(column: np.ndarray) -> np.ndarray:
    """The CSV cells of a 1-D integer array, each followed by ",", as a
    (width, len(column)) uint8 array with one row per character position:
    the cells are right-aligned, and each position left of a cell holds 0.
    Digits come last to first from a floor division by 10, which NumPy does
    without a hardware divide, and a multiply-subtract, into buffers made
    once per call."""
    negative = column < 0
    if column.dtype.kind == "u":
        magnitude = column.astype(np.uint64)
    else:
        magnitude = np.abs(column, dtype=np.int64).view(np.uint64)  # |-2**63| is 2**63 as uint64
    top = int(magnitude.max())
    if top < 2**32:
        magnitude = magnitude.astype(np.uint32)
    signed = np.flatnonzero(negative)
    digits = len(str(top))
    full = int(magnitude.min()) >= 10 ** (digits - 1)  # every cell has all the digits
    last = digits - 1 + bool(len(signed))  # the row of each cell's last digit
    text = np.zeros((last + 2, len(column)), dtype=np.uint8)
    text[-1] = ord(",")
    lengths, below = np.ones(len(signed), dtype=np.intp), magnitude[signed]  # the digits of each negative cell
    for power in _POWERS_OF_TEN[: digits - 1]:
        lengths += below >= power
    quotient, digit = np.empty_like(magnitude), np.empty_like(magnitude)
    for j in range(last, last - digits, -1):
        np.floor_divide(magnitude, 10, out=quotient)
        np.multiply(quotient, 10, out=digit)
        np.subtract(magnitude, digit, out=digit)
        digit += ord("0")
        if j < last and not full:  # a cell with nothing left to write has no digit here
            digit *= magnitude != 0
        text[j] = digit
        magnitude, quotient = quotient, magnitude
    text.reshape(-1)[(last - lengths) * len(column) + signed] = ord("-")
    return text


_FLOAT_BLOCK = 1 << 13  # floats per pass of _positional_cells (~40 uint64 temporaries); 2**12 and 2**15 were slower
_FLOAT_WIDTH = 25  # bytes of a float cell with its ",": the longest repr, "-2.2250738585072014e-308", has 24
_TENS = np.array([float(f"1e{k}") for k in range(-4, 16)])  # the doubles nearest 10**k
_FIVES = 5 ** np.arange(21, dtype=np.uint64)
_U64 = np.uint64


def _positional_cells(x: np.ndarray, out: np.ndarray) -> None:
    """Write into out (a _FLOAT_WIDTH-row slice of `_float_cells`) the repr
    cells of the float64 values x, each with 1e-4 <= |x| < 1e16, where repr
    is positional.

    The digits are repr's, the shortest that round back to x, nearest x, ties
    to even (D. Gay's dtoa, mode 0), by exact integer bounds (as in Ryu):
    - |x| = m 2**E with m in [2**52, 2**53).  e = floor(log10 |x|) is the
      count of the doubles 1e-4..1e15 at most |x|, less 5: they are 10**k for
      k >= 0 and lie above 10**k, with no double between, for k < 0.
    - At p = 16 - e, in [1, 20], |x| 10**p lies in [10**16, 10**17).  The
      reals taken to round to x are those between (4m -+ 2) 2**E / 4, half a
      gap either side; times 10**p, between (4m -+ 2) 5**p / 2**s with
      s = 2 - E - p in [0, 48].  The products are below 2**103, held in two
      uint64 words from 32-bit partial products, and shifting them by s gives
      their floors: L = floor(lower end) + 1 and U = floor(upper end).
    - Each half-gap at that scale is >= 10**16 / 2**54 > 0.55, so 17 digits always
      suffice, and U - L <= 10**17 / 2**52 < 23.  repr drops the most trailing
      digits j for which a multiple of 10**j lies in [L, U]; a multiple of
      10**(j+1) is one of 10**j, so j counts the k <= 16 with
      floor(U / 10**k) 10**k >= L.  Of those multiples it takes the nearest
      |x| 10**p, ties to even: for j >= 2 only that floor lies in [L, U]; for
      j = 1 the rounding moves in by 10 if it fell out; for j = 0 it is in by
      the half-gap.  No such multiple is 10**17, nor below 10**16 unless
      10**16 is in [L, U], so N, the result scaled, has 17 digits.
    - Two refinements change no cell here, so they are left out.  An end is
      an integer only if 2**s divides 2 (2m -+ 1) 5**p, so s <= 1, which
      |x| < 10**(17 - p) allows only at p = 1 with |x| >= 2**52: there N
      is 10 |x| at every j, and the ends, 10 |x| -+ 5, or 10 |x| -+ 10
      with |x| even, are no multiples of 100, so whether they belong to the
      interval (they do iff m is even) moves nothing.  Below a power of two
      (m = 2**52) the interval is half as wide, but none of the 67 powers of
      two in the range (each one tested) has a repr the wider interval
      would change.
    - Cell rows: sign; "0." and -e-1 zeros when e < 0; the digits of N by
      `_int_cells`, blank past max(17 - j, e + 2), with "." after digit e + 1
      when e >= 0 (so a whole number ends in ".0"); ",".  For example
      1125899906842624.25 at p = 1 spans ...6241.25 .. ...6243.75, so L, U =
      ...6242, ...6243 and j = 0, and the tie ...6242.5 goes to the even
      ...6242: "1125899906842624.2"."""
    magnitude = np.abs(x)
    e = np.searchsorted(_TENS, magnitude, side="right") - 5
    bits = magnitude.view(np.uint64)
    m = (bits & _U64(2**52 - 1)) | _U64(2**52)
    p = 16 - e
    s = (1077 - (bits >> _U64(52)).astype(np.int64) - p).astype(np.uint64)  # 2 - E - p
    five = _FIVES[p]
    a1, a0 = m >> _U64(30), (m << _U64(2)) & _U64(2**32 - 1)  # 4m in 32-bit halves
    b1, b0 = five >> _U64(32), five & _U64(2**32 - 1)
    mid, low = a0 * b1 + a1 * b0, a0 * b0
    lo = low + (mid << _U64(32))
    hi = a1 * b1 + (mid >> _U64(32)) + (lo < low)  # 4m 5**p = hi 2**64 + lo
    below = lo - (five << _U64(1))
    above = lo + (five << _U64(1))
    left = _U64(64) - s
    v, frac = (hi << left) | (lo >> s), lo << left  # |x| 10**p: floor, fraction as a 0.64 fixed point
    low_bound = (((hi - (below > lo)) << left) | (below >> s)) + _U64(1)
    high = ((hi + (above < lo)) << left) | (above >> s)
    multiples = high // _POWERS_OF_TEN[:16, None]
    multiples *= _POWERS_OF_TEN[:16, None]  # row k - 1: floor(U / 10**k) 10**k
    j = (multiples >= low_bound).view(np.uint8).sum(axis=0, dtype=np.uint8).astype(np.intp)
    n = multiples[j - 1, np.arange(len(x))]
    unit = np.where(j == 1, _U64(10), _U64(1))
    quotient = v // unit
    twice = (v - quotient * unit) * _U64(2) + (frac >> _U64(63))
    up = (twice > unit) | ((twice == unit) & ((frac << _U64(1) != 0) | (quotient & _U64(1) == 1)))
    nearest = (quotient + up) * unit
    nearest -= (nearest > high) * unit
    nearest += (nearest < low_bound) * unit
    np.copyto(n, nearest, where=j <= 1)
    digits = _int_cells(n)[:17]
    digits *= np.arange(17)[:, None] < np.maximum(17 - j, e + 2)
    point = np.where(e >= 0, e + 1, 17)
    rows = np.arange(18)[:, None]
    out[0] = (x < 0) * ord("-")
    out[1] = (e < 0) * ord("0")
    out[2] = (e < 0) * ord(".")
    out[3:6] = (e <= np.array([[-2], [-3], [-4]])) * ord("0")
    out[6:23] = digits
    np.copyto(out[7:24], digits, where=rows[1:] > point)
    np.copyto(out[6:24], (e >= 0) * np.uint8(ord(".")), where=rows == point)
    out[24] = ord(",")


def _float_cells(column: np.ndarray) -> np.ndarray:
    """The CSV cells of a 1-D float16/32/64 array, laid out as `_int_cells`
    lays out integers: a (_FLOAT_WIDTH, len(column)) uint8 array, one row per
    character position, each cell followed by "," in the last row and 0 where
    it has no byte.  A cell is ``repr`` of its value as a Python float: NumPy
    computes it for 1e-4 <= |x| < 1e16, _FLOAT_BLOCK values at a time
    (`_positional_cells`), and repr itself writes the rare rest (+-0.0, nan,
    +-inf and |x| outside that range) into their columns."""
    x = column.astype(np.float64)
    in_range = (np.abs(x) >= 1e-4) & (np.abs(x) < 1e16)
    text = np.empty((_FLOAT_WIDTH, len(x)), dtype=np.uint8)
    for start in range(0, len(x), _FLOAT_BLOCK):
        block = slice(start, start + _FLOAT_BLOCK)
        _positional_cells(np.where(in_range[block], x[block], 1.0), text[:, block])
    rare = np.flatnonzero(~in_range)
    if len(rare):  # repr's cells fill the bottom rows, and the rows above them hold 0
        cells = _text_cells(list(map(repr, x[rare].tolist())))
        text[:, rare] = 0
        text[-len(cells) :, rare] = cells
    return text


def _text_cells(cells) -> np.ndarray:
    """The CSV cells of a sequence of ASCII strings without NUL, laid out as
    `_int_cells` lays out integers but left-aligned: a (width, len(cells))
    uint8 array, one row per character position, 0 past a cell's last byte
    and "," in the last row."""
    packed = np.array(cells, dtype="S")
    text = np.empty((packed.itemsize + 1, len(packed)), dtype=np.uint8)
    text[:-1] = packed.view(np.uint8).reshape(len(packed), packed.itemsize).T
    text[-1] = ord(",")
    return text


def write_csv(path, header, *columns) -> None:
    """Write one CSV table from one sequence per header name, in the module's
    dialect: comma, LF, one header row, floats by ``repr``, bools
    ``true``/``false``, None empty, no quoting.

    One _ROW_BLOCK of rows at a time, every column becomes a cell matrix: a
    1-D integer ndarray by `_int_cells`, a 1-D float ndarray by `_float_cells`
    (``repr`` of each value as a Python float), any other column by
    `_text_cells` of its ``format_cell`` strings.  The matrices are stacked
    and transposed into rows, the last "," of each row made a line feed, and
    the zero bytes taken out.  Raises ValueError before opening the file on
    ragged columns, on a cell that ``csv`` would quote: one holding ``,``,
    ``"`` or LF (CR is refused too), or an empty one in a one-column table,
    and on a cell or header name holding NUL or a non-ASCII character, which
    the ASCII file cannot hold.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names but {len(columns)} columns")
    if len({len(c) for c in columns}) > 1:
        raise ValueError("columns have different lengths")
    numeric = [isinstance(c, np.ndarray) and c.ndim == 1 and c.dtype.kind in "iuf" for c in columns]
    columns = [c if num else [format_cell(v) for v in c] for c, num in zip(columns, numeric)]
    for name, cells, num in (("header", header, False), *zip(header, columns, numeric)):
        text = "" if num else "".join(cells)
        if not num and (_QUOTED.search(text) or not text.isascii() or (len(header) == 1 and "" in cells)):
            raise ValueError(
                f"{name}: a cell holds ',', '\"', CR, LF, NUL or a non-ASCII character, or is empty in a one-column table"
            )
    rules = [(_float_cells if c.dtype.kind == "f" else _int_cells) if num else _text_cells
             for c, num in zip(columns, numeric)]
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        for start in range(0, len(columns[0]) if columns else 0, _ROW_BLOCK):
            block = slice(start, start + _ROW_BLOCK)
            text = np.concatenate([cells(c[block]) for cells, c in zip(rules, columns)])
            text[-1] = ord("\n")
            fh.write(text.T.tobytes().translate(None, b"\0"))


@dataclass(frozen=True)
class CsvTable:
    """A CSV output: its file name, header, and one column per header name."""

    name: str
    header: tuple
    columns: list


def _one_row(*cells) -> list:
    """The columns of a one-row table."""
    return [[cell] for cell in cells]


def _fields(records, names) -> list:
    """Columns of attribute values, one per name, over a list of records."""
    return [[getattr(r, name) for r in records] for name in names]


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


def _entry_offset(path: Path, length: int):
    """Where the values of a cache entry start, or None when the entry is
    missing or damaged: it must open with mmap_mode="r" as a 1-D int8 array of
    the `length` values its name says.  Values are then read with np.fromfile
    at an offset, never out of the map, so only what is read is paged in and
    no mapped page counts toward the process's resident memory."""
    try:
        entry = np.load(path, mmap_mode="r")
    except (OSError, ValueError, EOFError):
        return None
    if not isinstance(entry, np.memmap) or entry.dtype != np.int8 or entry.shape != (length,):
        return None
    return entry.offset


def _cached_limits(kind: str, cache: Path) -> list:
    pattern = re.compile(rf"{kind}-([1-9][0-9]*)\.npy")
    return [int(m[1]) for path in cache.glob(f"{kind}-*.npy") if (m := pattern.fullmatch(path.name))]


class CacheEntry:
    """The sieve cache entry that serves the table of `kind` on [1, limit]:
    ``<kind>-<limit>.npy`` when it is cached, else the smallest cached entry
    of the same kind with a larger limit (its values on [1, limit] are the
    table), else a new ``<kind>-<limit>.npy``, sieved on first use.

    Every value leaves the entry through `read`, the one place that
    range-checks cache values.  An entry that is missing or damaged (one
    `_entry_offset` refuses, or one that is short or out of range where it
    is read) is sieved and atomically replaced by `sieve`, and the values
    are read again from it.
    """

    def __init__(self, kind: str, limit: int, cache: Path):
        if kind not in ("mobius", "liouville"):
            raise ParameterError(f"unknown sieve kind {kind!r}")
        limit = int(limit)
        if limit < 1:
            raise ParameterError(f"sieve limit must be >= 1, got {limit}")
        self.kind, self.limit = kind, limit
        self.source = min((n for n in _cached_limits(kind, cache) if n >= limit), default=limit)
        self.path = cache / f"{kind}-{self.source}.npy"
        self.offset = _entry_offset(self.path, self.source)

    def sieve(self) -> None:
        """Sieve [1, source] and write the entry one segment at a time, as
        each is finished, in np.save's format; only one value is held."""
        _check_window(1, self.source)  # before the cache dir or a temporary file exists

        def stream(fh):
            np.lib.format.write_array_header_1_0(fh, {"descr": "|i1", "fortran_order": False, "shape": (self.source,)})
            (sieve_mobius if self.kind == "mobius" else sieve_liouville)(self.source, 1, fh.write)

        self.path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(self.path, stream)
        self.offset = _entry_offset(self.path, self.source)

    def read(self, start: int, stop: int) -> np.ndarray:
        """The values at n = start + 1 .. stop (0 <= start <= stop <= limit)
        as a new int8 array, each in [-1, 1]; a missing or damaged entry is
        sieved first."""
        if stop <= start:
            return np.empty(0, dtype=np.int8)
        if self.offset is not None:
            values = np.fromfile(self.path, dtype=np.int8, count=stop - start, offset=self.offset + start)
            if len(values) == stop - start and _in_range(values):
                return values
        self.sieve()
        return np.fromfile(self.path, dtype=np.int8, count=stop - start, offset=self.offset + start)


def cached_sieve(kind: str, limit: int, cache: Path, count: int | None = None) -> np.ndarray:
    """The first `count` values (all `limit` by default) of the sieve table
    for [1, limit], as an int8 array, memoized on disk as
    ``<kind>-<limit>.npy`` (`CacheEntry`).

    The `count` values served are read through `CacheEntry.read`, which
    range-checks them and first sieves a missing or damaged entry (written
    one segment at a time); damage past them is caught by the first call
    that reads it.  A smaller request is served as a prefix slice of a
    larger entry, and no file is written.
    """
    entry = CacheEntry(kind, limit, cache)
    count = entry.limit if count is None else int(count)
    if not 1 <= count <= entry.limit:
        raise ParameterError(f"count {count} outside [1, {entry.limit}]")
    return entry.read(0, count)


def _atomic_write(path: Path, write: Callable) -> None:
    """Create or replace `path` by calling write(binary file) on a temporary
    file beside it and renaming that over `path`; on failure it is removed."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=f"{path.suffix}.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass
class RunContext:
    """Per-run seed, thread budget, cache handle, and the limits ledger."""

    seed: int = 0
    threads: int = 1
    cache: Path = field(default_factory=cache_dir_path)
    limits: dict = field(default_factory=dict)

    def table(self, kind: str, limit: int, count: int | None = None) -> np.ndarray:
        """The first `count` values (all by default) of the run's table for
        [1, limit], as an int8 array; the ledger records `limit`."""
        values = cached_sieve(kind, limit, self.cache, count)
        self.limits[kind] = max(self.limits.get(kind, 0), int(limit))
        return values

    def walk(self, limit: int) -> MertensWalk:
        """M(0..limit) as a `MertensWalk` over the run's mu table for
        [1, limit], read through its cache entry; the ledger records `limit`."""
        entry = CacheEntry("mobius", limit, self.cache)
        walk = MertensWalk(entry.limit, entry.read)
        self.limits["mobius"] = max(self.limits.get("mobius", 0), entry.limit)
        return walk


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
        if doc["length"] < doc["size"]:  # before the table is sieved
            raise ParameterError(f"subshift length {doc['length']} is below the window size {doc['size']}")
        return SubshiftWindowFamily(ctx.table(doc["kind"], doc["length"]), doc["size"])
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
    head = min(p["head"], p["limit"])
    values = ctx.table(p["kind"], p["limit"], head)
    return [
        CsvTable("table.csv", ("n", "value"), [np.arange(1, head + 1), values]),
        BinaryBlob("table.bin", table_bytes(p["kind"], values)),
    ]


def _run_mertens(p, ctx):
    head = min(p["head"], p["limit"])
    # M(x) for x <= head needs mu only up to head
    prefix = mertens_prefix(ctx.table("mobius", p["limit"], head))
    return [CsvTable("mertens.csv", ("x", "m"), [np.arange(1, head + 1), prefix[1:]])]


def _run_bfree(p, ctx):
    spec = BFreeSpec(tuple(p["members"]))
    limit = p["limit"]
    # a bad k or a limit below the first window is refused before the indicator is built
    gap = bfree_approximation_gap(spec, p["k"], FolnerSchedule.geometric(cap=limit))
    free = bfree_indicator(spec, limit)
    head = min(p["head"], limit)
    indicator = [np.arange(1, head + 1), free[:head], 1 - free[:head]]
    density = float(free.mean())
    banach = upper_banach_density(free, min(p["window"], limit))
    return [
        CsvTable("indicator.csv", ("n", "free", "multiple"), indicator),
        CsvTable(
            "density.csv",
            ("limit", "free_count", "density", "banach_window", "banach_count", "banach_density"),
            _one_row(limit, int(free.sum()), density, banach.window, banach.count, banach.density),
        ),
        CsvTable("gap.csv", ("length", "gap", "within_bound"), [gap.lengths, gap.gaps, gap.within]),
        CsvTable("gap-summary.csv", ("k", "tail_bound"), _one_row(gap.k, gap.tail_bound)),
    ]


def _run_admissible(p, ctx):
    spec = BFreeSpec(tuple(p["members"]))
    checks = admissibility_report(tuple(p["block"]), spec)
    verdict = is_admissible(tuple(p["block"]), spec)
    header = ("modulus", "checked", "omitted_residue")
    return [
        CsvTable("result.csv", ("admissible", "block_length"), _one_row(verdict, len(p["block"]))),
        CsvTable("checks.csv", header, _fields(checks, header)),
    ]


def _run_veech(p, ctx):
    spec = VeechSpec(**p["spec"])
    mertens = None
    if spec.sign_rule == "mertens":
        mertens = mertens_prefix(ctx.table("mobius", veech_last_start(p["w"], p["budget"])))
    scan = veech_window_closure(spec, p["w"], p["budget"], mertens)
    samples = scan.samples
    above = sorted(scan.above_threshold.items())
    constants = sorted(scan.persistent_constants.items())
    summary = _one_row(scan.w, p["budget"], scan.max_gap, scan.threshold, len(scan.above_threshold))
    return [
        CsvTable("samples.csv", ("center", "radius", "window"), [
            [s.center for s in samples], [s.radius for s in samples],
            [_window_string(s.window) for s in samples],
        ]),
        CsvTable("above-threshold.csv", ("window", "radius"),
                 [[_window_string(w) for w, _ in above], [r for _, r in above]]),
        CsvTable("constants.csv", ("value", "radius"), [[v for v, _ in constants], [r for _, r in constants]]),
        CsvTable("summary.csv", ("w", "budget", "max_gap", "threshold", "n_above"), summary),
    ]


def _run_orbit(p, ctx):
    values = build_system(p["system"]).take(p["n"])
    n = np.arange(len(values))
    if np.iscomplexobj(values):
        return [CsvTable("orbit.csv", ("n", "re", "im"), [n, values.real, values.imag])]
    return [CsvTable("orbit.csv", ("n", "value"), [n, values])]


def _run_besicovitch(p, ctx):
    schedule = FolnerSchedule.geometric(cap=p["limit"])  # refused before any sieve work
    values = ctx.table(p["kind"], p["limit"])
    if p["other"] is not None:
        other = ctx.table(p["other"], p["limit"])
        est = besicovitch_distance(values, other, schedule, p["r"])
    else:
        est = besicovitch_seminorm(values, schedule, p["r"])
    return [
        CsvTable("averages.csv", ("length", "average"), [est.lengths, est.averages]),
        CsvTable("summary.csv", ("kind", "other", "r", "estimate"),
                 _one_row(p["kind"], p["other"], est.r, est.estimate)),
    ]


def _run_probe_equicont(p, ctx):
    rows = mean_equicontinuity_probe(
        build_system(p["system"]), p["deltas"], pairs=p["pairs"], n=p["n"], seed=ctx.seed, r=p["r"],
        threads=ctx.threads,
    )
    columns = _fields(rows, ("delta", "mean_estimate", "max_estimate", "envelope", "pairs"))
    return [CsvTable("probe.csv", ("delta", "mean", "max", "envelope", "pairs"), columns)]


def _run_gc_deviation(p, ctx):
    family = build_family(p["family"], ctx)
    res = empirical_sup_deviation(family, p["n"], p["reps"], seed=ctx.seed, threads=ctx.threads)
    header = ("n", "reps", "mean", "median", "max")
    return [
        CsvTable("deviations.csv", ("rep", "deviation"),
                 [np.arange(len(res.deviations)), res.deviations]),
        CsvTable("summary.csv", header, _fields([res], header)),
    ]


def _run_covering(p, ctx):
    family = build_family(p["family"], ctx)
    sample = empirical_sample(family, p["sample_n"], generator(ctx.seed, COVERING_SAMPLE))
    bounds = covering_number(sample, p["eps"], p["norm"])
    points = entropy_rate(
        family, p["ns"], eps=p["eps"], reps=p["reps"], seed=ctx.seed,
        norm=p["norm"], threads=ctx.threads,
    )
    entropy = ("n", "reps", "e_mean", "e_std")
    return [
        CsvTable(
            "bounds.csv",
            ("eps", "norm", "n", "lower", "upper"),
            _one_row(bounds.eps, bounds.norm, p["sample_n"], bounds.lower, bounds.upper),
        ),
        CsvTable("entropy.csv", entropy, _fields(points, entropy)),
    ]


def _run_shatter(p, ctx):
    _check_thresholds(p["alpha"], p["beta"])  # before the family reads a table
    family = build_family(p["family"], ctx)
    sample = empirical_sample(family, p["n"], generator(ctx.seed, SHATTER_SAMPLE))
    shattered, witnesses = is_shattered(
        sample.matrix, p["alpha"], p["beta"], return_witnesses=True
    )
    dim = shattering_dimension(family, p["alpha"], p["beta"], budget=p["budget"], seed=ctx.seed)
    tables = [
        CsvTable(
            "result.csv",
            ("n", "alpha", "beta", "shattered", "greedy_dimension"),
            _one_row(p["n"], p["alpha"], p["beta"], shattered, dim),
        )
    ]
    if shattered:
        patterns = [format(g, f"0{p['n']}b") for g in range(len(witnesses))]
        tables.append(CsvTable("witnesses.csv", ("pattern", "row"), [patterns, witnesses]))
    return tables


def _run_shatter_prob(p, ctx):
    _check_thresholds(p["alpha"], p["beta"])  # before the family reads a table
    family = build_family(p["family"], ctx)
    res = shattering_probability(
        family, p["n"], p["alpha"], p["beta"], reps=p["reps"],
        seed=ctx.seed, threads=ctx.threads,
    )
    header = ("n", "reps", "shattered", "fraction", "root")
    return [CsvTable("result.csv", header, _fields([res], header))]


def _run_davenport(p, ctx):
    values = ctx.table("mobius", max(p["xs"]))
    results = [davenport_sum(values, x, a=p["a"], refine=p["refine"]) for x in p["xs"]]
    header = ("x", "theta0", "grid_size", "grid_max", "max_value", "argmax_theta", "ratio")
    return [CsvTable("davenport.csv", header, _fields(results, header))]


def _run_chowla(p, ctx):
    schedule = _decay_schedule(p["schedule"])  # refused before any sieve work
    top = 2 * max(schedule)
    if p["kind"] == "ones":
        values = np.ones(top, dtype=np.int8)
    else:
        values = ctx.table(p["kind"], top)
    series = chowla_decay(values, schedule)
    fit = ("c", "kappa", "residual", "strictly_decreasing")
    return [
        CsvTable("decay.csv", ("n", "value"), [series.abscissae, series.values]),
        CsvTable("fit.csv", fit, _fields([series], fit)),
    ]


def _run_disjointness(p, ctx):
    system = build_system(p["system"])  # refused before any sieve work
    values = ctx.table(p["kind"], p["n"])
    res = disjointness_sum(values, system, p["n"])
    path = np.asarray(res.path, dtype=np.complex128)
    ks = _geometric_checkpoints(p["n"])
    points = path[np.asarray(ks) - 1]
    bound = folner_average(np.abs(values), p["n"])
    value = complex(res.value)
    summary = _one_row(p["n"], value.real, value.imag, abs(value), bound)
    return [
        # abs of each complex scalar: np.abs of the array rounds some moduli differently
        CsvTable("path.csv", ("n", "re", "im", "abs"), [ks, points.real, points.imag, [abs(z) for z in points]]),
        CsvTable("summary.csv", ("n", "re", "im", "abs", "weight_average"), summary),
    ]


def _run_short_interval(p, ctx):
    walk = ctx.walk(2 * max(p["xs"]))
    results = [short_interval_sup(walk, x, p["tau"]) for x in p["xs"]]
    header = ("x", "tau", "h_min", "h_max", "sup", "argmax_h")
    return [CsvTable("intervals.csv", header, _fields(results, header))]


def _run_second_moment(p, ctx):
    hs = [p["h"] if p["h"] is not None else int(x ** p["exponent"]) for x in p["xs"]]
    for x, h in zip(p["xs"], hs):
        if h < 1:  # checked before any sieve work
            raise ParameterError(f"h = x^exponent must be >= 1, got h = {h} at x = {x}")
    walk = ctx.walk(max(2 * x + h for x, h in zip(p["xs"], hs)))
    results = [interval_second_moment(walk, x, h) for x, h in zip(p["xs"], hs)]
    header = ("x", "h", "value", "normalized")
    return [CsvTable("moments.csv", header, _fields(results, header))]


def _partition_points(p) -> np.ndarray:
    """The partition of a `partition` config, as int64."""
    if p["rule"] == "explicit":
        if not p["points"]:
            raise ParameterError("explicit rule needs a nonempty 'points' array")
        if any(a >= b for a, b in zip(p["points"], p["points"][1:])):  # before the walk sieves anything
            raise ParameterError("partition points must be strictly increasing")
        _check_window(1, max(p["points"]))  # exit 3 here, not an OverflowError from np.array past int64
        return np.array(p["points"], dtype=np.int64)
    top = p["top"]
    if p["rule"] == "squares":
        return np.arange(1, math.isqrt(top) + 1, dtype=np.int64) ** 2
    return np.arange(1, top + 1, dtype=np.int64)


def _run_partition(p, ctx):
    points = _partition_points(p)
    if len(points) < 2:  # before the walk reads a table
        raise ParameterError("need at least two partition points")
    res = partition_mertens_sum(ctx.walk(int(points[-1])), points)
    steps = [np.arange(1, len(points), dtype=np.int64), points[:-1], points[1:], res.deltas, res.signs]
    summary = _one_row(len(points) - 1, res.abs_sum, res.ratio, res.veech is not None)
    return [
        CsvTable("steps.csv", ("k", "x_k", "x_k1", "delta", "sign"), steps),
        CsvTable("summary.csv", ("intervals", "abs_sum", "ratio", "veech"), summary),
    ]


def _run_random_mertens(p, ctx):
    res = random_mertens_sim(
        p["grid"], p["tau"], paths=p["paths"], p=p["p"], seed=ctx.seed, threads=ctx.threads
    )
    grid = len(res.grid)
    sups = [np.repeat(np.arange(res.paths), grid), np.tile(res.grid, res.paths), res.sups.ravel()]
    return [
        CsvTable("rms.csv", ("x", "rms", "bound"), [res.grid, res.rms, res.bound]),
        CsvTable("sups.csv", ("path", "x", "sup"), sups),
    ]


def _run_zhan(p, ctx):
    values = ctx.table("mobius", 2 * p["x"])
    res = zhan_sup(values, p["x"], p["tau"], thetas=p["thetas"])
    summary = ("x", "tau", "thetas", "sup", "argmax_h", "argmax_theta")
    return [
        CsvTable("zhan.csv", ("h", "max_value", "theta0_value"),
                 [res.h_values, res.per_h, res.theta0_values]),
        CsvTable("summary.csv", summary, _fields([res], summary)),
    ]


# ---------------------------------------------------------------------------
# registry


def _int(default, minimum=1):
    return {"type": "integer", "minimum": minimum, "default": default}


def _num(default):
    return {"type": "number", "default": default}


def _exponent(default):
    """A short-interval exponent: h = x^e with 0 < e <= 1."""
    return {**_num(default), "exclusiveMinimum": 0, "maximum": 1}


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
    _object(["variant"], variant={"const": "bernoulli"}, p=_BIAS, seed=_int(0, minimum=0)),
]}
_INTEGERS = {"type": "array", "items": {"type": "integer"}}
_VEECH_SPEC = {"oneOf": [
    _object(["starts", "signs"], starts=_INTEGERS, signs=_INTEGERS),
    _object(
        ["generator"],
        generator={"enum": ["triangular"]},
        sign_rule={"enum": ["alternating", "plus", "minus", "mertens"], "default": "alternating"},
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
            "deltas": {"type": "array", "minItems": 1, "items": _NUMBER, "default": [2.0**-j for j in range(1, 11)]},
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
        {
            # x <= MAX_FFT / 4 keeps the zero-padded transform of length >= 4x inside MAX_FFT
            "xs": {**_int_array([1000, 10000, 100000]), "items": {"type": "integer", "minimum": 2, "maximum": MAX_FFT // 4}},
            "a": _num(2.0),
            "refine": {"type": "boolean", "default": True},
        },
        _run_davenport,
    ),
    Experiment(
        "chowla",
        "averaged pair-correlation decay D(N) over a schedule, with a power-law fit",
        {
            "kind": {"enum": ["mobius", "liouville", "ones"], "default": "liouville"},
            # N >= 2 keeps log log N finite in the fit; N <= MAX_FFT / 2 keeps the
            # correlation transform of length >= 2N inside MAX_FFT
            "schedule": {**_int_array([4096, 16384, 65536]), "items": {"type": "integer", "minimum": 2, "maximum": MAX_FFT // 2}},
        },
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
        {"xs": _int_array([10000]), "tau": _exponent(0.6)},
        _run_short_interval,
    ),
    Experiment(
        "second-moment",
        "mean squared short-interval increment of M over a dyadic window",
        {
            "xs": _int_array([10000]),
            "h": {"type": ["integer", "null"], "minimum": 1, "default": None},
            "exponent": _exponent(0.2),
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
            "tau": _exponent(0.5),
            "paths": _int(64),
            "p": _num(0.5),
        },
        _run_random_mertens,
    ),
    Experiment(
        "zhan",
        "double sup of short-interval exponential sums over dyadic h and a theta grid",
        {"x": _int(10000), "tau": _exponent(0.7), "thetas": {**_int(64), "maximum": MAX_FFT}},
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
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


_TYPES = {"integer": int, "number": numbers.Real, "boolean": bool, "null": type(None), "array": list, "object": dict}
_BOUNDS = (  # keyword, the comparison true of a number that breaks it, the wording
    ("minimum", operator.lt, "is less than the minimum of"),
    ("exclusiveMinimum", operator.le, "is less than or equal to the minimum of"),
    ("maximum", operator.gt, "is greater than the maximum of"),
)
_KEYWORDS = {"type", "const", "enum", "items", "minItems", "properties", "required", "additionalProperties",
             "oneOf", "default", *(keyword for keyword, _, _ in _BOUNDS)}


def _is(value, type_name: str) -> bool:
    """Whether a JSON value has a schema type: true is no integer or number, and 2.0 is no integer."""
    return isinstance(value, _TYPES[type_name]) and (type_name == "boolean" or not isinstance(value, bool))


def _equal(a, b) -> bool:
    """JSON equality of the scalars that `const` and `enum` hold: true is not 1."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _branch(branches, value):
    """The oneOf branch that judges a document: the one whose "type" or
    "variant" tag it carries, or else the only one some of whose required
    keys it carries; None when no branch is picked."""
    keys = value.keys() if isinstance(value, dict) else set()
    tagged = [b for b in branches
              if any(k in keys and _equal(value[k], s["const"]) for k, s in b["properties"].items() if "const" in s)]
    carried = tagged or [b for b in branches if keys & set(b["required"])]
    return carried[0] if len(carried) == 1 else None


def _violation(schema, value, path=()):
    """The first rule of `schema` that the JSON value breaks, as (path,
    message), or None.  The keywords in _KEYWORDS mean what they mean in
    JSON Schema (Draft 2020-12), with the usual validator wording, except
    that a oneOf judges a document by its `_branch` alone.  An object's own
    rules come before those of its properties."""
    if "oneOf" in schema:
        branch = _branch(schema["oneOf"], value)
        if branch is None:  # name the tag values, or else the keys, that pick a branch
            tags = [f"{k}={s['const']}" for b in schema["oneOf"] for k, s in b["properties"].items() if "const" in s]
            forms = ", ".join(tags or ["+".join(b["required"]) for b in schema["oneOf"]])
            return path, f"{value!r} is not valid under any of the given schemas (expected one of: {forms})"
        if problem := _violation(branch, value, path):
            return problem
    types = [schema["type"]] if isinstance(schema.get("type"), str) else schema.get("type", ())
    if types and not any(_is(value, t) for t in types):
        return path, f"{value!r} is not of type {', '.join(map(repr, types))}"
    if "const" in schema and not _equal(value, schema["const"]):
        return path, f"{schema['const']!r} was expected"
    if "enum" in schema and not any(_equal(value, e) for e in schema["enum"]):
        return path, f"{value!r} is not one of {schema['enum']!r}"
    for keyword, breaks, words in _BOUNDS if _is(value, "number") else ():
        if keyword in schema and breaks(value, schema[keyword]):
            return path, f"{value!r} {words} {schema[keyword]!r}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, f"{value!r} {'should be non-empty' if schema['minItems'] == 1 else 'is too short'}"
        for i, item in enumerate(value if "items" in schema else ()):
            if problem := _violation(schema["items"], item, (*path, i)):
                return problem
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        if missing := [k for k in schema.get("required", ()) if k not in value]:
            return path, f"{missing[0]!r} is a required property"
        if schema.get("additionalProperties") is False and (extra := sorted(value.keys() - properties.keys(), key=str)):
            names, verb = ", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were"
            return path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        for key, sub in properties.items():
            if key in value and (problem := _violation(sub, value[key], (*path, key))):
                return problem
    return None


def _unchecked(schema) -> set:
    """The keywords of a schema, and of every schema inside it, that `_violation`
    does not check; an additionalProperties other than false is one."""
    inner = [*schema.get("properties", {}).values(), *schema.get("oneOf", ()), *filter(None, [schema.get("items")])]
    own = {k for k, v in schema.items() if k not in _KEYWORDS or (k == "additionalProperties" and v is not False)}
    return own.union(*map(_unchecked, inner))


if unchecked := set().union(*(_unchecked(e.schema()) for e in _EXPERIMENTS)):  # it would let any value through
    raise NotImplementedError(f"config schemas use keywords the checker does not implement: {sorted(unchecked)}")


def validate_config(experiment: Experiment, doc: dict) -> None:
    if problem := _violation(experiment.schema(), doc):
        where = ".".join(str(part) for part in problem[0])
        raise ParameterError(f"invalid config: {where + ': ' if where else ''}{problem[1]}")
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
            branch = _branch(prop["oneOf"], params[key])
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
            write_csv(run_dir / table.name, table.header, *table.columns)
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
    text = json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
    _atomic_write(run_dir / "manifest.json", lambda fh: fh.write(text.encode("ascii")))
    return run_dir
