"""Exact sieves for multiplicative arithmetic functions.

This module produces exact tables of the Mobius function mu(n), the
Liouville function lambda(n) = (-1)^Omega(n) and B-free indicators, each an
int8 array v whose v[i] is the value at n = i + 1.  The Mertens function
M(x) = sum_{n<=x} mu(n) is read from a mu table through
`experiments.MertensWalk`.  `table_bytes` and `table_from_bytes` write and
read a mu or lambda table in the ATBL01 format of a `sieve` run's table.bin.

Tables are computed by a segmented, vectorized sieve: each segment of
one-byte values comes from a 2-byte accumulator of rounded logarithms,
w_p = 2 * floor(32 * log2(p)) + 1 per hit of a prime p; its bit 0 is the
parity of the hits, and its size tells, with a proven margin, whether one
prime factor above sqrt(hi) is left (`sieve_segments`).  Each segment
starts from a periodic template that holds the primes up to 13 (period
180,180), so only the larger primes and prime powers are sieved by strided
passes.  Memory is one byte per table entry the caller keeps plus about 4
bytes of scratch per segment entry and the 0.36 MiB template, allocated
once per sieve; a caller that keeps only a head can pass every segment on
(to a file, say) as it is finished.  The hard limit is 2^31 - 1 entries
(about 2 GiB of output), with desk-scale use expected at 1e8 and below.

All values are exact; nothing here is floating point.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParameterError, ResourceLimitError

MAX_SIEVE_LIMIT = 2**31 - 1
_SEGMENT = 1 << 20
# each prime p <= 13 and the largest power of it the pre-sieved template
# holds; their product is the template's period
_PRESIEVED = {2: 4, 3: 9, 5: 5, 7: 7, 11: 11, 13: 13}
_PERIOD = math.prod(_PRESIEVED.values())
_SQUAREFUL = 0x8000  # mu's mark, in a sieve accumulator, of a multiple of a prime square

_HEADER = struct.Struct("<6sHII")
_MAGIC = b"ATBL01"
_KIND_CODES = {"mobius": 1, "liouville": 2}


def _in_range(values: np.ndarray) -> bool:
    """True when every value is -1, 0 or 1, the range of mu and lambda."""
    return not values.size or (values.min() >= -1 and values.max() <= 1)


def table_bytes(kind: str, values: np.ndarray) -> bytes:
    """The ATBL01 form of the mu or lambda table v(1..n): a little-endian
    header (magic, kind code, lo = 1, hi = n) and then the n int8 values."""
    return _HEADER.pack(_MAGIC, _KIND_CODES[kind], 1, len(values)) + np.asarray(values, np.int8).tobytes()


def table_from_bytes(kind: str, blob: bytes) -> np.ndarray:
    """The values of a `table_bytes(kind, ...)` blob, as a new int8 array;
    raises ParameterError for another magic, kind or window than [1, hi],
    a body of another length, or a value out of range."""
    if len(blob) < _HEADER.size:
        raise ParameterError("table blob shorter than header")
    magic, code, lo, hi = _HEADER.unpack_from(blob)
    if (magic, code, lo) != (_MAGIC, _KIND_CODES[kind], 1) or hi < 1:
        raise ParameterError(f"not an ATBL01 {kind} table on [1, hi]: magic {magic!r}, kind code {code}, [{lo}, {hi}]")
    values = np.frombuffer(blob, dtype=np.int8, offset=_HEADER.size).copy()
    if len(values) != hi or not _in_range(values):
        raise ParameterError(f"table blob body is not {hi} values in [-1, 1]")
    return values


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (empty for n < 2)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def _check_window(lo: int, hi: int) -> None:
    if lo < 1 or hi < lo:
        raise ParameterError(f"bad sieve window [{lo}, {hi}]; need 1 <= lo <= hi")
    if hi > MAX_SIEVE_LIMIT:
        raise ResourceLimitError(
            f"sieve bound {hi} exceeds the supported limit {MAX_SIEVE_LIMIT}"
        )


def _weight(p: int) -> int:
    """w_p = 2 * floor(32 * log2(p)) + 1, from 2^m <= p^32 < 2^(m + 1)."""
    return 2 * (p**32).bit_length() - 1


def _template(kind: str) -> np.ndarray:
    """The uint16 accumulator of n = 0, 1, ..., _PERIOD - 1 (0.36 MiB) after
    the adds for the prime powers in _PRESIEVED, with mu's _SQUAREFUL bit
    on the multiples of 4 and 9: they depend only on n mod _PERIOD, so a
    segment starts from this template, copied in at seg_lo % _PERIOD."""
    template = np.zeros(_PERIOD, dtype=np.uint16)
    for p, top in _PRESIEVED.items():
        for q in {p, top} if kind == "liouville" else {p}:
            template[::q] += _weight(p)
        if kind == "mobius" and top > p:
            template[::top] |= _SQUAREFUL
    return template


def sieve_segments(kind: str, lo: int, hi: int) -> Iterator[np.ndarray]:
    """The mu or lambda values on [lo, hi], one finished int8 segment of at
    most _SEGMENT values at a time, in order.

    Per segment, a uint16 accumulator gets w_p = 2 * floor(32 * log2(p)) + 1
    added at each multiple of p (mu) or of every prime power p^k <= hi
    (lambda), over the primes p <= max(13, sqrt(hi)).  The adds for the
    prime powers that divide _PERIOD = 4 * 9 * 5 * 7 * 11 * 13 = 180,180
    come pre-sieved: acc starts as a copy of the periodic _template, and a
    strided add per remaining modulus does the rest.  For mu, bit 15
    (_SQUAREFUL) then marks the multiples of each p^2 <= _SEGMENT, p >= 5,
    by a strided assignment (the template marks 4 and 9), and those of every
    larger p^2, at most one per segment, by one fancy-index assignment.

    Every w_p is odd and within 1 of 64 * log2(p), so bit 0 of acc is the
    parity of the hits, and as n < 2^31 takes at most 30 hits, acc is within
    30 of 64 * log2(s), s the part of n made of sieved primes.  The rest of
    n is 1 or one prime q > max(13, sqrt(seg_hi)), so q >= 17.  On each
    sub-range [2^k, 2^(k+1)) of a segment, acc >= 64 * k - 30 where there
    is no q, and where there is one, s < 2^(k+1) / 17 makes acc <=
    64 * (k + 1 - log2(17)) + 30 < 64 * k - 167; so acc < 64 * k - 114
    finds q with a margin of more than 50 either side.  Hits never reach bit
    15 (acc <= 64 * 31 + 30 = 2014).  The value is (-1)^(hits + [q]), or 0
    where bit 15 is set.

    The scratch (acc, a mask and the yielded segment: about 4 bytes per
    segment entry, plus the template) is allocated once and reused for
    every segment, so a consumer must copy or write out a segment before
    asking for the next.
    """
    _check_window(lo, hi)
    primes = primes_up_to(math.isqrt(hi))
    passes = []  # (p, q): an add of w_p at every multiple of q, for each power q of p the template leaves out
    for p in primes.tolist():
        q = _PRESIEVED.get(p, 1) * p
        while q <= hi and (q == p or kind == "liouville"):
            passes.append((p, q))
            q *= p
    bases, moduli = np.array(passes, dtype=np.int64).reshape(-1, 2).T
    weights = [_weight(p) for p in bases.tolist()]
    squares = primes[primes >= 5] ** 2 if kind == "mobius" else primes[:0]
    marks, squares = squares[squares <= _SEGMENT], squares[squares > _SEGMENT]
    template = _template(kind)
    width = min(_SEGMENT, hi - lo + 1)
    acc_buf = np.empty(width, dtype=np.uint16)
    mask_buf = np.empty(width, dtype=bool)
    out_buf = np.empty(width, dtype=np.int8)
    for seg_lo in range(lo, hi + 1, _SEGMENT):
        seg_hi = min(seg_lo + _SEGMENT - 1, hi)
        size = seg_hi - seg_lo + 1
        acc, mask, out = acc_buf[:size], mask_buf[:size], out_buf[:size]
        for pos in range(-(seg_lo % _PERIOD), size, _PERIOD):
            acc[max(pos, 0) : pos + _PERIOD] = template[max(-pos, 0) : size - pos]
        live = moduli[: np.searchsorted(bases, math.isqrt(seg_hi), side="right")]  # p * p <= seg_hi
        for start, q, w in zip((-seg_lo % live).tolist(), live.tolist(), weights):
            view = acc[start::q]  # += on a view writes acc once, with no copy back
            view += w
        for start, s in zip((-seg_lo % marks).tolist(), marks.tolist()):
            acc[start::s] = _SQUAREFUL
        hits = -seg_lo % squares
        acc[hits[hits < size]] = _SQUAREFUL
        for k in range(seg_lo.bit_length() - 1, seg_hi.bit_length()):
            i, j = max(1 << k, seg_lo) - seg_lo, min(2 << k, seg_hi + 1) - seg_lo
            np.less(acc[i:j], max(64 * k - 114, 0), out=mask[i:j])
        np.bitwise_and(acc, 1, out=out, casting="unsafe")
        out ^= mask.view(np.int8)  # 1 where the value is -1
        np.negative(out, out=out)
        out |= 1
        if kind == "mobius":
            out *= np.less(acc, _SQUAREFUL, out=mask)
        yield out


def _sieve_range(kind: str, lo: int, hi: int, keep: int | None = None, sink=None) -> np.ndarray:
    """The first `keep` values (all by default) of mu or lambda on [lo, hi],
    as an int8 array filled from sieve_segments.  When `sink` is given, every
    segment of the whole window is passed to sink(segment) in order, so a
    caller can write out the full table while only `keep` values are held.
    """
    _check_window(lo, hi)
    keep = hi - lo + 1 if keep is None else keep
    if not 1 <= keep <= hi - lo + 1:
        raise ParameterError(f"keep={keep} outside [1, {hi - lo + 1}]")
    values = np.empty(keep, dtype=np.int8)
    for start, segment in zip(range(0, hi - lo + 1, _SEGMENT), sieve_segments(kind, lo, hi)):
        if sink is not None:
            sink(segment)
        if start < keep:
            values[start : start + len(segment)] = segment[: keep - start]
    return values


def sieve_mobius(limit: int, keep: int | None = None, sink=None) -> np.ndarray:
    """Exact mu(n) for 1 <= n <= keep (default: limit), sieved up to limit;
    every segment of [1, limit] goes to sink(segment) when a sink is given."""
    return _sieve_range("mobius", 1, limit, keep, sink) if limit >= 1 else _bad_limit(limit)


def sieve_liouville(limit: int, keep: int | None = None, sink=None) -> np.ndarray:
    """Exact lambda(n) for 1 <= n <= keep (default: limit), sieved up to
    limit; every segment of [1, limit] goes to sink(segment) when a sink is
    given."""
    return _sieve_range("liouville", 1, limit, keep, sink) if limit >= 1 else _bad_limit(limit)


def _bad_limit(limit: int):
    raise ParameterError(f"sieve limit must be >= 1, got {limit}")


def brute_arith(n):
    """(mu(n), lambda(n)) by trial division; the slow reference route.

    ``n`` is an int, which gives a pair of ints, or a 1-D integer array,
    which gives two int8 arrays of its length.  Either way every entry is
    trial-divided at once, as one array: by 2, then by each odd d.  An entry
    whose remaining cofactor r has d * d > r leaves the loop (r is then 1 or
    one more prime), so a pass over d costs one integer division of the
    entries still in play, and the loop ends when none is.  Raises
    ParameterError for an entry below 1.
    """
    values = np.asarray(n)
    if values.ndim > 1 or values.dtype.kind not in "iu":
        raise ParameterError("need an integer or a 1-D integer array")
    rest = values.reshape(-1).astype(np.int64)
    if rest.size and rest.min() < 1:
        raise ParameterError(f"n must be >= 1, got {rest.min()}")
    mu = np.ones(rest.size, dtype=np.int8)
    lam = np.ones(rest.size, dtype=np.int8)
    pos = np.arange(rest.size)  # where each entry still in play writes its values
    low = int(rest.min()) if rest.size else 0  # smallest cofactor still in play
    d = 2
    while rest.size:
        if d * d > low:
            done = rest < d * d
            last = pos[done & (rest > 1)]  # the cofactor is one more prime
            mu[last] = -mu[last]
            lam[last] = -lam[last]
            rest, pos = rest[~done], pos[~done]
            if not rest.size:
                break
            low = int(rest.min())
        quotient = rest // d
        hit = np.flatnonzero(quotient * d == rest)
        if hit.size:
            at, rest_hit = pos[hit], quotient[hit]
            mu[at] = -mu[at]
            lam[at] = -lam[at]
            while True:  # further powers of d: mu is 0, lambda flips once each
                quotient = rest_hit // d
                again = np.flatnonzero(quotient * d == rest_hit)
                if not again.size:
                    break
                mu[at[again]] = 0
                lam[at[again]] = -lam[at[again]]
                rest_hit[again] = quotient[again]
            rest[hit] = rest_hit
            low = min(low, int(rest_hit.min()))
        d = 3 if d == 2 else d + 2
    if values.ndim == 0:
        return int(mu[0]), int(lam[0])
    return mu, lam


# ---------------------------------------------------------------------------
# B-free integers


@dataclass(frozen=True)
class BFreeSpec:
    """A finite family of pairwise coprime moduli b_1 < b_2 < ... (each >= 2).

    An integer is B-free when no member divides it.  `truncate(K)` keeps the
    first K members, which is the standard finite approximation.
    """

    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(int(b) for b in self.members)
        object.__setattr__(self, "members", members)
        for b in members:
            if b < 2:
                raise ParameterError(f"member {b} must be >= 2")
        for a, b in zip(members, members[1:]):
            if a >= b:
                raise ParameterError("members must be strictly increasing")
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                g = math.gcd(a, b)
                if g != 1:
                    raise ParameterError(
                        f"members {a} and {b} are not coprime (share factor {g})"
                    )

    @classmethod
    def prime_squares(cls, limit: int) -> "BFreeSpec":
        """Members p^2 <= limit; B-free then means squarefree up to limit."""
        ps = primes_up_to(math.isqrt(limit))
        return cls(tuple(int(p) * int(p) for p in ps))

    def truncate(self, k: int) -> "BFreeSpec":
        if not 0 <= k <= len(self.members):
            raise ParameterError(f"truncation index {k} outside [0, {len(self.members)}]")
        return BFreeSpec(self.members[:k])

    def tail_sum(self, k: int) -> float:
        """sum of 1/b over members after the first k."""
        if not 0 <= k <= len(self.members):
            raise ParameterError(f"truncation index {k} outside [0, {len(self.members)}]")
        return float(sum(1.0 / b for b in self.members[k:]))


def multiples_mask(members, lo: int, hi: int) -> np.ndarray:
    """Bool mask over the integers lo + 1, ..., hi: True where a member
    divides the integer."""
    mask = np.zeros(hi - lo, dtype=bool)
    for b in members:
        mask[-(lo + 1) % b :: b] = True
    return mask


def bfree_indicator(spec: BFreeSpec, limit: int) -> np.ndarray:
    """chi_Bfree(1..limit) as an int8 array; 1 - chi is the indicator of the
    multiple set {n : some member divides n}.  The array is the multiples
    mask, inverted in place and viewed as int8, so it takes limit bytes and
    no second copy."""
    _check_window(1, limit)
    free = multiples_mask(spec.members, 0, limit)
    np.logical_not(free, out=free)
    return free.view(np.int8)


# ---------------------------------------------------------------------------
# Admissibility of finite blocks


@dataclass(frozen=True)
class ModulusCheck:
    """Outcome of the residue test for one modulus.

    checked is False when the modulus was skipped (larger than the block
    length or its span, so it cannot be covered).  omitted_residue is the
    smallest residue class mod `modulus` missed by the block, or None when
    the block covers every class.
    """

    modulus: int
    checked: bool
    omitted_residue: int | None


def admissibility_report(
    block: Sequence[int] | Iterable[int], spec: BFreeSpec
) -> list[ModulusCheck]:
    """Per-modulus residue coverage for a finite integer block."""
    items = [int(x) for x in block]
    rows = []
    if items:
        span = max(items) - min(items) + 1
    for b in spec.members:
        if not items or b > len(items) or b > span:
            rows.append(ModulusCheck(b, False, None))
            continue
        residues = {x % b for x in items}
        missing = set(range(b)) - residues
        rows.append(ModulusCheck(b, True, min(missing) if missing else None))
    return rows


def is_admissible(block: Sequence[int] | Iterable[int], spec: BFreeSpec) -> bool:
    """True when the block omits a residue class modulo every relevant member.

    Members exceeding the block length (or its span) are skipped: a block of
    n integers occupies at most n residue classes, so such moduli always
    leave a class free.
    """
    return all(
        row.omitted_residue is not None
        for row in admissibility_report(block, spec)
        if row.checked
    )
