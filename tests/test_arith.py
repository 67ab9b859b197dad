import functools
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import arith, experiments, harness
from ergolab.arith import (
    _SEGMENT,
    _sieve_range,
    BFreeSpec,
    admissibility_report,
    bfree_indicator,
    brute_arith,
    is_admissible,
    sieve_liouville,
    sieve_mobius,
    table_bytes,
    table_from_bytes,
)
from ergolab.errors import ParameterError, ResourceLimitError
from ergolab.experiments import mertens_prefix

import helpers


MU_FIRST_TEN = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
LAMBDA_FIRST_TEN = [1, -1, -1, 1, -1, 1, -1, -1, 1, 1]


@pytest.fixture(scope="module")
def mu_100k():
    return sieve_mobius(100_000)


@pytest.fixture(scope="module")
def lam_100k():
    return sieve_liouville(100_000)


def test_mobius_first_ten(mu_100k):
    assert list(mu_100k[:10]) == MU_FIRST_TEN


def test_liouville_first_ten(lam_100k):
    assert list(lam_100k[:10]) == LAMBDA_FIRST_TEN


def test_sieve_matches_reference_on_sample(mu_100k, lam_100k):
    rng = np.random.default_rng(7)
    sample = set(range(1, 300))
    sample.update(int(n) for n in rng.integers(1, 100_001, size=150))
    sample.update([99_991, 2**16, 3**10, 99_991 - 1, 65_537])
    for n in sorted(sample):
        assert int(mu_100k[n - 1]) == helpers.ref_mobius(n), n
        assert int(lam_100k[n - 1]) == helpers.ref_liouville(n), n


def test_brute_matches_sieve(mu_100k, lam_100k):
    for n in [1, 2, 4, 360, 1024, 99_991, 100_000, 65_536, 30_030]:
        mu, lam = brute_arith(n)
        assert mu == int(mu_100k[n - 1])
        assert lam == int(lam_100k[n - 1])


# 1, 2, 4, prime squares (those below 10^4, the largest below 2^31 and
# 65,537^2), 2^16, 65,537, 99,991 and the 4,096 values below 2^31, whose
# cofactors keep the loop running longest
_PRIME_SQUARES = [p * p for p in range(2, 100) if helpers.ref_factorization(p) == {p: 1}] + [46_337**2, 65_537**2]
BRUTE_POINTS = np.array([1, 2, 4, *_PRIME_SQUARES, 2**16, 65_537, 99_991, *range(2**31 - 2**12, 2**31)])


def test_brute_array_matches_reference():
    mu, lam = brute_arith(BRUTE_POINTS)
    assert mu.dtype == lam.dtype == np.int8
    assert mu.tolist() == [helpers.ref_mobius(int(n)) for n in BRUTE_POINTS]
    assert lam.tolist() == [helpers.ref_liouville(int(n)) for n in BRUTE_POINTS]


def test_brute_empty_array():
    mu, lam = brute_arith(np.array([], dtype=np.int64))
    assert mu.dtype == lam.dtype == np.int8
    assert mu.size == lam.size == 0


@pytest.mark.parametrize(
    "bad", [0, -7, np.array([0]), np.array([5, 0, 7]), np.array([3, -1]), np.array([-(2**40)])],
    ids=["int-zero", "int-negative", "zero", "zero-inside", "negative", "huge-negative"],
)
def test_brute_refuses_entries_below_one(bad):
    with pytest.raises(ParameterError):
        brute_arith(bad)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_brute_matches_reference(n):
    mu, lam = brute_arith(n)
    assert mu == helpers.ref_mobius(n)
    assert lam == helpers.ref_liouville(n)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
def test_multiplicative_on_coprime_pairs(m, n):
    if math.gcd(m, n) != 1:
        return
    mu_m, lam_m = brute_arith(m)
    mu_n, lam_n = brute_arith(n)
    mu_mn, lam_mn = brute_arith(m * n)
    assert mu_mn == mu_m * mu_n
    assert lam_mn == lam_m * lam_n


def test_mobius_divisor_sum_identity(mu_100k):
    # sum_{d | n} mu(d) == 1 iff n == 1, else 0
    limit = 20_000
    mu = mu_100k[:limit].astype(np.int64)
    acc = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        acc[d::d] += mu[d - 1]
    assert acc[1] == 1
    assert not acc[2:].any()


def test_mobius_is_liouville_times_mu_squared(mu_100k, lam_100k):
    mu = mu_100k.astype(np.int64)
    lam = lam_100k.astype(np.int64)
    assert np.array_equal(mu, lam * mu * mu)


def test_liouville_never_zero(lam_100k):
    assert set(np.unique(lam_100k)) == {-1, 1}


def test_segment_window_matches_full_run():
    lo, hi = 1_000_000, 1_010_000
    full_mu = sieve_mobius(hi)
    window_mu = _sieve_range("mobius", lo, hi)
    assert len(window_mu) == hi - lo + 1
    assert np.array_equal(window_mu, full_mu[lo - 1 :])
    full_lam = sieve_liouville(hi)
    window_lam = _sieve_range("liouville", lo, hi)
    assert np.array_equal(window_lam, full_lam[lo - 1 :])


@pytest.mark.parametrize(
    "lo, hi", [(1, 1), (1, 2), (2**31 - 2**12, 2**31 - 1)], ids=["one", "one-two", "top-of-range"]
)
def test_sieve_window_matches_trial_division(lo, hi):
    # at the top of the range an accumulator too narrow for n would overflow
    mu = _sieve_range("mobius", lo, hi)
    lam = _sieve_range("liouville", lo, hi)
    brute_mu, brute_lam = brute_arith(np.arange(lo, hi + 1))
    assert np.array_equal(mu, brute_mu)
    assert np.array_equal(lam, brute_lam)


def test_window_across_a_segment_boundary_matches_full_run():
    lo, hi = _SEGMENT - 1000, 2 * _SEGMENT + 1000
    full_mu, full_lam = sieve_mobius(hi), sieve_liouville(hi)
    assert np.array_equal(_sieve_range("mobius", lo, hi), full_mu[lo - 1 :])
    assert np.array_equal(_sieve_range("liouville", lo, hi), full_lam[lo - 1 :])
    points = np.array([lo, lo + _SEGMENT - 1, lo + _SEGMENT, hi])
    brute_mu, brute_lam = brute_arith(points)
    assert np.array_equal(brute_mu, full_mu[points - 1])
    assert np.array_equal(brute_lam, full_lam[points - 1])


# lo on and beside 1, 13^2 and the template period 180,180; hi below 2^2,
# 5^2, 13^2 and 17^2 (17 unsieved, where the log-sum margin is tightest);
# windows across one and two periods
SIEVE_WINDOWS = [(lo, hi) for lo in (1, 2) for hi in (3, 24, 168)] + [(1, 288), (150, 288)] + [
    (lo, lo + width) for lo in (169, 180179, 180180, 180181) for width in (0, 2000)
] + [(178_000, 182_000), (358_000, 362_500)]


@functools.lru_cache(maxsize=None)
def _trial_division(kind, lo, hi):
    ref = helpers.ref_mobius if kind == "mobius" else helpers.ref_liouville
    return np.array([ref(n) for n in range(lo, hi + 1)], dtype=np.int8)


@pytest.mark.parametrize("segment", [64, 1000, _SEGMENT])
@pytest.mark.parametrize("kind", ["mobius", "liouville"])
@pytest.mark.parametrize("lo, hi", SIEVE_WINDOWS)
def test_presieved_segments_match_the_strided_loop(monkeypatch, lo, hi, kind, segment):
    monkeypatch.setattr(arith, "_SEGMENT", segment)
    got = [s.copy() for s in arith.sieve_segments(kind, lo, hi)]
    ref = list(helpers.ref_sieve_segments(kind, lo, hi, segment))
    assert [len(s) for s in got] == [len(s) for s in ref]
    assert np.array_equal(np.concatenate(got), np.concatenate(ref))
    assert np.array_equal(np.concatenate(got), _trial_division(kind, lo, hi))


@pytest.mark.parametrize("kind", ["mobius", "liouville"])
def test_presieved_segments_match_the_strided_loop_on_3e6_values_at_the_top(kind):
    # primes up to 46,340, so most squares exceed a segment and are zeroed
    # by the fancy-index pass; compared one segment at a time
    hi = arith.MAX_SIEVE_LIMIT
    lo = hi - 3 * 10**6 + 1
    pairs = itertools.zip_longest(arith.sieve_segments(kind, lo, hi),
                                  helpers.ref_sieve_segments(kind, lo, hi, _SEGMENT))
    for got, ref in pairs:
        assert got is not None and ref is not None and np.array_equal(got, ref)


@pytest.mark.parametrize("kind", ["mobius", "liouville"])
def test_windows_around_every_power_of_two_match_trial_division(kind):
    # 2^k starts a sub-range of the log-sum test; Omega(2^30) = 30 is the most hits
    for k in range(1, 31):
        lo, hi = max(1, 2**k - 2), 2**k + 2
        got = np.concatenate([s.copy() for s in arith.sieve_segments(kind, lo, hi)])
        assert np.array_equal(got, brute_arith(np.arange(lo, hi + 1))[kind == "liouville"]), k


def test_log_weights_keep_both_margins_and_stay_below_bit_15():
    primes = arith.primes_up_to(46_341)  # every prime a window below 2^31 sieves
    weights = np.array([arith._weight(int(p)) for p in primes])
    assert (weights % 2 == 1).all()  # bit 0 of the accumulator is the parity of the hits
    error = np.abs(weights - 64 * np.log2(primes)).max()
    assert error <= 1
    hits = 30  # Omega(n) <= 30 for n < 2^31
    # on [2^k, 2^(k+1)): acc >= 64k - 30 without an unsieved prime q >= 17, and
    # acc <= 64 (k + 1 - log2 17) + 30 with one; the test is acc < 64k - 114
    assert 114 - hits * error > 50
    assert 64 * np.log2(17) - 64 - 114 - hits * error > 50
    assert 64 * 31 + hits * error <= 2014 < arith._SQUAREFUL
    assert hits * arith._weight(2) < 2014  # 2^30


def test_sieve_rejects_bad_limits():
    with pytest.raises(ParameterError):
        sieve_mobius(0)
    with pytest.raises(ParameterError):
        _sieve_range("mobius", 5, 4)
    with pytest.raises(ParameterError):
        _sieve_range("mobius", 0, 10)
    with pytest.raises(ResourceLimitError):
        sieve_mobius(2**31)


# ---------------------------------------------------------------------------
# Mertens function (a checkpoint walk over an in-memory table)


def test_mertens_small_values(mu_100k):
    pref = mertens_prefix(mu_100k)
    assert (pref[1], pref[2], pref[10]) == (1, 0, -1)
    for x in [1, 10, 100, 999, 12_345]:
        assert pref[x] == helpers.ref_mertens(x)


def test_mertens_prefix_matches_direct_summation(mu_100k):
    pref = mertens_prefix(mu_100k)
    values = mu_100k.astype(np.int64)
    for x in [1, 7, 100, 4096, 99_999, 100_000]:
        assert pref[x] == int(values[:x].sum())
    assert pref[0] == 0
    assert pref[1:].dtype == np.int32
    assert np.array_equal(pref[1:], np.cumsum(values))


def test_mertens_prefix_is_int32_across_segments():
    table = sieve_mobius(2 * _SEGMENT + 3)
    pref = mertens_prefix(table)
    assert pref[:].dtype == np.int32
    assert np.array_equal(pref[:], np.concatenate([[0], np.cumsum(table, dtype=np.int64)]))


def test_mertens_prefix_refuses_a_table_past_the_int32_bound(monkeypatch):
    values = sieve_mobius(100)
    monkeypatch.setattr(experiments, "MAX_WALK", 99)
    with pytest.raises(ResourceLimitError, match="int32 bound 99"):
        mertens_prefix(values)


def test_mertens_prefix_of_a_sieved_table():
    pref = mertens_prefix(sieve_mobius(1000))
    assert pref.limit == 1000 and len(pref) == 1001
    assert pref[10] == -1


def test_mertens_range_sum(mu_100k):
    pref = mertens_prefix(mu_100k)
    values = mu_100k.astype(np.int64)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = sorted(int(v) for v in rng.integers(0, 100_001, size=2))
        assert pref[y] - pref[x] == int(values[x:y].sum())


# ---------------------------------------------------------------------------
# B-free sieves


def test_bfree_single_even_modulus():
    free = bfree_indicator(BFreeSpec((2,)), 10)
    assert list(free) == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]


def test_bfree_two_three():
    free = bfree_indicator(BFreeSpec((2, 3)), 12)
    assert list(free) == [1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0]
    assert free.dtype == np.int8


def test_bfree_matches_reference():
    spec = BFreeSpec((4, 7, 9, 25))
    free = bfree_indicator(spec, 2000)
    for n in range(1, 2001):
        assert int(free[n - 1]) == int(helpers.ref_is_bfree(n, spec.members)), n


def test_bfree_prime_squares_equals_squarefree_indicator(mu_100k):
    spec = BFreeSpec.prime_squares(10_000)
    free = bfree_indicator(spec, 10_000)
    musq = (mu_100k[:10_000] != 0).astype(np.int8)
    assert np.array_equal(free, musq)


def test_bfree_periodic_with_lcm_period():
    spec = BFreeSpec((4, 5, 9))
    period = math.lcm(*spec.members)
    free = bfree_indicator(spec, 3 * period)
    vals = free
    assert np.array_equal(vals[:period], vals[period : 2 * period])
    assert np.array_equal(vals[:period], vals[2 * period : 3 * period])


def test_bfree_spec_validation_names_offending_pair():
    with pytest.raises(ParameterError, match=r"6.*10|10.*6"):
        BFreeSpec((6, 10))
    with pytest.raises(ParameterError):
        BFreeSpec((1, 3))
    with pytest.raises(ParameterError):
        BFreeSpec((9, 4))  # not sorted


def test_bfree_spec_truncate():
    spec = BFreeSpec((4, 9, 25, 49))
    assert spec.truncate(2).members == (4, 9)
    assert spec.truncate(0).members == ()
    with pytest.raises(ParameterError):
        spec.truncate(5)


def test_bfree_empty_spec_is_all_free():
    free = bfree_indicator(BFreeSpec(()), 5)
    assert list(free) == [1] * 5


# ---------------------------------------------------------------------------
# Admissibility


def test_admissible_all_zero_block():
    assert is_admissible([0], BFreeSpec((2, 3, 5)))
    assert is_admissible([0, 0, 0], BFreeSpec((2, 3, 5)))


def test_admissible_empty_block():
    assert is_admissible([], BFreeSpec((2, 3)))


def test_not_admissible_when_residues_cover():
    # mod 2 both classes appear
    assert not is_admissible([0, 1], BFreeSpec((2,)))
    assert not is_admissible([0, 2, 4, 1], BFreeSpec((2,)))


def test_admissible_even_block():
    assert is_admissible([0, 2, 4, 6], BFreeSpec((2,)))
    # mod 3 covered by {0, 2, 4}: residues {0, 2, 1}
    assert not is_admissible([0, 2, 4], BFreeSpec((2, 3)))
    assert is_admissible([0, 6], BFreeSpec((2, 3)))


def test_admissible_skips_large_moduli():
    # 5 > block length 2, so only the modulus 2 matters
    assert is_admissible([0, 2], BFreeSpec((2, 5)))
    assert not is_admissible([0, 1], BFreeSpec((2, 5)))


def test_admissibility_report_details():
    rows = admissibility_report([0, 2], BFreeSpec((2, 5)))
    by_mod = {r.modulus: r for r in rows}
    assert by_mod[2].checked and by_mod[2].omitted_residue == 1
    assert not by_mod[5].checked


def test_admissible_respects_K_truncation():
    spec = BFreeSpec((2, 3))
    # block covers all residues mod 3 but K=1 only checks the modulus 2
    block = [0, 2, 4]
    assert not is_admissible(block, spec)
    assert is_admissible(block, spec.truncate(1))


# ---------------------------------------------------------------------------
# Serialization


SIEVES = {"mobius": sieve_mobius, "liouville": sieve_liouville}


@pytest.mark.parametrize("kind, bad", [("mobius", 2), ("mobius", -2), ("liouville", 5)])
def test_table_built_by_hand_refuses_values_out_of_range(tmp_path, kind, bad):
    values = SIEVES[kind](10)
    values[7] = bad
    with pytest.raises(ParameterError, match=r"not 10 values in \[-1, 1\]"):
        table_from_bytes(kind, table_bytes(kind, values))
    # a hand-written cache entry opens, but CacheEntry.read refuses its
    # values and serves them from a new sieve
    np.save(tmp_path / f"{kind}-10.npy", values)
    entry = harness.CacheEntry(kind, 10, tmp_path)
    assert entry.offset is not None
    assert np.array_equal(entry.read(0, 10), SIEVES[kind](10))
    assert np.array_equal(np.load(tmp_path / f"{kind}-10.npy"), SIEVES[kind](10))


def test_table_roundtrip_bytes():
    for code, (kind, sieve) in enumerate(SIEVES.items(), start=1):
        values = sieve(1000)
        blob = table_bytes(kind, values)
        assert blob == struct.pack("<6sHII", b"ATBL01", code, 1, 1000) + values.tobytes()
        assert np.array_equal(table_from_bytes(kind, blob), values)


def test_from_bytes_rejects_garbage():
    values = sieve_mobius(10)
    blob = table_bytes("mobius", values)
    header = struct.Struct("<6sHII")
    bad = [
        ("shorter than header", b"nope"),
        (r"magic b'\\xbeTBL01'", bytes([blob[0] ^ 0xFF]) + blob[1:]),
        ("body is not 10 values", blob[:-1]),
        ("body is not 10 values", blob + b"\0"),
        ("kind code 2", table_bytes("liouville", sieve_liouville(10))),
        ("kind code 3", header.pack(b"ATBL01", 3, 1, 10) + values.tobytes()),  # no bfree-indicator tables
        (r"\[2, 11\]", header.pack(b"ATBL01", 1, 2, 11) + values.tobytes()),  # nor windows off 1
        (r"\[1, 0\]", header.pack(b"ATBL01", 1, 1, 0)),
    ]
    for match, garbage in bad:
        with pytest.raises(ParameterError, match=match):
            table_from_bytes("mobius", garbage)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(SIEVES)), st.integers(min_value=1, max_value=2000))
def test_roundtrip_arbitrary_heads(kind, head):
    values = SIEVES[kind](head)
    assert np.array_equal(table_from_bytes(kind, table_bytes(kind, values)), values)
