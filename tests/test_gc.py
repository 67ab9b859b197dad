import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab._util import DEVIATION, generator
from ergolab.errors import ParameterError, ResourceLimitError
from ergolab.gc_stats import (
    BernoulliCoordinateFamily,
    FiniteFamily,
    RotationFamily,
    SubshiftWindowFamily,
    _distinct_rows,
    _pack_signs,
    covering_number,
    empirical_sample,
    empirical_sup_deviation,
    entropy_rate,
    is_shattered,
    shattering_dimension,
    shattering_probability,
)

import helpers

SQRT2M1 = math.sqrt(2) - 1


def pattern_family(k: int) -> FiniteFamily:
    """All 2^k zero-one patterns as functions on a k-point space."""
    rows = np.array(list(itertools.product([0.0, 1.0], repeat=k)))
    return FiniteFamily(rows)


# ---------------------------------------------------------------------------
# empirical sup deviation


def test_trivial_family_has_zero_deviation():
    fam = FiniteFamily(np.zeros((1, 4)))
    res = empirical_sup_deviation(fam, n=16, reps=8, seed=0)
    assert np.all(res.deviations == 0.0)


def test_finite_family_uses_exact_means():
    fam = FiniteFamily(np.array([[0.0, 1.0]]))  # mean 0.5 over two atoms
    res = empirical_sup_deviation(fam, n=4, reps=4, seed=1)
    # each deviation is |empirical mean - 0.5| which is a multiple of 0.25
    assert np.all(np.isin(res.deviations, [0.0, 0.25, 0.5]))


@pytest.mark.parametrize("matrix", [[[1, 2], [3]], [[1], [2, 3]], [[]], [], [1, 2]])
def test_finite_family_needs_a_rectangular_matrix(matrix):
    with pytest.raises(ParameterError):
        FiniteFamily(matrix)


def test_rotation_family_deviation_decays():
    fam = RotationFamily(SQRT2M1, size=64, check=True)
    med = {
        n: empirical_sup_deviation(fam, n=n, reps=32, seed=5).median
        for n in (64, 256, 1024)
    }
    assert med[64] / med[256] >= 1.5
    assert med[256] / med[1024] >= 1.5


def test_bernoulli_family_deviation_persists():
    for n in (8, 16):
        fam = BernoulliCoordinateFamily(size=2**n, p=0.5)
        res = empirical_sup_deviation(fam, n=n, reps=8, seed=2)
        assert res.deviations.min() >= 0.4


def test_deviation_reproducible_and_thread_independent():
    fam = BernoulliCoordinateFamily(size=64, p=0.5)
    a = empirical_sup_deviation(fam, n=8, reps=6, seed=9, threads=1)
    b = empirical_sup_deviation(fam, n=8, reps=6, seed=9, threads=3)
    assert np.array_equal(a.deviations, b.deviations)


@pytest.mark.parametrize("size, n, p", [(64, 8, 0.5), (4096, 1024, 0.5), (300, 77, 0.3)])
def test_int8_deviation_equals_the_float_mean_route(size, n, p):
    fam = BernoulliCoordinateFamily(size=size, p=p)
    res = empirical_sup_deviation(fam, n=n, reps=4, seed=11)
    for rep in range(4):
        matrix = empirical_sample(fam, n, generator(11, DEVIATION, rep)).matrix
        assert matrix.dtype == np.int8
        expect = float(np.abs(matrix.astype(np.float64).mean(axis=1) - fam.true_means()).max())
        assert res.deviations[rep] == expect


def test_seeds_draw_independent_reps():
    # seeds 0-3 XOR-ed into the rep index would share one multiset of 8 reps
    fam = RotationFamily(SQRT2M1, size=16, check=True)
    devs = [np.sort(empirical_sup_deviation(fam, n=32, reps=8, seed=s).deviations) for s in range(4)]
    for a, b in itertools.combinations(devs, 2):
        assert not np.array_equal(a, b)


def test_generator_tells_trailing_zero_keys_apart():
    # SeedSequence([s, 0]) would draw what default_rng(s) draws; spawn keys do not
    for seed in range(4):
        draws = [generator(seed, *key).random(4) for key in [(), (0,), (0, 0)]]
        for a, b in itertools.combinations(draws, 2):
            assert not np.array_equal(a, b)
        assert np.array_equal(draws[0], np.random.default_rng(seed).random(4))


# ---------------------------------------------------------------------------
# covering numbers


def test_covering_singleton():
    m = np.array([[0.3, 0.7, 0.1]])
    for norm in ("mean-l1", "linf"):
        c = covering_number(m, 0.01, norm)
        assert (c.upper, c.lower) == (1, 1)


def test_covering_two_separated_rows():
    m = np.array([[1.0, 1.0], [-1.0, -1.0]])
    for norm in ("mean-l1", "linf"):
        c = covering_number(m, 0.5, norm)
        assert (c.upper, c.lower) == (2, 2)
    # one giant ball suffices once eps exceeds the distance
    c = covering_number(m, 2.5, "linf")
    assert c.upper == 1


def test_covering_duplicates_collapse():
    m = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    c = covering_number(m, 0.1, "linf")
    assert c.upper == 2


def test_covering_monotone_in_eps():
    rng = np.random.default_rng(4)
    m = rng.random((60, 6))
    for norm in ("mean-l1", "linf"):
        sizes = [covering_number(m, e, norm) for e in (0.05, 0.1, 0.2, 0.4)]
        uppers = [c.upper for c in sizes]
        lowers = [c.lower for c in sizes]
        assert uppers == sorted(uppers, reverse=True)
        assert lowers == sorted(lowers, reverse=True)
        assert all(c.lower <= c.upper for c in sizes)


def test_covering_l1_below_linf_on_family_samples():
    rng = np.random.default_rng(8)
    fam = RotationFamily(SQRT2M1, size=48, check=True)
    pts = fam.sample_points(96, rng)
    m = fam.evaluate(pts)
    for eps in (0.05, 0.1, 0.3):
        c1 = covering_number(m, eps, "mean-l1")
        cinf = covering_number(m, eps, "linf")
        assert c1.upper <= cinf.upper


def test_covering_norm_validation():
    with pytest.raises(ParameterError):
        covering_number(np.ones((2, 2)), 0.1, "l2")
    for eps in (-0.1, 0.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            covering_number(np.ones((2, 2)), eps, "linf")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_covering_rejects_non_finite_entries(bad):
    m = np.array([[0.5, 1.0], [0.25, 0.0]])
    m[1, 0] = bad
    with pytest.raises(ParameterError, match="NaN or infinite"):
        covering_number(m, 0.1, "mean-l1")


COVER_EPS = (0.05, 0.1, 0.2, 0.3, 0.5, 1.0)
# few distinct values, so rows tie in column 0 and repeat; -0.0 == +0.0
_CELL = st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0])


@st.composite
def covering_matrices(draw):
    """1-30 rows on 1-6 columns, some repeated, with entries from _CELL
    or from all floats in [-2, 2] (first entries then mostly distinct)."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        cell = _CELL
    else:
        cell = st.floats(-2.0, 2.0, allow_nan=False)
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=1, max_size=25))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=5))]
    return np.array(draw(st.permutations(rows)))


@settings(max_examples=300, deadline=None)
@given(covering_matrices())
def test_distinct_rows_and_covering_match_numpy_unique(m):
    assert np.array_equal(_distinct_rows(m), helpers.ref_unique_rows(m))
    for norm in ("mean-l1", "linf"):
        for eps in COVER_EPS:
            c = covering_number(m, eps, norm)
            assert (c.upper, c.lower) == helpers.ref_covering_number(m, eps, norm)


def _sign_matrix(rng, rows, n, dtype):
    m = rng.choice(np.array([-1, 1], dtype=dtype), size=(rows, n))
    return np.concatenate([m, m[: rows // 4]])  # repeated rows


@pytest.mark.parametrize("dtype", [np.int8, np.float64])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 100])
def test_packed_sign_rows_match_numpy_unique(n, dtype):
    rng = np.random.default_rng(n)
    for rows in (1, 2, 50, 300):
        m = _sign_matrix(rng, rows, n, dtype)
        ref = helpers.ref_unique_rows(m)
        # the words sort as the rows they pack: unpacking gives np.unique's order
        words = _distinct_rows(_pack_signs(m))
        unpacked = np.unpackbits(words.astype(">u2").view(np.uint8), axis=1)[:, :n]
        assert np.array_equal(np.where(unpacked == 1, 1, -1), ref)
        for norm in ("mean-l1", "linf"):
            for eps in COVER_EPS:
                c = covering_number(m, eps, norm)
                assert (c.upper, c.lower) == helpers.ref_covering_number(m, eps, norm)


def test_covering_keeps_ties_at_the_radius_inside():
    # n = 10 and eps = 0.2: rows one entry apart are exactly 2/10 = eps apart,
    # which does not separate them
    m = np.ones((2, 10), dtype=np.int8)
    m[1, 3] = -1
    assert 2 * 1 / 10 == 0.2
    c = covering_number(m, 0.2, "mean-l1")
    assert (c.upper, c.lower) == (1, 1) == helpers.ref_covering_number(m, 0.2, "mean-l1")
    m[1, 4] = -1  # two entries apart: 0.4 > eps, but not > 2 * eps
    c = covering_number(m, 0.2, "mean-l1")
    assert (c.upper, c.lower) == (2, 1) == helpers.ref_covering_number(m, 0.2, "mean-l1")


@pytest.mark.parametrize("family", [
    RotationFamily(SQRT2M1, size=64, check=True),
    BernoulliCoordinateFamily(size=2048, p=0.5),
    BernoulliCoordinateFamily(size=512, p=0.8),
    SubshiftWindowFamily(np.where(np.random.default_rng(2).random(4000) < 0.5, 1.0, -1.0), size=300),
    SubshiftWindowFamily(np.random.default_rng(3).integers(-1, 2, 4000), size=300),
    FiniteFamily(np.random.default_rng(4).integers(-1, 2, (40, 9))),
], ids=["rotation", "bernoulli", "bernoulli-p0.8", "subshift-signs", "subshift-3", "finite"])
def test_covering_matches_reference_on_family_samples(family):
    for n in (1, 4, 9, 12, 40):
        m = family.evaluate(family.sample_points(n, generator(n, 5)))
        for norm in ("mean-l1", "linf"):
            for eps in COVER_EPS:
                c = covering_number(m, eps, norm)
                assert (c.upper, c.lower) == helpers.ref_covering_number(m, eps, norm)


# ---------------------------------------------------------------------------
# entropy rate


def test_entropy_rate_singleton_is_zero():
    fam = FiniteFamily(np.full((1, 3), 0.5))
    rows = entropy_rate(fam, ns=(4, 8), eps=0.1, norm="mean-l1", reps=4, seed=0)
    assert all(r.e_mean == 0.0 and r.e_std == 0.0 for r in rows)


def test_entropy_rate_rotation_decreases():
    fam = RotationFamily(SQRT2M1, size=64, check=True)
    rows = entropy_rate(fam, ns=(64, 256), eps=0.1, norm="mean-l1", reps=8, seed=3)
    assert rows[0].n == 64 and rows[1].n == 256
    assert rows[0].e_mean > rows[1].e_mean


def test_entropy_rate_bernoulli_stays_high():
    fam = BernoulliCoordinateFamily(size=1 << 12, p=0.5)
    rows = entropy_rate(fam, ns=(4, 8), eps=0.1, norm="mean-l1", reps=4, seed=7)
    for r in rows:
        assert r.e_mean >= 0.5 * math.log(2)


def test_entropy_rate_thread_independent():
    fam = BernoulliCoordinateFamily(size=256, p=0.5)
    a = entropy_rate(fam, ns=(4, 6), eps=0.1, norm="mean-l1", reps=6, seed=11, threads=1)
    b = entropy_rate(fam, ns=(4, 6), eps=0.1, norm="mean-l1", reps=6, seed=11, threads=4)
    assert [(r.n, r.e_mean, r.e_std) for r in a] == [(r.n, r.e_mean, r.e_std) for r in b]


# ---------------------------------------------------------------------------
# shattering


def test_is_shattered_two_functions_one_point():
    m = np.array([[0.0], [1.0]])
    assert is_shattered(m, 0.25, 0.75)


def test_is_shattered_full_pattern_family():
    fam = pattern_family(2)
    m = fam.evaluate(np.array([0, 1]))
    ok, witnesses = is_shattered(m, 0.25, 0.75, return_witnesses=True)
    assert ok
    assert len(witnesses) == 4
    for g, t in enumerate(witnesses):
        row = m[t]
        for i in range(2):
            if g & (1 << i):
                assert row[i] < 0.25
            else:
                assert row[i] > 0.75


def test_is_shattered_fails_with_missing_pattern():
    rows = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])  # (1,1) pattern missing
    assert not is_shattered(rows, 0.25, 0.75)


def test_is_shattered_antitone_in_gap():
    rows = np.array([[v1, v2] for v1 in (0.3, 0.7) for v2 in (0.3, 0.7)])
    assert not is_shattered(rows, 0.25, 0.75)
    assert is_shattered(rows, 0.4, 0.6)


def test_is_shattered_column_subsets():
    m = pattern_family(3).evaluate(np.array([0, 1, 2]))
    assert is_shattered(m, 0.25, 0.75)
    for cols in itertools.combinations(range(3), 2):
        assert is_shattered(m[:, list(cols)], 0.25, 0.75)


def test_is_shattered_validation():
    bad = [(0.75, 0.25), (0.5, 0.5), (math.nan, 0.5), (0.25, math.nan), (math.nan, math.nan),
           (-math.inf, 0.5), (0.25, math.inf)]
    for alpha, beta in bad:
        with pytest.raises(ParameterError):
            is_shattered(np.array([[0.0], [1.0]]), alpha, beta)
    with pytest.raises(ResourceLimitError):
        is_shattered(np.ones((2, 25)), 0.25, 0.75)


ALPHA, BETA = 0.25, 0.75
_BELOW = st.sampled_from([-1.0, 0.0, 0.2499])
_ABOVE = st.sampled_from([0.7501, 1.0, 2.0])
_ANY = st.sampled_from([-1.0, 0.0, ALPHA, 0.5, BETA, 1.0, math.nan])


@st.composite
def shatter_matrices(draw):
    """Up to 40 rows on n <= 5 columns: rows realizing chosen dichotomies
    (sometimes all of them), rows with entries at alpha, at beta, inside the
    gap or NaN, and duplicated rows, in any order."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        patterns = list(range(1 << n))
    else:
        patterns = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    rows = [[draw(_BELOW) if g >> i & 1 else draw(_ABOVE) for i in range(n)] for g in patterns]
    rows += draw(st.lists(st.lists(_ANY, min_size=n, max_size=n), min_size=0 if rows else 1, max_size=6))
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))]
    return np.array(draw(st.permutations(rows))[:40])


@settings(max_examples=300, deadline=None)
@given(shatter_matrices())
def test_is_shattered_matches_definition(m):
    shattered, witnesses = is_shattered(m, ALPHA, BETA, return_witnesses=True)
    ref_shattered, ref_witnesses = helpers.ref_is_shattered(m, ALPHA, BETA)
    assert shattered is ref_shattered
    assert is_shattered(m, ALPHA, BETA) is ref_shattered
    if ref_shattered:
        assert witnesses.tolist() == ref_witnesses
    else:
        assert witnesses is None


def _sign_rows(patterns, n: int) -> np.ndarray:
    """int8 rows, -1 on the set bits of each pattern and +1 on the others."""
    bits = (np.asarray(patterns, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    return (1 - 2 * bits).astype(np.int8)


@pytest.mark.parametrize("n", [7, 8, 9, 16, 17, 24])
def test_is_shattered_on_int8_and_bool_matches_float64(n):
    # int8 at (-0.5, 0.5): -1 below, 0 undecided, +1 above; bool at (0.25, 0.75)
    rng = np.random.default_rng(n)
    matrices = []
    if n <= 17:
        order = rng.permutation(1 << n)  # every dichotomy once, in this order, then repeats
        rows = _sign_rows(np.concatenate([order, rng.integers(0, 1 << n, 1 << 10)]), n)
        rows[rng.integers(len(order), len(rows), 256), rng.integers(0, n, 256)] = 0
        # witnesses[G] is G's first row; without its all-above rows no row realizes G = 0
        matrices += [(rows, np.argsort(order)), (rows[~(rows > 0).all(axis=1)], None)]
    else:
        matrices.append((rng.integers(-1, 2, size=(4096, n)).astype(np.int8), None))
    for rows, witnesses in matrices:
        for m, alpha, beta in [(rows, -0.5, 0.5), (rows > 0, 0.25, 0.75)]:
            shattered, got = is_shattered(m, alpha, beta, return_witnesses=True)
            as_float = is_shattered(m.astype(np.float64), alpha, beta, return_witnesses=True)
            assert shattered is as_float[0] is (witnesses is not None)
            if witnesses is None:
                assert got is None and as_float[1] is None
            else:
                assert got.tolist() == as_float[1].tolist() == witnesses.tolist()
            if witnesses is None or n <= 9:  # the reference scans rows per dichotomy
                ref_shattered, ref_witnesses = helpers.ref_is_shattered(m, alpha, beta)
                assert ref_shattered is shattered
                assert ref_witnesses == (None if got is None else got.tolist())


def test_is_shattered_int8_peak_under_three_bytes_per_entry():
    # NumPy reports its buffers to tracemalloc, so the peak is deterministic
    m = np.random.default_rng(3).choice(np.array([-1, 1], dtype=np.int8), size=(65536, 12))
    tracemalloc.start()
    try:
        is_shattered(m, -0.5, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * m.size


def test_rotation_values_have_the_bits_of_the_one_expression_rule():
    rng = np.random.default_rng(24)
    edges = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    points = np.concatenate([rng.integers(0, 2**64, size=1 << 20, dtype=np.uint64), edges])
    fam = RotationFamily(SQRT2M1, size=2, check=True)
    got = fam.evaluate(points)
    expect = helpers.ref_rotation_values(fam.alpha_state, 2, points)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))


def test_rotation_translates_realize_at_most_2n_dichotomies():
    # A row decides a dichotomy when every column is < alpha or > beta; the
    # pattern is the set of columns below alpha.  Translates of one unimodal
    # circle function decide at most 2n distinct patterns, fewer than 2^n
    # for n >= 3, so no such sample is shattered.
    fam = RotationFamily(SQRT2M1, size=256, check=True)
    rng = np.random.default_rng(7)
    for n in range(3, 9):
        for _ in range(200):
            m = fam.evaluate(fam.sample_points(n, rng))
            low, high = m < 0.25, m > 0.75
            patterns = {row.tobytes() for row in low[(low | high).all(axis=1)]}
            assert len(patterns) <= 2 * n
            assert not is_shattered(m, 0.25, 0.75)
    pairs = [fam.evaluate(fam.sample_points(2, rng)) for _ in range(200)]
    assert any(is_shattered(m, 0.25, 0.75) for m in pairs)


def test_shattering_probability_bernoulli_high():
    fam = BernoulliCoordinateFamily(size=256, p=0.5)
    res = shattering_probability(fam, n=4, alpha=-0.5, beta=0.5, reps=32, seed=13)
    assert res.fraction >= 0.9
    assert res.root == pytest.approx(res.fraction ** (1 / 4))


def test_shattering_probability_trivial_family_zero():
    fam = FiniteFamily(np.zeros((1, 5)))
    res = shattering_probability(fam, n=1, alpha=0.25, beta=0.75, reps=16, seed=0)
    assert res.fraction == 0.0 and res.root == 0.0


def test_shattering_probability_reproducible():
    fam = BernoulliCoordinateFamily(size=64, p=0.5)
    a = shattering_probability(fam, n=6, alpha=-0.5, beta=0.5, reps=16, seed=21, threads=1)
    b = shattering_probability(fam, n=6, alpha=-0.5, beta=0.5, reps=16, seed=21, threads=2)
    assert a.fraction == b.fraction


def test_shattering_dimension_of_pattern_family():
    fam = pattern_family(4)
    dim = shattering_dimension(fam, 0.25, 0.75, budget=1000, seed=3)
    assert dim == 4


def test_shattering_dimension_trivial():
    fam = FiniteFamily(np.zeros((1, 3)))
    assert shattering_dimension(fam, 0.25, 0.75, budget=100, seed=0) == 0


@pytest.mark.parametrize("n, size", [(11, 37), (3, 50_000)])  # the second spans draw chunks
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_bernoulli_sample_points_match_where_form(p, n, size):
    fam = BernoulliCoordinateFamily(size=size, p=p)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = fam.sample_points(n, rng)
    expect = np.where(ref_rng.random((n, size)) < p, 1, -1).astype(np.int8)
    assert got.dtype == np.int8
    assert np.array_equal(got, expect)
    assert rng.random() == ref_rng.random()


def test_bernoulli_int8_matrix_gives_float64_results():
    fam = BernoulliCoordinateFamily(size=300, p=0.4)
    for n in (7, 40):
        m = fam.evaluate(fam.sample_points(n, np.random.default_rng(n)))
        as_float = m.astype(np.float64)
        assert np.array_equal(m.mean(axis=1), as_float.mean(axis=1))
        for norm in ("mean-l1", "linf"):
            for eps in (0.05, 0.2, 0.6):
                assert covering_number(m, eps, norm) == covering_number(as_float, eps, norm)


# ---------------------------------------------------------------------------
# subshift window family


def test_subshift_family_reads_windows():
    values = np.arange(10, dtype=np.float64)
    fam = SubshiftWindowFamily(values, size=3)
    pts = np.array([0, 4])
    m = fam.evaluate(pts)
    assert m.shape == (3, 2)
    assert list(m[:, 0]) == [0.0, 1.0, 2.0]
    assert list(m[:, 1]) == [4.0, 5.0, 6.0]
    assert np.allclose(fam.true_means(), values.mean())
