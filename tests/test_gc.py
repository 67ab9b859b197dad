import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.errors import ParameterError, ResourceLimitError
from ergolab.gc_stats import (
    BernoulliCoordinateFamily,
    FiniteFamily,
    RotationFamily,
    SubshiftWindowFamily,
    covering_number,
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
    fam = RotationFamily(SQRT2M1, size=64)
    med = {
        n: empirical_sup_deviation(fam, n=n, reps=32, seed=5).median
        for n in (64, 256, 1024)
    }
    assert med[64] / med[256] >= 1.5
    assert med[256] / med[1024] >= 1.5


def test_bernoulli_family_deviation_persists():
    for n in (8, 16):
        fam = BernoulliCoordinateFamily(size=2**n)
        res = empirical_sup_deviation(fam, n=n, reps=8, seed=2)
        assert res.deviations.min() >= 0.4


def test_deviation_reproducible_and_thread_independent():
    fam = BernoulliCoordinateFamily(size=64)
    a = empirical_sup_deviation(fam, n=8, reps=6, seed=9, threads=1)
    b = empirical_sup_deviation(fam, n=8, reps=6, seed=9, threads=3)
    assert np.array_equal(a.deviations, b.deviations)


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
    fam = RotationFamily(SQRT2M1, size=48)
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


# ---------------------------------------------------------------------------
# entropy rate


def test_entropy_rate_singleton_is_zero():
    fam = FiniteFamily(np.full((1, 3), 0.5))
    rows = entropy_rate(fam, ns=(4, 8), eps=0.1, reps=4, seed=0)
    assert all(r.e_mean == 0.0 and r.e_std == 0.0 for r in rows)


def test_entropy_rate_rotation_decreases():
    fam = RotationFamily(SQRT2M1, size=64)
    rows = entropy_rate(fam, ns=(64, 256), eps=0.1, reps=8, seed=3)
    assert rows[0].n == 64 and rows[1].n == 256
    assert rows[0].e_mean > rows[1].e_mean


def test_entropy_rate_bernoulli_stays_high():
    fam = BernoulliCoordinateFamily(size=1 << 12)
    rows = entropy_rate(fam, ns=(4, 8), eps=0.1, reps=4, seed=7)
    for r in rows:
        assert r.e_mean >= 0.5 * math.log(2)


def test_entropy_rate_thread_independent():
    fam = BernoulliCoordinateFamily(size=256)
    a = entropy_rate(fam, ns=(4, 6), eps=0.1, reps=6, seed=11, threads=1)
    b = entropy_rate(fam, ns=(4, 6), eps=0.1, reps=6, seed=11, threads=4)
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


def test_rotation_translates_realize_at_most_2n_dichotomies():
    # A row decides a dichotomy when every column is < alpha or > beta; the
    # pattern is the set of columns below alpha.  Translates of one unimodal
    # circle function decide at most 2n distinct patterns, fewer than 2^n
    # for n >= 3, so no such sample is shattered.
    fam = RotationFamily(SQRT2M1, size=256)
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
    fam = BernoulliCoordinateFamily(size=256)
    res = shattering_probability(fam, n=4, alpha=-0.5, beta=0.5, reps=32, seed=13)
    assert res.fraction >= 0.9
    assert res.root == pytest.approx(res.fraction ** (1 / 4))


def test_shattering_probability_trivial_family_zero():
    fam = FiniteFamily(np.zeros((1, 5)))
    res = shattering_probability(fam, n=1, alpha=0.25, beta=0.75, reps=16, seed=0)
    assert res.fraction == 0.0 and res.root == 0.0


def test_shattering_probability_reproducible():
    fam = BernoulliCoordinateFamily(size=64)
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
