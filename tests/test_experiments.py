import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergolab import experiments
from ergolab._util import DRAW_CHUNK, WALK, generator
from ergolab.arith import sieve_liouville, sieve_mobius
from ergolab.averaging import folner_average
from ergolab.dynsys import TableStream, VeechSpec, rotation_orbit
from ergolab.errors import ParameterError
from ergolab.experiments import (
    _SERIES_BLOCK,
    _SUP_BLOCK,
    MAX_FFT,
    _h_floor,
    _local_series,
    _PackedWalk,
    DavenportResult,
    _fit_decay,
    average_chowla,
    chowla_decay,
    correlations,
    davenport_sum,
    disjointness_sum,
    interval_second_moment,
    mertens_prefix,
    partition_mertens_sum,
    random_mertens_sim,
    short_interval_sup,
    zhan_sup,
)

import helpers

SQRT2M1 = math.sqrt(2) - 1


KIND_VALUES = {
    "mobius": sieve_mobius(20_000),
    "liouville": sieve_liouville(20_000),
    "ones": np.ones(20_000, dtype=np.int8),
}


# ---------------------------------------------------------------------------
# disjointness sums


class TestDisjointness:
    def test_constant_observable_gives_mertens_average(self):
        mu = sieve_mobius(10)
        res = disjointness_sum(mu, TableStream(np.ones(11)), 10)
        assert res.value == pytest.approx(-0.1, abs=1e-15)
        assert len(res.path) == 10
        assert res.path[0] == pytest.approx(1.0)  # mu(1) * 1

    def test_zero_weights_give_zero(self):
        res = disjointness_sum(np.zeros(10, dtype=np.int8), TableStream(np.ones(11)), 10)
        assert res.value == 0

    def test_partial_sum_path_matches_direct(self):
        mu = sieve_mobius(50)
        vals = np.arange(51, dtype=np.float64)
        res = disjointness_sum(mu, TableStream(vals), 50)
        # n-th term pairs mu(n) with the n-th iterate of the stream start
        direct = np.cumsum(mu[:50] * vals[1:51]) / np.arange(1, 51)
        assert np.allclose(res.path, direct, atol=1e-12)

    def test_bounded_by_folner_average(self):
        n = 4096
        mu = sieve_mobius(n)
        res = disjointness_sum(mu, rotation_orbit(SQRT2M1, x0=0.0, check=True), n)
        assert abs(res.value) <= folner_average(np.abs(mu), n) + 1e-12

    def test_rotation_average_is_small(self):
        n = 10_000
        mu = sieve_mobius(n)
        res = disjointness_sum(mu, rotation_orbit(SQRT2M1, x0=0.0, check=True), n)
        assert abs(res.value) <= 10 / math.log(n) ** 2

    def test_short_table_rejected(self):
        mu = sieve_mobius(5)
        with pytest.raises(ParameterError):
            disjointness_sum(mu, TableStream(np.ones(11)), 10)

    def test_short_stream_rejected(self):
        mu = sieve_mobius(10)
        with pytest.raises(ParameterError):
            disjointness_sum(mu, TableStream(np.ones(5)), 10)


# ---------------------------------------------------------------------------
# exponential-sum maximization


class TestDavenport:
    def test_theta0_is_exact_mertens_magnitude(self):
        mu = sieve_mobius(10)
        res = davenport_sum(mu, 10, a=2.0, refine=True)
        assert res.theta0 == 1
        assert isinstance(res.theta0, int)

    def test_theta0_matches_prefix_for_larger_x(self):
        mu = sieve_mobius(1000)
        prefix = mertens_prefix(mu)
        for x in (100, 1000):
            res = davenport_sum(mu, x, a=2.0, refine=True)
            assert res.theta0 == abs(prefix[x])

    def test_all_ones_peaks_at_zero(self):
        res = davenport_sum(np.ones(16, dtype=np.int8), 16, a=2.0, refine=True)
        assert res.max_value == pytest.approx(16.0, rel=1e-12)
        tau = 2 * math.pi
        assert min(res.argmax_theta, tau - res.argmax_theta) < 1e-6

    def test_refinement_never_loses_to_grid(self):
        mu = sieve_mobius(500)
        res = davenport_sum(mu, 500, a=2.0, refine=True)
        assert res.max_value >= res.grid_max - 1e-12

    def test_grid_is_dense_power_of_two(self):
        mu = sieve_mobius(100)
        res = davenport_sum(mu, 100, a=2.0, refine=True)
        assert res.grid_size >= 4 * 100
        assert res.grid_size & (res.grid_size - 1) == 0

    def test_ratio_definition(self):
        mu = sieve_mobius(200)
        res = davenport_sum(mu, 200, a=2.0, refine=True)
        assert res.ratio == pytest.approx(res.max_value / (200 / math.log(200) ** 2))

    def test_max_value_lower_bounds_column_sum(self):
        # the reported max is a lower bound for the true sup, which is at
        # most the l1 mass of the coefficient vector
        mu = sieve_mobius(300)
        res = davenport_sum(mu, 300, a=2.0, refine=True)
        assert res.max_value <= np.abs(mu[:300].astype(np.int64)).sum() + 1e-9

    def test_oversized_transform_rejected(self):
        mu = sieve_mobius(10)
        with pytest.raises(ParameterError):
            davenport_sum(mu, 1 << 24, a=2.0, refine=True)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(KIND_VALUES)), st.integers(2, 400))
    @example("mobius", 20_000)
    @example("liouville", 20_000)
    def test_matches_golden_section_oracle(self, kind, x):
        ref = helpers.ref_davenport(KIND_VALUES[kind], x)
        res = davenport_sum(KIND_VALUES[kind], x, a=2.0, refine=True)
        assert (res.grid_size, res.theta0, res.grid_max) == (ref["grid_size"], ref["theta0"], ref["grid_max"])
        assert res.max_value == pytest.approx(max(ref["grid_max"], ref["value_r"]), rel=1e-8)
        assert res.max_value >= res.grid_max >= res.theta0
        offset = (res.argmax_theta - ref["center"] + math.pi) % (2 * math.pi) - math.pi
        assert abs(offset) <= ref["step"] * (1 + 1e-9)

    @pytest.mark.parametrize("kind", sorted(KIND_VALUES))
    @pytest.mark.parametrize("x", [2, 3, 17, 300, 20_000])
    def test_unrefined_result_is_the_grid(self, kind, x):
        ref = helpers.ref_davenport(KIND_VALUES[kind], x)
        res = davenport_sum(KIND_VALUES[kind], x, a=2.0, refine=False)
        grid_max = ref["grid_max"]
        assert res == DavenportResult(
            x, 2.0, ref["grid_size"], ref["theta0"], grid_max, grid_max, ref["center"],
            grid_max / (x / math.log(x) ** 2.0),
        )

    @pytest.mark.parametrize("kind", ["mobius", "liouville"])
    def test_centred_series_matches_direct_sums_across_blocks(self, kind):
        # x spans two block boundaries; for |t| <= 1 the 20-term series about
        # the middle index equals |S| up to rounding (its truncation is below
        # 4e-21 sum|v|; the direct sums round k*theta ~ 1e3 to ~1e-13)
        x = 2 * _SERIES_BLOCK + 12_345
        table = sieve_mobius(x) if kind == "mobius" else sieve_liouville(x)
        v = table.astype(np.float64)
        ks = np.arange(1, x + 1, dtype=np.float64)
        step = 2 * math.pi / (1 << (4 * x - 1).bit_length())
        center = 1234 * step
        coeffs = _local_series(table, center, step)
        for t in (-1.0, -0.37, 0.0, 0.5, 1.0):
            series = abs(sum(c * t**m for m, c in enumerate(coeffs)))
            direct = abs(np.sum(v * np.exp(1j * (center + t * step) * ks)))
            assert series == pytest.approx(direct, abs=1e-12 * np.abs(v).sum())

    def test_uncovered_x_rejected(self):
        mu = sieve_mobius(10)
        with pytest.raises(ParameterError):
            davenport_sum(mu, 20, a=2.0, refine=True)


# ---------------------------------------------------------------------------
# correlations and their averages


class TestCorrelations:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 24).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.sampled_from([-1, 0, 1]), min_size=2 * n, max_size=2 * n)
            )
        )
    )
    def test_both_methods_match_reference(self, case):
        n, vals = case
        arr = np.array(vals, dtype=np.int8)
        expect = np.array([helpers.ref_correlation(vals, m, n) for m in range(1, n + 1)])
        assert np.array_equal(correlations(arr, n, method="direct"), expect)
        assert np.array_equal(correlations(arr, n, method="fft"), expect)

    @pytest.mark.parametrize("sieve", [sieve_mobius, sieve_liouville])
    def test_fft_equals_direct_at_4096(self, sieve):
        n = 1 << 12
        values = sieve(2 * n)
        assert np.array_equal(
            correlations(values, n, method="fft"), correlations(values, n, method="direct")
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 4095, 4096, 4097])
    @pytest.mark.parametrize("kind", ["mobius", "liouville", "ones"])
    def test_fft_equals_direct_at_transform_edges(self, kind, n):
        # 2n at, just below and just past a power of two (the length-2n
        # transform's tightest fits); all ones gives the largest |c(m)| = n
        values = KIND_VALUES[kind][: 2 * n]
        fft = correlations(values, n)
        assert np.array_equal(fft, correlations(values, n, method="direct"))
        if kind == "ones":
            assert np.all(fft == n)

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError):
            correlations(np.ones(8), 4, method="magic")

    def test_short_input_rejected(self):
        with pytest.raises(ParameterError):
            correlations(np.ones(7), 4)

    def test_transform_past_the_cap_rejected(self, monkeypatch):
        monkeypatch.setattr(experiments, "MAX_FFT", 16)
        assert np.array_equal(correlations(np.ones(16, dtype=np.int8), 8), np.full(8, 8))  # pad 16
        for method in ("fft", "direct"):
            with pytest.raises(ParameterError, match="exceeds the memory cap 16"):
                correlations(np.ones(18, dtype=np.int8), 9, method=method)  # pad 32


class TestAverageChowla:
    def test_all_ones_is_one(self):
        res = average_chowla(np.ones(64, dtype=np.int8), 32)
        assert res.value == 1.0
        assert res.numerator == 32 * 32

    def test_alternating_signs_is_one(self):
        vals = np.array([(-1) ** n for n in range(1, 65)], dtype=np.int8)
        assert average_chowla(vals, 32).value == 1.0

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(7)
        vals = rng.choice([-1, 1], size=128).astype(np.int8)
        assert average_chowla(vals, 64).numerator == average_chowla(-vals, 64).numerator

    def test_iid_signs_match_sqrt_scale(self):
        n = 1 << 14
        rng = np.random.default_rng(1234)
        vals = rng.choice([-1, 1], size=2 * n).astype(np.int8)
        res = average_chowla(vals, n)
        target = math.sqrt(2 / (math.pi * n))
        assert target / 3 < res.value < 3 * target

    def test_short_table_rejected(self):
        with pytest.raises(ParameterError):
            average_chowla(sieve_mobius(100), 64)


class TestChowlaDecay:
    def test_constant_weights_flagged_non_decaying(self):
        series = chowla_decay(np.ones(512, dtype=np.int8), (64, 128, 256))
        assert np.allclose(series.values, 1.0)
        assert abs(series.kappa) < 1e-9
        assert series.c == pytest.approx(1.0)
        assert not series.strictly_decreasing

    def test_liouville_values_positive_with_positive_kappa(self):
        series = chowla_decay(sieve_liouville(1 << 15), (1 << 10, 1 << 12, 1 << 14))
        assert np.all(series.values > 0)
        assert series.kappa > 0
        diffs = np.diff(series.values)
        assert series.strictly_decreasing == bool(np.all(diffs < 0))

    def test_fit_reproduces_exact_power_law(self):
        # synthetic series following C / (log N)^kappa exactly
        ns = (1 << 8, 1 << 10, 1 << 12, 1 << 14)
        logs = np.log(np.log(np.array(ns, dtype=float)))
        fake = np.exp(0.7 - 1.3 * logs)
        refit = _fit_decay(ns, fake)
        assert refit.kappa == pytest.approx(1.3, abs=1e-9)
        assert refit.c == pytest.approx(math.exp(0.7), rel=1e-9)
        assert refit.residual < 1e-12

    def test_schedule_must_increase(self):
        with pytest.raises(ParameterError):
            chowla_decay(sieve_mobius(512), (256, 128))

    def test_schedule_starts_at_two(self):
        # log log 1 is -inf, which the fit cannot take
        with pytest.raises(ParameterError, match=">= 2"):
            chowla_decay(np.ones(8, dtype=np.int8), (1, 2))
        assert chowla_decay(np.ones(8, dtype=np.int8), (2, 4)).abscissae == (2, 4)

    def test_short_values_rejected(self):
        with pytest.raises(ParameterError):
            chowla_decay(np.ones(255, dtype=np.int8), (64, 128))


# ---------------------------------------------------------------------------
# short-interval statistics


class TestShortInterval:
    def test_tau_one_single_endpoint(self):
        mu = sieve_mobius(200)
        prefix = mertens_prefix(mu)
        res = short_interval_sup(helpers.walk_of(mu), 100, 1.0)
        assert res.h_min == res.h_max == 100
        assert res.argmax_h == 100
        assert res.sup == abs(prefix[200] - prefix[100]) / 100

    def test_flat_prefix_gives_zero(self):
        vals = np.zeros(41, dtype=np.int64)
        vals[1:11] = np.arange(1, 11)
        vals[11:] = 10
        res = short_interval_sup(helpers.walk_of_prefix(vals), 12, 0.5)
        assert res.sup == 0.0
        assert res.argmax_h == res.h_min

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=60, max_size=60), st.floats(0.1, 1.0))
    def test_matches_brute_force(self, steps, tau):
        vals = np.concatenate([[0], np.cumsum(steps)]).astype(np.int64)
        x = 20
        res = short_interval_sup(helpers.walk_of(steps), x, tau)
        h_lo = math.ceil(x**tau)
        brute = max(abs(int(vals[x + h]) - int(vals[x])) / h for h in range(h_lo, x + 1))
        assert res.sup == pytest.approx(brute, abs=1e-15)

    def test_prefix_too_small(self):
        walk = helpers.walk_of(sieve_mobius(100))
        with pytest.raises(ParameterError):
            short_interval_sup(walk, 60, 0.5)


# x values on both sides of block boundaries, plus the x whose h range at
# tau = 0.5 is one short of a block and the x whose range is exactly one block
_BLOCK_XS = sorted(
    {1, 2, 3, 100, _SUP_BLOCK - 1, _SUP_BLOCK, _SUP_BLOCK + 1, 2 * _SUP_BLOCK - 1, 2 * _SUP_BLOCK,
     3 * _SUP_BLOCK + 7, 5000, 12_345, 19_999, 20_000}
    | {next(x for x in range(_SUP_BLOCK, 4 * _SUP_BLOCK) if x - _h_floor(x, 0.5) + 1 == size)
       for size in (_SUP_BLOCK - 1, _SUP_BLOCK)}
)


class TestIntervalSupOracle:
    """short_interval_sup against a direct per-h scan, at sizes that cross
    many blocks of the bounded scan; value and argmax_h compared with ==."""

    @pytest.mark.parametrize("source", ["mobius", "walk", "biased", "ones", "minus-ones", "flat"])
    def test_matches_direct_scan(self, source):
        n = 2 * _BLOCK_XS[-1]
        rng = np.random.default_rng(17)
        if source == "mobius":
            steps = sieve_mobius(n)
        elif source == "flat":
            steps = np.zeros(n, dtype=np.int8)
        else:
            p = {"walk": 0.5, "biased": 0.7, "ones": 1.0, "minus-ones": 0.0}[source]
            steps = np.where(rng.random(n) < p, 1, -1)
        prefix = np.concatenate([[0], np.cumsum(steps, dtype=np.int64)])
        walk = helpers.walk_of(steps)
        for tau in (0.05, 0.3, 0.5, 0.8, 1.0):
            for x in _BLOCK_XS:
                res = short_interval_sup(walk, x, tau)
                expect = helpers.ref_interval_sup(prefix, x, res.h_min)
                assert (res.sup, res.argmax_h) == expect, (source, tau, x)

    def test_tie_across_blocks_goes_to_smallest_h(self):
        # h1 starts a block and h2 = 2 h1 lies in the next one, with
        # M(x+h2) - M(x) = 2 (M(x+h1) - M(x)) and 0 elsewhere: both ratios
        # are 3/h1, and the later block has the larger bound, so the tied
        # earlier block must still be scanned
        x = 5000
        h1 = -(-(x + _SUP_BLOCK) // _SUP_BLOCK) * _SUP_BLOCK - x
        assert h1 > _SUP_BLOCK and (x + 2 * h1) // _SUP_BLOCK == (x + h1) // _SUP_BLOCK + 1
        vals = np.zeros(2 * x + 1, dtype=np.int64)
        vals[x + h1] = 3
        vals[x + 2 * h1] = 6
        res = short_interval_sup(helpers.walk_of_prefix(vals), x, 0.05)
        assert (res.sup, res.argmax_h) == (3 / h1, h1)
        assert (res.sup, res.argmax_h) == helpers.ref_interval_sup(vals, x, res.h_min)


class TestSecondMoment:
    def test_all_ones_gives_h_squared(self):
        res = interval_second_moment(helpers.walk_of(np.ones(200)), 50, 7)
        assert res.value == 49.0
        assert res.normalized == 1.0

    def test_h_below_one_is_rejected(self):
        # an empty interval has no second moment to normalize
        for h in (0, -3):
            with pytest.raises(ParameterError, match="h >= 1"):
                interval_second_moment(helpers.walk_of(sieve_mobius(100)), 30, h)

    def test_matches_brute_force(self):
        mu = sieve_mobius(300)
        prefix = mertens_prefix(mu)
        big_x, h = 80, 11
        res = interval_second_moment(helpers.walk_of(mu), big_x, h)
        brute = sum(
            (prefix[x + h] - prefix[x]) ** 2 for x in range(big_x, 2 * big_x)
        ) / big_x
        assert res.value == pytest.approx(brute, abs=1e-12)

    def test_range_exceeding_prefix(self):
        walk = helpers.walk_of(sieve_mobius(100))
        with pytest.raises(ParameterError):
            interval_second_moment(walk, 49, 10)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_sum_of_squares_past_int32(self, dtype):
        # the all-ones walk at X = 10^5, h = 10^3: sum of Delta^2 = 10^11 > 2^31
        walk = helpers.walk_of_prefix(np.arange(201_001, dtype=dtype))
        assert interval_second_moment(walk, 10**5, 10**3).value == 1e6


class TestPartition:
    def test_unit_steps_count_squarefree(self):
        res = partition_mertens_sum(helpers.walk_of(sieve_mobius(10)), range(1, 11))
        squarefree = sum(1 for n in range(2, 11) if helpers.ref_squarefree(n))
        assert res.ratio == squarefree / 10
        # per-step signs follow mu(k+1), with ties going to +1
        assert res.signs[0] == -1  # mu(2) = -1
        assert res.signs[2] == 1  # mu(4) = 0 -> +1

    def test_single_interval(self):
        mu = sieve_mobius(100)
        prefix = mertens_prefix(mu)
        res = partition_mertens_sum(helpers.walk_of(mu), (10, 100))
        assert res.ratio == abs(prefix[100] - prefix[10]) / 100

    def test_growing_gaps_materialize_step_function(self):
        res = partition_mertens_sum(helpers.walk_of(sieve_mobius(30)), (1, 4, 9, 16, 25))
        assert isinstance(res.veech, VeechSpec)
        assert res.veech.starts == (1, 4, 9, 16, 25)
        assert res.veech.signs == tuple(res.signs)

    def test_flat_gaps_do_not_materialize(self):
        res = partition_mertens_sum(helpers.walk_of(sieve_mobius(10)), range(1, 11))
        assert res.veech is None

    def test_results_compare_by_identity(self):
        walk = helpers.walk_of(sieve_mobius(10))
        res, again = (partition_mertens_sum(walk, range(1, 11)) for _ in range(2))
        assert res == res and res != again and hash(res) != hash(again)

    def test_non_monotone_rejected(self):
        walk = helpers.walk_of(sieve_mobius(100))
        with pytest.raises(ParameterError):
            partition_mertens_sum(walk, (1, 5, 5, 10))

    def test_beyond_limit_rejected(self):
        walk = helpers.walk_of(sieve_mobius(50))
        with pytest.raises(ParameterError):
            partition_mertens_sum(walk, (1, 10, 60))


# the checkpoint walk at tiny blocks, read three blocks at a time, and tables
# that end on and off a block and a read
SMALL_BLOCK, SMALL_SEGMENT = 8, 20
WALK_LENGTHS = [1, 2, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 3 * SMALL_SEGMENT, 401]


@pytest.fixture()
def small_walks(monkeypatch):
    monkeypatch.setattr(experiments, "_SUP_BLOCK", SMALL_BLOCK)
    monkeypatch.setattr(experiments, "_SEGMENT", SMALL_SEGMENT + 4)
    monkeypatch.setattr(experiments, "_AT_BLOCKS", 3)


def mu_like(n: int, seed: int) -> np.ndarray:
    """A random table of -1, 0 and 1, with runs of each, like mu."""
    rng = np.random.default_rng(seed)
    return np.repeat(rng.integers(-1, 2, n), rng.integers(1, 4, n))[:n].astype(np.int8)


def prefix_of(values) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(values, dtype=np.int64)])


class TestMertensWalk:
    @pytest.mark.parametrize("n", WALK_LENGTHS)
    def test_values_match_the_prefix(self, small_walks, n):
        values = mu_like(n, n)
        prefix = prefix_of(values)
        walk = helpers.walk_of(values)
        assert len(walk) == n + 1
        assert np.array_equal(walk.starts, prefix[np.minimum(np.arange(len(walk.starts)) * SMALL_BLOCK, n)])
        assert [walk[k] for k in range(n + 1)] == prefix.tolist()
        for lo, hi in [(0, n + 1), (1, n), (n // 3, n // 2 + 5), (n, n + 1), (3, 3), (5, 2)]:
            assert walk[lo:hi].dtype == np.int32 and np.array_equal(walk[lo:hi], prefix[lo:hi])
        rng = np.random.default_rng(n)
        for size in (1, n // 5 + 1, 3 * n):  # sparse and dense index sets
            idx = np.sort(rng.integers(0, n + 1, size))
            assert np.array_equal(walk[idx], prefix[idx])
        with pytest.raises(IndexError):
            walk[n + 1]

    @pytest.mark.parametrize("n", WALK_LENGTHS)
    def test_every_value_lies_inside_the_envelope(self, small_walks, n):
        values = mu_like(n, 7 * n)
        prefix = prefix_of(values)
        upper, lower = helpers.walk_of(values).envelope()
        blocks = helpers.ref_block_extrema(prefix, 0, n)
        assert blocks[0] == 0 and len(upper) == len(lower) == len(blocks[1])
        assert np.all(upper >= blocks[1]) and np.all(lower <= blocks[2])
        # no wider than the block's count of nonzero values
        mass = np.add.reduceat(np.abs(values), np.arange(0, n, SMALL_BLOCK))[: len(upper)] if n else []
        assert np.all(upper - lower <= mass)

    def test_kernels_match_the_oracles(self, small_walks):
        n = 401
        for seed in range(4):
            values = mu_like(n, seed)
            prefix = prefix_of(values)
            walk = helpers.walk_of(values)
            for x in {1, 2, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 3 * SMALL_BLOCK, 101, 199, n // 2}:
                for tau in (0.05, 0.3, 0.5, 1.0):
                    res = short_interval_sup(walk, x, tau)
                    assert (res.sup, res.argmax_h) == helpers.ref_interval_sup(prefix, x, res.h_min), (seed, x, tau)
            for big_x, h in [(1, 1), (5, 3), (60, 7), (60, 23), (60, 25), (100, 200)]:  # h past _SEGMENT too
                squares = sum(int(prefix[y + h] - prefix[y]) ** 2 for y in range(big_x, 2 * big_x))
                assert interval_second_moment(walk, big_x, h).value == squares / big_x
            for points in (np.arange(1, 21) ** 2, np.arange(1, n + 1), np.array([1, 7, 8, 9, 16, 400, 401])):
                res = partition_mertens_sum(walk, points)
                assert np.array_equal(res.deltas, np.diff(prefix[points]))
                assert res.abs_sum == int(np.abs(np.diff(prefix[points])).sum())

    @pytest.mark.parametrize("segment, block", [(100, 16), (8, 16)])
    def test_checkpoints_come_from_whole_blocks_read_in_chunks(self, monkeypatch, segment, block):
        # the walk reads block * max(1, segment // block) values at a time: 96 and 16 here
        monkeypatch.setattr(experiments, "_SEGMENT", segment)
        monkeypatch.setattr(experiments, "_SUP_BLOCK", block)
        chunk = block * max(1, segment // block)
        for n in sorted({1, block - 1, block, block + 1, chunk - 1, chunk, chunk + 1, 2 * chunk + block, 3 * chunk + 5}):
            values = mu_like(n, n)
            prefix = prefix_of(values)
            reads = []
            walk = experiments.MertensWalk(n, lambda start, stop: reads.append((start, stop)) or values[start:stop])
            assert reads == [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)], n
            assert np.array_equal(walk.starts, prefix[np.minimum(np.arange(len(walk.starts)) * block, n)]), n
            assert np.array_equal(walk.mass, np.add.reduceat(np.abs(values.astype(np.int32)), np.arange(0, n, block)))
            assert np.array_equal(walk[0 : n + 1], prefix), n
            upper, lower = walk.envelope()
            blocks = helpers.ref_block_extrema(prefix, 0, n)
            assert blocks[0] == 0 and len(upper) == len(blocks[1]) == (n + 1) // block
            assert np.all(upper >= blocks[1]) and np.all(lower <= blocks[2]), n

    def test_index_arrays_outside_the_walk_or_unsorted_are_rejected(self, small_walks):
        walk = helpers.walk_of(mu_like(40, 5))
        for bad in ([-1, 3], [3, 41], [5, 4], [[1, 2], [3, 4]], [0, 40, 40, 39]):
            with pytest.raises(IndexError):
                walk[np.array(bad)]
        assert len(walk[np.array([], dtype=np.int64)]) == 0
        assert np.array_equal(walk[np.array([0, 0, 40])], prefix_of(mu_like(40, 5))[[0, 0, 40]])

    def test_mertens_prefix_refuses_values_that_are_not_one_dimensional(self):
        for bad in (np.ones((2, 3), dtype=np.int8), np.int8(1)):
            with pytest.raises(ParameterError, match="one-dimensional"):
                mertens_prefix(bad)


# ---------------------------------------------------------------------------
# random walk analogue


class TestRandomMertens:
    def test_all_plus_one_walk_has_unit_sup(self):
        res = random_mertens_sim((16, 32), 0.5, paths=3, p=1.0, seed=5)
        assert np.all(res.sups == 1.0)
        assert np.all(res.rms == 1.0)

    def test_bound_curve_definition(self):
        res = random_mertens_sim((16, 64), 0.6, paths=2, p=0.5, seed=1)
        expect = (math.sqrt(2) + 1) * np.array([16.0, 64.0]) ** (0.5 - 0.6)
        assert np.allclose(res.bound, expect)

    def test_thread_count_does_not_change_results(self):
        one = random_mertens_sim((32, 64, 128), 0.5, paths=8, p=0.5, seed=42, threads=1)
        four = random_mertens_sim((32, 64, 128), 0.5, paths=8, p=0.5, seed=42, threads=4)
        assert np.array_equal(one.sups, four.sups)

    def test_seeds_draw_independent_paths(self):
        # seeds 0-3 XOR-ed into the path index would share one multiset of 8 walks
        sups = [np.sort(random_mertens_sim((256, 1024), 0.5, paths=8, p=0.5, seed=s).sups, axis=None) for s in range(4)]
        for a, b in itertools.combinations(sups, 2):
            assert not np.array_equal(a, b)

    def test_single_path_matches_manual_walk(self):
        seed, x, tau = 9, 64, 0.5
        res = random_mertens_sim((x,), tau, paths=1, p=0.5, seed=seed)
        rng = generator(seed, WALK, 0)
        steps = np.where(rng.random(2 * x) < 0.5, 1, -1)
        walk = np.concatenate([[0], np.cumsum(steps)])
        h_lo = math.ceil(x**tau)
        brute = max(abs(int(walk[x + h]) - int(walk[x])) / h for h in range(h_lo, x + 1))
        assert res.sups[0, 0] == pytest.approx(brute, abs=1e-15)

    @pytest.mark.parametrize("tau, p", [(0.05, 0.5), (0.5, 0.5), (0.6, 0.3), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_matches_direct_scan_on_rebuilt_walks(self, tau, p):
        grid, seed, paths = tuple(_BLOCK_XS), 33, 3
        res = random_mertens_sim(grid, tau, paths=paths, p=p, seed=seed)
        for path in range(paths):
            rng = generator(seed, WALK, path)
            walk = np.concatenate([[0], np.cumsum(np.where(rng.random(2 * grid[-1]) < p, 1, -1))])
            expect = [helpers.ref_interval_sup(walk, x, _h_floor(x, tau))[0] for x in grid]
            assert res.sups[path].tolist() == expect

    def test_walk_spans_several_draw_chunks(self):
        grid, tau, seed = (1000, 150_000), 0.95, 4
        res = random_mertens_sim(grid, tau, paths=2, p=0.45, seed=seed)
        for path in range(2):
            rng = generator(seed, WALK, path)
            walk = np.concatenate([[0], np.cumsum(np.where(rng.random(2 * grid[-1]) < 0.45, 1, -1))])
            expect = [helpers.ref_interval_sup(walk, x, _h_floor(x, tau))[0] for x in grid]
            assert res.sups[path].tolist() == expect

    def test_rms_is_root_mean_square(self):
        res = random_mertens_sim((32,), 0.5, paths=16, p=0.5, seed=3)
        assert res.rms[0] == pytest.approx(math.sqrt(np.mean(res.sups[:, 0] ** 2)), abs=1e-12)

    def test_grid_must_increase(self):
        with pytest.raises(ParameterError):
            random_mertens_sim((64, 32), 0.5, paths=2, p=0.5)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 2 * DRAW_CHUNK + 3])
    def test_walk_is_int32_and_equals_the_int64_cumsum(self, n, p):
        full = helpers.ref_random_walk(generator(6, WALK, n), n, p)
        steps = np.where(generator(6, WALK, n).random(n) < p, 1, -1)
        assert np.array_equal(full, np.concatenate([[0], np.cumsum(steps, dtype=np.int64)]))
        walk = _PackedWalk(generator(6, WALK, n), n, p)
        assert len(walk) == n + 1
        values = walk[0 : n + 1]
        assert values.dtype == np.int32 and np.array_equal(values, full)
        for k in {0, 1, n // 2, n - 1, n}:
            assert walk[k] == full[k]
        for lo, hi in [(0, 1), (1, n), (n // 3, n // 3 + 9), (n, n + 1), (n + 1, n + 1), (5, 3)]:
            assert np.array_equal(walk[lo:hi], full[lo:hi])
        assert np.array_equal(walk[1::3], full[1::3]) and np.array_equal(walk[::-5], full[::-5])
        idx = np.random.default_rng(n).integers(0, n + 1, size=500)
        assert walk[idx].dtype == np.int32 and np.array_equal(walk[idx], full[idx])
        bmax, bmin = walk.block_extrema()
        expect = helpers.ref_block_extrema(full, 0, n)
        assert expect[0] == 0
        assert np.array_equal(bmax, expect[1]) and np.array_equal(bmin, expect[2])

    def test_one_path_holds_under_two_bytes_per_step(self):
        # NumPy reports its buffers to tracemalloc, so the peak is deterministic:
        # 5/8 byte per step for the packed walk, plus one draw chunk's buffers
        x = 1 << 20
        tracemalloc.start()
        try:
            random_mertens_sim((x,), 0.5, paths=1, p=0.5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * (2 * x) // 8 + (2 << 20)


# ---------------------------------------------------------------------------
# short-interval exponential sums


class TestZhan:
    def test_theta0_slice_matches_interval_statistic(self):
        mu = sieve_mobius(200)
        prefix = mertens_prefix(mu)
        res = zhan_sup(mu, 100, 0.5, thetas=8)
        expect = [abs(prefix[100 + h] - prefix[100]) / h for h in res.h_values]
        assert np.allclose(res.theta0_values, expect, atol=1e-12)

    def test_all_ones_sup_is_one_at_theta0(self):
        res = zhan_sup(np.ones(64, dtype=np.int8), 32, 0.5, thetas=16)
        assert res.sup == pytest.approx(1.0, abs=1e-12)
        assert res.argmax_theta == 0.0

    def test_h_values_double_up_to_x(self):
        res = zhan_sup(np.ones(256, dtype=np.int8), 128, 0.5, thetas=4)
        assert res.h_values[0] == math.ceil(128**0.5)
        for a, b in zip(res.h_values, res.h_values[1:]):
            assert b == min(2 * a, 128)
        assert res.h_values[-1] == 128

    def test_sup_is_max_over_h(self):
        mu = sieve_mobius(200)
        res = zhan_sup(mu, 100, 0.5, thetas=8)
        assert res.sup == pytest.approx(max(res.per_h), abs=1e-15)

    def test_table_must_cover_2x(self):
        with pytest.raises(ParameterError):
            zhan_sup(sieve_mobius(150), 100, 0.5, thetas=64)

    @pytest.mark.parametrize("thetas", [0, MAX_FFT + 1])
    def test_theta_grid_size_bounded(self, thetas):
        with pytest.raises(ParameterError):
            zhan_sup(np.ones(4, dtype=np.int8), 2, 0.5, thetas=thetas)

    def test_mirror_tie_reports_the_smaller_theta(self):
        # |S(theta_16)| = |S(theta_48)| exactly for real weights
        res = zhan_sup(sieve_mobius(10_000), 5000, 0.5, thetas=64)
        assert res.argmax_theta == 2 * math.pi * 16 / 64

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(KIND_VALUES)),
        st.integers(1, 200),
        st.floats(0.05, 1.0),
        st.sampled_from([1, 2, 3, 8, 64]),
    )
    def test_matches_double_loop_oracle(self, kind, x, tau, thetas):
        values = KIND_VALUES[kind]
        res = zhan_sup(values, x, tau, thetas=thetas)
        ladder = [min(max(1, math.ceil(x**tau)), x)]
        while ladder[-1] < x:
            ladder.append(min(2 * ladder[-1], x))
        assert res.h_values == tuple(ladder)
        ref = helpers.ref_zhan(values, x, ladder, thetas)
        assert res.theta0_values.tolist() == ref["theta0_values"]
        # |v| <= 1, so every value is at most 1; the absolute term covers
        # values that vanish in exact arithmetic, where the oracle's own
        # rounding (~1e-15) is all there is
        np.testing.assert_allclose(res.per_h, ref["per_h"], rtol=1e-12, atol=1e-12)
        assert res.sup == pytest.approx(ref["per_h"].max(), rel=1e-12, abs=1e-12)
        j = round(res.argmax_theta * thetas / (2 * math.pi))
        assert res.argmax_theta == 2 * math.pi * j / thetas
        assert 0 <= j <= thetas // 2
        row = res.h_values.index(res.argmax_h)
        assert ref["table"][row, j] == pytest.approx(res.sup, rel=1e-12, abs=1e-12)
