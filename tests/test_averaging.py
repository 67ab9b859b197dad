import math
from types import SimpleNamespace

import numpy as np
import pytest

import helpers

from ergolab import averaging
from ergolab._util import map_indexed
from ergolab.arith import _SEGMENT, BFreeSpec, sieve_liouville, sieve_mobius
from ergolab.averaging import (
    FolnerSchedule,
    besicovitch_distance,
    besicovitch_seminorm,
    bfree_approximation_gap,
    folner_average,
    mean_equicontinuity_probe,
    upper_banach_density,
)
from ergolab.dynsys import bernoulli_stream, rotation_orbit
from ergolab.errors import ParameterError, ResourceLimitError
from ergolab.harness import REGISTRY, build_system, prepare_run, run_experiment

SQRT2M1 = math.sqrt(2) - 1
PROBE_DELTAS = REGISTRY["probe-equicont"].defaults()["deltas"]


def squares_indicator(n: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.int8)
    ks = np.arange(1, int(math.isqrt(n)) + 1)
    out[ks * ks - 1] = 1
    return out


# ---------------------------------------------------------------------------
# schedules


def test_geometric_schedule():
    s = FolnerSchedule.geometric(start=8, cap=100)
    assert s.lengths == (8, 16, 32, 64)


def test_schedule_validation():
    with pytest.raises(ParameterError):
        FolnerSchedule((10, 10, 20))
    with pytest.raises(ParameterError):
        FolnerSchedule((0, 5))


# ---------------------------------------------------------------------------
# window averages and the seminorm


def test_folner_average_constants():
    assert folner_average(np.ones(100), 100) == 1.0
    assert folner_average(np.zeros(50), 50) == 0.0
    alternating = np.resize(np.array([1, -1]), 64)
    assert folner_average(alternating, 64) == 1.0  # absolute values


def test_folner_average_squares_indicator_exact():
    n = 1_000_000
    assert folner_average(squares_indicator(n), n) == math.isqrt(n) / n


def test_seminorm_constant_stream():
    est = besicovitch_seminorm(
        np.full(4096, -0.5), FolnerSchedule.geometric(start=512, cap=4096), r=3
    )
    assert est.lengths == (512, 1024, 2048, 4096)
    assert np.allclose(est.averages, 0.5, rtol=0, atol=1e-12)
    assert est.estimate == pytest.approx(0.5, abs=1e-12)


def test_seminorm_squares_indicator_matches_formula():
    n = 1 << 14
    schedule = FolnerSchedule.geometric(start=1024, cap=n)
    est = besicovitch_seminorm(squares_indicator(n), schedule, r=3)
    expected = [math.isqrt(nj) / nj for nj in est.lengths]
    assert np.allclose(est.averages, expected, rtol=0, atol=1e-15)
    assert est.estimate == pytest.approx(max(expected[-3:]), abs=1e-15)


def test_seminorm_accepts_orbit_streams():
    est = besicovitch_seminorm(
        rotation_orbit(SQRT2M1, x0=0.0, check=True), FolnerSchedule.geometric(start=256, cap=1024), r=3
    )
    assert np.allclose(est.averages, 1.0, atol=1e-12)  # |e^(2 pi i x)| = 1


def test_seminorm_mobius_square_density():
    n = 1 << 20
    mu = sieve_mobius(n)
    est = besicovitch_seminorm(np.abs(mu), FolnerSchedule.geometric(cap=n), r=3)
    assert abs(est.estimate - 6 / math.pi**2) < 1e-2


def test_seminorm_needs_enough_data():
    with pytest.raises(ParameterError):
        besicovitch_seminorm(np.ones(100), FolnerSchedule((128,)), r=3)


def test_distance_symmetry_and_identity():
    rng = np.random.default_rng(0)
    f = rng.normal(size=2048)
    g = rng.normal(size=2048)
    schedule = FolnerSchedule.geometric(start=256, cap=2048)
    dfg = besicovitch_distance(f, g, schedule, r=3)
    dgf = besicovitch_distance(g, f, schedule, r=3)
    assert dfg.estimate == dgf.estimate
    assert besicovitch_distance(f, f, schedule, r=3).estimate == 0.0


@pytest.mark.parametrize("case", ["mu-lambda", "mu", "rotation-pair", "float-pair"])
def test_besicovitch_equals_the_complex128_route_bit_for_bit(case):
    n = 1 << 16
    if case.startswith("mu"):
        f = sieve_mobius(n)
        g = sieve_liouville(n) if case == "mu-lambda" else None
    elif case == "rotation-pair":
        f = rotation_orbit(SQRT2M1, x0=0.0, check=True).take(n)
        g = rotation_orbit(SQRT2M1, x0=0.3, check=True).take(n)
    else:
        rng = np.random.default_rng(5)
        f, g = rng.normal(size=n), rng.normal(size=n)
    schedule = FolnerSchedule.geometric(start=64, cap=n)
    est = besicovitch_seminorm(f, schedule, 3) if g is None else besicovitch_distance(f, g, schedule, 3)
    expect = helpers.ref_complex_window_averages(f, g, schedule.lengths)
    assert est.averages.dtype == np.float64
    assert est.averages.tobytes() == expect.tobytes()


# ---------------------------------------------------------------------------
# B-free approximation gap


def test_bfree_gap_two_three():
    spec = BFreeSpec((2, 3))
    schedule = FolnerSchedule.geometric(start=1024, cap=1 << 18)
    gap = bfree_approximation_gap(spec, 1, schedule)
    # multiples of 3 that are odd have density 1/6
    assert abs(gap.gaps[-1] - 1 / 6) < 1e-2
    assert gap.tail_bound == pytest.approx(1 / 3)
    assert all(gap.within)


def test_bfree_gap_full_truncation_is_zero():
    spec = BFreeSpec((2, 3))
    schedule = FolnerSchedule.geometric(start=1024, cap=1 << 14)
    gap = bfree_approximation_gap(spec, 2, schedule)
    assert np.all(gap.gaps == 0.0)
    assert gap.tail_bound == 0.0


GAP_CASES = [
    ((2, 3), 1, (6, 60, 600)),
    ((2, 3), 0, (1, 16, 17, 33)),
    ((4, 9, 25, 49), 2, (1, 15, 16, 17, 31, 32, 33, 100)),  # lengths on and beside segment edges
    ((4, 9, 25, 49), 4, (5, 50)),
    ((4, 9, 121), 1, (3, 100)),  # a member beyond the longest window
    ((3,), 0, (16,)),  # one length, one whole segment
]


@pytest.mark.parametrize("members, k, lengths", GAP_CASES)
def test_bfree_gap_matches_the_full_prefix_route(monkeypatch, members, k, lengths):
    monkeypatch.setattr(averaging, "_SEGMENT", 16)
    spec, schedule = BFreeSpec(members), FolnerSchedule(lengths)
    gap = bfree_approximation_gap(spec, k, schedule)
    ref = helpers.ref_bfree_approximation_gap(spec, k, schedule)
    assert (gap.k, gap.lengths, gap.tail_bound) == (ref.k, ref.lengths, ref.tail_bound)
    assert gap.gaps.dtype == np.float64
    assert gap.gaps.tobytes() == ref.gaps.tobytes()
    assert np.array_equal(gap.within, ref.within)


def test_bfree_gap_rejects_a_bad_truncation():
    with pytest.raises(ParameterError, match="truncation index"):
        bfree_approximation_gap(BFreeSpec((2, 3)), 3, FolnerSchedule((6,)))


def test_bfree_gap_exact_on_periodic_window():
    # period of {2,3} is 6; over any multiple of 6 the gap is exactly 1/6
    spec = BFreeSpec((2, 3))
    gap = bfree_approximation_gap(spec, 1, FolnerSchedule((6, 60, 600)))
    assert np.allclose(gap.gaps, 1 / 6, atol=1e-15)


# ---------------------------------------------------------------------------
# mean equicontinuity probe


def test_probe_rotation_distance_is_exact():
    rows = mean_equicontinuity_probe(
        rotation_orbit(SQRT2M1, x0=0.0, check=True),
        deltas=(0.25, 0.125),
        pairs=8,
        n=2048,
        r=3,
        seed=11,
    )
    for row in rows:
        expected = 2 * abs(math.sin(math.pi * row.delta))
        assert row.mean_estimate == pytest.approx(expected, abs=1e-9)


def test_probe_envelope_monotone_for_rotation():
    rows = mean_equicontinuity_probe(
        rotation_orbit(SQRT2M1, x0=0.0, check=True), deltas=PROBE_DELTAS, pairs=4, n=2048, r=3, seed=3
    )
    deltas = [row.delta for row in rows]
    assert deltas == sorted(deltas)
    env = [row.envelope for row in rows]
    assert all(a <= b + 1e-15 for a, b in zip(env, env[1:]))


def test_probe_bernoulli_not_equicontinuous():
    rows = mean_equicontinuity_probe(
        bernoulli_stream(0.5, 0), deltas=(0.25, 2**-6, 2**-10), pairs=8, n=4096, r=3, seed=5
    )
    for row in rows:
        assert row.mean_estimate > 0.5  # distance stays macroscopic


PAIR_SYSTEMS = [
    {"variant": "rotation", "alpha": SQRT2M1, "x0": 0.125},
    {"variant": "rotation", "alpha": 0.5, "check": False},
    {"variant": "sturmian", "alpha": SQRT2M1, "x0": 0.3},
    {"variant": "skew-additive", "x0": SQRT2M1, "y0": 0.25},
    {"variant": "skew-affine", "alpha": SQRT2M1, "x0": 0.1},
    {"variant": "bernoulli", "p": 0.3, "seed": 5},
    {"variant": "bernoulli"},
]


@pytest.mark.parametrize("system", PAIR_SYSTEMS, ids=lambda d: "-".join(map(str, d.values())))
@pytest.mark.parametrize("delta", [1.0, 0.5, 2**-10])
def test_shifted_pair_matches_reference_sampler(system, delta):
    params, _ = prepare_run(REGISTRY["probe-equicont"], {"system": system}, None)
    stream = build_system(params["system"])
    spec = SimpleNamespace(variant=system["variant"], params={k: v for k, v in system.items() if k != "variant"})
    for seed in (0, 1, 7, 2**40 + 3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):  # consecutive pairs, as the probe draws them
            f, g = stream.shifted_pair(delta, rng, 300)
            ref_f, ref_g = helpers.ref_pair_streams(spec, delta, ref_rng, 300)
            assert f.dtype == ref_f.dtype and g.dtype == ref_g.dtype
            assert np.array_equal(f, ref_f) and np.array_equal(g, ref_g)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_probe_needs_at_least_one_pair():
    with pytest.raises(ParameterError):
        mean_equicontinuity_probe(bernoulli_stream(0.5, 0), deltas=PROBE_DELTAS, pairs=0, n=1024, r=3)


@pytest.mark.parametrize("bad", [1.5, 0.0, -0.25, math.nan])
def test_probe_checks_every_delta_before_any_pair(bad):
    stream = rotation_orbit(SQRT2M1, x0=0.0, check=True)
    drawn = []

    class Counting:
        def shifted_pair(self, *args):
            drawn.append(args[0])
            return stream.shifted_pair(*args)

    with pytest.raises(ParameterError, match="outside"):
        mean_equicontinuity_probe(Counting(), deltas=(0.5, 0.25, 0.125, 2**-4, bad), pairs=2, n=1024, r=3)
    assert drawn == []


def test_probe_bytes_do_not_depend_on_threads(tmp_path, monkeypatch):
    pools = []

    def recording_map_indexed(fn, count, threads=1):
        pools.append(threads)
        return map_indexed(fn, count, threads)

    monkeypatch.setattr(averaging, "map_indexed", recording_map_indexed)
    outputs = [
        run_experiment("probe-equicont", {"n": 4096}, seed=3, out=tmp_path / f"t{threads}",
                       threads=threads, cache=tmp_path / "cache") / "probe.csv"
        for threads in (1, 2)
    ]
    assert pools == [1, 2]  # the run's thread count reaches the deltas' pool
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


# ---------------------------------------------------------------------------
# upper Banach density


def test_banach_density_evens():
    evens = np.resize(np.array([1, 0], dtype=np.int8), 1000)
    d = upper_banach_density(evens, 10)
    assert d.density == 0.5
    assert upper_banach_density(evens, 1).density == 1.0


def test_banach_density_squares_cluster_at_origin():
    vals = squares_indicator(10_000)
    d = upper_banach_density(vals, 100)
    assert d.density == 0.1
    assert d.offset == 0


def test_banach_density_matches_bruteforce():
    rng = np.random.default_rng(9)
    vals = (rng.random(500) < 0.3).astype(np.int8)
    for window in (1, 7, 50, 499, 500):
        d = upper_banach_density(vals, window)
        brute = max(
            int(vals[t : t + window].sum()) for t in range(len(vals) - window + 1)
        )
        assert d.count == brute
        assert d.density == brute / window


def test_banach_density_accepts_float_and_bool_indicators():
    vals = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    d = upper_banach_density(vals, 2)
    assert (d.count, d.offset) == (2, 1)
    assert upper_banach_density(vals.astype(bool), 3).count == 2


def test_banach_density_first_maximum_across_segments():
    n = 2 * _SEGMENT + 5
    vals = np.zeros(n, dtype=np.int8)
    vals[_SEGMENT + 10 : _SEGMENT + 14] = 1
    vals[n - 4 :] = 1
    d = upper_banach_density(vals, 4)
    assert (d.count, d.offset) == (4, _SEGMENT + 10)
    vals[_SEGMENT - 2 : _SEGMENT + 2] = 1  # straddles the first segment boundary
    d = upper_banach_density(vals, 4)
    assert (d.count, d.offset) == (4, _SEGMENT - 2)


@pytest.mark.parametrize("dtype", [bool, np.int8, np.float64])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 40])
def test_banach_density_matches_the_full_prefix_route(monkeypatch, dtype, n):
    monkeypatch.setattr(averaging, "_SEGMENT", 8)
    rng = np.random.default_rng(n)
    cases = [
        (rng.random(n) < 0.4).astype(dtype),
        np.resize(np.array([1, 0, 0], dtype=dtype), n),  # many tied windows
        np.ones(n, dtype=dtype),  # every window ties
    ]
    for vals in cases:
        for window in sorted({1, 2, 3, 7, 8, 9, n - 1, n} & set(range(1, n + 1))):
            assert upper_banach_density(vals, window) == helpers.ref_upper_banach_density(vals, window)


def test_banach_density_first_maximum_among_ties_in_later_segments(monkeypatch):
    monkeypatch.setattr(averaging, "_SEGMENT", 8)
    vals = np.zeros(40, dtype=np.int8)
    vals[[6, 7, 8, 19, 20, 21, 35, 36, 37]] = 1  # three best windows; the first straddles an edge
    for window in (2, 3, 5):
        d = upper_banach_density(vals, window)
        assert d == helpers.ref_upper_banach_density(vals, window)
        assert d.offset == (6 if window < 5 else 4)


@pytest.mark.parametrize("bad", [0.5, np.nan, 2.0, -1.0])
def test_banach_density_rejects_a_non_indicator_value_in_any_segment(monkeypatch, bad):
    monkeypatch.setattr(averaging, "_SEGMENT", 8)
    vals = np.zeros(30)
    vals[21] = bad
    with pytest.raises(ParameterError, match="0 or 1"):
        upper_banach_density(vals, 4)


def test_banach_density_validation():
    vals = np.array([0, 1, 1], dtype=np.int8)
    with pytest.raises(ParameterError):
        upper_banach_density(vals, 0)
    with pytest.raises(ParameterError):
        upper_banach_density(vals, 4)
    with pytest.raises(ParameterError):
        upper_banach_density(np.array([0, 2], dtype=np.int8), 1)


def test_banach_density_refuses_a_window_past_the_int32_sums():
    # a zero-stride view: 2^31 entries without the memory
    values = np.broadcast_to(np.int8(0), (1 << 31,))
    with pytest.raises(ResourceLimitError):
        upper_banach_density(values, 1 << 31)
