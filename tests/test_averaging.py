import math
from types import SimpleNamespace

import numpy as np
import pytest

import helpers

from ergolab.arith import BFreeSpec, sieve_mobius
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
from ergolab.errors import ParameterError
from ergolab.harness import REGISTRY, build_system, prepare_run

SQRT2M1 = math.sqrt(2) - 1


def squares_indicator(n: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.int8)
    ks = np.arange(1, int(math.isqrt(n)) + 1)
    out[ks * ks - 1] = 1
    return out


# ---------------------------------------------------------------------------
# schedules


def test_geometric_schedule():
    s = FolnerSchedule.geometric(start=8, ratio=2, cap=100)
    assert s.lengths == (8, 16, 32, 64)
    s2 = FolnerSchedule.geometric(start=1024, ratio=2, count=3)
    assert s2.lengths == (1024, 2048, 4096)


def test_schedule_validation():
    with pytest.raises(ParameterError):
        FolnerSchedule((10, 10, 20))
    with pytest.raises(ParameterError):
        FolnerSchedule((0, 5))
    with pytest.raises(ParameterError):
        FolnerSchedule.geometric(start=8, ratio=1, cap=100)
    with pytest.raises(ParameterError):
        FolnerSchedule.geometric(start=8, ratio=2)  # need cap or count


def test_schedule_clipping():
    s = FolnerSchedule.geometric(start=8, ratio=2, cap=1000)
    assert s.clipped(40).lengths == (8, 16, 32)
    with pytest.raises(ParameterError):
        s.clipped(4)


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
        np.full(4096, -0.5), FolnerSchedule.geometric(start=512, ratio=2, cap=4096)
    )
    assert est.lengths == (512, 1024, 2048, 4096)
    assert np.allclose(est.averages, 0.5, rtol=0, atol=1e-12)
    assert est.estimate == pytest.approx(0.5, abs=1e-12)


def test_seminorm_squares_indicator_matches_formula():
    n = 1 << 14
    schedule = FolnerSchedule.geometric(start=1024, ratio=2, cap=n)
    est = besicovitch_seminorm(squares_indicator(n), schedule)
    expected = [math.isqrt(nj) / nj for nj in est.lengths]
    assert np.allclose(est.averages, expected, rtol=0, atol=1e-15)
    assert est.estimate == pytest.approx(max(expected[-3:]), abs=1e-15)


def test_seminorm_accepts_orbit_streams():
    est = besicovitch_seminorm(
        rotation_orbit(SQRT2M1), FolnerSchedule.geometric(start=256, ratio=2, cap=1024)
    )
    assert np.allclose(est.averages, 1.0, atol=1e-12)  # |e^(2 pi i x)| = 1


def test_seminorm_mobius_square_density():
    n = 1 << 20
    mu = sieve_mobius(n)
    est = besicovitch_seminorm(np.abs(mu.values), FolnerSchedule.geometric(cap=n))
    assert abs(est.estimate - 6 / math.pi**2) < 1e-2


def test_seminorm_needs_enough_data():
    with pytest.raises(ParameterError):
        besicovitch_seminorm(np.ones(100), FolnerSchedule((128,)))


def test_distance_symmetry_and_identity():
    rng = np.random.default_rng(0)
    f = rng.normal(size=2048)
    g = rng.normal(size=2048)
    schedule = FolnerSchedule.geometric(start=256, ratio=2, cap=2048)
    dfg = besicovitch_distance(f, g, schedule)
    dgf = besicovitch_distance(g, f, schedule)
    assert dfg.estimate == dgf.estimate
    assert besicovitch_distance(f, f, schedule).estimate == 0.0


# ---------------------------------------------------------------------------
# B-free approximation gap


def test_bfree_gap_two_three():
    spec = BFreeSpec((2, 3))
    schedule = FolnerSchedule.geometric(start=1024, ratio=2, cap=1 << 18)
    gap = bfree_approximation_gap(spec, 1, schedule)
    # multiples of 3 that are odd have density 1/6
    assert abs(gap.gaps[-1] - 1 / 6) < 1e-2
    assert gap.tail_bound == pytest.approx(1 / 3)
    assert all(gap.within)


def test_bfree_gap_full_truncation_is_zero():
    spec = BFreeSpec((2, 3))
    schedule = FolnerSchedule.geometric(start=1024, ratio=2, cap=1 << 14)
    gap = bfree_approximation_gap(spec, 2, schedule)
    assert np.all(gap.gaps == 0.0)
    assert gap.tail_bound == 0.0


def test_bfree_gap_exact_on_periodic_window():
    # period of {2,3} is 6; over any multiple of 6 the gap is exactly 1/6
    spec = BFreeSpec((2, 3))
    gap = bfree_approximation_gap(spec, 1, FolnerSchedule((6, 60, 600)))
    assert np.allclose(gap.gaps, 1 / 6, atol=1e-15)


# ---------------------------------------------------------------------------
# mean equicontinuity probe


def test_probe_rotation_distance_is_exact():
    rows = mean_equicontinuity_probe(
        rotation_orbit(SQRT2M1),
        deltas=(0.25, 0.125),
        pairs=8,
        n=2048,
        seed=11,
    )
    for row in rows:
        expected = 2 * abs(math.sin(math.pi * row.delta))
        assert row.mean_estimate == pytest.approx(expected, abs=1e-9)


def test_probe_envelope_monotone_for_rotation():
    rows = mean_equicontinuity_probe(
        rotation_orbit(SQRT2M1), pairs=4, n=2048, seed=3
    )
    deltas = [row.delta for row in rows]
    assert deltas == sorted(deltas)
    env = [row.envelope for row in rows]
    assert all(a <= b + 1e-15 for a, b in zip(env, env[1:]))


def test_probe_bernoulli_not_equicontinuous():
    rows = mean_equicontinuity_probe(
        bernoulli_stream(), deltas=(0.25, 2**-6, 2**-10), pairs=8, n=4096, seed=5
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
        mean_equicontinuity_probe(bernoulli_stream(), pairs=0, n=1024)


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


def test_banach_density_validation():
    vals = np.array([0, 1, 1], dtype=np.int8)
    with pytest.raises(ParameterError):
        upper_banach_density(vals, 0)
    with pytest.raises(ParameterError):
        upper_banach_density(vals, 4)
    with pytest.raises(ParameterError):
        upper_banach_density(np.array([0, 2], dtype=np.int8), 1)
