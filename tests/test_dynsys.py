import math
from fractions import Fraction

import numpy as np
import pytest

from ergolab.arith import sieve_mobius
from ergolab.dynsys import (
    TableStream,
    VeechFunction,
    VeechSpec,
    WindowSample,
    _constancy_radius,
    _phase,
    _scan_centers,
    bernoulli_stream,
    rotation_orbit,
    skew_orbit,
    sturmian_word,
    to_state,
    veech_last_start,
    veech_window_closure,
)
from ergolab.errors import ParameterError
from ergolab.experiments import mertens_prefix

import helpers

SQRT2M1 = math.sqrt(2) - 1
MASK = (1 << 64) - 1


def exact(state: int) -> Fraction:
    """The torus point whose fixed-point state is `state`."""
    return Fraction(state, 1 << 64)


def ks_uniform(fracs: np.ndarray) -> float:
    xs = np.sort(fracs)
    n = len(xs)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return max(float(np.max(grid_hi - xs)), float(np.max(xs - grid_lo)))


# ---------------------------------------------------------------------------
# fixed point representation


def test_to_state_exact_dyadics():
    assert to_state(0.0) == 0
    assert to_state(0.5) == 1 << 63
    assert to_state(Fraction(1, 4)) == 1 << 62
    assert to_state(1.25) == 1 << 62  # reduced mod 1
    assert to_state(-0.25) == 3 * (1 << 62)


def test_rational_guard():
    with pytest.raises(ParameterError):
        rotation_orbit(0.5, x0=0.0, check=True)
    with pytest.raises(ParameterError):
        rotation_orbit(0.0, x0=0.0, check=True)
    with pytest.raises(ParameterError):
        rotation_orbit(Fraction(3, 65536), x0=0.0, check=True)
    # denominator above 2^16 is accepted
    rotation_orbit(Fraction(1, 65537), x0=0.0, check=True)
    # guard can be switched off for test constructions
    rotation_orbit(0.5, x0=0.0, check=False)


# ---------------------------------------------------------------------------
# rotations


def test_rotation_period_two_when_alpha_half():
    orbit = rotation_orbit(0.5, x0=0.0, check=False)
    vals = orbit.take(6)
    assert np.allclose(vals, [1, -1, 1, -1, 1, -1])


def test_rotation_first_value_is_observable_at_start():
    orbit = rotation_orbit(SQRT2M1, x0=0.25, check=True)
    assert abs(orbit.take(1)[0] - np.exp(2j * np.pi * 0.25)) < 1e-15


def test_rotation_states_exact():
    a = to_state(SQRT2M1)
    x0 = to_state(0.1)
    orbit = rotation_orbit(SQRT2M1, x0=0.1, check=True)
    states = orbit.states(100)
    for n in range(100):
        assert int(states[n]) == (x0 + n * a) & MASK


def test_rotation_equidistribution():
    n = 1_000_000
    orbit = rotation_orbit(SQRT2M1, x0=0.0, check=True)
    fracs = orbit.states(n).astype(np.float64) / 2.0**64
    assert ks_uniform(fracs) < 3 / math.sqrt(n)


def test_rotation_advance_group_law():
    orbit = rotation_orbit(SQRT2M1, x0=0.7, check=True)
    m, k = 137, 64
    direct = orbit.take(m + k)[m:]
    # the orbit of T^m x, started from its exact state
    a = orbit.alpha_state
    shifted = rotation_orbit(exact(a), x0=exact((orbit.x_state + m * a) & MASK), check=True).take(k)
    assert np.array_equal(direct, shifted)


def test_phase_has_the_bits_of_the_complex_exp():
    rng = np.random.default_rng(23)
    edges = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    states = np.concatenate([rng.integers(0, 2**64, size=1 << 20, dtype=np.uint64), edges])
    expect = np.exp(2j * np.pi * (states.astype(float) * 2.0**-64))
    got = _phase(states)
    assert got.dtype == np.complex128
    assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))


def test_rotation_unit_modulus():
    vals = rotation_orbit(SQRT2M1, x0=0.0, check=True).take(1000)
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# skew products


def test_skew_additive_constant_when_x0_zero():
    orbit = skew_orbit("additive", x0=0.0, y0=0.3, check=False)
    vals = orbit.take(50)
    assert np.allclose(vals, np.exp(2j * np.pi * 0.3))


def test_skew_additive_fiber_is_rotation_by_x0():
    orbit = skew_orbit("additive", x0=SQRT2M1, y0=0.0, check=True)
    x0 = to_state(SQRT2M1)
    states = orbit.fiber_states(200)
    for n in range(200):
        assert int(states[n]) == (n * x0) & MASK


def test_skew_affine_closed_form_matches_iteration():
    a = to_state(SQRT2M1)
    x0 = to_state(0.15)
    y0 = to_state(0.85)
    orbit = skew_orbit("affine", x0=0.15, y0=0.85, alpha=SQRT2M1, check=True)
    states = orbit.fiber_states(300)
    x, y = x0, y0
    for n in range(300):
        assert int(states[n]) == y, n
        y = (y + x) & MASK
        x = (x + a) & MASK


def test_skew_affine_fiber_equidistribution():
    n = 1_000_000
    orbit = skew_orbit("affine", x0=0.0, y0=0.0, alpha=SQRT2M1, check=True)
    fracs = orbit.fiber_states(n).astype(np.float64) / 2.0**64
    assert ks_uniform(fracs) < 3 / math.sqrt(n)


def test_skew_advance_group_law():
    for variant, kwargs in [
        ("additive", dict(x0=SQRT2M1, y0=0.2, check=True)),
        ("affine", dict(x0=0.3, y0=0.1, alpha=SQRT2M1, check=True)),
    ]:
        orbit = skew_orbit(variant, **kwargs)
        direct = orbit.take(100)[37:]
        # T^37 (x, y) by iterating the map on exact states
        a = orbit.alpha_state
        x, y = orbit.x_state, orbit.y_state
        for _ in range(37):
            x, y = (x + a) & MASK, (y + x) & MASK
        alpha = exact(a) if variant == "affine" else None
        moved = skew_orbit(variant, exact(x), exact(y), alpha, check=True)
        assert np.array_equal(moved.take(63), direct)


def test_skew_guard_checks_relevant_parameter():
    with pytest.raises(ParameterError):
        skew_orbit("additive", x0=0.5, y0=0.0, check=True)
    with pytest.raises(ParameterError):
        skew_orbit("affine", x0=0.5, y0=0.0, alpha=0.25, check=True)
    skew_orbit("affine", x0=0.5, y0=0.0, alpha=SQRT2M1, check=True)  # x0 may be rational here
    with pytest.raises(ParameterError):
        skew_orbit("diagonal", x0=0.1, y0=0.1, check=True)


# ---------------------------------------------------------------------------
# sturmian words


def test_sturmian_matches_scalar_definition():
    a = to_state(SQRT2M1)
    x0 = to_state(0.33)
    word = sturmian_word(SQRT2M1, x0=0.33, check=True).take(500)
    thresh = (1 << 64) - a
    for n in range(500):
        state = (x0 + n * a) & MASK
        assert int(word[n]) == (1 if state >= thresh else 0)


def test_sturmian_complexity_k_plus_one():
    word = sturmian_word(SQRT2M1, x0=0.0, check=True).take(100_000)
    for k in range(1, 13):
        assert helpers.ref_subword_count(word, k) == k + 1, k


def test_sturmian_balance():
    word = sturmian_word(SQRT2M1, x0=0.0, check=True).take(100_000).astype(np.int64)
    prefix = np.concatenate([[0], np.cumsum(word)])
    for k in range(1, 1001):
        sums = prefix[k:] - prefix[:-k]
        assert sums.max() - sums.min() <= 1, k


def test_sturmian_one_frequency_close_to_alpha():
    n = 1_000_000
    word = sturmian_word(SQRT2M1, x0=0.0, check=True).take(n)
    assert abs(word.mean() - SQRT2M1) <= 1e-2


def test_sturmian_advance():
    word = sturmian_word(SQRT2M1, x0=0.9, check=True)
    # the coding of T^11 x, started from its exact state
    a = word.alpha_state
    moved = sturmian_word(exact(a), x0=exact((word.x_state + 11 * a) & MASK), check=True)
    assert np.array_equal(moved.take(50), word.take(61)[11:])


# ---------------------------------------------------------------------------
# bernoulli streams


def test_bernoulli_deterministic_and_pm_one():
    s1 = bernoulli_stream(0.5, seed=42).take(1000)
    s2 = bernoulli_stream(0.5, seed=42).take(1000)
    assert np.array_equal(s1, s2)
    assert set(np.unique(s1)) == {-1, 1}
    s3 = bernoulli_stream(0.5, seed=43).take(1000)
    assert not np.array_equal(s1, s3)


def test_bernoulli_mean_near_bias():
    for p in [0.5, 0.8]:
        vals = bernoulli_stream(p, seed=1).take(200_000)
        assert abs(vals.mean() - (2 * p - 1)) < 0.01


def test_bernoulli_degenerate_bias():
    assert np.array_equal(bernoulli_stream(1.0, seed=0).take(10), np.ones(10, dtype=np.int8))
    with pytest.raises(ParameterError):
        bernoulli_stream(1.5, seed=0)


# ---------------------------------------------------------------------------
# table streams


def test_table_stream_reads_table():
    table = sieve_mobius(100)
    stream = TableStream(table)
    assert np.array_equal(stream.take(10), table[:10])
    with pytest.raises(ParameterError):
        stream.take(101)


# ---------------------------------------------------------------------------
# veech functions


def test_veech_explicit_values():
    spec = VeechSpec(starts=(1, 3, 6, 10), signs=(1, -1, 1))
    f = VeechFunction(spec)
    assert f(0) == 0
    assert f(-17) == 0
    assert [f(n) for n in range(1, 10)] == [1, 1, -1, -1, -1, 1, 1, 1, 1]
    with pytest.raises(ParameterError):
        f(10)  # beyond the last materialized block
    assert list(f.values_range(-3, 9)) == [0, 0, 0, 0, 1, 1, -1, -1, -1, 1, 1, 1, 1]


def test_veech_spec_validation():
    with pytest.raises(ParameterError):
        VeechSpec(starts=(1, 2, 3), signs=(1, -1))  # gaps not increasing
    with pytest.raises(ParameterError):
        VeechSpec(starts=(3, 1), signs=(1,))
    with pytest.raises(ParameterError):
        VeechSpec(starts=(1, 3, 6), signs=(1, 2))  # signs must be +-1
    with pytest.raises(ParameterError):
        VeechSpec(starts=(1, 3, 6), signs=(1, -1, 1))  # length mismatch
    with pytest.raises(ParameterError):
        VeechSpec(starts=(0, 3, 7), signs=(1, -1))  # starts must be >= 1


def test_veech_triangular_generator_extends():
    spec = VeechSpec(generator="triangular", sign_rule="alternating")
    f = VeechFunction(spec)
    # triangular starts 1, 3, 6, 10, 15, ... with alternating signs from +1
    assert [f(n) for n in (1, 3, 6, 10, 15)] == [1, -1, 1, -1, 1]
    assert f(1_000_000) in (-1, 1)  # generator materializes on demand


def test_veech_mertens_sign_rule():
    pref = mertens_prefix(sieve_mobius(100))
    spec = VeechSpec(generator="triangular", sign_rule="mertens")
    f = VeechFunction(spec, pref)
    # M(1)=1, M(3)=-1, M(6)=-1, M(10)=-1: increments -2, 0, 0 -> signs -1, +1, +1
    assert (f(1), f(3), f(6)) == (-1, 1, 1)
    assert pref[3] - pref[1] == -2
    with pytest.raises(ParameterError, match=r"bad range \(91, 105\] for limit 100"):
        f(100)  # the block [91, 105) ends past the prefix
    with pytest.raises(ParameterError, match="needs a MertensWalk"):
        VeechFunction(spec)


@pytest.mark.parametrize("w, budget", [(8, 256), (3, 64), (0, 8), (1000, 8), (20, 100), (5, 512)])
def test_veech_last_start_is_the_prefix_a_mertens_scan_reads(w, budget):
    # a prefix of exactly the last start gives the scan a longer one gives; one shorter fails
    limit = veech_last_start(w, budget)
    spec = VeechSpec(generator="triangular", sign_rule="mertens")
    mu = sieve_mobius(100_000)

    exact = veech_window_closure(spec, w, budget, mertens_prefix(mu[:limit]))
    assert exact == veech_window_closure(spec, w, budget, mertens_prefix(mu))
    with pytest.raises(ParameterError, match="bad range"):
        veech_window_closure(spec, w, budget, mertens_prefix(mu[: limit - 1]))


def test_veech_from_json_dict():
    # the veech runner passes its (schema-checked, default-filled) spec document as keywords
    f = VeechFunction(VeechSpec(**{"starts": [1, 3, 6], "signs": [1, -1]}))
    assert f(2) == 1 and f(4) == -1
    g = VeechFunction(VeechSpec(**{"generator": "triangular", "sign_rule": "plus"}))
    assert g(100) == 1
    with pytest.raises(ParameterError):
        VeechSpec(**{"starts": [1, 3, 6]})


def test_veech_window_distance_shift_invariant():
    f = VeechFunction(VeechSpec(generator="triangular", sign_rule="alternating"))
    w = 6

    def window(offset, center):
        return f.values_range(center + offset - w, center + offset + w)

    for a, b in [(2, 5), (0, 9)]:
        base = np.abs(window(a, 40) - window(b, 40)).max()
        for s in (3, 11, 23):
            moved = np.abs(window(a + s, 40 - s) - window(b + s, 40 - s)).max()
            assert moved == base


def test_window_closure_finds_three_constants():
    spec = VeechSpec(generator="triangular", sign_rule="alternating")
    scan = veech_window_closure(spec, w=8, budget=256)
    width = 2 * 8 + 1
    expected = {(1,) * width, (-1,) * width, (0,) * width}
    assert set(scan.above_threshold) == expected
    assert scan.threshold == pytest.approx(scan.max_gap / 3)
    assert set(scan.persistent_constants) == {1, -1, 0}


def test_window_closure_all_plus_rule():
    spec = VeechSpec(generator="triangular", sign_rule="plus")
    scan = veech_window_closure(spec, w=4, budget=128)
    width = 9
    assert set(scan.above_threshold) == {(1,) * width, (0,) * width}


def test_window_closure_explicit_spec_limited_blocks():
    spec = VeechSpec(starts=(1, 3, 6, 10, 15, 21, 28), signs=(1, -1, 1, -1, 1, -1))
    scan = veech_window_closure(spec, w=1, budget=64)
    assert scan.max_gap == 7
    assert all(len(win) == 3 for win in scan.above_threshold)


def _grown(rule: str, top: int) -> VeechFunction:
    mertens = mertens_prefix(sieve_mobius(20_000)) if rule == "mertens" else None
    f = VeechFunction(VeechSpec(generator="triangular", sign_rule=rule), mertens)
    f.values_range(0, top)
    return f


@pytest.mark.parametrize("rule", ["alternating", "plus", "mertens"])
def test_constancy_radius_matches_the_linear_search(rule):
    f = _grown(rule, 15_000)
    runs = f.runs()
    ends = [hi for _, hi, _ in runs]
    for center in range(-300, f.starts[-1] + 300):
        assert _constancy_radius(center, runs, ends) == helpers.ref_constancy_radius(center, runs)


def test_values_range_matches_the_block_lookup():
    f = _grown("mertens", 5000)
    starts, signs = f.starts, f.signs
    for lo, hi in [(-10, 3), (0, 0), (1, 1), (2, 2), (5, 40), (44, 46), (990, 1300), (4990, 5000), (-5, 5000)]:
        expect = [helpers.ref_veech_value(starts, signs, n) for n in range(lo, hi + 1)]
        assert f.values_range(lo, hi).tolist() == expect, (lo, hi)


@pytest.mark.parametrize("rule", ["alternating", "plus", "mertens"])
@pytest.mark.parametrize("w, budget", [(8, 200), (3, 1000), (0, 64)])
def test_window_closure_matches_the_per_centre_scan(rule, w, budget):
    # runs rebuilt and searched linearly after every window, as the scan once did
    mertens = mertens_prefix(sieve_mobius(veech_last_start(w, budget))) if rule == "mertens" else None
    spec = VeechSpec(generator="triangular", sign_rule=rule)
    f = VeechFunction(spec, mertens)
    centers, _ = _scan_centers(f, w, budget)
    expect = []
    for center in centers:
        window = tuple(int(v) for v in f.values_range(center - w, center + w))
        expect.append(WindowSample(center, helpers.ref_constancy_radius(center, f.runs()), window))
    assert veech_window_closure(spec, w, budget, mertens).samples == tuple(expect)
