import math
from fractions import Fraction

import numpy as np
import pytest

from ergolab.arith import mertens_prefix, sieve_mobius
from ergolab.dynsys import (
    TableStream,
    VeechSpec,
    bernoulli_stream,
    rotation_orbit,
    skew_orbit,
    state_fraction,
    sturmian_word,
    to_state,
    veech_function,
    veech_window_closure,
)
from ergolab.errors import ParameterError

import helpers

SQRT2M1 = math.sqrt(2) - 1
MASK = (1 << 64) - 1


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


def test_state_fraction_roundtrip():
    s = to_state(SQRT2M1)
    assert abs(state_fraction(s) - SQRT2M1) < 2**-52


def test_rational_guard():
    with pytest.raises(ParameterError):
        rotation_orbit(0.5)
    with pytest.raises(ParameterError):
        rotation_orbit(0.0)
    with pytest.raises(ParameterError):
        rotation_orbit(Fraction(3, 65536))
    # denominator above 2^16 is accepted
    rotation_orbit(Fraction(1, 65537))
    # guard can be switched off for test constructions
    rotation_orbit(0.5, check=False)


# ---------------------------------------------------------------------------
# rotations


def test_rotation_period_two_when_alpha_half():
    orbit = rotation_orbit(0.5, x0=0.0, check=False)
    vals = orbit.take(6)
    assert np.allclose(vals, [1, -1, 1, -1, 1, -1])


def test_rotation_first_value_is_observable_at_start():
    orbit = rotation_orbit(SQRT2M1, x0=0.25)
    assert abs(orbit.take(1)[0] - np.exp(2j * np.pi * 0.25)) < 1e-15


def test_rotation_states_exact():
    a = to_state(SQRT2M1)
    x0 = to_state(0.1)
    orbit = rotation_orbit(SQRT2M1, x0=0.1)
    states = orbit.states(100)
    for n in range(100):
        assert int(states[n]) == (x0 + n * a) & MASK


def test_rotation_equidistribution():
    n = 1_000_000
    orbit = rotation_orbit(SQRT2M1, x0=0.0)
    fracs = orbit.states(n).astype(np.float64) / 2.0**64
    assert ks_uniform(fracs) < 3 / math.sqrt(n)


def test_rotation_advance_group_law():
    orbit = rotation_orbit(SQRT2M1, x0=0.7)
    m, k = 137, 64
    direct = orbit.take(m + k)[m:]
    shifted = orbit.advance(m).take(k)
    assert np.array_equal(direct, shifted)


def test_rotation_unit_modulus():
    vals = rotation_orbit(SQRT2M1).take(1000)
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# skew products


def test_skew_additive_constant_when_x0_zero():
    orbit = skew_orbit("additive", x0=0.0, y0=0.3, check=False)
    vals = orbit.take(50)
    assert np.allclose(vals, np.exp(2j * np.pi * 0.3))


def test_skew_additive_fiber_is_rotation_by_x0():
    orbit = skew_orbit("additive", x0=SQRT2M1, y0=0.0)
    x0 = to_state(SQRT2M1)
    states = orbit.fiber_states(200)
    for n in range(200):
        assert int(states[n]) == (n * x0) & MASK


def test_skew_affine_closed_form_matches_iteration():
    a = to_state(SQRT2M1)
    x0 = to_state(0.15)
    y0 = to_state(0.85)
    orbit = skew_orbit("affine", x0=0.15, y0=0.85, alpha=SQRT2M1)
    states = orbit.fiber_states(300)
    x, y = x0, y0
    for n in range(300):
        assert int(states[n]) == y, n
        y = (y + x) & MASK
        x = (x + a) & MASK


def test_skew_affine_fiber_equidistribution():
    n = 1_000_000
    orbit = skew_orbit("affine", x0=0.0, y0=0.0, alpha=SQRT2M1)
    fracs = orbit.fiber_states(n).astype(np.float64) / 2.0**64
    assert ks_uniform(fracs) < 3 / math.sqrt(n)


def test_skew_advance_group_law():
    for variant, kwargs in [
        ("additive", dict(x0=SQRT2M1, y0=0.2)),
        ("affine", dict(x0=0.3, y0=0.1, alpha=SQRT2M1)),
    ]:
        orbit = skew_orbit(variant, **kwargs)
        direct = orbit.take(100)[37:]
        assert np.array_equal(orbit.advance(37).take(63), direct)


def test_skew_guard_checks_relevant_parameter():
    with pytest.raises(ParameterError):
        skew_orbit("additive", x0=0.5, y0=0.0)
    with pytest.raises(ParameterError):
        skew_orbit("affine", x0=0.5, y0=0.0, alpha=0.25)
    skew_orbit("affine", x0=0.5, y0=0.0, alpha=SQRT2M1)  # x0 may be rational here
    with pytest.raises(ParameterError):
        skew_orbit("diagonal", x0=0.1, y0=0.1)


# ---------------------------------------------------------------------------
# sturmian words


def test_sturmian_matches_scalar_definition():
    a = to_state(SQRT2M1)
    x0 = to_state(0.33)
    word = sturmian_word(SQRT2M1, x0=0.33).take(500)
    thresh = (1 << 64) - a
    for n in range(500):
        state = (x0 + n * a) & MASK
        assert int(word[n]) == (1 if state >= thresh else 0)


def test_sturmian_complexity_k_plus_one():
    word = sturmian_word(SQRT2M1).take(100_000)
    for k in range(1, 13):
        assert helpers.ref_subword_count(word, k) == k + 1, k


def test_sturmian_balance():
    word = sturmian_word(SQRT2M1).take(100_000).astype(np.int64)
    prefix = np.concatenate([[0], np.cumsum(word)])
    for k in range(1, 1001):
        sums = prefix[k:] - prefix[:-k]
        assert sums.max() - sums.min() <= 1, k


def test_sturmian_one_frequency_close_to_alpha():
    n = 1_000_000
    word = sturmian_word(SQRT2M1).take(n)
    assert abs(word.mean() - SQRT2M1) <= 1e-2


def test_sturmian_advance():
    word = sturmian_word(SQRT2M1, x0=0.9)
    assert np.array_equal(word.advance(11).take(50), word.take(61)[11:])


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


def test_bernoulli_advance():
    s = bernoulli_stream(0.5, seed=7)
    assert np.array_equal(s.advance(100).take(50), s.take(150)[100:])


# ---------------------------------------------------------------------------
# table streams


def test_table_stream_reads_table():
    table = sieve_mobius(100)
    stream = TableStream(table.values)
    assert np.array_equal(stream.take(10), table.values[:10])
    assert np.array_equal(stream.advance(5).take(5), table.values[5:10])
    with pytest.raises(ParameterError):
        stream.take(101)


# ---------------------------------------------------------------------------
# veech functions


def test_veech_explicit_values():
    spec = VeechSpec.explicit(starts=(1, 3, 6, 10), signs=(1, -1, 1))
    f = veech_function(spec)
    assert f(0) == 0
    assert f(-17) == 0
    assert [f(n) for n in range(1, 10)] == [1, 1, -1, -1, -1, 1, 1, 1, 1]
    with pytest.raises(ParameterError):
        f(10)  # beyond the last materialized block
    assert list(f.values_range(-3, 9)) == [0, 0, 0, 0, 1, 1, -1, -1, -1, 1, 1, 1, 1]


def test_veech_spec_validation():
    with pytest.raises(ParameterError):
        VeechSpec.explicit(starts=(1, 2, 3), signs=(1, -1))  # gaps not increasing
    with pytest.raises(ParameterError):
        VeechSpec.explicit(starts=(3, 1), signs=(1,))
    with pytest.raises(ParameterError):
        VeechSpec.explicit(starts=(1, 3, 6), signs=(1, 2))  # signs must be +-1
    with pytest.raises(ParameterError):
        VeechSpec.explicit(starts=(1, 3, 6), signs=(1, -1, 1))  # length mismatch
    with pytest.raises(ParameterError):
        VeechSpec.explicit(starts=(0, 3, 7), signs=(1, -1))  # starts must be >= 1


def test_veech_triangular_generator_extends():
    spec = VeechSpec.generated("triangular", "alternating")
    f = veech_function(spec)
    # triangular starts 1, 3, 6, 10, 15, ... with alternating signs from +1
    assert [f(n) for n in (1, 3, 6, 10, 15)] == [1, -1, 1, -1, 1]
    assert f(1_000_000) in (-1, 1)  # generator materializes on demand


def test_veech_mertens_sign_rule():
    pref = mertens_prefix(100)
    spec = VeechSpec.generated("triangular", "mertens", mertens_limit=100)
    f = veech_function(spec)
    # M(1)=1, M(3)=-1, M(6)=-1, M(10)=-1: increments -2, 0, 0 -> signs -1, +1, +1
    assert (f(1), f(3), f(6)) == (-1, 1, 1)
    assert pref.m(3) - pref.m(1) == -2


def test_veech_from_json_dict():
    # the veech runner passes its (schema-checked, default-filled) spec document as keywords
    f = veech_function(VeechSpec(**{"starts": [1, 3, 6], "signs": [1, -1]}))
    assert f(2) == 1 and f(4) == -1
    g = veech_function(
        VeechSpec(**{"generator": "triangular", "sign_rule": "plus", "mertens_limit": None})
    )
    assert g(100) == 1
    with pytest.raises(ParameterError):
        VeechSpec(**{"starts": [1, 3, 6]})


def test_veech_window_distance_shift_invariant():
    f = veech_function(VeechSpec.generated("triangular", "alternating"))
    w = 6

    def window(offset, center):
        return f.values_range(center + offset - w, center + offset + w)

    for a, b in [(2, 5), (0, 9)]:
        base = np.abs(window(a, 40) - window(b, 40)).max()
        for s in (3, 11, 23):
            moved = np.abs(window(a + s, 40 - s) - window(b + s, 40 - s)).max()
            assert moved == base


def test_window_closure_finds_three_constants():
    spec = VeechSpec.generated("triangular", "alternating")
    scan = veech_window_closure(spec, w=8, budget=256)
    width = 2 * 8 + 1
    expected = {(1,) * width, (-1,) * width, (0,) * width}
    assert set(scan.above_threshold) == expected
    assert scan.threshold == pytest.approx(scan.max_gap / 3)
    assert set(scan.persistent_constants) == {1, -1, 0}


def test_window_closure_all_plus_rule():
    spec = VeechSpec.generated("triangular", "plus")
    scan = veech_window_closure(spec, w=4, budget=128)
    width = 9
    assert set(scan.above_threshold) == {(1,) * width, (0,) * width}


def test_window_closure_explicit_spec_limited_blocks():
    spec = VeechSpec.explicit(starts=(1, 3, 6, 10, 15, 21, 28), signs=(1, -1, 1, -1, 1, -1))
    scan = veech_window_closure(spec, w=1, budget=64)
    assert scan.max_gap == 7
    assert all(len(win) == 3 for win in scan.above_threshold)
