"""Degenerate-neutron-gas EOS against a 50-digit reference.

Frozen values come from tests/oracles/gen_eos_oracle.py (mpmath at 50
significant digits).  The pressure bracket is summed from its series
where its closed form would cancel, and the density comes from it
through rho + P = n mu, so pressure, density (from x = 1e-8) and the
inverted x (over the whole double range of P) are held to 1e-13 or
tighter.  The kinetic part of the density is read here as
rho - m_n c^2 n, a subtraction that loses the digits the rest mass
takes, about log10(10 / 3x^2) of them, so its tolerances widen at
small x by that law.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abmgrid import (
    CONSTANTS,
    PRESSURE_SCALE,
    energy_density_from_x,
    gas_at_pressure,
    invert_pressure_to_x,
    pressure_from_x,
)
from abmgrid.eos import _SERIES, _SERIES_CUTOFF, _pressure_bracket

K_ORACLE = 6.8603787788452409455e+35      # pressure scale, erg/cm^3
N_AT_X1 = 3.6458656708489567942e+39       # number density at x = 1
P_AT_X1 = 8.4376292458112350572e+35       # pressure at x = 1
RHO_AT_X1 = 6.9178696450664859339e+36     # mass-energy density at x = 1

# (x, pressure bracket, kinetic bracket, kinetic tolerance); the
# kinetic part U is read as rho - m_n c^2 n, which magnifies rho's
# rounding by rho / U ~ 10 / 3x^2 at low x, and each tolerance is about
# ten times the error that leaves (6.4e-10, 1.3e-11 and 7.5e-14 at
# x = 1e-3, 1e-2 and 0.1); the pressure is held to PRESSURE_REL
PRESSURE_REL = 1e-13
BRACKETS = [
    (1e-3, 1.5999994285717619045e-15, 2.3999995714287380952e-15, 1e-8),
    (1e-2, 1.5999428604759632203e-10, 2.3999571445237243016e-10, 1e-10),
    (0.1, 1.5943188220159929375e-5, 2.39573086765522868e-5, 1e-12),
    (0.5, 0.046092989241441782238, 0.071940999508453065967, 1e-11),
    (1.0, 1.2299071986855340269, 2.0838013002992263635, 1e-11),
    (2.0, 26.691586200534327992, 52.416764359452212579, 1e-11),
    (10.0, 19807.249642459047742, 52591.75532650807442, 1e-11),
    (100.0, 199980014.14507709418, 592059984.8549729027, 1e-11),
    (1000.0, 1999998000021.0527086, 5992005999977.9472919, 1e-11),
]

# mass-energy density from x = 1e-8, where the kinetic part is 3e-17
# of the rest mass, across the x = 0.3 series cutoff to x = 1e3
DENSITIES = [
    (1e-8, 5488303023076.192921),
    (1e-7, 5488303023076209.2213),
    (1e-6, 5488303023077839247.3),
    (1e-4, 5.4883030395411017962e+24),
    (1e-2, 5.4884676692268370422e+30),
    (0.29, 1.3718223780159298474e+35),
    (0.31, 1.6813778998496359225e+35),
    (1.0, 6.9178696450664859339e+36),
    (10.0, 4.1568239241495908716e+40),
    (1e3, 4.1162313835192828813e+48),
]

# pressure bracket where its closed form cancels, and on both sides of
# the x = 0.3 switch from the series to the closed form
SMALL_X_BRACKETS = [
    (1e-6, 1.5999999999994285714e-30),
    (1e-4, 1.599999994285714319e-20),
    (0.2999999, 0.0037692058297244962623),
    (0.3000001, 0.003769218243153152731),
]

# pressure -> x over the whole double range
WIDE_INVERSIONS = [
    (1e-10, 6.1930756419575331427e-10),
    (1.0, 6.1930756419575348392e-8),
    (1e5, 6.1930756419577028071e-7),
    (1e10, 6.1930756419744995979e-6),
    (1e20, 0.00061930758116220716434),
    (1e30, 0.061947708173645998612),
    (1e33, 0.24760684968401057896),
    (1e36, 1.0376974483879562568),
    (1e40, 9.2656360592845838888),
    (1e100, 9239649085340589.2136),
    (1e200, 9.2396490853405892136e+40),
    (1e300, 9.2396490853405892136e+65),
    (1.7e308, 1.0550370416990956831e+68),
]

# pressure -> (x, number density, mass-energy density)
INVERSIONS = [
    (3.631382e35, 0.83384973779215497879,
     2.1138007757533209499e+39, 3.7799620523192846698e+36),
    (1e30, 0.061947708173645998612,
     8.6671516341128266595e+35, 1.3062104919699787646e+33),
    (1e38, 2.99022336477093621,
     9.7479109971242273416e+40, 3.626723319318071757e+38),
]


def test_constants_are_pinned():
    assert CONSTANTS.m_n == 1.67492749804e-24
    assert CONSTANTS.c == 2.99792458e10
    assert CONSTANTS.h == 6.62607015e-27
    assert CONSTANTS.G == 6.67430e-8
    assert CONSTANTS.M_sun == 1.98892e33


def test_pressure_scale_matches_oracle():
    assert PRESSURE_SCALE == pytest.approx(K_ORACLE, rel=1e-14)


def test_as_dict_exposes_only_primary_constants():
    values = CONSTANTS._asdict()
    assert set(values) == {"m_n", "c", "h", "G", "M_sun"}


def number_density(x):
    """Neutron number density n at relativity parameter x, per cm^3,
    from x = h / (2 m_n c) (3 n / pi)^(1/3)."""
    coefficient = (CONSTANTS.h / (2.0 * CONSTANTS.m_n * CONSTANTS.c)
                   * (3.0 / math.pi) ** (1.0 / 3.0))
    return (x / coefficient) ** 3


def test_number_density_at_unit_x():
    assert number_density(1.0) == pytest.approx(N_AT_X1, rel=1e-13)


def test_state_at_unit_x():
    assert pressure_from_x(1.0) == pytest.approx(P_AT_X1, rel=1e-13)
    assert energy_density_from_x(1.0) == pytest.approx(RHO_AT_X1, rel=1e-13)


@pytest.mark.parametrize("x,p_bracket,u_bracket,rel", BRACKETS)
def test_closed_form_matches_oracle(x, p_bracket, u_bracket, rel):
    assert pressure_from_x(x) == pytest.approx(K_ORACLE * p_bracket,
                                               rel=PRESSURE_REL)
    kinetic = energy_density_from_x(x) - (
        CONSTANTS.m_n * CONSTANTS.c ** 2 * number_density(x))
    assert kinetic == pytest.approx(K_ORACLE * u_bracket, rel=rel)


@pytest.mark.parametrize("x,rho", DENSITIES)
def test_density_matches_oracle(x, rho):
    assert energy_density_from_x(x) == pytest.approx(rho, rel=2e-15,
                                                     abs=0.0)


@pytest.mark.parametrize("x,p_bracket", SMALL_X_BRACKETS)
def test_pressure_bracket_does_not_cancel_at_small_x(x, p_bracket):
    assert pressure_from_x(x) == pytest.approx(K_ORACLE * p_bracket,
                                               rel=PRESSURE_REL)


def series_bracket_by_loop(x):
    """The series branch of the pressure bracket, summed in a loop."""
    square = x * x
    total = 0.0
    for coefficient in _SERIES:
        total = total * square + coefficient
    return total * square * square * x


def test_series_bracket_is_the_horner_loop_bit_for_bit():
    # the written-out sum takes the loop's steps on the same literals;
    # log-spaced x down to 1e-300 and the ten doubles below the cutoff
    below = [_SERIES_CUTOFF]
    for _ in range(10):
        below.append(math.nextafter(below[-1], 0.0))
    xs = np.logspace(-300.0, math.log10(_SERIES_CUTOFF), 10_000,
                     endpoint=False).tolist() + below[1:]
    assert all(x < _SERIES_CUTOFF for x in xs)
    assert [_pressure_bracket(x).hex() for x in xs] == [
        series_bracket_by_loop(x).hex() for x in xs]


def test_nonrelativistic_limit():
    # P -> (8/5) K x^5 and U -> (12/5) K x^5, hence U/P -> 3/2; at
    # x = 0.01 the oracle puts both ratios within 4e-5 of the limit
    x = 1e-2
    assert pressure_from_x(x) / (1.6 * K_ORACLE * x ** 5) == pytest.approx(
        0.99996428779, rel=1e-6)
    u = energy_density_from_x(x) - (
        CONSTANTS.m_n * CONSTANTS.c ** 2 * number_density(x))
    assert u / pressure_from_x(x) == pytest.approx(1.5, rel=1e-4)


def test_ultrarelativistic_limit():
    # U/P climbs to 3 as x -> infinity
    for x, p_bracket, u_bracket, _ in BRACKETS[-2:]:
        ratio = u_bracket / p_bracket
        kinetic = energy_density_from_x(x) - (
            CONSTANTS.m_n * CONSTANTS.c ** 2 * number_density(x))
        assert kinetic / pressure_from_x(x) == pytest.approx(ratio,
                                                             rel=1e-11)
    assert BRACKETS[-1][2] / BRACKETS[-1][1] == pytest.approx(3.0, rel=2e-3)


def test_pressure_and_density_strictly_increase():
    xs = np.logspace(-2, 2, 200)
    P = [pressure_from_x(float(x)) for x in xs]
    rho = [energy_density_from_x(float(x)) for x in xs]
    assert np.all(np.diff(P) > 0.0)
    assert np.all(np.diff(rho) > 0.0)


def test_density_exceeds_pressure_in_stellar_range():
    # the gas is never stiffer than light: P < rho throughout
    for x in np.logspace(-2, 1, 50):
        assert pressure_from_x(float(x)) < energy_density_from_x(float(x))


@pytest.mark.parametrize("P,x_ref,n_ref,rho_ref", INVERSIONS)
def test_pressure_inversion_matches_oracle(P, x_ref, n_ref, rho_ref):
    x = invert_pressure_to_x(P)
    assert x == pytest.approx(x_ref, rel=1e-10)
    assert number_density(x) == pytest.approx(n_ref, rel=1e-9)
    assert energy_density_from_x(x) == pytest.approx(rho_ref, rel=1e-9)


@pytest.mark.parametrize("P,x_ref", WIDE_INVERSIONS)
def test_inversion_matches_oracle_over_the_double_range(P, x_ref):
    assert invert_pressure_to_x(P) == pytest.approx(x_ref, rel=1e-13,
                                                    abs=0.0)


def test_inversion_is_monotone():
    rng = np.random.default_rng(20)
    pressures = np.sort(10.0 ** rng.uniform(-10.0, math.log10(1.7e308),
                                             100_000))
    xs = np.array([invert_pressure_to_x(float(P)) for P in pressures])
    assert np.all(np.diff(xs) >= 0.0)


def test_inversion_is_finite_at_extreme_pressures():
    # P / K underflows at 5e-324 and 1e-300, where x is the
    # non-relativistic root (5P / 8K)^(1/5); 1e300 and 1.7e308 would
    # overflow a Newton step written as excess * sqrt(1 + x^2)
    for P in (5e-324, 1e-300):
        x = invert_pressure_to_x(P)
        assert math.isfinite(x) and x > 0.0
        assert x == pytest.approx((0.625 / K_ORACLE) ** 0.2 * P ** 0.2,
                                  rel=1e-13, abs=0.0)
    for P in (1e300, 1.7e308):
        x = invert_pressure_to_x(P)
        assert math.isfinite(x) and x > 0.0
        assert pressure_from_x(x) == pytest.approx(P, rel=1e-13)


def test_inversion_roundtrip_across_twenty_decades():
    for P in np.logspace(25, 38, 27):
        x = invert_pressure_to_x(float(P))
        assert pressure_from_x(x) == pytest.approx(P, rel=1e-6)
    # away from the small-x cancellation the roundtrip is much tighter
    for P in np.logspace(31, 38, 15):
        x = invert_pressure_to_x(float(P))
        assert pressure_from_x(x) == pytest.approx(P, rel=1e-9)


def test_inversion_handles_edge_inputs():
    assert invert_pressure_to_x(0.0) == 0.0
    assert number_density(invert_pressure_to_x(0.0)) == 0.0
    for invert in (invert_pressure_to_x, gas_at_pressure):
        for P in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                invert(P)


def composed_gas(P):
    """(x, rho) as two calls compute it, bits as hex strings."""
    x = invert_pressure_to_x(P)
    return x.hex(), energy_density_from_x(x).hex()


def test_gas_at_pressure_is_the_composition_bit_for_bit(gas_pressures):
    # rho read off the inversion's last bracket value, and the fallback
    # below the underflow edge and at P = 0, against the two calls
    for P in gas_pressures:
        x, rho = gas_at_pressure(P)
        assert (x.hex(), rho.hex()) == composed_gas(P), P


@settings(derandomize=True, max_examples=300, database=None)
@given(st.floats(0.0, 1.7976931348623157e308))
def test_gas_at_pressure_composition_property(P):
    x, rho = gas_at_pressure(P)
    assert (x.hex(), rho.hex()) == composed_gas(P)


def test_parameter_validation():
    # both gas functions refuse x outside [0, inf) with one message
    for gas in (pressure_from_x, energy_density_from_x):
        for x in (-1.0, -5e-324, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-negative and finite"):
                gas(x)


def test_eos_point_is_self_consistent():
    # at x = 1 the density splits into rest mass m_n c^2 n plus a
    # positive kinetic part that matches the oracle's bracket
    rest = CONSTANTS.m_n * CONSTANTS.c ** 2 * N_AT_X1
    kinetic = energy_density_from_x(1.0) - rest
    assert kinetic == pytest.approx(K_ORACLE * BRACKETS[4][2], rel=1e-11)
    assert kinetic > 0.0
    assert rest + kinetic == pytest.approx(RHO_AT_X1, rel=1e-13)


def test_zero_density_point_is_vacuum():
    assert number_density(0.0) == 0.0
    assert pressure_from_x(0.0) == 0.0
    assert energy_density_from_x(0.0) == 0.0
