"""Equation of state of a cold, degenerate, ideal neutron gas (CGS).

Everything is parameterized by the dimensionless relativity parameter

    x = (h / 2 m_n c) * (3 n / pi)^(1/3),

the neutron Fermi momentum in units of m_n c.  With the pressure scale
K = pi m_n^4 c^5 / 3 h^3 (``PRESSURE_SCALE``, from the fixed CGS values
in ``CONSTANTS``), the degenerate-Fermi-gas pressure is

    P = K * F(x),   F(x) = x (2x^2 - 3) sqrt(x^2 + 1) + 3 asinh(x).

At zero temperature rho + P = n mu with mu = m_n c^2 sqrt(1 + x^2), and
m_n c^2 n = 8 K x^3 exactly, so the mass-energy density is

    rho = K * [ 8x^3 sqrt(x^2 + 1) - F(x) ]

(Shapiro & Teukolsky 1983, ch. 2): rest mass plus a kinetic part U
that goes as (12/5) K x^5 at low x (U -> 3P/2) and tends to 3P at high
x.  Below x = 0.3, where the closed form of F cancels, F is summed from
its series, so neither P nor rho cancels at any x.

Pressure inversion is done in x (P spans tens of decades while x spans
a few) by Newton's method, started within 3e-10 of the root up to
x = 1.2 by a polynomial built at import, and from the low- and
high-density limits beyond; x comes out within ~1e-14 relative for
every finite P.  The loop's last bracket value is F at the x it
returns, so ``gas_at_pressure`` reads rho off it, bit for bit what
``energy_density_from_x`` gives at that x, and the star's derivative
evaluates the bracket once per Newton step and no more: two or three
times a call in the star's range.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple

__all__ = ["CONSTANTS", "PRESSURE_SCALE", "pressure_from_x",
           "energy_density_from_x", "invert_pressure_to_x",
           "gas_at_pressure"]


# CGS constants of the gas, fixed for the package; every manifest
# records them
CONSTANTS = namedtuple("PhysicalConstants", "m_n c h G M_sun")(
    m_n=1.67492749804e-24,   # neutron mass, g
    c=2.99792458e10,         # speed of light, cm/s
    h=6.62607015e-27,        # Planck constant, erg s
    G=6.67430e-8,            # gravitational constant, cm^3 g^-1 s^-2
    M_sun=1.98892e33,        # solar mass, g
)
# K = pi m_n^4 c^5 / 3 h^3, erg/cm^3
PRESSURE_SCALE = (math.pi * CONSTANTS.m_n ** 4 * CONSTANTS.c ** 5
                  / (3.0 * CONSTANTS.h ** 3))


# Below _SERIES_CUTOFF the closed form of the pressure bracket cancels
# (its relative error grows as ~4e-16 / x^4), so there the bracket is
# summed from its Maclaurin series F = sum_k c_k x^(2k+5), the integral
# term by term of F' = 8 x^4 / sqrt(1 + x^2): c_k = 8 binom(-1/2, k) /
# (2k + 5).  Seventeen terms truncate below 1e-18 relative.  The Horner
# sum is written out once, at import, as one expression on literal
# coefficients: the loop's steps without its per-term overhead, and about
# half of the default sieve's bracket evaluations take this branch.
_SERIES_CUTOFF = 0.3
_SERIES = tuple(8.0 * (-1) ** k * math.comb(2 * k, k) / 4 ** k / (2 * k + 5)
                for k in reversed(range(17)))  # Horner order


def _nested_sum(terms, name: str):
    """A function of ``square`` summing a polynomial in nested form.

    ``terms`` are (factor, coefficient) pairs, innermost first, and the
    sum takes the steps total = total * factor + coefficient of a loop
    from total = 0.0, bit for bit, written out once as one expression:
    each coefficient is a literal, written by its ``repr``, so the sum
    runs without a loop's per-term overhead or reading a tuple.
    """
    total = "0.0"
    for factor, coefficient in terms:
        total = f"({total} * {factor} + {coefficient!r})"
    return eval(compile(f"lambda square: {total}", f"<abmgrid {name}>",
                        "eval"))


_series_sum = _nested_sum((("square", c) for c in _SERIES), "series")


def _pressure_bracket(x: float) -> float:
    square = x * x
    if x < _SERIES_CUTOFF:
        return _series_sum(square) * square * square * x
    return (x * (2.0 * square - 3.0) * math.sqrt(square + 1.0)
            + 3.0 * math.asinh(x))


# Newton's start.  With x_lo = (5F/8)^(1/5), the low-density root, the
# ratio x / x_lo is a smooth function of square = x_lo^2.  On x in
# (0, 1.2] one degree-8 polynomial in square is within 2.7e-10 of it:
# the interpolant through 9 Chebyshev nodes in x^2 on [0, 1.44], built
# at import from 9 bracket values and no inversion, and written out in
# Newton's nested form as one expression, as the series is.  Beyond
# _START_TOP, x_lo^2 at x = 1.2, the start is the larger of the two
# limits' roots.
_START_SQUARE = 1.44


def _interpolate_start_ratio():
    count, half = 9, 0.5 * _START_SQUARE
    squares, differences = [], []
    for k in range(count):
        x = math.sqrt(half + half * math.cos((2 * k + 1) * math.pi
                                             / (2 * count)))
        low = (0.625 * _pressure_bracket(x)) ** 0.2
        squares.append(low * low)
        differences.append(x / low)
    for width in range(1, count):  # divided differences, in place
        for i in reversed(range(width, count)):
            differences[i] = ((differences[i] - differences[i - 1])
                              / (squares[i] - squares[i - width]))
    return _nested_sum(((f"(square - {node!r})", difference)
                        for difference, node in zip(reversed(differences),
                                                    reversed(squares))),
                       "start")


_start_ratio = _interpolate_start_ratio()
_START_TOP = ((0.625 * _pressure_bracket(math.sqrt(_START_SQUARE)))
              ** 0.2) ** 2


def _check_x(x: float) -> None:
    """Refuse a relativity parameter outside [0, inf), NaN included."""
    if not 0.0 <= x < math.inf:
        raise ValueError(
            "relativity parameter must be non-negative and finite")


def pressure_from_x(x: float) -> float:
    """Pressure at relativity parameter x."""
    _check_x(x)
    return PRESSURE_SCALE * _pressure_bracket(x)


def energy_density_from_x(x: float) -> float:
    """Mass-energy density (rest plus kinetic) at relativity parameter x."""
    _check_x(x)
    square = x * x
    return PRESSURE_SCALE * (
        8.0 * x * square * math.sqrt(square + 1.0) - _pressure_bracket(x))


def invert_pressure_to_x(P: float) -> float:
    """x at which the gas exerts pressure P.

    Newton's method on F(x) = P / K, F the pressure bracket, with the
    analytic slope F'(x) = 8 x^4 / sqrt(1 + x^2).  Up to x = 1.2 Newton
    starts from a polynomial in the low-density root (5F/8)^(1/5),
    built at import, within 3e-10 of the root on either side of it.
    Beyond, as F' <= 8 x^4 and F' <= 8 x^3, the non-relativistic and
    ultra-relativistic roots (5F/8)^(1/5) and (F/2)^(1/4) are both
    lower bounds on x, and Newton starts from the larger.  F is
    increasing and convex, so from either start the first step lands
    at or above the root and each later one moves down toward it; the
    iteration stops at the first step that does not decrease x, which
    is where rounding takes over, two or three brackets from the
    polynomial's start.  P spans tens of decades, x only a few, and
    x F'/F stays between 4 and 5, so x is as accurate as the bracket
    itself.  The loop's last bracket value is F at the x it returns;
    ``gas_at_pressure``, which runs the loop, reads the star's rho off
    it.
    """
    return gas_at_pressure(P)[0]


def gas_at_pressure(P: float) -> tuple[float, float]:
    """(x, rho) of the gas at pressure P.

    x is ``invert_pressure_to_x(P)``, and rho is
    ``energy_density_from_x(x)`` bit for bit: where the Newton loop
    stops, it has just evaluated F at the x it returns, so rho is built
    from that value instead of a second evaluation of F.
    """
    if not (P >= 0.0 and math.isfinite(P)):
        raise ValueError("pressure must be finite and non-negative")
    if P == 0.0:
        return 0.0, energy_density_from_x(0.0)
    target = P / PRESSURE_SCALE
    if target < sys.float_info.min:
        # P / K underflows for x below ~1e-61, where F = 8x^5/5 to far
        # below an ulp, so x(P) = x(2^500 P) / 2^100 exactly; F was
        # never evaluated at this x
        x = gas_at_pressure(P * 2.0 ** 500)[0] * 2.0 ** -100
        return x, energy_density_from_x(x)
    low = (0.625 * target) ** 0.2
    square = low * low
    if square <= _START_TOP:
        x = low * _start_ratio(square)
    else:
        x = max(low, (0.5 * target) ** 0.25)
    upper = math.inf
    sqrt = math.sqrt
    while True:
        square = x * x
        root = sqrt(square + 1.0)
        bracket = _pressure_bracket(x)
        # excess / F'(x); excess * sqrt(1 + x^2) would overflow at the
        # largest pressures
        lower = x - (bracket - target) / (8.0 * square * square / root)
        if not lower < upper:
            # F was last evaluated at this x: rho as
            # energy_density_from_x builds it
            return x, PRESSURE_SCALE * (8.0 * x * square * root - bracket)
        upper = x = lower
