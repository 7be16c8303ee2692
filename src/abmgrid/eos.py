"""Equation of state of a cold, degenerate, ideal neutron gas (CGS).

Everything is parameterized by the dimensionless relativity parameter

    x = (h / 2 m_n c) * (3 n / pi)^(1/3),

the neutron Fermi momentum in units of m_n c.  With the pressure scale
K = pi m_n^4 c^5 / 3 h^3, the degenerate-Fermi-gas pressure is

    P = K * F(x),   F(x) = x (2x^2 - 3) sqrt(x^2 + 1) + 3 asinh(x).

At zero temperature rho + P = n mu with mu = m_n c^2 sqrt(1 + x^2), and
m_n c^2 n = 8 K x^3 exactly, so the mass-energy density is

    rho = K * [ 8x^3 sqrt(x^2 + 1) - F(x) ]

(Shapiro & Teukolsky 1983, ch. 2): rest mass plus a kinetic part U
that goes as (12/5) K x^5 at low x (U -> 3P/2) and tends to 3P at high
x.  Below x = 0.3, where the closed form of F cancels, F is summed from
its series, so neither P nor rho cancels at any x.

Pressure inversion is done in x (P spans tens of decades while x spans
a few) by Newton's method started below the root from the low- and
high-density limits; x comes out within ~1e-14 relative for every
finite P.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, asdict
from functools import cached_property

__all__ = ["PhysicalConstants", "CONSTANTS", "pressure_from_x",
           "energy_density_from_x", "invert_pressure_to_x"]


@dataclass(frozen=True)
class PhysicalConstants:
    """CGS constants pinned in one place; every output records them."""

    m_n: float = 1.67492749804e-24   # neutron mass, g
    c: float = 2.99792458e10         # speed of light, cm/s
    h: float = 6.62607015e-27        # Planck constant, erg s
    G: float = 6.67430e-8            # gravitational constant, cm^3 g^-1 s^-2
    M_sun: float = 1.98892e33        # solar mass, g

    def __post_init__(self):
        if min(self.m_n, self.c, self.h, self.G, self.M_sun) <= 0.0:
            raise ValueError("all physical constants must be positive")

    @cached_property
    def pressure_scale(self) -> float:
        """K = pi m_n^4 c^5 / 3 h^3, erg/cm^3; derived, so not a field."""
        return math.pi * self.m_n ** 4 * self.c ** 5 / (3.0 * self.h ** 3)

    def as_dict(self) -> dict:
        return asdict(self)


CONSTANTS = PhysicalConstants()
# K read once: each read of the cached property is an attribute lookup,
# and every derivative of a star reads it twice
_PRESSURE_SCALE = CONSTANTS.pressure_scale


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


def _horner_source(coefficients) -> str:
    """Horner's rule in ``square`` as one expression, from total = 0.0.

    Each coefficient is a literal, written by its ``repr``, so the sum
    takes the steps total = total * square + c of a loop, bit for bit,
    without reading a tuple.
    """
    total = "0.0"
    for coefficient in coefficients:
        total = f"({total} * square + {coefficient!r})"
    return total


_series_sum = eval(compile(f"lambda square: {_horner_source(_SERIES)}",
                           "<abmgrid series>", "eval"))


def _pressure_bracket(x: float) -> float:
    square = x * x
    if x < _SERIES_CUTOFF:
        return _series_sum(square) * square * square * x
    return (x * (2.0 * square - 3.0) * math.sqrt(square + 1.0)
            + 3.0 * math.asinh(x))


def pressure_from_x(x: float) -> float:
    """Pressure at relativity parameter x."""
    return _PRESSURE_SCALE * _pressure_bracket(x)


def energy_density_from_x(x: float) -> float:
    """Mass-energy density (rest plus kinetic) at relativity parameter x."""
    if not x >= 0.0:
        raise ValueError("relativity parameter must be non-negative")
    square = x * x
    return _PRESSURE_SCALE * (
        8.0 * x * square * math.sqrt(square + 1.0) - _pressure_bracket(x))


def invert_pressure_to_x(P: float) -> float:
    """x at which the gas exerts pressure P.

    Newton's method on F(x) = P / K, F the pressure bracket, with the
    analytic slope F'(x) = 8 x^4 / sqrt(1 + x^2).  As F' <= 8 x^4 and
    F' <= 8 x^3, the non-relativistic and ultra-relativistic roots
    (5F/8)^(1/5) and (F/2)^(1/4) are both lower bounds on x; Newton
    starts from the larger.  F is increasing and convex, so the first
    step lands above the root and each later one moves down toward it;
    the iteration stops at the first step that does not decrease x,
    which is where rounding takes over.  P spans tens of decades, x
    only a few, and x F'/F stays between 4 and 5, so x is as accurate
    as the bracket itself.
    """
    if not (P >= 0.0 and math.isfinite(P)):
        raise ValueError("pressure must be finite and non-negative")
    if P == 0.0:
        return 0.0
    target = P / _PRESSURE_SCALE
    if target < sys.float_info.min:
        # P / K underflows for x below ~1e-61, where F = 8x^5/5 to far
        # below an ulp, so x(P) = x(2^500 P) / 2^100 exactly
        return invert_pressure_to_x(P * 2.0 ** 500) * 2.0 ** -100
    x = max((0.625 * target) ** 0.2, (0.5 * target) ** 0.25)
    upper = math.inf
    sqrt = math.sqrt
    while True:
        square = x * x
        # excess / F'(x); excess * sqrt(1 + x^2) would overflow at the
        # largest pressures
        x -= (_pressure_bracket(x) - target) / (
            8.0 * square * square / sqrt(square + 1.0))
        if not x < upper:
            return upper
        upper = x
