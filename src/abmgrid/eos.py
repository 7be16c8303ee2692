"""Equation of state of a cold, degenerate, ideal neutron gas (CGS).

Everything is parameterized by the dimensionless relativity parameter

    x = (h / 2 m_n c) * (3 n / pi)^(1/3),

the neutron Fermi momentum in units of m_n c.  Pressure and mass-energy
density follow from the standard degenerate-Fermi-gas integrals:

    P   = K * [ x (2x^2 - 3) sqrt(x^2 + 1) + 3 asinh(x) ]
    rho = m_n c^2 n + K * [ 3x (2x^2 + 1) sqrt(x^2 + 1) - 8x^3 - 3 asinh(x) ]

with the pressure scale K = pi m_n^4 c^5 / 3 h^3.  The second term of
rho is the kinetic energy density; the first is rest mass.  Low-x
limits go as (8/5)x^5 and (12/5)x^5 (so U -> 3P/2, the nonrelativistic
ideal gas), and the ultrarelativistic ratio U/P -> 3.

Pressure inversion is done in x, the numerically tame variable (P
spans tens of decades while x spans a few), by bracketing with
doubling and bisecting to 1e-13 relative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

__all__ = ["PhysicalConstants", "CONSTANTS", "relativity_parameter",
           "number_density", "pressure_from_x", "energy_density_from_x",
           "invert_pressure_to_x"]


@dataclass(frozen=True)
class PhysicalConstants:
    """CGS constants pinned in one place; every output records them."""

    m_n: float = 1.67492749804e-24   # neutron mass, g
    c: float = 2.99792458e10         # speed of light, cm/s
    h: float = 6.62607015e-27        # Planck constant, erg s
    G: float = 6.67430e-8            # gravitational constant, cm^3 g^-1 s^-2
    M_sun: float = 1.98892e33        # solar mass, g
    # derived, filled in post-init
    pressure_scale: float = field(init=False, repr=False)   # K, erg/cm^3
    x_coefficient: float = field(init=False, repr=False)    # x / n^(1/3)

    def __post_init__(self):
        if min(self.m_n, self.c, self.h, self.G, self.M_sun) <= 0.0:
            raise ValueError("all physical constants must be positive")
        object.__setattr__(
            self, "pressure_scale",
            math.pi * self.m_n ** 4 * self.c ** 5 / (3.0 * self.h ** 3))
        object.__setattr__(
            self, "x_coefficient",
            self.h / (2.0 * self.m_n * self.c) * (3.0 / math.pi) ** (1.0 / 3.0))

    def as_dict(self) -> dict:
        values = asdict(self)
        del values["pressure_scale"], values["x_coefficient"]
        return values


CONSTANTS = PhysicalConstants()


def relativity_parameter(n: float,
                         constants: PhysicalConstants = CONSTANTS) -> float:
    """x as a function of number density; cube-root scaling in n."""
    if not n >= 0.0:
        raise ValueError("number density must be non-negative")
    return constants.x_coefficient * n ** (1.0 / 3.0)


def number_density(x: float,
                   constants: PhysicalConstants = CONSTANTS) -> float:
    """Inverse of relativity_parameter."""
    if not x >= 0.0:
        raise ValueError("relativity parameter must be non-negative")
    return (x / constants.x_coefficient) ** 3


def _pressure_bracket(x: float) -> float:
    return x * (2.0 * x * x - 3.0) * math.sqrt(x * x + 1.0) + 3.0 * math.asinh(x)


def _kinetic_bracket(x: float) -> float:
    return (3.0 * x * (2.0 * x * x + 1.0) * math.sqrt(x * x + 1.0)
            - 8.0 * x ** 3 - 3.0 * math.asinh(x))


def pressure_from_x(x: float,
                    constants: PhysicalConstants = CONSTANTS) -> float:
    """Pressure at relativity parameter x."""
    return constants.pressure_scale * _pressure_bracket(x)


def energy_density_from_x(x: float,
                          constants: PhysicalConstants = CONSTANTS) -> float:
    """Mass-energy density (rest plus kinetic) at relativity parameter x."""
    rest = constants.m_n * constants.c ** 2 * number_density(x, constants)
    return rest + constants.pressure_scale * _kinetic_bracket(x)


def invert_pressure_to_x(P: float,
                         constants: PhysicalConstants = CONSTANTS) -> float:
    """x at which the gas exerts pressure P.

    Doubles an upper bracket from x = 1 until it covers P, then bisects
    until the bracket is 1e-13 of its magnitude.  P spans ~20 decades
    over the stellar range, but x only a few, so bisection in x is
    uniformly well-conditioned.
    """
    if not (P >= 0.0 and math.isfinite(P)):
        raise ValueError("pressure must be finite and non-negative")
    if P == 0.0:
        return 0.0
    target = P / constants.pressure_scale
    hi = 1.0
    while _pressure_bracket(hi) < target:
        hi *= 2.0
    lo = 0.0
    sqrt, asinh = math.sqrt, math.asinh
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # _pressure_bracket(mid) written out, with the same rounding:
        # this loop runs ~45 times per inversion
        square = mid * mid
        if (mid * (2.0 * square - 3.0) * sqrt(square + 1.0)
                + 3.0 * asinh(mid)) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * hi:
            break
    return 0.5 * (lo + hi)

