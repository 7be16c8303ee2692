"""Quartic-derivative test problem with a closed-form solution.

The problem is

    y'(x) = (x - 1)(x - 2)(x - 3)(x - 4),   y(0.5) = 1,

whose exact solution is the quintic

    y(x) = x^5/5 - 5x^4/2 + 35x^3/3 - 25x^2 + 24x - 727/120.

Because the derivative depends on x only, every integration error is a
pure quadrature error, which makes this problem a sharp probe of the
engine: convergence orders, the bootstrap ramp, and the adaptive
controller's behavior are all measurable against the analytic curve.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property

from .integrator import IntegratorConfig, Mode, Trajectory
# bound as ``integrate``, the name that perfbench/tracing.py replaces to
# trace this module's integrations
from .integrator import integrate_floats as integrate

__all__ = ["poly_rhs", "poly_exact", "PolyCase", "PolyResult",
           "run_poly_case"]


def poly_rhs(x: float) -> float:
    """Derivative of the test problem: (x-1)(x-2)(x-3)(x-4)."""
    return (x - 1.0) * (x - 2.0) * (x - 3.0) * (x - 4.0)


def poly_exact(x):
    """Closed-form solution through y(0.5) = 1, at a float or an array.

    Horner's form uses only + - * /, which IEEE arithmetic rounds
    correctly, so an array gives each point the bits its float gives,
    whatever vector code evaluates it.
    """
    return ((((x / 5.0 - 2.5) * x + 35.0 / 3.0) * x - 25.0) * x
            + 24.0) * x - 727.0 / 120.0


@dataclass(frozen=True)
class PolyCase:
    """One configured run of the test problem.

    The fixed-grid default of h = 0.25 is deliberately coarse so the
    per-order error curves are visible well above roundoff.
    """

    mode: Mode = Mode.ABM_ADAPTIVE
    order: int = 4
    dx: float = 0.25
    tolerance: float = 1e-8
    x0: float = 0.5
    y0: float = 1.0
    x_end: float = 5.0

    def __post_init__(self):
        if not self.x_end > self.x0:
            raise ValueError("x_end must exceed x0")

    @cached_property
    def _offset(self) -> float:
        """y0 minus poly_exact(x0), once per case; not a field, so repr,
        == and hash see only the case's settings."""
        return self.y0 - poly_exact(self.x0)

    def exact(self, x):
        """The closed-form solution through (x0, y0): poly_exact shifted.

        poly_exact(0.5) is exactly 1, so the default case's curve is
        poly_exact itself, bit for bit.
        """
        return poly_exact(x) + self._offset

    def config(self) -> IntegratorConfig:
        return IntegratorConfig(order_ab=self.order,
                                target_correction=self.tolerance,
                                dx_initial=self.dx, mode=self.mode)


@dataclass(frozen=True)
class PolyResult:
    """A case's trajectory; its exact curve and error are read off it.

    ``y_exact`` (case.exact at each accepted x) and ``error`` (y minus
    that) are new ``array("d")`` columns, one float per step;
    ``final_error`` works at 0 steps too.
    """

    case: PolyCase
    trajectory: Trajectory

    @property
    def y_exact(self) -> array:
        return array("d", map(self.case.exact, self.trajectory.x))

    @property
    def error(self) -> array:
        return array("d", [y - exact for y, exact
                           in zip(self.trajectory.y[0], self.y_exact)])

    @property
    def final_error(self) -> float:
        trajectory = self.trajectory
        return trajectory.final_state[0] - self.case.exact(trajectory.final_x)


def run_poly_case(case: PolyCase) -> PolyResult:
    """Integrate the test problem from its case."""

    def system(x, y):
        return (poly_rhs(x),)

    return PolyResult(case, integrate(system, [case.y0], case.x0,
                                      case.config(), x_end=case.x_end))
