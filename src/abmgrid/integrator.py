"""Adams-Bashforth-Moulton predictor-corrector integration on a free grid.

The engine advances an ODE system y' = f(x, y) with explicit
(Adams-Bashforth) predictions optionally refined by an implicit
(Adams-Moulton) correction, in PECE form:

    Predict   y_AB at x + dx from the last N stored derivatives,
    Evaluate  f(x + dx, y_AB),
    Correct   y_AM from those derivatives plus the new one (N+1 nodes),
    Evaluate  f(x + dx, y_AM), which is what enters the stencil.

Every accepted step lands in the :class:`Trajectory`'s columns, and the
stencil is the newest N rows of its x and y' columns.  Each step builds
the interpolating polynomial afresh from those actual node abscissae,
in Newton form (divided differences of the derivatives, basis integrals
on Gauss points; see :func:`adams_update`), so the grid never needs to
be uniform and nothing but the columns is carried from step to step.
It is the polynomial the Lagrange weights of :mod:`abmgrid.quadrature`
integrate, reached on Python floats with the correction as one extra
term.  The step-size controller exploits the free grid by scaling dx
against the fractional correction |y_AM - y_AB| relative to a target
correction E.  Growth is capped at GROWTH_CAP per step; shrinking is
uncapped down to an optional floor.  Steps are never rejected: the
correction always ships and only the *next* step size responds.

Bootstrapping: the first step has a one-node stencil and runs at order
1, the second at order 2, and so on until the configured order is
reached, so a single initial condition suffices.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .quadrature import _gauss_legendre_unit

__all__ = [
    "GROWTH_CAP",
    "Mode",
    "IntegratorConfig",
    "StepRecord",
    "Trajectory",
    "IntegrationError",
    "MaxStepsExceeded",
    "NonFiniteState",
    "CallbackFailure",
    "adams_update",
    "fractional_correction",
    "next_step_size",
    "integrate",
]


GROWTH_CAP = 3.0  # largest factor by which dx may grow in one step
_START_ROWS = 64  # rows a trajectory's columns start with
_FLOAT = np.dtype(float)


class Mode(enum.Enum):
    """Stepping discipline for one integration."""

    AB_FIXED = "ab-fixed"          # explicit only, constant dx
    ABM_FIXED = "abm-fixed"        # predictor-corrector, constant dx
    ABM_ADAPTIVE = "abm-adaptive"  # predictor-corrector, controlled dx


@dataclass(frozen=True)
class IntegratorConfig:
    """Immutable knobs for one integration.

    ``order_ab`` is the number of history nodes the explicit prediction
    uses once bootstrapping has finished; the implicit correction always
    uses one node more (the N and N+1 tandem).  ``target_correction``
    is the dimensionless fractional correction E the adaptive
    controller steers toward.
    """

    order_ab: int
    target_correction: float = 1e-8
    dx_initial: float = 0.01
    dx_min: float = 0.0
    mode: Mode = Mode.ABM_ADAPTIVE
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.order_ab < 1:
            raise ValueError("order_ab must be >= 1")
        if not 0.0 < self.target_correction < math.inf:
            raise ValueError("target_correction must be positive and finite")
        if not 0.0 < self.dx_initial < math.inf:
            raise ValueError("dx_initial must be positive and finite")
        if not 0.0 <= self.dx_min < math.inf:
            raise ValueError("dx_min must be non-negative and finite")
        if self.dx_initial < self.dx_min:
            raise ValueError("dx_initial must be >= dx_min")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class StepRecord:
    """One accepted step, as iterating a :class:`Trajectory` yields it.

    ``epsilon_max`` is the largest magnitude of the per-component
    fractional correction, the scalar the controller acts on (0 in
    ``AB_FIXED`` mode, which never corrects).  ``capped``/``floored`` report
    whether the controller's choice of the *next* step size hit the
    growth cap or the minimum-step floor on this step.
    """

    index: int
    x_next: float
    dx: float
    y_am: np.ndarray
    epsilon_max: float
    effective_order: int
    capped: bool = False
    floored: bool = False


class Trajectory:
    """Accepted steps of one integration, one column per quantity.

    Row 0 is the start point: x0, y0 and, once the engine has evaluated
    it, f(x0, y0).  Row i + 1 is step i: its abscissa, step size,
    corrected state, the derivative there (the one that enters the
    stencil, which makes the PECE accounting exactly two evaluations per
    step), epsilon_max, effective order and controller flags.  The
    engine reads its stencil as views of the newest rows of the x and
    y' columns.  The columns double in length when they fill.

    ``x``, ``dx``, ``y`` and ``epsilon_max`` return copies, one entry
    per step; iteration yields a :class:`StepRecord` per step.
    """

    def __init__(self, x0: float, y0: np.ndarray):
        y0 = np.array(y0, dtype=float)
        rows = _START_ROWS
        self._x, self._dx, self._eps = (np.empty(rows) for _ in range(3))
        self._y, self._dy = (np.empty((rows,) + y0.shape) for _ in range(2))
        self._order = np.empty(rows, dtype=int)
        self._capped, self._floored = (np.empty(rows, dtype=bool)
                                       for _ in range(2))
        self._x[0], self._y[0] = x0, y0
        self._steps = 0
        self.n_evals = 0
        self.halted = False  # True when a state predicate stopped the run

    def _append(self, x, dx, y, dy, epsilon_max, order, capped, floored):
        row = self._steps + 1
        if row == self._x.size:
            for name in ("_x", "_dx", "_y", "_dy", "_eps", "_order",
                         "_capped", "_floored"):
                column = getattr(self, name)
                grown = np.empty((2 * row,) + column.shape[1:], column.dtype)
                grown[:row] = column
                setattr(self, name, grown)
        self._x[row], self._dx[row], self._eps[row] = x, dx, epsilon_max
        self._y[row], self._dy[row] = y, dy
        self._order[row] = order
        self._capped[row], self._floored[row] = capped, floored
        self._steps = row

    def __len__(self):
        return self._steps

    def __iter__(self):
        steps = slice(1, self._steps + 1)
        columns = zip(self._x[steps].tolist(), self._dx[steps].tolist(),
                      self._y[steps].copy(), self._eps[steps].tolist(),
                      self._order[steps].tolist(),
                      self._capped[steps].tolist(),
                      self._floored[steps].tolist())
        for index, fields in enumerate(columns):
            yield StepRecord(index, *fields)

    @property
    def x(self) -> np.ndarray:
        return self._x[1:self._steps + 1].copy()

    @property
    def y(self) -> np.ndarray:
        return self._y[1:self._steps + 1].copy()

    @property
    def dx(self) -> np.ndarray:
        return self._dx[1:self._steps + 1].copy()

    @property
    def epsilon_max(self) -> np.ndarray:
        return self._eps[1:self._steps + 1].copy()

    @property
    def final_x(self) -> float:
        return float(self._x[self._steps])

    @property
    def final_y(self) -> np.ndarray:
        return self._y[self._steps].copy()


class IntegrationError(RuntimeError):
    """Base failure; carries the partial trajectory accepted so far.

    ``tag`` names the kind of failure in one short word, as a sweep cell
    reports it.  A derivative callback may raise an IntegrationError
    of its own; :func:`integrate` attaches the trajectory and lets it
    through unwrapped.
    """

    tag = "failed"

    def __init__(self, message: str,
                 trajectory: Optional[Trajectory] = None):
        super().__init__(message)
        self.trajectory = trajectory


class MaxStepsExceeded(IntegrationError):
    tag = "max-steps"


class NonFiniteState(IntegrationError):
    tag = "non-finite"


class CallbackFailure(IntegrationError):
    """The derivative callback raised or returned the wrong shape."""


@lru_cache(maxsize=None)
def _gauss_rule(count):
    """(point, weight) pairs of the count-point Gauss rule on [0, 1]."""
    points, weights = _gauss_legendre_unit(count)
    return tuple(zip(points.tolist(), weights.tolist()))


def adams_update(y: np.ndarray, nodes: np.ndarray, derivatives: np.ndarray,
                 dx: float, derivative_at: Optional[Callable] = None):
    """One Adams step of size dx from the newest node: (y_AB, y_AM).

    ``nodes`` are the stencil's abscissae, strictly increasing and
    ending at the current point x, where the state is ``y``;
    ``derivatives`` holds one derivative row per node.  y_AB is y plus
    the integral over [x, x + dx] of the polynomial p that interpolates
    the derivatives.  ``derivative_at(y_AB)`` returns f(x + dx, y_AB);
    y_AM integrates the interpolant through that point as well, one
    order higher.  Without ``derivative_at`` nothing is corrected and
    y_AM is y_AB.

    p is built in Newton form on the node offsets s_0 = 0 > s_1 > ...,
    newest first: p(t) = sum_i c_i prod_{k<i} (t - s_k), with c_i the
    divided differences of each component's derivatives.  The basis
    integrals are exact on ceil((N + 1) / 2) Gauss points.  The
    corrector adds one term, c_N prod_{k<N} (t - s_k), with
    c_N = (f(x + dx, y_AB) - p(dx)) / prod_k (dx - s_k), so the
    correction is formed as its own term, not as a difference.

    Everything runs on Python floats in a fixed order (``math.fsum``
    is correctly rounded), so no BLAS kernel enters the step.  Each component's derivatives are scaled
    by the power of two 2^-k that brings the largest |f'| into [1, 2),
    and the increment is divided by 2^-k again.  That is exact, so no
    bit changes, but differences of derivatives near the overflow
    threshold stay finite, and a result beyond it becomes inf instead
    of raising (as ``math.ldexp`` would).
    """
    stencil = nodes.tolist()
    here = stencil[-1]
    offsets = [node - here for node in reversed(stencil)]
    count = len(offsets)
    # integrals[i] = integral over [0, dx] of prod_{k<i} (t - s_k)
    integrals = [0.0] * (count + 1)
    for point, weight in _gauss_rule(count // 2 + 1):
        t = dx * point
        term = dx * weight
        for i, offset in enumerate(offsets):
            integrals[i] += term
            term *= t - offset
        integrals[count] += term

    tables, scales = [], []
    for column in derivatives.T.tolist():
        largest = max(max(column), -min(column))
        scale = 2.0 ** -max(math.frexp(largest)[1] - 1, -1022)
        tables.append([f * scale for f in reversed(column)])
        scales.append(scale)
    # newest-first divided differences, in place: table[i] = c_i
    for level in range(1, count):
        for i in range(count - 1, level - 1, -1):
            span = offsets[i] - offsets[i - level]
            for table in tables:
                table[i] = (table[i] - table[i - 1]) / span
    start = y.tolist()
    increments = [math.fsum([c * g for c, g in zip(table, integrals)])
                  for table in tables]
    y_ab = np.array([y0 + increment / scale for y0, increment, scale
                     in zip(start, increments, scales)])
    if derivative_at is None:
        return y_ab, y_ab

    at_new_node = 1.0  # prod_k (dx - s_k)
    for offset in offsets:
        at_new_node *= dx - offset
    weight = integrals[count] / at_new_node
    y_am = []
    for y0, increment, scale, table, f in zip(
            start, increments, scales, tables,
            derivative_at(y_ab).tolist()):
        predicted = table[-1]  # p(dx), by Horner's rule
        for i in range(count - 2, -1, -1):
            predicted = predicted * (dx - offsets[i]) + table[i]
        y_am.append(
            y0 + (increment + weight * (f * scale - predicted)) / scale)
    return y_ab, np.array(y_am)


def fractional_correction(y_ab: np.ndarray, y_am: np.ndarray) -> float:
    """Largest per-component |y_am - y_ab| / |y_ab|.

    A component whose predicted value is exactly zero falls back to the
    absolute difference so the controller always sees a finite number;
    a NaN in any component makes the result NaN.
    """
    largest = 0.0
    for predicted, corrected in zip(y_ab.tolist(), y_am.tolist()):
        difference = corrected - predicted
        scale = abs(predicted)
        epsilon = abs(difference / scale if scale > 0.0 else difference)
        if epsilon > largest or epsilon != epsilon:
            largest = epsilon
    return largest


def next_step_size(epsilon_max: float, config: IntegratorConfig,
                   effective_am_order: int, dx_current: float):
    """Step size the adaptive controller selects for the next step.

    The scaling ratio is (E / epsilon_max)^(1/effective_am_order),
    clipped at GROWTH_CAP (taken outright when epsilon_max is 0) and
    floored at dx_min.  Returns (dx_next, capped, floored), the flags
    telling whether the cap or the floor decided dx_next.
    """
    if dx_current <= 0.0:
        raise ValueError("dx_current must be positive")
    if effective_am_order < 2:
        raise ValueError("effective_am_order must be >= 2")
    if epsilon_max == 0.0:
        ratio = GROWTH_CAP
        capped = True
    else:
        raw = (config.target_correction / epsilon_max) ** (
            1.0 / effective_am_order)
        capped = raw >= GROWTH_CAP
        ratio = min(raw, GROWTH_CAP)
    dx_next = ratio * dx_current
    floored = dx_next < config.dx_min
    if floored:
        dx_next = config.dx_min
    return dx_next, capped, floored


def integrate(system: Callable[[float, np.ndarray], np.ndarray],
              y0, x0: float, config: IntegratorConfig, *,
              x_end: Optional[float] = None,
              halt: Optional[Callable[[float, np.ndarray], bool]] = None
              ) -> Trajectory:
    """Integrate y' = system(x, y) from (x0, y0).

    At least one stop condition is required: ``x_end`` clamps the final
    step so the trajectory lands on the endpoint without overshooting;
    ``halt`` stops after the first accepted step whose corrected state
    satisfies the predicate.  When both are given, whichever fires
    first ends the run.

    Raises :class:`MaxStepsExceeded`, :class:`NonFiniteState`, or
    :class:`CallbackFailure`; an :class:`IntegrationError` raised by
    ``system`` propagates as is.  A plain :class:`IntegrationError` is
    raised before evaluating a step that would not advance x, as when
    the controller shrinks dx below the spacing of floats at x with no
    ``dx_min`` to stop it.  Each carries the partial trajectory
    in its ``trajectory`` attribute.
    """
    if x_end is None and halt is None:
        raise ValueError("provide x_end, halt, or both")
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    if y.ndim != 1:
        raise ValueError("y0 must be a scalar or 1-D vector")
    if not np.all(np.isfinite(y)):
        raise ValueError("y0 must be finite")
    x = float(x0)
    if x_end is not None and not x_end > x:
        raise ValueError("x_end must exceed x0")

    trajectory = Trajectory(x, y)

    def evaluate(xq: float, yq: np.ndarray) -> np.ndarray:
        try:
            dy = system(xq, yq)
        except IntegrationError as exc:
            exc.trajectory = trajectory
            raise
        except Exception as exc:
            raise CallbackFailure(
                f"derivative callback failed at x={xq!r}: {exc}",
                trajectory) from exc
        # a 1-D float64 array, the usual return, needs no conversion
        if not (type(dy) is np.ndarray and dy.dtype is _FLOAT
                and dy.ndim == 1):
            dy = np.atleast_1d(np.asarray(dy, dtype=float))
        if dy.shape != y.shape:
            raise CallbackFailure(
                f"derivative shape {dy.shape} != state shape {y.shape}",
                trajectory)
        trajectory.n_evals += 1
        return dy

    def at_next(y_ab: np.ndarray) -> np.ndarray:
        return evaluate(x_next, y_ab)  # x_next of the step under way

    # evaluates f at the prediction for the corrector; AB_FIXED has none
    corrector = None if config.mode is Mode.AB_FIXED else at_next
    trajectory._dy[0] = evaluate(x, y)
    dx = config.dx_initial
    end_tol = 0.0 if x_end is None else 1e-14 * max(1.0, abs(x_end))

    for _ in range(config.max_steps):
        if x_end is not None and x >= x_end - end_tol:
            return trajectory
        clamped = x_end is not None and x + dx >= x_end
        if clamped:
            dx = x_end - x
        # the stencil: the newest rows of the x and y' columns
        rows = len(trajectory) + 1
        effective_order = min(rows, config.order_ab)
        stencil = slice(rows - effective_order, rows)
        x_next = x_end if clamped else x + dx
        if not x_next > x:
            raise IntegrationError(
                f"step dx={dx!r} does not advance x={x!r}", trajectory)
        y_ab, y_am = adams_update(y, trajectory._x[stencil],
                                  trajectory._dy[stencil], dx, corrector)
        dy_next = evaluate(x_next, y_am)
        epsilon_max = (0.0 if corrector is None
                       else fractional_correction(y_ab, y_am))
        if not all(map(math.isfinite, y_am.tolist() + dy_next.tolist())):
            raise NonFiniteState(
                f"non-finite state or derivative at x={x_next!r}", trajectory)

        capped = floored = False
        dx_taken = dx
        if config.mode is Mode.ABM_ADAPTIVE and not clamped:
            dx, capped, floored = next_step_size(
                epsilon_max, config, effective_order + 1, dx)

        trajectory._append(x_next, dx_taken, y_am, dy_next, epsilon_max,
                           effective_order, capped, floored)
        x, y = x_next, y_am

        if halt is not None and halt(x, y):
            trajectory.halted = True
            return trajectory

    if x_end is not None and x >= x_end - end_tol:
        return trajectory
    raise MaxStepsExceeded(
        f"stop condition not reached within {config.max_steps} steps",
        trajectory)
