"""Adams-Bashforth-Moulton predictor-corrector integration on a free grid.

The engine advances an ODE system y' = f(x, y) with explicit
(Adams-Bashforth) predictions optionally refined by an implicit
(Adams-Moulton) correction, in PECE form:

    Predict   y_AB at x + dx from the last N stored derivatives,
    Evaluate  f(x + dx, y_AB),
    Correct   y_AM from those derivatives plus the new one (N+1 nodes),
    Evaluate  f(x + dx, y_AM), which is what enters the stencil.

Every accepted step lands in a row of the :class:`Trajectory`, whose
buffer of doubles reads back as Python floats and ``array("d")``
columns.  Beside it the engine carries the stencil's interpolant in
Newton form: a :class:`DividedDifferences` table of the raw divided
differences of the newest N derivatives.  Each accepted step adds its
node to the table at a cost of N divisions per component instead of
rebuilding the table's N(N-1)/2 (Krogh 1974, "Changing stepsize in the
integration of differential equations using modified divided
differences"; Shampine & Gordon 1975, ch. 5).  The table is still a
function of the actual node spacing and derivatives only, never of a
nominal step, so the grid never needs to be uniform.  Nothing rescales
it: derivatives that differ by more than the float range overflow to inf
or NaN, and the run stops with :class:`NonFiniteState`.
:func:`adams_update` integrates it over the new step on Gauss points:
the polynomial the Lagrange weights of :mod:`abmgrid.quadrature`
integrate, reached on Python floats with the correction as one extra
term.  :func:`integrate_floats` runs the whole loop on Python floats: its
callbacks receive the state as a list and what they return is read as a
list of ``float``, so no numpy enters a run.  :func:`integrate` is the
same loop for callbacks written on numpy arrays.  The step-size
controller exploits the free grid by scaling dx against the fractional
correction |y_AM - y_AB| relative to a target correction E.  Growth is
capped at GROWTH_CAP per step; shrinking is uncapped down to an optional
floor.  Steps are never rejected: the correction always ships and only
the *next* step size responds.

Bootstrapping: the table starts as f(x0, y0) alone and grows by one
entry per step, so the first step runs at order 1, the second at order
2, and so on until the configured order is reached; a single initial
condition suffices.
"""
from __future__ import annotations

import decimal
import enum
import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GROWTH_CAP",
    "Mode",
    "IntegratorConfig",
    "StepRecord",
    "Trajectory",
    "DividedDifferences",
    "IntegrationError",
    "MaxStepsExceeded",
    "NonFiniteState",
    "CallbackFailure",
    "adams_update",
    "fractional_correction",
    "next_step_size",
    "integrate_floats",
    "integrate",
]


GROWTH_CAP = 3.0  # largest factor by which dx may grow in one step
# where a trajectory row keeps x, dx and epsilon_max; the state y starts
# at _Y, after the order and the two flags, and ends the row
_X, _DX, _EPS, _Y = 0, 1, 2, 6


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

    ``y_am`` is the corrected state, a tuple of floats.  ``epsilon_max``
    is the largest magnitude of the per-component fractional
    correction, the scalar the controller acts on (0 in ``AB_FIXED``
    mode, which never corrects).  ``capped``/``floored`` report whether
    the controller's choice of the *next* step size hit the growth cap
    or the minimum-step floor on this step.
    """

    index: int
    x_next: float
    dx: float
    y_am: tuple
    epsilon_max: float
    effective_order: int
    capped: bool = False
    floored: bool = False


class Trajectory:
    """Accepted steps of one integration, one row per step.

    A row is x, dx, epsilon_max, effective order, the capped and
    floored flags (0.0 or 1.0) and the corrected state y.  Row 0 is
    the start point: x0 and y0, a flat sequence of n numbers.  The rows
    share one growing buffer of doubles (``array("d")``): 8 bytes a
    value, read back as Python floats, and no heap fragmentation from a
    buffer per column growing side by side.  The stencil's derivatives
    are not kept here: the engine carries them as a
    :class:`DividedDifferences` table.  ``n_evals`` counts derivative
    evaluations, two per PECE step.

    ``x``, ``dx`` and ``epsilon_max`` return a new ``array("d")`` with
    one entry per step, and ``y`` a list of n such columns, ``y[j]``
    being component j (``np.asarray(trajectory.y).T`` is the
    (steps, n) array).  ``final_x`` and ``final_state`` read the last
    point, the start point at 0 steps; iteration yields a
    :class:`StepRecord` per step.  No read imports numpy.
    """

    def __init__(self, x0: float, y0: Sequence[float]):
        self._width = _Y + len(y0)
        self._rows = array("d", [x0, 0.0, 0.0, 0.0, 0.0, 0.0, *y0])
        self.n_evals = 0
        self.halted = False  # True when a state predicate stopped the run

    def _append(self, x, dx, y, epsilon_max, order, capped, floored):
        self._rows.extend((x, dx, epsilon_max, order, capped, floored, *y))

    def _column(self, offset: int) -> array:
        """The value at ``offset`` of every step's row, in a new array."""
        return self._rows[self._width + offset::self._width]

    def __len__(self):
        return len(self._rows) // self._width - 1

    def __iter__(self):
        rows, width = self._rows, self._width
        for index, start in enumerate(range(width, len(rows), width)):
            x, dx, epsilon, order, capped, floored, *y = rows[
                start:start + width]
            yield StepRecord(index, x, dx, tuple(y), epsilon, int(order),
                             bool(capped), bool(floored))

    @property
    def x(self) -> array:
        return self._column(_X)

    @property
    def y(self) -> list:
        return [self._column(j) for j in range(_Y, self._width)]

    @property
    def dx(self) -> array:
        return self._column(_DX)

    @property
    def epsilon_max(self) -> array:
        return self._column(_EPS)

    @property
    def final_x(self) -> float:
        return self._rows[-self._width + _X]

    @property
    def final_state(self) -> list:
        """The last state, flat, as a list of Python floats."""
        return self._rows[len(self._rows) - self._width + _Y:].tolist()


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
    """The derivative callback raised or returned a malformed derivative."""


def _legendre(count, x):
    """P_count(x) and its slope, from the three-term recurrence."""
    previous, value = 1, x
    for k in range(1, count):
        previous, value = value, ((2 * k + 1) * x * value - k * previous) / (
            k + 1)
    return value, count * (x * value - previous) / (x * x - 1)


@lru_cache(maxsize=None)
def _gauss_rule(count):
    """(point, weight) pairs of the count-point Gauss rule on [0, 1].

    Each root x of the Legendre polynomial P_count is found by Newton's
    method in 40-digit decimal arithmetic, started from the estimate
    cos(pi (i - 1/4) / (count + 1/2)).  Its weight on [0, 1] is
    1 / ((1 - x^2) P'(x)^2).  The point (1 + x) / 2 and the weight are
    rounded to float once, from 40 digits, so both are correctly
    rounded.  The points ascend.
    """
    rule = []
    with decimal.localcontext() as context:
        context.prec = 40
        # Newton's error after a step of this size is near the precision
        close = decimal.Decimal(10) ** -20
        for i in range(count, 0, -1):
            x = decimal.Decimal(math.cos(math.pi * (i - 0.25) / (count + 0.5)))
            while True:
                value, slope = _legendre(count, x)
                step = value / slope
                x -= step
                if abs(step) < close:
                    break
            _, slope = _legendre(count, x)
            rule.append((float((1 + x) / 2),
                         float(1 / ((1 - x * x) * slope * slope))))
    return tuple(rule)


def _total(products):
    """math.fsum, or the plain sum (inf or NaN) where fsum raises."""
    try:
        return math.fsum(products)
    except (OverflowError, ValueError):  # a partial overflowed, or inf - inf
        return sum(products)


class DividedDifferences:
    """The stencil's interpolant of y' in Newton form, newest node first.

    ``nodes`` are the stencil's abscissae x_0 > x_1 > ... > x_{N-1},
    newest first.  ``columns[j]`` holds component j's divided
    differences c_i = y'_j[x_0, ..., x_i], i = 0 .. N - 1, as they are:
    a difference beyond the float range becomes inf or NaN, and the
    step that reads it stops the run with :class:`NonFiniteState`.

    The table starts empty and grows by :meth:`push`; a table for a
    given stencil is built by pushing its nodes from oldest to newest.
    """

    def __init__(self, size: int):
        self.nodes = []
        self.columns = [[] for _ in range(size)]

    def push(self, x: float, derivatives: Sequence[float], keep: int):
        """Add the node x, where y' is ``derivatives``; keep ``keep`` nodes.

        x must exceed every node.  Per component, with f its y' at x,
        the new entries are c'_0 = f and
        c'_i = (c'_{i-1} - c_{i-1}) / (x - x_{i-1}) for
        i = 1 .. keep - 1: N divisions, and the nodes beyond ``keep``
        drop out.  The spans x - x_k are shared across components.
        """
        spans = [x - node for node in self.nodes[:keep - 1]]
        self.nodes = [x, *self.nodes[:keep - 1]]
        for j, c in enumerate(derivatives):
            column = [c]
            for older, span in zip(self.columns[j], spans):
                c = (c - older) / span
                column.append(c)
            self.columns[j] = column


def adams_update(y: Sequence[float], table: DividedDifferences, dx: float,
                 derivative_at: Optional[Callable] = None):
    """One Adams step of size dx from the newest node: (y_AB, y_AM).

    ``table`` holds the stencil, whose newest node is the current point
    x, where the state is ``y``.  y_AB is y plus the integral over
    [x, x + dx] of the polynomial p that interpolates the stencil's
    derivatives.  ``derivative_at(y_AB)`` returns f(x + dx, y_AB); y_AM
    integrates the interpolant through that point as well, one order
    higher.  Without ``derivative_at`` nothing is corrected and y_AM is
    y_AB.  ``y`` and what ``derivative_at`` returns are sequences of
    Python floats; y_AB and y_AM are lists.

    p is the table's Newton form on the node offsets
    s_0 = 0 > s_1 > ...: p(t) = sum_i c_i prod_{k<i} (t - s_k).  The
    basis integrals are exact on ceil((N + 1) / 2) Gauss points.  The
    corrector adds one term, c_N prod_{k<N} (t - s_k), with
    c_N = (f(x + dx, y_AB) - p(dx)) / prod_k (dx - s_k), so the
    correction is formed as its own term, not as a difference:
    y_AM = y + (increment + weight (f - p(dx))).

    Everything runs on Python floats in a fixed order (``math.fsum``
    is correctly rounded), so no BLAS kernel enters the step.  A sum
    beyond the overflow threshold becomes inf or NaN instead of
    raising, and the caller stops on it.
    """
    here = table.nodes[0]
    offsets = [node - here for node in table.nodes]
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

    columns = table.columns
    increments = [_total([c * g for c, g in zip(column, integrals)])
                  for column in columns]
    y_ab = [y0 + increment for y0, increment in zip(y, increments)]
    if derivative_at is None:
        return y_ab, y_ab

    at_new_node = 1.0  # prod_k (dx - s_k)
    for offset in offsets:
        at_new_node *= dx - offset
    weight = integrals[count] / at_new_node
    y_am = []
    for y0, increment, column, f in zip(
            y, increments, columns, derivative_at(y_ab)):
        predicted = column[-1]  # p(dx), by Horner's rule
        for i in range(count - 2, -1, -1):
            predicted = predicted * (dx - offsets[i]) + column[i]
        y_am.append(y0 + (increment + weight * (f - predicted)))
    return y_ab, y_am


def fractional_correction(y_ab, y_am) -> float:
    """Largest per-component |y_am - y_ab| / |y_ab|.

    A component whose predicted value is exactly zero falls back to the
    absolute difference so the controller always sees a finite number;
    a NaN in any component makes the result NaN.
    """
    largest = 0.0
    for predicted, corrected in zip(y_ab, y_am):
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


def integrate_floats(system: Callable[[float, list], Sequence[float]],
                     y0: Sequence[float], x0: float, config: IntegratorConfig,
                     *, x_end: Optional[float] = None,
                     halt: Optional[Callable[[float, list], bool]] = None
                     ) -> Trajectory:
    """Integrate y' = system(x, y) from (x0, y0) on Python floats.

    ``y0`` is a sequence of real numbers.  ``system`` and ``halt``
    receive the state y as a list of floats, a new list each call;
    ``system`` returns a sequence of len(y0) real numbers.  At least
    one stop condition is required: ``x_end`` clamps the final step so
    the trajectory lands on the endpoint without overshooting (x within
    1e-14 max(|x0|, |x_end|) of it counts as there); ``halt`` stops
    after the first accepted step whose corrected state satisfies the
    predicate.  When both are given, whichever fires first ends the run.

    Raises :class:`MaxStepsExceeded`, :class:`NonFiniteState` (when
    f(x0, y0), or a step's prediction, corrected state or derivative,
    is not finite; the step is not kept), or
    :class:`CallbackFailure` (``system`` raised or returned anything
    else); an :class:`IntegrationError` raised by ``system`` propagates
    as is.  A plain :class:`IntegrationError` is raised before
    evaluating a step that would not advance x, as when the controller
    shrinks dx below the spacing of floats at x with no ``dx_min`` to
    stop it.  Each carries the partial trajectory in its
    ``trajectory`` attribute.
    """
    if x_end is None and halt is None:
        raise ValueError("provide x_end, halt, or both")
    state = [float(v) for v in y0]
    if not all(map(math.isfinite, state)):
        raise ValueError("y0 must be finite")
    x = float(x0)
    if x_end is not None and not x_end > x:
        raise ValueError("x_end must exceed x0")

    trajectory = Trajectory(x, state)
    size = len(state)

    def evaluate(xq: float, yq: list) -> list:
        try:
            dy = [float(v) for v in system(xq, yq[:])]
        except IntegrationError as exc:
            exc.trajectory = trajectory
            raise
        except Exception as exc:
            raise CallbackFailure(
                f"derivative callback failed at x={xq!r}: {exc}",
                trajectory) from exc
        if len(dy) != size:
            raise CallbackFailure(
                f"derivative has {len(dy)} components, state has {size}",
                trajectory)
        trajectory.n_evals += 1
        return dy

    def at_next(y_ab: list) -> list:
        return evaluate(x_next, y_ab)  # this step's x_next

    # evaluates f at the prediction for the corrector; AB_FIXED has none
    corrector = None if config.mode is Mode.AB_FIXED else at_next
    dy = evaluate(x, state)
    if not all(map(math.isfinite, dy)):
        raise NonFiniteState(f"non-finite derivative at x={x!r}", trajectory)
    table = DividedDifferences(size)
    table.push(x, dy, 1)
    dx = config.dx_initial
    end_tol = 0.0 if x_end is None else 1e-14 * max(abs(x), abs(x_end))

    for _ in range(config.max_steps):
        if x_end is not None and x >= x_end - end_tol:
            return trajectory
        clamped = x_end is not None and x + dx >= x_end
        if clamped:
            dx = x_end - x
        effective_order = len(table.nodes)
        x_next = x_end if clamped else x + dx
        if not x_next > x:
            raise IntegrationError(
                f"step dx={dx!r} does not advance x={x!r}", trajectory)
        y_ab, y_am = adams_update(state, table, dx, corrector)
        dy_next = evaluate(x_next, y_am)
        epsilon_max = (0.0 if corrector is None
                       else fractional_correction(y_ab, y_am))
        if not all(map(math.isfinite, y_ab + y_am + dy_next)):
            raise NonFiniteState(
                f"non-finite state or derivative at x={x_next!r}", trajectory)

        capped = floored = False
        dx_taken = dx
        if config.mode is Mode.ABM_ADAPTIVE and not clamped:
            dx, capped, floored = next_step_size(
                epsilon_max, config, effective_order + 1, dx)

        trajectory._append(x_next, dx_taken, y_am, epsilon_max,
                           effective_order, capped, floored)
        table.push(x_next, dy_next,
                   min(effective_order + 1, config.order_ab))
        x, state = x_next, y_am

        if halt is not None and halt(x, state[:]):
            trajectory.halted = True
            return trajectory

    if x_end is not None and x >= x_end - end_tol:
        return trajectory
    raise MaxStepsExceeded(
        f"stop condition not reached within {config.max_steps} steps",
        trajectory)


def integrate(system: Callable[[float, np.ndarray], Sequence[float]],
              y0, x0: float, config: IntegratorConfig, *,
              x_end: Optional[float] = None,
              halt: Optional[Callable[[float, np.ndarray], bool]] = None
              ) -> Trajectory:
    """Integrate y' = system(x, y) from (x0, y0), with array callbacks.

    ``y0`` is a scalar or a 1-D array_like of real numbers.  ``system``
    and ``halt`` receive the state y as a float64 array, a new array
    each call; ``system`` returns a sequence of len(y0) real numbers.
    Otherwise this is :func:`integrate_floats`, whose loop it runs:
    the same stop conditions, errors and trajectory, bit for bit.
    """
    import numpy as np
    y = np.atleast_1d(np.asarray(y0, dtype=float))
    if y.ndim != 1:
        raise ValueError("y0 must be a scalar or 1-D vector")

    def on_array(x, state):
        return system(x, np.array(state))

    def halt_on_array(x, state):
        return halt(x, np.array(state))

    return integrate_floats(on_array, y.tolist(), x0, config, x_end=x_end,
                            halt=None if halt is None else halt_on_array)
