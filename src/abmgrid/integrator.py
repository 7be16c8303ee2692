"""Adams-Bashforth-Moulton predictor-corrector integration on a free grid.

The engine advances an ODE system y' = f(x, y) with explicit
(Adams-Bashforth) predictions optionally refined by an implicit
(Adams-Moulton) correction, in PECE form:

    Predict   y_AB at x + dx from the last N stored derivatives,
    Evaluate  f(x + dx, y_AB),
    Correct   y_AM from those derivatives plus the new one (N+1 nodes),
    Evaluate  f(x + dx, y_AM), which is what enters the history.

Quadrature weights are rebuilt each step from the actual node
abscissae, so the grid never needs to be uniform; the step-size
controller exploits that freedom by scaling dx against the fractional
correction |y_AM - y_AB| relative to a target correction E.  Growth is
capped at GROWTH_CAP per step; shrinking is uncapped down to an
optional floor.
Steps are never rejected: the correction always ships and only the
*next* step size responds.

Bootstrapping: the first step has a one-node history and runs at order
1, the second at order 2, and so on until the configured order is
reached, so a single initial condition suffices.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .quadrature import quadrature_weights

__all__ = [
    "GROWTH_CAP",
    "Mode",
    "IntegratorConfig",
    "NodeHistory",
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


class NodeHistory:
    """The most recent ``capacity`` accepted nodes (x, y').

    Abscissae must be strictly increasing; the oldest node is evicted
    once ``capacity`` is exceeded.  Stored derivatives are the ones
    evaluated at the *corrected* states, which is what makes the PECE
    accounting exactly two evaluations per step.

    Nodes live in preallocated arrays with room for several times
    ``capacity`` rows, so the newest nodes are always one contiguous
    run of rows; when the rows run out, the nodes still held move to
    the front.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self._x = self._dy = None  # shaped by the first node
        self._end = 0  # one past the newest node's row

    def __len__(self):
        return min(self._end, self._capacity)

    def append(self, x: float, dy: np.ndarray) -> None:
        end = self._end
        if self._x is None:
            rows = 4 * self._capacity
            self._x = np.empty(rows)
            self._dy = np.empty((rows,) + np.shape(dy))
        elif x <= self._x[end - 1]:
            raise ValueError(
                f"abscissae must be strictly increasing; got {x!r} after "
                f"{float(self._x[end - 1])!r}")
        elif end == self._x.size:
            keep = self._capacity - 1
            for array in (self._x, self._dy):
                array[:keep] = array[end - keep:end]
            end = keep
        self._x[end] = x
        self._dy[end] = dy
        self._end = end + 1

    def tail(self, n: int):
        """Most recent ``n`` nodes as (abscissae, derivative rows).

        Both are C-contiguous views of the history's own rows: read
        them before the next append.
        """
        if not 1 <= n <= len(self):
            raise ValueError(f"cannot take {n} nodes from {len(self)}")
        rows = slice(self._end - n, self._end)
        return self._x[rows], self._dy[rows]


@dataclass(frozen=True)
class StepRecord:
    """One accepted step.

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
    """Accepted steps of one integration plus bookkeeping totals."""

    def __init__(self, x0: float, y0: np.ndarray):
        self.x0 = float(x0)
        self.y0 = np.array(y0, dtype=float, copy=True)
        self.records: list[StepRecord] = []
        self.n_evals = 0
        self.halted = False  # True when a state predicate stopped the run

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def x(self) -> np.ndarray:
        return np.array([r.x_next for r in self.records])

    @property
    def y(self) -> np.ndarray:
        return np.array([r.y_am for r in self.records])

    @property
    def dx(self) -> np.ndarray:
        return np.array([r.dx for r in self.records])

    @property
    def epsilon_max(self) -> np.ndarray:
        return np.array([r.epsilon_max for r in self.records])

    @property
    def final_x(self) -> float:
        return self.records[-1].x_next if self.records else self.x0

    @property
    def final_y(self) -> np.ndarray:
        return self.records[-1].y_am if self.records else self.y0


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


def adams_update(y: np.ndarray, offsets: np.ndarray,
                 derivatives: np.ndarray, dx: float,
                 newest: Optional[np.ndarray] = None) -> np.ndarray:
    """y plus the integral over [0, dx] of the interpolated derivative.

    ``offsets`` are the node abscissae relative to the current point,
    strictly increasing, and ``derivatives`` holds one derivative row
    per history node; one weight set serves every component of y.
    Without ``newest`` this is the explicit (Adams-Bashforth)
    prediction: one offset per row, the last at 0.  With ``newest``,
    f evaluated at (x + dx, y_AB), ``offsets`` ends with one more node
    at dx and this is the implicit (Adams-Moulton) correction, one
    order higher.
    """
    weights = quadrature_weights(offsets, dx)
    if newest is None:
        return y + weights @ derivatives
    return y + weights[:-1] @ derivatives + weights[-1] * newest


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
              halt: Optional[Callable[[float, np.ndarray], bool]] = None,
              sink: Optional[Callable[[StepRecord], None]] = None
              ) -> Trajectory:
    """Integrate y' = system(x, y) from (x0, y0).

    At least one stop condition is required: ``x_end`` clamps the final
    step so the trajectory lands on the endpoint without overshooting;
    ``halt`` stops after the first accepted step whose corrected state
    satisfies the predicate.  When both are given, whichever fires
    first ends the run.  Each accepted step is passed to ``sink`` as
    it happens.

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

    history = NodeHistory(config.order_ab + 1)
    history.append(x, evaluate(x, y))
    dx = config.dx_initial
    end_tol = 0.0 if x_end is None else 1e-14 * max(1.0, abs(x_end))

    for index in range(config.max_steps):
        if x_end is not None and x >= x_end - end_tol:
            return trajectory
        clamped = x_end is not None and x + dx >= x_end
        if clamped:
            dx = x_end - x
        effective_order = min(len(history), config.order_ab)
        nodes, derivatives = history.tail(effective_order)
        x_next = x_end if clamped else x + dx
        if not x_next > x:
            raise IntegrationError(
                f"step dx={dx!r} does not advance x={x!r}", trajectory)
        # node offsets from the current point: the predictor's stencil,
        # then the corrector's extra node at +dx
        offsets = np.empty(effective_order + 1)
        np.subtract(nodes, nodes[-1], out=offsets[:-1])
        offsets[-1] = dx

        y_ab = adams_update(y, offsets[:-1], derivatives, dx)
        if config.mode is Mode.AB_FIXED:
            y_am = y_ab
            epsilon_max = 0.0
            dy_next = evaluate(x_next, y_ab)
        else:
            dy_predicted = evaluate(x_next, y_ab)
            y_am = adams_update(y, offsets, derivatives, dx, dy_predicted)
            dy_next = evaluate(x_next, y_am)
            epsilon_max = fractional_correction(y_ab, y_am)
        if not all(map(math.isfinite, y_am.tolist() + dy_next.tolist())):
            raise NonFiniteState(
                f"non-finite state or derivative at x={x_next!r}", trajectory)

        capped = floored = False
        dx_taken = dx
        if config.mode is Mode.ABM_ADAPTIVE and not clamped:
            dx, capped, floored = next_step_size(
                epsilon_max, config, effective_order + 1, dx)

        record = StepRecord(index=index, x_next=x_next, dx=dx_taken,
                            y_am=y_am, epsilon_max=epsilon_max,
                            effective_order=effective_order,
                            capped=capped, floored=floored)
        trajectory.records.append(record)
        if sink is not None:
            sink(record)
        history.append(x_next, dy_next)
        x, y = x_next, y_am

        if halt is not None and halt(x, y):
            trajectory.halted = True
            return trajectory

    if x_end is not None and x >= x_end - end_tol:
        return trajectory
    raise MaxStepsExceeded(
        f"stop condition not reached within {config.max_steps} steps",
        trajectory)
