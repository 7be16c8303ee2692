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
term, and every sum added left to right in a fixed order.  Each step
calls one update and one push: :func:`adams_update` and
:meth:`DividedDifferences.push` while the table grows, swapped once,
when it holds ``order_ab`` nodes, for their straight-line forms, written
out and compiled once per stencil size and component count.  Both pairs
do the same float operations in the same order, so no bit depends on
which ran.
:func:`integrate_floats` runs the whole loop on Python floats: its
callbacks receive the state as a list and what they return is read as a
list of ``float``, so a run needs nothing beyond the standard library.
The step-size controller exploits the free grid by scaling dx against
the fractional correction |y_AM - y_AB| relative to a target correction
E.  Growth is capped at GROWTH_CAP per step; shrinking is uncapped down
to an optional floor.  Steps are never rejected: the correction always
ships and only the *next* step size responds.

Bootstrapping: the table starts as f(x0, y0) alone and grows by one
entry per step, so the first step runs at order 1, the second at order
2, and so on until the configured order is reached; a single initial
condition suffices.
"""
from __future__ import annotations

import decimal
import enum
import math
import operator
import struct
from array import array
from functools import lru_cache, partial, reduce
from typing import Callable, NamedTuple, Optional, Sequence

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
    "StalledStep",
    "adams_update",
    "fractional_correction",
    "next_step_size",
    "integrate_floats",
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


class _ConfigFields(NamedTuple):
    order_ab: int
    target_correction: float = 1e-8
    dx_initial: float = 0.01
    dx_min: float = 0.0
    mode: Mode = Mode.ABM_ADAPTIVE
    max_steps: int = 1_000_000


class IntegratorConfig(_ConfigFields):
    """Immutable knobs for one integration.

    ``order_ab`` is the number of history nodes the explicit prediction
    uses once bootstrapping has finished; the implicit correction always
    uses one node more (the N and N+1 tandem).  ``target_correction``
    is the dimensionless fractional correction E the adaptive
    controller steers toward.  Each config is checked as it is made,
    by ``_replace`` too: a bad knob raises ``ValueError`` naming it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # operator.index takes ints, numpy's included, and nothing else
        for name in ("order_ab", "max_steps"):
            try:
                count = operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
            if count < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 < self.target_correction < math.inf:
            raise ValueError("target_correction must be positive and finite")
        if not 0.0 < self.dx_initial < math.inf:
            raise ValueError("dx_initial must be positive and finite")
        if not 0.0 <= self.dx_min < math.inf:
            raise ValueError("dx_min must be non-negative and finite")
        if self.dx_initial < self.dx_min:
            raise ValueError("dx_initial must be >= dx_min")
        # the engine tells the modes apart by identity
        if not isinstance(self.mode, Mode):
            raise ValueError("mode must be a Mode member")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)  # _replace makes its config here


class StepRecord(NamedTuple):
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
    buffer per column growing side by side.  :func:`integrate_floats`
    packs each step's row to bytes and adds it in one call.  The
    stencil's derivatives are not kept here: the engine carries them as
    a :class:`DividedDifferences` table.  ``n_evals`` counts derivative
    evaluations, two per PECE step.

    ``x``, ``dx`` and ``epsilon_max`` return a new ``array("d")`` with
    one entry per step, and ``y`` a list of n such columns, ``y[j]``
    being component j (``zip(*trajectory.y)`` yields the rows, one
    tuple per step).  ``final_x`` and ``final_state`` read the last
    point, the start point at 0 steps; iteration yields a
    :class:`StepRecord` per step.  No read needs more than the standard
    library.
    """

    def __init__(self, x0: float, y0: Sequence[float]):
        self._width = _Y + len(y0)
        self._rows = array("d", [x0, 0.0, 0.0, 0.0, 0.0, 0.0, *y0])
        self.n_evals = 0
        self.halted = False  # True when a state predicate stopped the run

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
    of its own; :func:`integrate_floats` attaches the trajectory and
    lets it through unwrapped.
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
    """The derivative callback raised on a finite state, or returned a
    malformed derivative."""

    tag = "callback"


class StalledStep(IntegrationError):
    """The next step would not advance x."""

    tag = "stalled"


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
        drop out.  A ``keep`` above the table's length grows the table
        by one node.  The spans x - x_k are shared across components.
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

    Everything runs on Python floats in a fixed order: the increment
    sum_i c_i g_i adds its products left to right from the first, so no
    BLAS kernel and no version of Python enters its bits.  A sum beyond
    the overflow threshold becomes inf or NaN, and the caller stops on
    it.

    This is the step's readable definition.  :func:`integrate_floats`
    steps with it and :meth:`DividedDifferences.push` while the table
    grows, then swaps that pair once, when the table fills, for the same
    operations written out for the full stencil (:func:`_kernels`), bit
    for bit.
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
    # sum_i c_i g_i, added left to right from the first product
    increments = [reduce(operator.add, map(operator.mul, column, integrals))
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


def _listed(prefix: str, indices, *first: str) -> str:
    """``[*first, prefix0, prefix1, ...]``, to build or to unpack a list."""
    return "[" + ", ".join([*first, *(f"{prefix}{i}" for i in indices)]) + "]"


def _update_source(count: int, size: int) -> str:
    """:func:`adams_update` written out for a full stencil.

    The source defines ``update(y, table, dx, derivative_at)`` for a
    table of ``count`` nodes and ``size`` components.  It does the float
    operations of :func:`adams_update` in the same order, on named
    locals: ``s`` the offsets, ``g`` the basis integrals, ``c{j}_`` the
    columns and ``d`` the factors dx - s_k.  Only the loop over the Gauss
    points (``_RULE`` in the namespace it runs in) stays a loop.  Each
    Gauss term, increment term, product factor and Horner step is its
    own statement, so no expression nests deeper as ``count`` grows.
    """
    nodes, components = range(count), range(size)
    lines = ["def update(y, table, dx, derivative_at):",
             f"    {_listed('x', nodes)} = table.nodes",
             *(f"    s{i} = x{i} - x0" for i in nodes),
             *(f"    g{i} = 0.0" for i in range(count + 1)),
             "    for point, weight in _RULE:",
             "        t = dx * point",
             "        term = dx * weight"]
    for i in nodes:
        lines += [f"        g{i} += term", f"        term *= t - s{i}"]
    lines += [f"        g{count} += term",
              "    columns = table.columns",
              f"    {_listed('y', components)} = y"]
    for j in components:
        lines += [f"    {_listed(f'c{j}_', nodes)} = columns[{j}]",
                  f"    increment{j} = c{j}_0 * g0",
                  *(f"    increment{j} += c{j}_{i} * g{i}"
                    for i in range(1, count))]
    sums = ", ".join(f"y{j} + increment{j}" for j in components)
    lines += [f"    y_ab = [{sums}]",
              "    if derivative_at is None:",
              "        return y_ab, y_ab",
              *(f"    d{i} = dx - s{i}" for i in nodes),
              "    at_new_node = 1.0",
              *(f"    at_new_node *= d{i}" for i in nodes),
              f"    weight = g{count} / at_new_node",
              f"    {_listed('f', components)} = derivative_at(y_ab)"]
    for j in components:
        lines += [f"    p = c{j}_{count - 1}",
                  *(f"    p = p * d{i} + c{j}_{i}"
                    for i in reversed(range(count - 1))),
                  f"    y_am{j} = y{j} + (increment{j} + weight * (f{j} - p))"]
    lines.append(f"    return y_ab, {_listed('y_am', components)}")
    return "\n".join(lines) + "\n"


def _push_source(count: int, size: int) -> str:
    """:meth:`DividedDifferences.push` written out for a full stencil.

    The source defines ``push(table, x, derivatives)``, which pushes x
    onto a table of ``count`` nodes and ``size`` components and keeps
    ``count``: the float operations of ``push(x, derivatives, count)``
    in the same order, one statement per new entry.
    """
    nodes, kept, components = range(count), range(count - 1), range(size)
    lines = ["def push(table, x, derivatives):",
             f"    {_listed('x', nodes)} = table.nodes",
             *(f"    span{k} = x - x{k}" for k in kept),
             f"    table.nodes = {_listed('x', kept, 'x')}",
             "    columns = table.columns",
             f"    {_listed('f', components)} = derivatives"]
    for j in components:
        lines += [f"    {_listed('old', nodes)} = columns[{j}]",
                  f"    c0 = f{j}",
                  *(f"    c{k + 1} = (c{k} - old{k}) / span{k}" for k in kept),
                  f"    columns[{j}] = {_listed('c', nodes)}"]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _kernels(count: int, size: int):
    """The full stencil's (update, push), compiled once per shape."""
    namespace = {"_RULE": _gauss_rule(count // 2 + 1)}
    exec(compile(_update_source(count, size),
                 f"<abmgrid update N={count} d={size}>", "exec"), namespace)
    exec(compile(_push_source(count, size),
                 f"<abmgrid push N={count} d={size}>", "exec"), namespace)
    return namespace["update"], namespace["push"]


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


def _scaled_step(epsilon_max, target, am_order, dx, dx_min):
    """The controller's law: (dx_next, capped, floored), unchecked.

    :func:`next_step_size` checks its arguments and calls this;
    :func:`integrate_floats` calls it directly, on arguments the loop
    keeps in range.
    """
    if epsilon_max == 0.0:
        ratio = GROWTH_CAP
        capped = True
    else:
        raw = (target / epsilon_max) ** (1.0 / am_order)
        capped = raw >= GROWTH_CAP
        ratio = min(raw, GROWTH_CAP)
    dx_next = ratio * dx
    if dx_next < dx_min:
        return dx_min, capped, True
    return dx_next, capped, False


def next_step_size(epsilon_max: float, config: IntegratorConfig,
                   effective_am_order: int, dx_current: float):
    """Step size the adaptive controller selects for the next step.

    The scaling ratio is (E / epsilon_max)^(1/effective_am_order),
    clipped at GROWTH_CAP (taken outright when epsilon_max is 0) and
    floored at dx_min.  Returns (dx_next, capped, floored), the flags
    telling whether the cap or the floor decided dx_next.  An infinite
    epsilon_max shrinks dx to the floor; a NaN or negative one, or a
    dx_current outside (0, inf), raises ValueError.
    """
    if not epsilon_max >= 0.0:
        raise ValueError("epsilon_max must be non-negative")
    if not 0.0 < dx_current < math.inf:
        raise ValueError("dx_current must be positive and finite")
    if effective_am_order < 2:
        raise ValueError("effective_am_order must be >= 2")
    return _scaled_step(epsilon_max, config.target_correction,
                        effective_am_order, dx_current, config.dx_min)


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
    A non-finite ``y0``, ``x0`` or ``x_end`` raises ``ValueError``
    before ``system`` is called.

    Raises :class:`MaxStepsExceeded`, :class:`NonFiniteState` (when
    f(x0, y0), or a step's prediction, corrected state or derivative,
    is not finite, also when ``system`` raises on a non-finite state,
    and before evaluating a step whose x would overflow to inf; the
    step is not kept), or :class:`CallbackFailure` (``system``
    raised on a finite state or returned anything else); an
    :class:`IntegrationError` raised by ``system`` propagates as is.
    :class:`StalledStep` is raised before evaluating a step that would
    not advance x, as when the controller shrinks dx below the spacing
    of floats at x with no ``dx_min`` to stop it.  Each carries the
    partial trajectory in its ``trajectory`` attribute.
    """
    if x_end is None and halt is None:
        raise ValueError("provide x_end, halt, or both")
    state = [float(v) for v in y0]
    if not all(map(math.isfinite, state)):
        raise ValueError("y0 must be finite")
    x = float(x0)
    if not math.isfinite(x):
        raise ValueError("x0 must be finite")
    if x_end is not None and not x < x_end < math.inf:
        raise ValueError("x_end must be finite and exceed x0")

    trajectory = Trajectory(x, state)
    size = len(state)

    def evaluate(xq: float, yq: list) -> list:
        try:
            dy = list(map(float, system(xq, yq[:])))
        except IntegrationError as exc:
            exc.trajectory = trajectory
            raise
        except Exception as exc:
            # a step's state is evaluated before the engine checks it
            if not all(map(math.isfinite, yq)):
                raise NonFiniteState(f"non-finite state at x={xq!r}",
                                     trajectory) from exc
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

    # the config is read once, here: the loop runs on locals
    mode, order, max_steps = config.mode, config.order_ab, config.max_steps
    target, dx_min = float(config.target_correction), float(config.dx_min)
    dx = float(config.dx_initial)
    adaptive = mode is Mode.ABM_ADAPTIVE
    # evaluates f at the prediction for the corrector; AB_FIXED has none
    corrector = None if mode is Mode.AB_FIXED else at_next
    dy = evaluate(x, state)
    if not all(map(math.isfinite, dy)):
        raise NonFiniteState(f"non-finite derivative at x={x!r}", trajectory)
    # the readable pair runs the bootstrap; every push is given keep=order
    update, push = adams_update, partial(DividedDifferences.push, keep=order)
    table = DividedDifferences(size)
    push(table, x, dy)
    effective_order = 1  # the table's node count, the order of this step
    # with no x_end the run has no end point: x + dx reaches it only by
    # overflowing, a step the finite-x test below refuses
    end = last = math.inf
    if x_end is not None:
        end = x_end
        last = x_end - 1e-14 * max(abs(x), abs(x_end))  # counts as there
    # a row, packed to bytes in one call, is what the trajectory keeps
    add_row = trajectory._rows.frombytes
    pack_row = struct.Struct(f"{trajectory._width}d").pack
    finite = math.isfinite

    for step in range(max_steps + 1):
        if x >= last:
            return trajectory
        if step == max_steps:
            raise MaxStepsExceeded(
                f"stop condition not reached within {max_steps} steps",
                trajectory)
        clamped = x + dx >= end
        if clamped:
            dx = end - x
        x_next = end if clamped else x + dx
        if not x_next > x:
            raise StalledStep(
                f"step dx={dx!r} does not advance x={x!r}", trajectory)
        if x_next == math.inf:
            raise NonFiniteState(
                f"the step from x={x!r} overflows x", trajectory)
        # the table holds order nodes from this step on: swap in the
        # compiled pair, here so that a run ending sooner compiles none
        if step == order - 1:
            update, push = _kernels(order, size)
        y_ab, y_am = update(state, table, dx, corrector)
        dy_next = evaluate(x_next, y_am)
        epsilon_max = (0.0 if corrector is None
                       else fractional_correction(y_ab, y_am))
        if not all(map(finite, y_ab + y_am + dy_next)):
            raise NonFiniteState(
                f"non-finite state or derivative at x={x_next!r}", trajectory)

        capped = floored = False
        dx_taken = dx
        if adaptive and not clamped:
            dx, capped, floored = _scaled_step(
                epsilon_max, target, effective_order + 1, dx, dx_min)

        add_row(pack_row(x_next, dx_taken, epsilon_max, effective_order,
                         capped, floored, *y_am))
        push(table, x_next, dy_next)
        if effective_order < order:
            effective_order += 1
        x, state = x_next, y_am

        if halt is not None and halt(x, state[:]):
            trajectory.halted = True
            return trajectory
