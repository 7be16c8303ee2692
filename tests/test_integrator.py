"""Unit tests for the predictor-corrector engine and its controller."""
import functools
import importlib.util
import math
import operator
import os
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import abmgrid
from abmgrid import (
    GROWTH_CAP,
    CallbackFailure,
    DividedDifferences,
    IntegrationError,
    IntegratorConfig,
    MaxStepsExceeded,
    Mode,
    NonFiniteState,
    StalledStep,
    Trajectory,
    PolyCase,
    adams_update,
    fractional_correction,
    integrate_floats,
    next_step_size,
    poly_rhs,
    run_poly_case,
    star_config,
    tov_derivatives,
)
from abmgrid.integrator import (
    _gauss_rule,
    _kernels,
    _push_source,
    _update_source,
)


def _load_oracle(name):
    path = Path(__file__).parent / "oracles" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


exact_pece = _load_oracle("gen_weight_oracle").exact_pece


# --- building blocks -------------------------------------------------

def pushed(nodes, columns):
    """The package's table of a stencil, its nodes pushed oldest first.

    ``nodes`` are oldest first and ``columns`` holds one sequence of
    derivatives per component, in the same order.
    """
    table = DividedDifferences(len(columns))
    for x, derivatives in zip(nodes, zip(*columns)):
        table.push(float(x), [float(f) for f in derivatives], len(nodes))
    return table


def test_ab_predict_single_node_is_euler():
    y_next, _ = adams_update(np.array([1.0]), pushed([0.0], [[6.5625]]),
                             0.25)
    assert y_next[0] == 1.0 + 0.25 * 6.5625  # 2.640625 exactly


def test_ab_predict_weights_shared_across_components():
    # two components, derivative rows constant per component
    offsets = np.array([-2.0, -1.0, 0.0])
    derivatives = np.array([[1.0, -2.0]] * 3)
    y_next, _ = adams_update([0.0, 0.0], pushed(offsets, derivatives.T),
                             1.0)
    np.testing.assert_allclose(y_next, [1.0, -2.0], rtol=1e-14)


def test_am_correct_trapezoid_exact_for_linear_derivative():
    # y' = x from x=1 with one history node: correction is the
    # trapezoid rule, exact for a linear integrand
    y = np.array([0.5])  # x^2/2 at x=1
    _, corrected = adams_update(y, pushed([0.0], [[1.0]]),
                                0.5, lambda y_ab: np.array([1.5]))
    assert corrected[0] == pytest.approx(1.5 ** 2 / 2, rel=1e-15)


def test_without_a_corrector_the_update_is_the_prediction():
    y_ab, y_am = adams_update(np.array([1.0, 2.0]),
                              pushed([-0.5, 0.0], [[1.0, 3.0], [2.0, 5.0]]),
                              0.25)
    assert y_am is y_ab


def _random_stencil(rng, count, dx):
    """Offsets ending at 0 whose gaps run from dx/3 to 3 dx."""
    gaps = dx * rng.uniform(1.0 / 3.0, 3.0, count - 1)
    return np.append(-np.cumsum(gaps[::-1])[::-1], 0.0)


def test_pece_pair_matches_exact_rational_arithmetic():
    # the Newton form on floats against the Lagrange weights applied in
    # Fraction arithmetic, on stretched stencils; the two components
    # differ in size by up to 1e200, and the table keeps them apart, so
    # each is held to its own scale
    rng = np.random.default_rng(20261018)
    for _ in range(500):
        count = int(rng.integers(1, 12))
        dx = float(rng.uniform(0.01, 2.0))
        offsets = _random_stencil(rng, count, dx)
        size = np.array([1.0, 10.0 ** rng.uniform(-200.0, 200.0)])
        derivatives = size * rng.uniform(-1.0, 1.0, (count, 2))
        newest = size * rng.uniform(-1.0, 1.0, 2)
        y_ab, y_am = map(np.array, adams_update(
            [0.0, 0.0], pushed(offsets, derivatives.T), dx,
            lambda y_ab: newest.tolist()))
        exact_ab, exact_am, w_ab, w_am = exact_pece(
            [0, 0], offsets.tolist(), derivatives.tolist(), dx,
            newest.tolist())
        am_rows = np.vstack([derivatives, newest])
        for got, exact, weights, rows in ((y_ab, exact_ab, w_ab, derivatives),
                                          (y_am, exact_am, w_am, am_rows)):
            weight_sum = float(sum(abs(w) for w in weights))
            for j, value in enumerate(got.tolist()):
                budget = 1e-13 * weight_sum * np.abs(rows[:, j]).max()
                error = abs(float(Fraction(value) - exact[j]))
                assert error <= budget, (offsets, dx, j, error / budget)


@pytest.mark.parametrize("power", [600, -600])
def test_scaled_derivatives_scale_the_increment_exactly(power):
    # every operation of the update is exact under a power-of-two
    # scaling in the normal range, so a stencil scaled by 2^power gives
    # increments scaled by exactly 2^power, bit for bit
    rng = np.random.default_rng(5)
    factor = 2.0 ** power
    for count in range(1, 12):
        offsets = _random_stencil(rng, count, 0.3)
        derivatives = rng.uniform(-1.0, 1.0, (count, 2))
        newest = rng.uniform(-1.0, 1.0, 2)
        plain = map(np.array, adams_update(
            [0.0, 0.0], pushed(offsets, derivatives.T), 0.3,
            lambda y_ab: newest.tolist()))
        scaled = map(np.array, adams_update(
            [0.0, 0.0], pushed(offsets, (factor * derivatives).T),
            0.3, lambda y_ab: (factor * newest).tolist()))
        for base, big in zip(plain, scaled):
            assert np.array_equal(big, factor * base)


def test_carried_table_equals_the_table_pushed_afresh():
    # carrying the table from node to node, oldest nodes dropping out on
    # the way, gives the bits of a table built from the kept nodes
    # alone; at the end the largest derivative drops out of the stencil,
    # which must leave zeros, not NaN
    rng = np.random.default_rng(12)
    order = 5
    xs = np.cumsum(rng.uniform(0.1, 1.0, 60)).tolist()
    binades = 2.0 ** rng.integers(-80, 80, (60, 2))
    rows = (binades * rng.uniform(-1.0, 1.0, (60, 2))).tolist()
    rows[-order - 3:] = [[1.7e308, 1.0]] * 3 + [[0.0, 1.0]] * order
    carried = DividedDifferences(2)
    for n, (x, row) in enumerate(zip(xs, rows)):
        keep = min(n + 1, order)
        carried.push(x, row, keep)
        kept = slice(n + 1 - keep, n + 1)
        fresh = pushed(xs[kept], list(zip(*rows[kept])))
        assert carried.nodes == fresh.nodes == xs[kept][::-1]
        assert carried.columns == fresh.columns, n
    assert carried.columns[0] == [0.0] * order


def test_table_ramps_to_its_order_and_holds():
    # a keep above the table's length grows it by one node, so keeping
    # the capacity from the first push ramps the table as growing it does
    for keep in (lambda table: min(len(table.nodes) + 1, 4),
                 lambda table: 4):
        table = DividedDifferences(1)
        lengths = []
        for n in range(12):
            table.push(float(n), [float(n * n)], keep(table))
            lengths.append(len(table.columns[0]))
        assert lengths == [1, 2, 3] + [4] * 9
        assert table.nodes == [11.0, 10.0, 9.0, 8.0]
        # y' = x^2 on 11, 10, 9, 8: c = [121, 11 + 10, 1, 0]
        assert table.columns[0] == [121.0, 21.0, 1.0, 0.0]


def test_fractional_correction_is_the_largest_scaled_magnitude():
    eps_max = fractional_correction(np.array([2.0, -4.0]),
                                    np.array([2.1, -4.4]))
    assert eps_max == pytest.approx(0.1, rel=1e-14)


def test_fractional_correction_zero_prediction_uses_absolute():
    # a zero predicted component cannot divide; the correction falls
    # back to the absolute difference for that component
    eps_max = fractional_correction(np.array([0.0, 2.0]),
                                    np.array([0.3, 2.2]))
    assert eps_max == pytest.approx(0.3, rel=1e-14)


def test_fractional_correction_propagates_nan():
    # like a NaN-propagating maximum, wherever the NaN sits
    for predicted in ([np.nan, 1.0, 2.0], [1.0, np.inf, 2.0],
                      [1.0, 2.0, np.nan]):
        assert math.isnan(fractional_correction(predicted,
                                                [1.5, 2.5, 3.5]))


# --- step-size controller --------------------------------------------

CONTROL = IntegratorConfig(order_ab=4, target_correction=1e-6)


def test_controller_holds_when_on_target():
    dx, capped, floored = next_step_size(1e-6, CONTROL, 5, 0.2)
    assert dx == pytest.approx(0.2)
    assert not capped and not floored


def test_controller_halves_on_fifth_root_of_32():
    # epsilon 32x over target with a 5-node correction: (1/32)^(1/5)
    dx, capped, floored = next_step_size(32e-6, CONTROL, 5, 0.2)
    assert dx == pytest.approx(0.1, rel=1e-12)
    assert not capped and not floored


def test_controller_caps_growth():
    assert GROWTH_CAP == 3.0
    dx, capped, floored = next_step_size(1e-30, CONTROL, 5, 0.2)
    assert dx == pytest.approx(0.6)
    assert capped and not floored


def test_controller_takes_cap_on_zero_correction():
    dx, capped, floored = next_step_size(0.0, CONTROL, 5, 0.2)
    assert dx == pytest.approx(0.6)
    assert capped and not floored


def test_controller_shrink_is_uncapped_but_floored():
    config = IntegratorConfig(order_ab=4, target_correction=1e-6,
                              dx_initial=1.0, dx_min=1e-3)
    # enormous correction: raw ratio is tiny, floor catches it
    assert next_step_size(1e12, config, 5, 1.0) == (1e-3, False, True)
    # without a floor the shrink passes through
    unfloored = IntegratorConfig(order_ab=4, target_correction=1e-6)
    dx, capped, floored = next_step_size(1e6, unfloored, 5, 1.0)
    assert dx == pytest.approx((1e-6 / 1e6) ** 0.2, rel=1e-12)
    assert not capped and not floored


def test_controller_rejects_bad_arguments():
    with pytest.raises(ValueError):
        next_step_size(1e-6, CONTROL, 5, 0.0)
    with pytest.raises(ValueError):
        next_step_size(1e-6, CONTROL, 1, 0.1)
    # a NaN used to pass through as dx = NaN, and a negative epsilon
    # raised to a fractional power made a complex ratio (TypeError)
    for epsilon in (np.nan, -1.0, -1e-300):
        with pytest.raises(ValueError, match="epsilon_max"):
            next_step_size(epsilon, CONTROL, 5, 1.0)
    for dx in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="dx_current"):
            next_step_size(1e-9, CONTROL, 5, dx)
    # an infinite correction is still a step: it shrinks dx to the floor
    floored = IntegratorConfig(order_ab=4, target_correction=1e-6,
                               dx_initial=1.0, dx_min=1e-3)
    assert next_step_size(np.inf, floored, 5, 1.0) == (1e-3, False, True)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(order_ab=0)
    with pytest.raises(ValueError):
        IntegratorConfig(order_ab=4, target_correction=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(order_ab=4, dx_initial=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(order_ab=4, dx_initial=1e-4, dx_min=1e-3)
    with pytest.raises(ValueError):
        IntegratorConfig(order_ab=4, max_steps=0)
    # NaN fails every comparison and inf passes "> 0": both are refused
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            IntegratorConfig(order_ab=4, target_correction=bad)
        with pytest.raises(ValueError):
            IntegratorConfig(order_ab=4, dx_initial=bad)
        with pytest.raises(ValueError):
            IntegratorConfig(order_ab=4, dx_min=bad)
    # the two counts are integers: numpy's are taken, anything else is
    # refused here rather than failing inside a run
    for name in ("order_ab", "max_steps"):
        for bad in (2.5, 4.0, np.float64(3.0), "4", None):
            with pytest.raises(ValueError, match=name):
                IntegratorConfig(**{"order_ab": 4, name: bad})
        config = IntegratorConfig(**{"order_ab": 4, "dx_initial": 0.5,
                                     name: np.int64(3)})
        assert integrate_floats(lambda x, y: [1.0], [0.0], 0.0, config,
                                x_end=1.0).final_x == 1.0
    # a mode's value, or no mode, would run another discipline unnoticed
    for bad in ("ab-fixed", "abm-adaptive", None):
        with pytest.raises(ValueError, match="mode"):
            IntegratorConfig(order_ab=4, dx_initial=0.25, mode=bad)
    # a config made by _replace is checked as one made by hand
    asked = star_config(6, 1e-8)
    for name, bad in (("order_ab", 0), ("mode", "abm-fixed")):
        with pytest.raises(ValueError, match=name):
            asked._replace(**{name: bad})
    assert asked._replace(target_correction=1e-5) == star_config(6, 1e-5)


# --- whole integrations ----------------------------------------------

def test_constant_derivative_is_exact_and_rides_the_cap():
    config = IntegratorConfig(order_ab=3, dx_initial=0.01)
    trajectory = integrate_floats(lambda x, y: np.array([2.0, -1.0]),
                                  [0.0, 10.0], 0.0, config, x_end=3.0)
    np.testing.assert_allclose(trajectory.final_state, [6.0, 7.0],
                               rtol=1e-12)
    assert trajectory.final_x == 3.0
    # corrections sit at roundoff, so every unclamped step takes the cap
    assert all(r.epsilon_max < 1e-12 for r in trajectory)
    assert all(r.capped for r in list(trajectory)[:-1])


def test_linear_derivative_exact_after_trapezoid_correction():
    # y' = x: even the first (bootstrap) step is exact because the
    # two-node correction integrates a linear derivative exactly
    config = IntegratorConfig(order_ab=2, dx_initial=0.25,
                              mode=Mode.ABM_FIXED)
    trajectory = integrate_floats(lambda x, y: np.array([x]), [0.0], 0.0,
                                  config, x_end=2.0)
    for record in trajectory:
        assert record.y_am[0] == pytest.approx(record.x_next ** 2 / 2,
                                               rel=1e-13, abs=1e-15)


def test_bootstrap_ramps_effective_order():
    config = IntegratorConfig(order_ab=4, dx_initial=0.1,
                              mode=Mode.ABM_FIXED)
    trajectory = integrate_floats(lambda x, y: np.array([np.cos(x)]), [0.0],
                                  0.0, config, x_end=1.0)
    orders = [r.effective_order for r in trajectory]
    assert orders[:4] == [1, 2, 3, 4]
    assert all(order == 4 for order in orders[3:])


def test_pece_costs_two_evaluations_per_step_plus_seed():
    config = IntegratorConfig(order_ab=4, dx_initial=0.1)
    trajectory = integrate_floats(lambda x, y: np.array([np.cos(x)]), [0.0],
                                  0.0, config, x_end=1.0)
    assert trajectory.n_evals == 2 * len(trajectory) + 1


def test_ab_fixed_costs_one_evaluation_per_step():
    config = IntegratorConfig(order_ab=4, dx_initial=0.1,
                              mode=Mode.AB_FIXED)
    trajectory = integrate_floats(lambda x, y: np.array([np.cos(x)]), [0.0],
                                  0.0, config, x_end=1.0)
    assert trajectory.n_evals == len(trajectory) + 1
    assert all(r.epsilon_max == 0.0 for r in trajectory)
    np.testing.assert_array_equal(trajectory.dx, 0.1)


def test_abm_fixed_keeps_dx_constant_but_reports_epsilon():
    config = IntegratorConfig(order_ab=3, dx_initial=0.1,
                              mode=Mode.ABM_FIXED)
    trajectory = integrate_floats(lambda x, y: np.array([np.exp(-x)]), [0.0],
                                  0.0, config, x_end=0.95)
    assert np.max(trajectory.epsilon_max) > 0.0
    np.testing.assert_allclose(trajectory.dx[:-1], 0.1, rtol=1e-15)
    assert trajectory.dx[-1] == pytest.approx(0.05, rel=1e-12)


def test_endpoint_clamp_lands_exactly():
    config = IntegratorConfig(order_ab=4, dx_initial=0.013)
    trajectory = integrate_floats(lambda x, y: np.array([np.sin(x)]), [1.0],
                                  0.0, config, x_end=2.0)
    assert trajectory.final_x == 2.0  # bitwise, not approximately


def test_growth_never_exceeds_the_cap():
    config = IntegratorConfig(order_ab=4, dx_initial=1e-3,
                              target_correction=1e-6)
    trajectory = integrate_floats(
        lambda x, y: np.array([np.cos(3 * x) * y[0]]), [1.0], 0.0, config,
        x_end=4.0)
    dx = np.asarray(trajectory.dx)
    ratios = dx[1:] / dx[:-1]
    assert np.all(ratios <= GROWTH_CAP + 1e-12)


def test_halt_predicate_stops_and_flags():
    config = IntegratorConfig(order_ab=2, dx_initial=0.1,
                              mode=Mode.ABM_FIXED)
    trajectory = integrate_floats(lambda x, y: np.array([-1.0]), [1.0], 0.0,
                                  config, halt=lambda x, y: y[0] <= 0.0)
    assert trajectory.halted
    assert trajectory.final_state[0] <= 0.0
    # the state crossed zero on the final accepted step only
    assert all(r.y_am[0] > 0.0 for r in list(trajectory)[:-1])


def test_halt_beats_x_end_when_it_fires_first():
    config = IntegratorConfig(order_ab=2, dx_initial=0.1,
                              mode=Mode.ABM_FIXED)
    trajectory = integrate_floats(lambda x, y: np.array([-1.0]), [0.35], 0.0,
                                  config, x_end=100.0,
                                  halt=lambda x, y: y[0] <= 0.0)
    assert trajectory.halted
    assert trajectory.final_x < 1.0


def test_max_steps_carries_partial_trajectory():
    config = IntegratorConfig(order_ab=2, dx_initial=1e-4,
                              mode=Mode.ABM_FIXED, max_steps=7)
    with pytest.raises(MaxStepsExceeded) as excinfo:
        integrate_floats(lambda x, y: np.array([1.0]), [0.0], 0.0, config,
                         x_end=10.0)
    assert len(excinfo.value.trajectory) == 7
    assert excinfo.value.tag == "max-steps"


def test_last_allowed_step_landing_on_x_end_returns():
    # the step budget runs out on the very step that reaches x_end: the
    # run has ended, so it returns rather than raises; one step fewer
    # leaves x short of x_end
    def run(max_steps):
        config = IntegratorConfig(order_ab=2, dx_initial=0.25,
                                  mode=Mode.ABM_FIXED, max_steps=max_steps)
        return integrate_floats(lambda x, y: [1.0], [0.0], 0.0, config,
                                x_end=1.0)

    trajectory = run(4)
    assert len(trajectory) == 4
    assert trajectory.final_x == 1.0
    with pytest.raises(MaxStepsExceeded) as excinfo:
        run(3)
    assert len(excinfo.value.trajectory) == 3


def test_non_finite_state_raises_with_context():
    def blow_up(x, y):
        return np.array([1.0 / (0.5 - x) if x < 0.5 else np.inf])

    config = IntegratorConfig(order_ab=2, dx_initial=0.2,
                              mode=Mode.ABM_FIXED)
    with pytest.raises(NonFiniteState) as excinfo:
        integrate_floats(blow_up, [0.0], 0.0, config, x_end=2.0)
    assert len(excinfo.value.trajectory) >= 1
    assert excinfo.value.tag == "non-finite"


@pytest.mark.parametrize("mode", list(Mode))
def test_non_finite_first_derivative_raises_at_x0(mode):
    # f(x0, y0) is checked before the first step is taken
    def infinite_at_start(x, y):
        return np.array([np.inf if x == 0.0 else 1.0])

    config = IntegratorConfig(order_ab=2, dx_initial=0.1, mode=mode)
    expected = reference_pece(infinite_at_start, [0.0], 0.0, config,
                              x_end=1.0)
    assert expected == ([], 1, True)
    with pytest.raises(NonFiniteState, match=r"at x=0\.0$") as excinfo:
        integrate_floats(infinite_at_start, [0.0], 0.0, config, x_end=1.0)
    assert len(excinfo.value.trajectory) == 0
    assert excinfo.value.trajectory.n_evals == 1
    assert excinfo.value.tag == "non-finite"


def test_callback_exception_is_wrapped_with_cause():
    def fragile(x, y):
        if x > 0.3:
            raise ZeroDivisionError("synthetic failure")
        return np.array([1.0])

    config = IntegratorConfig(order_ab=2, dx_initial=0.2,
                              mode=Mode.ABM_FIXED)
    with pytest.raises(CallbackFailure) as excinfo:
        integrate_floats(fragile, [0.0], 0.0, config, x_end=2.0)
    assert isinstance(excinfo.value.__cause__, ZeroDivisionError)
    assert len(excinfo.value.trajectory) >= 1
    assert excinfo.value.tag == "callback"


def test_callback_integration_error_propagates_with_trajectory():
    # a callback's own IntegrationError is not wrapped: the engine
    # attaches the partial trajectory and re-raises the same object
    class Trapped(IntegrationError):
        tag = "trapped"

    raised = []

    def trapping(x, y):
        if x > 0.3:
            raised.append(Trapped("synthetic trap"))
            raise raised[-1]
        return np.array([1.0])

    config = IntegratorConfig(order_ab=2, dx_initial=0.2,
                              mode=Mode.ABM_FIXED)
    with pytest.raises(Trapped) as excinfo:
        integrate_floats(trapping, [0.0], 0.0, config, x_end=2.0)
    assert excinfo.value is raised[0]
    assert excinfo.value.tag == "trapped"
    assert len(excinfo.value.trajectory) == 1
    assert excinfo.value.trajectory.final_x == pytest.approx(0.2)


def test_step_that_does_not_advance_x_is_an_integration_error():
    # without a floor the controller shrinks dx toward the pole at x = 1
    # until x + dx == x; the engine stops before evaluating that step
    calls = []

    def pole(x, y):
        calls.append(x)
        return np.array([1.0 / (1.0 - x), math.cos(x)])

    config = IntegratorConfig(order_ab=3, dx_initial=0.05)
    with pytest.raises(IntegrationError) as excinfo:
        integrate_floats(pole, [0.0, 0.0], 0.0, config, x_end=2.0)
    failure = excinfo.value
    assert type(failure) is StalledStep and failure.tag == "stalled"
    assert "does not advance" in str(failure)
    trajectory = failure.trajectory
    assert len(trajectory) > 0
    assert calls[-1] == trajectory.final_x < 1.0
    assert trajectory.n_evals == len(calls) == 2 * len(trajectory) + 1
    assert np.all(np.diff(trajectory.x) > 0.0)


@pytest.mark.parametrize("mode", list(Mode))
def test_step_that_overflows_x_is_refused_before_evaluating(mode):
    # x0 + dx = inf: with no x_end to clamp it, AB_FIXED used to keep a
    # row at x = inf, and the PECE modes stopped only on the corrector's
    # overflowing weight
    calls = []

    def constant(x, y):
        calls.append(x)
        return [1.0]

    config = IntegratorConfig(order_ab=2, dx_initial=1e308, mode=mode)
    with pytest.raises(NonFiniteState, match="overflows x") as excinfo:
        integrate_floats(constant, [0.0], 1e308, config,
                         halt=lambda x, y: False)
    assert calls == [1e308]
    trajectory = excinfo.value.trajectory
    assert len(trajectory) == 0 and trajectory.n_evals == 1
    assert trajectory.final_x == 1e308


@pytest.mark.parametrize("dx", [1, np.float64(1.0)], ids=["int", "float64"])
def test_rows_keep_the_bits_of_a_non_float_step_knob(dx):
    # each row is packed to doubles from whatever the config holds
    def columns(trajectory):
        return [[value.hex() for value in column] for column in
                (trajectory.x, trajectory.dx, trajectory.epsilon_max,
                 *trajectory.y)]

    expected = run_poly_case(PolyCase(dx=1.0)).trajectory
    trajectory = run_poly_case(PolyCase(dx=dx)).trajectory
    assert columns(trajectory) == columns(expected)
    flags = [(type(record.effective_order), type(record.capped),
              type(record.floored)) for record in trajectory]
    assert set(flags) == {(int, bool, bool)}
    assert ([record[5:] for record in trajectory]
            == [record[5:] for record in expected])
    assert any(record.capped for record in expected)


def test_derivative_shape_mismatch_is_a_callback_failure():
    config = IntegratorConfig(order_ab=2, dx_initial=0.2)
    with pytest.raises(CallbackFailure):
        integrate_floats(lambda x, y: np.array([1.0, 2.0]), [0.0], 0.0, config,
                         x_end=1.0)


@pytest.mark.parametrize("returned", [
    None, ["a"], {"a": 1.0}, 1.0, np.float64(1.0), np.array([[1.0]]),
    [1.0, 2.0]], ids=["none", "text", "dict", "float", "float64", "nested",
                      "too-long"])
def test_malformed_derivative_is_a_callback_failure(returned):
    # a derivative is len(y) real numbers, even for one component; the
    # first evaluation at x0 fails before it is counted
    config = IntegratorConfig(order_ab=2, dx_initial=0.2)
    with pytest.raises(CallbackFailure) as excinfo:
        integrate_floats(lambda x, y: returned, [0.0], 0.0, config, x_end=1.0)
    assert excinfo.value.tag == "callback"
    assert len(excinfo.value.trajectory) == 0
    assert excinfo.value.trajectory.n_evals == 0


@pytest.mark.parametrize("x0,x_end", [
    (0.0, 2e-14), (0.0, 1e-15), (1e-20, 2e-20), (-1e-15, 0.0),
    (0.0, 1e-300)])
def test_short_interval_lands_on_x_end(x0, x_end):
    # the end tolerance scales with max(|x0|, |x_end|), so an interval
    # far shorter than 1e-14 is still integrated to its end
    def unit_slope(x, y):
        return np.array([1.0])

    config = IntegratorConfig(order_ab=4, dx_initial=1e-16)
    trajectory = integrate_floats(unit_slope, [0.0], x0, config, x_end=x_end)
    assert trajectory.final_x == x_end
    assert trajectory.final_state[0] == pytest.approx(x_end - x0,
                                                      rel=1e-15, abs=0.0)
    assert_same_run(trajectory, reference_pece(unit_slope, [0.0], x0,
                                               config, x_end=x_end))


def test_stop_condition_is_required():
    config = IntegratorConfig(order_ab=2)
    with pytest.raises(ValueError):
        integrate_floats(lambda x, y: np.array([1.0]), [0.0], 0.0, config)


def test_x_end_must_exceed_x0():
    config = IntegratorConfig(order_ab=2)
    with pytest.raises(ValueError):
        integrate_floats(lambda x, y: np.array([1.0]), [0.0], 1.0, config,
                         x_end=1.0)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(derandomize=True, max_examples=100, database=None)
@given(st.one_of(
    st.tuples(NON_FINITE, st.none() | st.floats()),
    st.tuples(st.floats(allow_nan=False, allow_infinity=False), NON_FINITE)))
def test_non_finite_ends_are_refused_before_any_evaluation(ends):
    # a NaN start cannot advance and an infinite end cannot be reached:
    # both are refused before the derivative is ever called
    x0, x_end = ends
    calls = []

    def system(x, y):
        calls.append(x)
        return [1.0]

    config = IntegratorConfig(order_ab=2, max_steps=3)
    with pytest.raises(ValueError):
        integrate_floats(system, [0.0], x0, config, x_end=x_end,
                         halt=lambda x, y: False)
    assert calls == []


def test_bad_initial_state_rejected():
    # y0 is a sequence of real numbers: a scalar or a nested sequence is
    # not one, and a non-finite entry is refused
    config = IntegratorConfig(order_ab=2)
    with pytest.raises(TypeError):
        integrate_floats(lambda x, y: y, 3.0, 0.0, config, x_end=1.0)
    with pytest.raises(TypeError):
        integrate_floats(lambda x, y: y, [[1.0, 2.0]], 0.0, config, x_end=1.0)
    with pytest.raises(ValueError):
        integrate_floats(lambda x, y: y, [np.nan], 0.0, config, x_end=1.0)


def test_empty_trajectory_reports_initial_point():
    trajectory = Trajectory(1.5, np.array([2.0, 3.0]))
    assert trajectory.final_x == 1.5
    np.testing.assert_array_equal(trajectory.final_state, [2.0, 3.0])
    assert len(trajectory) == 0


def _is_double_array(value, length):
    return (type(value) is array and value.typecode == "d"
            and len(value) == length)


@pytest.mark.parametrize("components", [1, 2])
@pytest.mark.parametrize("steps", [0, 1, 100])
def test_trajectory_reads_are_fresh_float_arrays(components, steps):
    # x, dx and epsilon_max are each a new array("d") of one double per
    # step, and y is a list of one such column per component; writing
    # into a read leaves the trajectory as it was
    y0 = [1.0, 0.5][:components]
    if steps:
        config = IntegratorConfig(order_ab=3, dx_initial=1.0 / steps,
                                  mode=Mode.ABM_FIXED)
        trajectory = integrate_floats(lambda x, y: [-v for v in y], y0,
                                      0.0, config, x_end=1.0)
    else:
        trajectory = Trajectory(0.0, np.array(y0))
    assert len(trajectory) == steps

    def reads():
        y = trajectory.y
        assert type(y) is list and len(y) == components
        return [trajectory.x, trajectory.dx, trajectory.epsilon_max, *y]

    first, second = reads(), reads()
    for index, (read, again) in enumerate(zip(first, second)):
        assert _is_double_array(read, steps), index
        assert read is not again, index
        read[:] = array("d", [-1.0] * steps)
    assert reads() == second
    final_state = trajectory.final_state
    assert type(final_state) is list and len(final_state) == components
    assert all(type(value) is float for value in final_state)
    assert final_state is not trajectory.final_state
    assert type(trajectory.final_x) is float
    assert trajectory.final_x == (1.0 if steps else 0.0)
    records = list(trajectory)
    assert len(records) == steps
    for index, record in enumerate(records):
        assert record.index == index
        assert type(record.y_am) is tuple and len(record.y_am) == components
        assert all(type(value) is float for value in record.y_am)
        assert record.y_am == tuple(column[index] for column in second[3:])
        for value in (record.x_next, record.dx, record.epsilon_max):
            assert type(value) is float
        assert type(record.effective_order) is int
        assert type(record.capped) is bool and type(record.floored) is bool


@pytest.mark.parametrize("x0, y0, shape", [
    (np.float64(1.0), [2.0, 3.0], (2,)),
    (1.0, (2, 3), (2,)), (1.0, np.array([2.0], dtype=np.float32), (1,)),
])
def test_trajectory_accepts_flat_sequences_and_arrays(x0, y0, shape):
    trajectory = Trajectory(x0, y0)
    assert trajectory.final_x == 1.0 and type(trajectory.final_x) is float
    assert np.shape(trajectory.final_state) == shape
    np.testing.assert_array_equal(trajectory.final_state, y0)
    assert np.asarray(trajectory.y).T.shape == (0,) + shape


@pytest.mark.parametrize("y0", [
    2.0, np.float64(2.0), np.array(2.0), [[2.0, 3.0]],
    np.array([[2.0, 3.0]]),
], ids=["float", "numpy-scalar", "0-d-array", "nested-list", "2-d-array"])
def test_trajectory_refuses_scalar_and_nested_states(y0):
    # the engine hands Trajectory a flat list; a state of any other
    # shape is refused rather than reshaped
    with pytest.raises(TypeError):
        Trajectory(1.0, y0)


# --- the engine against a plain PECE loop -------------------------------

# the count-point Gauss-Legendre rule on [0, 1], as float pairs, each
# value the double nearest the rule mpmath computes at 60 digits
gauss_rule = functools.lru_cache(maxsize=None)(
    _load_oracle("gen_gauss_oracle").gauss_rule)


@pytest.mark.parametrize("count", range(1, 13))
def test_gauss_rule_is_the_correctly_rounded_rule(count):
    assert list(_gauss_rule(count)) == gauss_rule(count)


def newton_column(column, nodes):
    """(scale, newest-first divided differences) of one component.

    ``column`` and ``nodes`` are oldest first; the scale is the power of
    two that brings the largest magnitude into [1, 2).  The table is
    built by pushing the nodes from oldest to newest: a node x with
    derivative f turns the table c into c' with c'_0 = f and
    c'_i = (c'_{i-1} - c_{i-1}) / (x - x_{i-1}), x_k being the node
    behind c_k.
    """
    exponent = max(math.frexp(max(abs(f) for f in column))[1] - 1, -1022)
    scale = 2.0 ** -exponent
    coefficients, behind = [], []  # behind: the table's nodes, newest first
    for x, f in zip(nodes, column):
        pushed = [f * scale]
        for c, node in zip(coefficients, behind):
            pushed.append((pushed[-1] - c) / (x - node))
        coefficients, behind = pushed, [x] + behind
    return scale, coefficients


def basis_integrals(offsets, dx):
    """integrals[i]: prod_{k<i} (t - s_k) over [0, dx], i = 0..n.

    ``offsets`` are the n node offsets s_k, newest (0) first; the
    integrals are summed over the n // 2 + 1 Gauss points in order.
    """
    n = len(offsets)
    integrals = [0.0] * (n + 1)
    for point, weight in gauss_rule(n // 2 + 1):
        term = dx * weight
        for i in range(n + 1):
            integrals[i] += term
            if i < n:
                term *= dx * point - offsets[i]
    return integrals


def test_the_increment_adds_its_products_left_to_right():
    # with y = 0, y_AB is the increment: the products c_i g_i added from
    # i = 0 to N - 1, in both forms of the step, and not their correctly
    # rounded sum, which differs on some stencils
    rng = np.random.default_rng(39)
    rounded_differently = 0
    for _ in range(200):
        count = int(rng.integers(2, 13))
        dx = float(rng.uniform(0.01, 2.0))
        table = pushed(_random_stencil(rng, count, dx),
                       [rng.uniform(-1.0, 1.0, count)])
        products = [c * g for c, g in zip(
            table.columns[0], basis_integrals(table.nodes, dx))]
        in_order = functools.reduce(operator.add, products)
        update, _ = _kernels(count, 1)
        for step in (adams_update, update):
            (y_ab,), _ = step([0.0], table, dx, None)
            assert y_ab.hex() == in_order.hex()
        rounded_differently += in_order != math.fsum(products)
    assert rounded_differently


def reference_pece(system, y0, x0, config, x_end=None, halt=None):
    """integrate_floats() written out plainly, on lists of Python floats.

    Each step builds the Newton form afresh from the stored
    derivatives, carrying nothing from the step before: newest-first
    divided differences pushed from the stencil's oldest node to its
    newest, basis integrals on Gauss points, and the corrector as one
    more Newton term.  Returns
    (records, n_evals, failed); a record is (x_next, dx, y_am,
    epsilon_max, effective_order, capped, floored), and ``failed`` is
    True when a non-finite state stopped the run.
    """
    x, y, dx = x0, [float(v) for v in y0], config.dx_initial
    xs, dys, records = [x], [system(x, np.array(y)).tolist()], []
    n_evals = 1
    if not all(math.isfinite(v) for v in dys[0]):
        return records, n_evals, True
    end = (math.inf if x_end is None
           else x_end - 1e-14 * max(abs(x0), abs(x_end)))
    while x < end:
        n = min(len(xs), config.order_ab)
        clamped = x_end is not None and x + dx >= x_end
        dx = x_end - x if clamped else dx
        x_next = x_end if clamped else x + dx
        offsets = [node - xs[-1] for node in xs[-n:][::-1]]
        integrals = basis_integrals(offsets, dx)
        columns = [newton_column([row[j] for row in dys[-n:]], xs[-n:])
                   for j in range(len(y))]
        increments = []  # each adds its products left to right
        for _, coefficients in columns:
            products = [c * g for c, g in zip(coefficients, integrals)]
            increments.append(functools.reduce(operator.add, products))
        y_ab = [y0 + increment / scale for y0, increment, (scale, _)
                in zip(y, increments, columns)]
        y_am, dy, eps = y_ab, system(x_next, np.array(y_ab)).tolist(), 0.0
        n_evals += 1
        if config.mode is not Mode.AB_FIXED:
            weight = integrals[n] / math.prod(dx - s for s in offsets)
            y_am = []
            for y0, increment, (scale, coefficients), f in zip(
                    y, increments, columns, dy):
                at_dx = coefficients[-1]  # the prediction's p(dx)
                for c, s in zip(coefficients[-2::-1], offsets[-2::-1]):
                    at_dx = at_dx * (dx - s) + c
                correction = weight * (f * scale - at_dx)
                y_am.append(y0 + (increment + correction) / scale)
            dy, n_evals = system(x_next, np.array(y_am)).tolist(), n_evals + 1
            predicted, corrected = np.array(y_ab), np.array(y_am)
            scale = np.where(np.abs(predicted) > 0.0, np.abs(predicted), 1.0)
            eps = float(np.max(np.abs((corrected - predicted) / scale)))
        if not all(math.isfinite(v) for v in y_ab + y_am + dy):
            return records, n_evals, True
        dx_taken, capped, floored = dx, False, False
        if config.mode is Mode.ABM_ADAPTIVE and not clamped:
            dx, capped, floored = next_step_size(eps, config, n + 1, dx)
        records.append((x_next, dx_taken, np.array(y_am), eps, n, capped,
                        floored))
        xs.append(x_next)
        dys.append(dy)
        x, y = x_next, y_am
        if halt is not None and halt(x, np.array(y)):
            break
    return records, n_evals, False


def assert_same_run(trajectory, expected):
    records, n_evals, _ = expected
    assert len(trajectory) == len(records)
    for record, (x_next, dx, y_am, eps, order, capped, floored) in zip(
            trajectory, records):
        assert record.x_next == x_next
        assert record.dx == dx
        assert record.y_am == tuple(y_am)
        assert record.epsilon_max == eps or (math.isnan(record.epsilon_max)
                                             and math.isnan(eps))
        assert record.effective_order == order
        assert (record.capped, record.floored) == (capped, floored)
    assert trajectory.n_evals == n_evals
    # the column reads carry the same bits as the records
    x_next, dx, y_am, eps = (np.array(column) for column in
                             list(zip(*records))[:4])
    assert np.array_equal(trajectory.x, x_next)
    assert np.array_equal(trajectory.dx, dx)
    assert np.array_equal(np.asarray(trajectory.y).T, y_am)
    assert np.array_equal(trajectory.epsilon_max, eps, equal_nan=True)


def quartic(x, y):
    return np.array([poly_rhs(x)])


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("order", [1, 4, 8])
def test_quartic_run_matches_the_plain_loop_bit_for_bit(mode, order):
    # dx = 0.01 runs for hundreds of steps, so the trajectory's columns
    # grow several times on the way
    for dx in (0.25, 0.01):
        case = PolyCase(mode=mode, order=order, dx=dx)
        expected = reference_pece(quartic, [case.y0], case.x0,
                                  case.config(), x_end=case.x_end)
        assert not expected[2]
        trajectory = integrate_floats(quartic, [case.y0], case.x0,
                                      case.config(), x_end=case.x_end)
        assert_same_run(trajectory, expected)


def test_callback_reusing_one_buffer_gives_the_same_run():
    # the trajectory copies every derivative it keeps, so a callback
    # that overwrites one output array runs like one returning fresh ones
    buffer = np.empty(2)

    def in_place(x, y):
        buffer[0], buffer[1] = np.cos(x) * y[1], -y[0]
        return buffer

    def fresh(x, y):
        return np.array([np.cos(x) * y[1], -y[0]])

    config = IntegratorConfig(order_ab=4, dx_initial=0.01,
                              target_correction=1e-6)
    expected = reference_pece(fresh, [1.0, 0.5], 0.0, config, x_end=6.0)
    trajectory = integrate_floats(in_place, [1.0, 0.5], 0.0, config, x_end=6.0)
    assert len(trajectory) > 64
    assert_same_run(trajectory, expected)


def test_writing_into_column_reads_leaves_the_trajectory_unchanged():
    config = IntegratorConfig(order_ab=3, dx_initial=0.1,
                              mode=Mode.ABM_FIXED)
    trajectory = integrate_floats(lambda x, y: np.array([np.cos(x), x]),
                                  [0.0, 1.0], 0.0, config, x_end=1.0)

    def reads():
        return [trajectory.x, trajectory.dx, *trajectory.y,
                trajectory.epsilon_max, trajectory.final_state]

    before = reads()
    for column in reads():
        for index in range(len(column)):
            column[index] = -1.0
    for old, new in zip(before, reads()):
        assert np.array_equal(old, new)


def test_star_run_matches_the_plain_loop_bit_for_bit():
    def star(r, state):  # a list here, an array in reference_pece
        return np.array(tov_derivatives(r, *map(float, state)))

    def surface(r, state):
        return state[1] <= 0.0

    config = star_config(6, 1e-8)
    expected = reference_pece(star, [0.0, 3.631382e35], 0.0, config,
                              halt=surface)
    trajectory = integrate_floats(star, [0.0, 3.631382e35], 0.0, config,
                                  halt=surface)
    assert trajectory.halted and not expected[2]
    assert_same_run(trajectory, expected)
    assert any(record.floored for record in trajectory)


def test_order_10_star_matches_the_plain_loop_bit_for_bit():
    def star(r, state):  # a list here, an array in reference_pece
        return np.array(tov_derivatives(r, *map(float, state)))

    def surface(r, state):
        return state[1] <= 0.0

    config = star_config(10, 1e-8)
    expected = reference_pece(star, [0.0, 3.631382e35], 0.0, config,
                              halt=surface)
    trajectory = integrate_floats(star, [0.0, 3.631382e35], 0.0, config,
                                  halt=surface)
    assert trajectory.halted and not expected[2]
    assert_same_run(trajectory, expected)
    assert max(record.effective_order for record in trajectory) == 10


def spoiling(function, seen):
    """``function``, keeping each state it receives, then overwriting it."""
    def call(x, y):
        result = function(x, y)
        seen.append(y)
        y[0] = math.nan  # the engine must not read a state it handed out
        return result
    return call


def star_rhs(r, state):
    return tov_derivatives(r, float(state[0]), float(state[1]))


@pytest.mark.parametrize("problem", ["quartic", "star"])
def test_callbacks_receive_a_fresh_float_list_each_call(problem):
    # integrate_floats hands its callbacks a new list of floats each
    # call, so a callback that spoils the list it was given runs like
    # one that leaves it alone, bit for bit
    if problem == "quartic":
        case = PolyCase()
        system, y0, x0, config = quartic, [case.y0], case.x0, case.config()
        stops = {"x_end": case.x_end}
    else:
        system, y0, x0 = star_rhs, [0.0, 3.631382e35], 0.0
        config = star_config(6, 1e-8)
        stops = {"halt": lambda r, state: state[1] <= 0.0}
    seen = []
    spoiled = integrate_floats(
        spoiling(system, seen), y0, x0, config,
        **{name: spoiling(stop, seen) if callable(stop) else stop
           for name, stop in stops.items()})
    assert len(seen) >= spoiled.n_evals > 100
    assert len({id(state) for state in seen}) == len(seen)
    for state in seen:
        assert type(state) is list and len(state) == len(y0)
        assert all(type(value) is float for value in state)
    plain = integrate_floats(system, y0, x0, config, **stops)
    assert spoiled.halted == plain.halted == (problem == "star")
    assert_same_run(spoiled, ([(record.x_next, record.dx, record.y_am,
                                record.epsilon_max, record.effective_order,
                                record.capped, record.floored)
                               for record in plain], plain.n_evals, False))


def binade_crossing(x, y):
    # y0 grows like exp(e^{40x} / 40); y1 falls as fast, so each
    # component's largest |y'| keeps entering and leaving the stencil
    growth = math.exp(40.0 * x)
    return np.array([growth * y[0], -growth * y[1]])


@pytest.mark.parametrize("power", [600, -600])
def test_carried_table_rescales_exactly_across_binades(power):
    # each component's largest |y'| keeps changing binade; the run of
    # the unscaled carried table equals the plain loop, which rebuilds a
    # scaled table every step, and scaling the state (and so y') by
    # 2^power scales every state by exactly 2^power and leaves the steps
    # alone
    config = IntegratorConfig(order_ab=6, dx_initial=1e-3,
                              target_correction=1e-4)
    plain = integrate_floats(binade_crossing, [1.0, 1.0], 0.0, config,
                             x_end=0.2)
    assert_same_run(plain, reference_pece(binade_crossing, [1.0, 1.0], 0.0,
                                          config, x_end=0.2))
    slopes = np.abs(binade_crossing(0.2, plain.final_state))
    assert slopes[0] > 2.0 ** 40 and slopes[1] < 2.0 ** -20
    factor = 2.0 ** power
    scaled = integrate_floats(binade_crossing, [factor, factor], 0.0, config,
                              x_end=0.2)
    assert len(scaled) == len(plain)
    for a, b in zip(plain, scaled):
        assert (b.x_next, b.dx, b.epsilon_max, b.effective_order,
                b.capped, b.floored) == (a.x_next, a.dx, a.epsilon_max,
                                         a.effective_order, a.capped,
                                         a.floored)
        assert np.array_equal(b.y_am, factor * np.asarray(a.y_am))


@pytest.mark.parametrize("mode", list(Mode))
def test_effective_order_ramps_to_the_order_and_holds(mode):
    for order in range(1, 11):
        config = IntegratorConfig(order_ab=order, dx_initial=0.05,
                                  target_correction=1e-6, mode=mode)
        trajectory = integrate_floats(
            lambda x, y: np.array([np.cos(x) * y[0]]), [1.0], 0.0, config,
            x_end=3.0)
        orders = [record.effective_order for record in trajectory]
        assert len(orders) > order
        assert orders == list(range(1, order)) + [order] * (
            len(orders) - order + 1)


@pytest.mark.parametrize("mode", list(Mode))
def test_non_finite_state_stops_where_the_plain_loop_does(mode):
    # y' = 1/(1 - x) overflows to inf once x reaches 1
    def pole(x, y):
        return np.array([1.0 / (1.0 - x) if x < 1.0 else np.inf,
                         np.cos(x)])

    config = IntegratorConfig(order_ab=3, dx_initial=0.05, dx_min=1e-3,
                              mode=mode)
    expected = reference_pece(pole, [0.0, 0.0], 0.0, config, x_end=2.0)
    assert expected[2]
    with pytest.raises(NonFiniteState) as excinfo:
        integrate_floats(pole, [0.0, 0.0], 0.0, config, x_end=2.0)
    assert_same_run(excinfo.value.trajectory, expected)


def test_derivatives_beyond_the_float_range_stop_the_run():
    # the first step's correction is f(1) - p(1) = 1.7e308 + 1.7e308,
    # which overflows: the run stops at x = 1 with nothing accepted
    # instead of returning a wrong finite state
    derivative = {0.0: -1.7e308, 1.0: 1.7e308}

    def swing(x, y):
        return np.array([derivative.get(x, 0.0), 1.0])

    config = IntegratorConfig(order_ab=2, dx_initial=1.0,
                              mode=Mode.ABM_FIXED)
    with pytest.raises(NonFiniteState, match="at x=1.0") as excinfo:
        integrate_floats(swing, [0.0, 1.0], 0.0, config, x_end=4.0)
    trajectory = excinfo.value.trajectory
    assert len(trajectory) == 0
    assert trajectory.n_evals == 3


def test_an_overflowing_increment_stops_the_run():
    # y' jumps from 0 to 1.7e308 at x = 1; the second step's increment,
    # 1.7e308 + 1.7e308 / 2, overflows as its second product is added,
    # and the run stops there with the first step kept
    def jump(x, y):
        return [1.7e308 if x == 1.0 else 0.0]

    config = IntegratorConfig(order_ab=2, dx_initial=1.0,
                              mode=Mode.ABM_FIXED)
    with pytest.raises(NonFiniteState, match="at x=2.0") as excinfo:
        integrate_floats(jump, [0.0], 0.0, config, x_end=4.0)
    trajectory = excinfo.value.trajectory
    assert len(trajectory) == 1
    assert trajectory.n_evals == 5


@pytest.mark.parametrize("mode", [Mode.ABM_FIXED, Mode.ABM_ADAPTIVE])
def test_an_overflowing_prediction_stops_the_run(mode):
    # the first prediction, 1e308 + 1e308, overflows while the corrected
    # state, 1e308 + (1e308 - 0.5e308) / 2, is finite; the step's
    # fractional correction would be NaN, so the run stops at x = 1 with
    # nothing accepted
    def fall(x, y):
        return [1e308 if x == 0.0 else -0.5e308]

    config = IntegratorConfig(order_ab=2, dx_initial=1.0, mode=mode)
    with pytest.raises(NonFiniteState, match="at x=1.0") as excinfo:
        integrate_floats(fall, [1e308], 0.0, config, x_end=4.0)
    trajectory = excinfo.value.trajectory
    assert len(trajectory) == 0
    assert trajectory.n_evals == 3


@pytest.mark.parametrize("mode", list(Mode))
def test_a_callback_refusing_a_non_finite_state_stops_as_non_finite(mode):
    # the first prediction, 1e308 + 1e308, overflows, and the callback
    # refuses it before the engine checks it: the run stops as
    # non-finite, not as a failed callback, with nothing accepted
    def refuse(x, y):
        if not math.isfinite(y[0]):
            raise ValueError("state must be finite")
        return [1e308]

    config = IntegratorConfig(order_ab=1, dx_initial=1.0, mode=mode)
    with pytest.raises(NonFiniteState) as excinfo:
        integrate_floats(refuse, [1e308], 0.0, config, x_end=3.0)
    failure = excinfo.value
    assert failure.tag == "non-finite"
    assert str(failure) == "non-finite state at x=1.0"
    assert len(failure.trajectory) == 0
    assert failure.trajectory.n_evals == 1
    assert isinstance(failure.__cause__, ValueError)


# --- the full-stencil kernels ------------------------------------------

def hexed(states):
    """Each float of each state as float.hex, so NaN and -0.0 compare."""
    return [[value.hex() for value in state] for state in states]


def copied(table):
    """A table with the nodes and columns of ``table``, in new lists."""
    copy = DividedDifferences(len(table.columns))
    copy.nodes = table.nodes[:]
    copy.columns = [column[:] for column in table.columns]
    return copy


def assert_kernels_match(table, y, dx, newest):
    """The kernels of the table's shape against the readable step."""
    count, size = len(table.nodes), len(table.columns)
    update, push = _kernels(count, size)
    for corrector in (None, lambda y_ab: newest):
        assert hexed(update(y, table, dx, corrector)) == hexed(
            adams_update(y, table, dx, corrector))
    readable, kernel = copied(table), copied(table)
    readable.push(table.nodes[0] + dx, newest, count)
    push(kernel, table.nodes[0] + dx, newest)
    assert kernel.nodes == readable.nodes
    assert hexed(kernel.columns) == hexed(readable.columns)


@pytest.mark.parametrize("count", [*range(1, 13), 40])
def test_kernels_are_the_readable_step_bit_for_bit(count):
    # random stretched stencils on a shifted axis, each component in its
    # own range of magnitudes, with and without a corrector
    rng = np.random.default_rng(400 + count)
    for size in (1, 2, 3):
        for _ in range(20):
            dx = float(rng.uniform(0.01, 2.0))
            nodes = rng.uniform(-5.0, 5.0) + _random_stencil(rng, count, dx)
            scale = 10.0 ** rng.uniform(-30.0, 30.0, size)
            table = pushed(nodes, scale[:, None] * rng.uniform(
                -1.0, 1.0, (size, count)))
            assert_kernels_match(
                table, rng.uniform(-1.0, 1.0, size).tolist(), dx,
                (scale * rng.uniform(-1.0, 1.0, size)).tolist())


@pytest.mark.parametrize("bad", [math.inf, math.nan, 1.7e308])
@pytest.mark.parametrize("count", [1, 2, 6, 12])
def test_kernels_carry_inf_and_nan_like_the_readable_step(count, bad):
    # up to two entries of a column, and at times the new derivative,
    # set to +-bad: inf - inf and overflowing partial sums turn the
    # increment into inf or NaN, and the kernel must carry the same bits
    # as adams_update
    rng = np.random.default_rng(500 + count)
    for _ in range(20):
        dx = float(rng.uniform(0.01, 2.0))
        table = pushed(_random_stencil(rng, count, dx),
                       rng.uniform(-1.0, 1.0, (2, count)))
        column = table.columns[int(rng.integers(2))]
        for i in rng.choice(count, min(count, 2), replace=False):
            column[i] = float(rng.choice([bad, -bad]))
        newest = rng.uniform(-1.0, 1.0, 2).tolist()
        if rng.uniform() < 0.5:
            newest[int(rng.integers(2))] = bad
        assert_kernels_match(table, [1.0, -1.0], dx, newest)


def test_kernel_sources_compile_at_any_stencil_size():
    # one statement per term keeps every expression's depth fixed, so a
    # stencil of thousands of nodes still compiles
    for source in (_update_source(3000, 3), _push_source(3000, 3)):
        compile(source, "<kernel N=3000>", "exec")


def test_the_default_sieve_compiles_only_its_full_stencil():
    # the bootstrap's sizes each run once per star through adams_update;
    # only the order-6 stencil of the two-component star gets a kernel
    probe = ("import contextlib, io; from abmgrid import cli, integrator\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert cli.main(['sieve']) == 0\n"
             "cache = integrator._kernels\n"
             "size, misses = cache.cache_info().currsize, "
             "cache.cache_info().misses\n"
             "cache(6, 2)\n"
             "print(size, cache.cache_info().misses - misses)")
    package_root = str(Path(abmgrid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, timeout=120,
                            env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1", "0"]


def test_a_run_that_ends_before_its_table_fills_compiles_no_kernel():
    # the kernels are fetched when the table fills, never before the
    # loop: an order-50 run of three steps neither builds nor reads one
    config = IntegratorConfig(order_ab=50, dx_initial=0.1,
                              mode=Mode.ABM_FIXED)
    before = _kernels.cache_info()
    trajectory = integrate_floats(lambda x, y: [x], [0.0], 0.0, config,
                                  x_end=0.3)
    assert [record.effective_order for record in trajectory] == [1, 2, 3]
    assert _kernels.cache_info() == before


def test_order_40_quartic_run_matches_the_plain_loop_bit_for_bit():
    case = PolyCase(order=40, dx=0.01)
    expected = reference_pece(quartic, [case.y0], case.x0, case.config(),
                              x_end=case.x_end)
    trajectory = integrate_floats(lambda x, y: [poly_rhs(x)], [case.y0],
                                  case.x0, case.config(), x_end=case.x_end)
    assert not expected[2]
    assert max(record.effective_order for record in trajectory) == 40
    assert_same_run(trajectory, expected)


def test_an_empty_state_steps_through_the_kernels():
    # a system of no components still runs, bootstrap and full stencil
    config = IntegratorConfig(order_ab=3, dx_initial=0.1,
                              mode=Mode.ABM_FIXED)
    trajectory = integrate_floats(lambda x, y: [], [], 0.0, config,
                                  x_end=1.0)
    assert [record.effective_order for record in trajectory] == [
        1, 2] + [3] * 8
    assert trajectory.final_state == []
    assert trajectory.n_evals == 21
