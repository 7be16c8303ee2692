"""Tests for the quartic-derivative problem and its error diagnostics.

Exact solution values come from tests/oracles/gen_poly_oracle.py, which
evaluates the antiderivative with Fraction arithmetic.
"""
import numpy as np
import pytest

from abmgrid import (
    Mode,
    PolyCase,
    poly_exact,
    poly_rhs,
    run_poly_case,
)
from abmgrid.tov import stable_plateau

# (x, y) pairs from the exact-rational oracle
EXACT_POINTS = [
    (0.5, 1.0),
    (1.0, 277.0 / 120.0),
    (1.5, 463.0 / 240.0),
    (2.0, 67.0 / 40.0),
    (2.5, 223.0 / 120.0),
    (3.0, 49.0 / 24.0),
    (4.0, 169.0 / 120.0),
    (5.0, 391.0 / 40.0),
]

# (x, y') pairs, exact by construction of the factored quartic
RHS_POINTS = [
    (0.5, 105.0 / 16.0),
    (1.5, -15.0 / 16.0),
    (2.5, 9.0 / 16.0),
    (5.0, 24.0),
    (1.0, 0.0),
    (4.0, 0.0),
]


@pytest.mark.parametrize("x,y", EXACT_POINTS)
def test_exact_solution_matches_rational_oracle(x, y):
    assert poly_exact(x) == pytest.approx(y, rel=1e-14)


@pytest.mark.parametrize("x,dy", RHS_POINTS)
def test_rhs_matches_factored_form(x, dy):
    assert poly_rhs(x) == pytest.approx(dy, rel=1e-14, abs=1e-15)


def test_exact_solution_differentiates_to_rhs():
    # central differences of the closed form reproduce the derivative;
    # h balances truncation against cancellation in the quintic terms
    xs = np.linspace(0.6, 4.9, 37)
    h = 1e-5
    fd = (poly_exact(xs + h) - poly_exact(xs - h)) / (2 * h)
    np.testing.assert_allclose(fd, [poly_rhs(x) for x in xs],
                               rtol=1e-6, atol=1e-6)


def test_exact_solution_on_an_array_has_the_bits_of_floats():
    # numpy evaluates an array with vector kernels chosen by CPU; a
    # Python float runs on the interpreter's IEEE arithmetic alone, so
    # an array that gives each point its float's bits gives the same
    # bits on every CPU
    xs = np.linspace(0.0, 5.0, 200_001)
    floats = [poly_exact(x) for x in xs.tolist()]
    assert all(type(value) is float for value in floats)
    assert poly_exact(xs).tolist() == floats


def test_case_validation_and_config():
    with pytest.raises(ValueError, match="x_end"):
        run_poly_case(PolyCase(x_end=0.5))
    config = PolyCase(order=3, tolerance=1e-6, dx=0.125).config()
    assert config.order_ab == 3
    assert config.target_correction == 1e-6
    assert config.dx_initial == 0.125
    assert config.max_steps == 1_000_000


def test_exact_curve_passes_through_the_start():
    # y(1) - y(0) is the integral of the quartic over [0, 1], 251/30
    case = PolyCase(x0=0.0, y0=2.0, x_end=1.0)
    assert case.exact(0.0) == 2.0
    assert case.exact(1.0) == pytest.approx(2.0 + 251.0 / 30.0, rel=1e-15)
    result = run_poly_case(case)
    np.testing.assert_array_equal(result.y_exact,
                                  case.exact(np.asarray(result.trajectory.x)))


def test_result_carries_pointwise_error():
    result = run_poly_case(PolyCase(mode=Mode.ABM_FIXED, order=4))
    np.testing.assert_allclose(
        result.error, np.asarray(result.trajectory.y[0]) - poly_exact(
            np.asarray(result.trajectory.x)), rtol=0, atol=0)
    assert result.final_error == result.error[-1]


# --- accumulated-error curves on the fixed grid ----------------------
#
# The derivative is a quartic, so an N-node explicit rule leaves a
# residual proportional to the (5-N)-th power of x once the bootstrap
# prefix is excluded, and the corrector shaves one more degree.  The
# degrees and final errors below were measured once on the h = 0.25
# grid and frozen; the fit residual at the true degree sits at roundoff
# (~1e-13) versus ~1e-1 one degree lower, so the classification is
# unambiguous.


def fit_error_degree(x, error, *, skip: int = 0, max_degree: int = 4,
                     rel_tol: float = 1e-3):
    """Polynomial degree that explains an accumulated-error curve.

    Least-squares fits of degree 0..max_degree are tried on the points
    after the first ``skip`` (the bootstrap prefix); the answer is the
    lowest degree whose RMS residual falls below ``rel_tol`` of the
    curve's peak magnitude.  On this problem the gulf between "wrong
    degree" (residuals of order 10%) and "right degree" (residuals at
    roundoff) is many decades wide, so the threshold is not delicate.

    Returns (degree, residuals) where residuals[d] is the relative RMS
    residual of the degree-d fit.
    """
    x = np.asarray(x, dtype=float)[skip:]
    error = np.asarray(error, dtype=float)[skip:]
    if x.size < max_degree + 2:
        raise ValueError("not enough points beyond the bootstrap prefix")
    scale = float(np.max(np.abs(error)))
    if scale == 0.0:
        return 0, np.zeros(max_degree + 1)
    residuals = np.empty(max_degree + 1)
    for degree in range(max_degree + 1):
        coeffs = np.polyfit(x, error, degree)
        misfit = error - np.polyval(coeffs, x)
        residuals[degree] = np.sqrt(np.mean(misfit ** 2)) / scale
    below = np.nonzero(residuals < rel_tol)[0]
    degree = int(below[0]) if below.size else int(np.argmin(residuals))
    return degree, residuals


AB_CURVES = [  # (order, expected degree, final error)
    (1, 4, -1.80527),
    (2, 3, -0.933691),
    (3, 2, +0.238184),
    (4, 1, +0.304102),
]

ABM_CURVES = [
    (1, 3, +0.374414),
    (2, 2, +0.0672852),
    (3, 1, +0.0516602),
    (4, 0, +0.0423828),
]


@pytest.mark.parametrize("order,degree,final", AB_CURVES)
def test_explicit_error_curve_degree(order, degree, final):
    result = run_poly_case(PolyCase(mode=Mode.AB_FIXED, order=order))
    fitted, residuals = fit_error_degree(result.trajectory.x,
                                         result.error, skip=order)
    assert fitted == degree
    assert residuals[fitted] < 1e-10
    assert result.final_error == pytest.approx(final, rel=1e-4)


@pytest.mark.parametrize("order,degree,final", ABM_CURVES)
def test_corrected_error_curve_degree(order, degree, final):
    result = run_poly_case(PolyCase(mode=Mode.ABM_FIXED, order=order))
    fitted, residuals = fit_error_degree(result.trajectory.x,
                                         result.error, skip=order)
    assert fitted == degree
    assert residuals[fitted] < 1e-10
    assert result.final_error == pytest.approx(final, rel=1e-4)


def test_correction_buys_exactly_one_degree():
    for order in (1, 2, 3, 4):
        ab = run_poly_case(PolyCase(mode=Mode.AB_FIXED, order=order))
        abm = run_poly_case(PolyCase(mode=Mode.ABM_FIXED, order=order))
        deg_ab, _ = fit_error_degree(ab.trajectory.x, ab.error, skip=order)
        deg_abm, _ = fit_error_degree(abm.trajectory.x, abm.error,
                                      skip=order)
        assert deg_abm == deg_ab - 1


def test_fit_error_degree_needs_enough_points():
    with pytest.raises(ValueError):
        fit_error_degree([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], max_degree=4)


def test_fit_error_degree_zero_curve_is_degree_zero():
    degree, residuals = fit_error_degree(np.arange(10.0), np.zeros(10))
    assert degree == 0
    assert np.all(residuals == 0.0)


def test_fit_error_degree_recovers_synthetic_polynomials():
    rng = np.random.default_rng(11)
    x = np.linspace(0.5, 5.0, 40)
    for degree in range(5):
        coeffs = rng.uniform(0.5, 2.0, degree + 1)
        curve = np.polyval(coeffs, x)
        fitted, _ = fit_error_degree(x, curve)
        assert fitted == degree


# --- adaptive behavior ------------------------------------------------

def test_adaptive_final_error_within_ten_targets():
    # from a fine initial step the bootstrap is clean and the global
    # error lands within a decade of the fractional-correction target
    for tolerance in (1e-8, 1e-12):
        result = run_poly_case(PolyCase(order=4, dx=1e-4,
                                        tolerance=tolerance))
        assert abs(result.final_error) <= 10.0 * tolerance


def test_adaptive_epsilon_plateaus_in_target_band():
    # orders 3 and 4 leave a nonzero correction on the quartic, so the
    # controller settles onto a plateau with epsilon within a decade of
    # the target and nearly constant step sizes
    for order in (3, 4):
        for tolerance in (1e-4, 1e-8):
            result = run_poly_case(PolyCase(order=order, dx=1e-4,
                                            tolerance=tolerance))
            trajectory = result.trajectory
            window = stable_plateau(trajectory, tolerance, order)
            eps = np.asarray(trajectory.epsilon_max)[window]
            dx = np.asarray(trajectory.dx)[window]
            assert eps.size >= 20
            assert np.all(eps >= tolerance / 10.0)
            assert np.all(eps <= 10.0 * tolerance)
            assert dx.max() / dx.min() < 10.0


def test_settled_controller_stops_hitting_the_cap():
    # once on the plateau (final half of the run) orders 3 and 4 never
    # take the growth cap and consecutive steps barely move
    for order in (3, 4):
        result = run_poly_case(PolyCase(order=order, dx=1e-4,
                                        tolerance=1e-8))
        records = list(result.trajectory)[:-1]  # clamp step excluded
        half = records[len(records) // 2:]
        assert not any(r.capped for r in half)
        dx = np.array([r.dx for r in half])
        assert np.max(dx[1:] / dx[:-1]) < 2.0


def test_five_node_rule_is_exact_so_controller_rides_the_cap():
    # five nodes integrate the quartic derivative exactly; epsilon
    # collapses toward roundoff and the run finishes in a handful of
    # capped, geometrically growing steps
    result = run_poly_case(PolyCase(order=5, dx=1e-4, tolerance=1e-8))
    trajectory = result.trajectory
    assert len(trajectory) <= 20
    assert sum(r.capped for r in trajectory) >= 5
    dx = np.asarray(trajectory.dx)
    assert dx.max() / dx.min() > 1e3
    assert trajectory.epsilon_max[-1] < 1e-9
    ratios = dx[1:-1] / dx[:-2]
    assert ratios.max() == pytest.approx(3.0, rel=1e-12)


def test_first_step_correction_is_target_independent():
    # the first step always runs at the initial dx, so its fractional
    # correction is a pure function of the problem, not of the target
    eps0 = []
    for tolerance in (1e-4, 1e-8, 1e-12):
        result = run_poly_case(PolyCase(order=4, dx=0.01,
                                        tolerance=tolerance))
        eps0.append(result.trajectory.epsilon_max[0])
    assert eps0[0] == eps0[1] == eps0[2]
    assert eps0[0] == pytest.approx(1.0222075777e-3, rel=1e-6)
