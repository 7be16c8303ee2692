"""Stellar-structure tests: derivatives, single stars, sieve, sweep.

Reference values at the two probe points come from the 50-digit EOS
oracle (tests/oracles/gen_eos_oracle.py), and whole stars and the mass
peak from the TOV oracle (tests/oracles/gen_tov_oracle.py); the other
star-level numbers were measured once with this package and frozen as
regression pins.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import abmgrid
import abmgrid.eos as eos
import abmgrid.tov as tov
from abmgrid import (
    CONSTANTS,
    HorizonError,
    IntegrationError,
    MaxStepsExceeded,
    Mode,
    PRESSURE_SCALE,
    SieveResult,
    StarSolution,
    Trajectory,
    integrate_star,
    parameter_sweep,
    stable_plateau,
    star_config,
    tov_derivatives,
    trinary_sieve,
)
from abmgrid.eos import energy_density_from_x, invert_pressure_to_x

P_CENTRAL = 3.631382e35        # erg/cm^3, near the maximum-mass star

# x per n^(1/3): x = h / (2 m_n c) (3 n / pi)^(1/3)
X_COEFFICIENT = (CONSTANTS.h / (2.0 * CONSTANTS.m_n * CONSTANTS.c)
                 * (3.0 / math.pi) ** (1.0 / 3.0))

# oracle state at x = 0.5 (clean double-precision regime)
P_X05 = PRESSURE_SCALE * 0.046092989241441782238
RHO_X05 = (CONSTANTS.m_n * CONSTANTS.c ** 2
           * (0.5 / X_COEFFICIENT) ** 3
           + PRESSURE_SCALE * 0.071940999508453065967)

# oracle state at x = 1e-3 (Newtonian-limit probe)
P_NEWT = 1.097660212593822725e+21
DPDR_NEWT_ORACLE = -40817661933222105634.0
RATIO_GR_ORACLE = 1.001487641546617288

# the star at P_CENTRAL and the mass peak (tests/oracles/gen_tov_oracle.py;
# its RK4 and mpmath's Taylor-series solver agree on M to 1e-16)
ORACLE_M_MSUN = 0.7099981412845939
ORACLE_R_KM = 9.1614962851487
ORACLE_PC_STAR = 3.631454e35     # erg/cm^3
ORACLE_M_MAX_MSUN = 0.7099981412933111
FLOOR_STEP_KM = 1e-4             # star_config's 10 cm floor step


@pytest.fixture(scope="module")
def reference_star():
    return integrate_star(P_CENTRAL, star_config(4, 1e-8))


# --- structure derivatives --------------------------------------------

def test_center_is_regular():
    assert tov_derivatives(0.0, 0.0, P_CENTRAL) == (0.0, 0.0)


def test_vacuum_has_no_gradients():
    assert tov_derivatives(1e6, 1e33, 0.0) == (0.0, 0.0)
    assert tov_derivatives(1e6, 1e33, -1e20) == (0.0, 0.0)


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        tov_derivatives(-1.0, 0.0, P_CENTRAL)


def test_trapped_configuration_raises():
    # 2Gm/(c^2 r) > 1 for m = 1e33 g inside r = 1e5 cm
    with pytest.raises(HorizonError):
        tov_derivatives(1e5, 1e33, 1e30)
    # numpy scalars are reported as plain numbers
    with pytest.raises(HorizonError) as excinfo:
        tov_derivatives(np.float64(1e5), np.float64(1e33), np.float64(1e30))
    assert str(excinfo.value) == "2Gm/(c^2 r) >= 1 at r=100000.0 cm, m=1e+33 g"


def test_mass_gradient_matches_oracle_density():
    # at x = 0.5 the pressure inversion is clean, so dm/dr agrees with
    # 4 pi r^2 rho / c^2 built from the oracle density to ~1e-13
    dm, _ = tov_derivatives(1e5, 1e30, P_X05)
    expected = 4.0 * math.pi / CONSTANTS.c ** 2 * 1e10 * RHO_X05
    assert dm == pytest.approx(expected, rel=1e-12)


def test_newtonian_point_against_oracle():
    # at x = 1e-3 the closed-form brackets lose ~4 digits to
    # cancellation, which bounds the achievable agreement here
    dm, dP = tov_derivatives(1e5, 1e30, P_NEWT)
    assert dP == pytest.approx(DPDR_NEWT_ORACLE, rel=5e-4)
    rho_oracle = 5.4883046695668056631e+27
    expected_dm = 4.0 * math.pi / CONSTANTS.c ** 2 * 1e10 * rho_oracle
    assert dm == pytest.approx(expected_dm, rel=5e-4)


def test_relativistic_correction_factor():
    # dividing out the Newtonian gradient built from the same density
    # isolates the three GR correction factors; at this point the
    # metric term dominates and the oracle puts the ratio at 1.0014876
    r, m = 1e5, 1e30
    _, dP = tov_derivatives(r, m, P_NEWT)
    rho = energy_density_from_x(invert_pressure_to_x(P_NEWT))
    newtonian = -CONSTANTS.G * m * (rho / CONSTANTS.c ** 2) / r ** 2
    assert dP / newtonian == pytest.approx(RATIO_GR_ORACLE, rel=1e-9)


def test_derivatives_keep_the_identity_gas_bit_for_bit(gas_pressures,
                                                      monkeypatch):
    # tov_derivatives reads rho off gas_at_pressure; with x from
    # invert_pressure_to_x and rho from rho + P = n mu at the asked P
    # instead, not a bit may differ
    points = [(1e5, 1e30, P) for P in gas_pressures]
    derivatives = [tov_derivatives(*point) for point in points]

    def identity_gas(P):
        x = invert_pressure_to_x(P)
        square = x * x
        return x, PRESSURE_SCALE * (8.0 * x * square * math.sqrt(square + 1.0)
                                    - P / PRESSURE_SCALE)

    monkeypatch.setattr(tov, "gas_at_pressure", identity_gas)
    for point, pair in zip(points, derivatives):
        composed = tov_derivatives(*point)
        assert [v.hex() for v in pair] == [v.hex() for v in composed], point


def test_gravity_pulls_inward():
    dm, dP = tov_derivatives(2e5, 5e32, 1e33)
    assert dm > 0.0
    assert dP < 0.0


# --- single-star integration ------------------------------------------

def test_star_config_defaults():
    config = star_config(6, 1e-8)
    assert config.order_ab == 6
    assert config.target_correction == 1e-8
    assert config.dx_initial == 10.0
    assert config.dx_min == 10.0
    assert config.max_steps == 200_000


def test_central_pressure_validation():
    config = star_config(4, 1e-6)
    for bad in (0.0, -1e35, math.inf, math.nan):
        with pytest.raises(ValueError):
            integrate_star(bad, config)


def test_reference_star_regression(reference_star):
    # frozen from this package: the half-solar-mass-scale star at the
    # maximum-mass central pressure.  R and the step count were frozen
    # with weights accurate to roundoff (checked against exact-rational
    # weights in test_quadrature.py) and x(P) within ~1e-14 (checked
    # against the mpmath inversions in test_eos.py); R is the end of
    # the first 10 cm floor step past the surface, so it moves with any
    # change in the last bits of the update or of x.  With x correctly
    # rounded the star gives R = 9.16154760541504 km.  The update runs
    # on Python floats, so no BLAS kernel moves these bits.
    star = reference_star
    assert star.M_msun == pytest.approx(0.7099981422145849, rel=1e-10)
    assert star.R_km == pytest.approx(9.161547605103879, rel=1e-10)
    assert star.steps == 519
    assert star.P_central == P_CENTRAL
    assert star.R == star.trajectory.final_x
    assert star.M == star.trajectory.final_state[0]


def test_reference_star_brackets_per_inversion(monkeypatch):
    # Newton starts within 3e-10 of the root on the star's range, so an
    # inversion takes one step and stops, and rho needs no bracket at
    # the returned x: exactly one pressure bracket a call, counted, not
    # timed
    counts = {"brackets": 0, "inversions": 0}
    bracket, gas = eos._pressure_bracket, tov.gas_at_pressure

    def counted_bracket(x):
        counts["brackets"] += 1
        return bracket(x)

    def counted_gas(P):
        counts["inversions"] += 1
        return gas(P)

    monkeypatch.setattr(eos, "_pressure_bracket", counted_bracket)
    monkeypatch.setattr(tov, "gas_at_pressure", counted_gas)
    assert integrate_star(P_CENTRAL, star_config(4, 1e-8)).steps == 519
    assert counts["brackets"] == counts["inversions"], counts


@pytest.mark.parametrize("order", [10, 6])
def test_star_matches_the_tov_oracle(order):
    # against an integration that shares no code with this package: M
    # within a few 1e-9, and R within the floor step that crosses the
    # surface
    star = integrate_star(P_CENTRAL, star_config(order, 1e-8))
    assert star.M_msun == pytest.approx(ORACLE_M_MSUN, rel=5e-9)
    assert abs(star.R_km - ORACLE_R_KM) <= FLOOR_STEP_KM


def test_the_abstracts_step_counts_hold_against_the_oracle():
    # the abstract: M within 1 % in 23 steps, M and R within 1 % in 27;
    # each claim must hold for some cell of orders 2..8 x E =
    # 10^(-1 - k/20), k = 0..60, judged against the oracle star, so one
    # cell's surface step moving a count by 1 or 2 does not decide it
    mass_only, mass_and_radius = [], []
    for order in range(2, 9):
        for k in range(61):
            star = integrate_star(
                P_CENTRAL, star_config(order, 10.0 ** (-1 - k / 20)))
            mass = abs(star.M_msun / ORACLE_M_MSUN - 1.0) <= 0.01
            radius = abs(star.R_km / ORACLE_R_KM - 1.0) <= 0.01
            if mass and star.steps <= 23:
                mass_only.append((order, k, star.steps))
            if mass and radius and star.steps <= 27:
                mass_and_radius.append((order, k, star.steps))
    assert mass_only
    assert mass_and_radius


def _order_10_star_under(coretype):
    """steps, repr(R) and repr(M) of the order-10 star in a child process
    whose OpenBLAS runs the given kernel."""
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(abmgrid.__file__).parents[1]), env.get("PYTHONPATH", "")])
    script = ("from abmgrid import integrate_star, star_config\n"
              f"star = integrate_star({P_CENTRAL!r}, star_config(10, 1e-8))\n"
              "print(star.steps, repr(star.R), repr(star.M))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


def test_star_bits_do_not_depend_on_the_blas_kernel():
    # with the update on numpy's dot product, this star took 169 steps
    # under the Haswell kernel and 168 under Prescott
    assert _order_10_star_under("Haswell") == _order_10_star_under("Prescott")


def test_star_costs_two_evaluations_per_step(reference_star):
    trajectory = reference_star.trajectory
    assert trajectory.n_evals == 2 * len(trajectory) + 1


def test_star_halts_by_crossing_the_surface(reference_star):
    trajectory = reference_star.trajectory
    assert trajectory.halted
    pressures = np.asarray(trajectory.y[1])
    assert pressures[-1] <= 0.0
    # interior pressure decreases strictly until the terminal record
    assert np.all(np.diff(pressures[:-1]) < 0.0)


def test_star_mass_profile_is_monotone(reference_star):
    masses = np.asarray(reference_star.trajectory.y[0])
    assert np.all(np.diff(masses) >= 0.0)
    assert masses[0] >= 0.0


def test_star_stays_outside_its_horizon(reference_star):
    trajectory = reference_star.trajectory
    compactness = (2.0 * CONSTANTS.G * np.asarray(trajectory.y[0])
                   / (CONSTANTS.c ** 2 * np.asarray(trajectory.x)))
    assert np.max(compactness) < 1.0
    # the profile peaks in the interior, then relaxes to the surface value
    assert np.max(compactness) == pytest.approx(0.2848, rel=1e-2)
    # frozen with the reference star's R, under the same kernel
    assert compactness[-1] == pytest.approx(0.2289285713941696, rel=1e-9)


def test_first_step_hits_the_floor(reference_star):
    # the m component starts at zero, so the first fractional
    # correction is measured absolutely and is enormous; the floor is
    # what keeps the controller from collapsing dx
    first = list(reference_star.trajectory)[0]
    assert first.floored
    assert first.dx == 10.0


def test_unit_conversions(reference_star):
    star = reference_star
    assert star.M_msun == star.M / CONSTANTS.M_sun
    assert star.R_km == star.R / 1e5


def test_coarse_floor_star_regression():
    # 100x coarser floor: same physics to ~1e-5, far fewer steps
    star = integrate_star(P_CENTRAL, star_config(4, 1e-6, dx_initial=1000.0,
                                                 dx_min=1000.0))
    assert star.steps == 149
    assert star.M_msun == pytest.approx(0.70999821, rel=1e-6)
    assert star.R_km == pytest.approx(9.15942, rel=1e-6)


def test_extreme_pressure_star_is_one_step():
    # at 1e42 erg/cm^3 the pressure scale height is far below the
    # floor, so the very first accepted step crosses the surface, with
    # 2GM/(c^2 R) = 3.1 there: the star is inside its own horizon
    with pytest.raises(HorizonError) as excinfo:
        integrate_star(1e42, star_config(4, 1e-6, dx_initial=1000.0,
                                         dx_min=1000.0))
    trajectory = excinfo.value.trajectory
    assert len(trajectory) == 1
    assert trajectory.halted
    assert trajectory.final_x == 1000.0
    assert str(excinfo.value).startswith("2Gm/(c^2 r) >= 1 at r=1000.0 cm")


@pytest.mark.parametrize("P_c, steps", [(1e45, 3), (1e46, 1)])
def test_star_ending_inside_its_horizon_is_a_horizon_error(P_c, steps):
    # the step that crosses the surface evaluates at P <= 0, where the
    # derivatives skip their horizon check; the finished star is checked
    with pytest.raises(HorizonError) as excinfo:
        integrate_star(P_c, star_config(4, 1e-6))
    trajectory = excinfo.value.trajectory
    assert len(trajectory) == steps and trajectory.halted
    M, R = trajectory.final_state[0], trajectory.final_x
    assert 2.0 * CONSTANTS.G * M / (CONSTANTS.c ** 2 * R) > 1.0
    assert excinfo.value.tag == "horizon"


def test_horizon_failure_carries_partial_trajectory(monkeypatch):
    real = tov.tov_derivatives

    def trapped(r, m, P):
        if r > 5000.0:
            raise HorizonError("synthetic horizon")
        return real(r, m, P)

    monkeypatch.setattr(tov, "tov_derivatives", trapped)
    with pytest.raises(HorizonError) as excinfo:
        integrate_star(P_CENTRAL, star_config(4, 1e-6, dx_initial=1000.0,
                                              dx_min=1000.0))
    assert len(excinfo.value.trajectory) >= 1
    assert isinstance(excinfo.value, IntegrationError)
    assert excinfo.value.tag == "horizon"


def test_star_derivatives_go_through_the_module_name(monkeypatch):
    # the star looks integrate and tov_derivatives up in abmgrid.tov on
    # every call, so a wrapper there (as the tracer and the test above
    # install) sees the run and every derivative the engine evaluates
    real, calls = tov.tov_derivatives, []
    real_integrate, runs = tov.integrate, []

    def counted(r, m, P):
        calls.append(r)
        return real(r, m, P)

    def counted_integrate(*args, **kwargs):
        runs.append(real_integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(tov, "tov_derivatives", counted)
    monkeypatch.setattr(tov, "integrate", counted_integrate)
    star = integrate_star(P_CENTRAL, star_config(4, 1e-2))
    assert runs == [star.trajectory]
    assert len(calls) == star.trajectory.n_evals == 2 * 31 + 1
    assert star.steps == 31


# --- plateau diagnostics ----------------------------------------------

def test_plateau_of_loose_tolerance_star():
    star = integrate_star(P_CENTRAL, star_config(4, 1e-2))
    window = stable_plateau(star.trajectory, 1e-2, 4)
    assert window == slice(9, 23)
    eps = np.asarray(star.trajectory.epsilon_max)[window]
    assert np.all(eps >= 1e-3)
    assert np.all(eps <= 1e-1)
    # beyond the window the terminal dive never grows dx again
    dx = np.asarray(star.trajectory.dx)
    assert np.all(np.diff(dx[window.stop:]) <= 0.0)


def test_plateau_entry_requires_full_order():
    star = integrate_star(P_CENTRAL, star_config(4, 1e-2))
    window = stable_plateau(star.trajectory, 1e-2, 4)
    assert window.start >= 4


def test_plateau_is_empty_when_target_is_never_approached():
    star = integrate_star(P_CENTRAL, star_config(4, 1e-2))
    # against an absurdly large target the run never rises to E/10
    window = stable_plateau(star.trajectory, 1e25, 4)
    assert window == slice(0, 0)


# --- maximum-mass sieve -----------------------------------------------

def recorded(f):
    """f, and the list of points it has been called at."""
    calls = []

    def probe(x):
        calls.append(x)
        return f(x)

    return probe, calls


def test_brent_maximize_on_a_quadratic():
    x_star, history = tov._brent_maximize(
        lambda x: -(x - 2.0) ** 2, 0.0, 5.0, 2e-3)
    assert abs(x_star - 2.0) <= 2e-3
    assert len(history) <= 8  # golden section alone takes 18


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: -(x - 2.0) ** 2, 0.0, 5.0),
    (lambda x: -abs(x - 2.7), 0.0, 5.0),
    (lambda x: x, 0.0, 5.0),
    (lambda x: -x, 1.0, 5.0),
    (lambda x: math.sin(x), 0.5, 3.0),
], ids=["quadratic", "kink", "rising", "falling", "sine"])
def test_brent_maximize_returns_its_best_distinct_probe(f, lo, hi):
    probe, calls = recorded(f)
    x_star, history = tov._brent_maximize(probe, lo, hi, 1e-3)
    assert [point for point, _, _ in history] == calls
    assert len(set(calls)) == len(calls)
    assert all(lo <= x <= hi for x in calls)
    assert {kind for _, _, kind in history} <= {"golden", "parabolic"}
    values = [value for _, value, _ in history]
    assert x_star in calls
    assert f(x_star) == max(values)


@pytest.mark.parametrize("f, lo, hi, end", [
    (lambda x: x, 0.0, 5.0, 5.0),
    (lambda x: -x, 1.0, 5.0, 1.0),
])
def test_brent_maximize_finds_a_maximum_at_an_end(f, lo, hi, end):
    rel_tol = 1e-3
    x_star, _ = tov._brent_maximize(f, lo, hi, rel_tol * end)
    assert abs(x_star - end) <= rel_tol * end


@pytest.mark.parametrize("peak", [0.3, 1.1, 2.7, 4.9])
def test_brent_maximize_falls_back_to_golden_on_a_kink(peak):
    # -|x - c| is unimodal but has no parabola to fit: the search must
    # still converge through its golden steps
    rel_tol = 1e-3
    x_star, history = tov._brent_maximize(
        lambda x: -abs(x - peak), 0.0, 5.0, rel_tol * peak)
    assert abs(x_star - peak) <= rel_tol * peak
    kinds = [kind for _, _, kind in history]
    assert "golden" in kinds[kinds.index("parabolic"):]
    assert len(history) <= 20  # golden section alone takes 16 to 22


def test_brent_maximize_on_a_narrow_bracket_evaluates_one_point():
    probe, calls = recorded(lambda x: x)
    x_star, history = tov._brent_maximize(probe, 1.0, 1.0005, 1e-3)
    assert len(calls) == len(history) == 1
    assert x_star == calls[0]


@pytest.mark.parametrize("peak", [0.0, 1e-9, -3e-4])
def test_brent_maximize_finds_a_maximum_at_or_next_to_zero(peak):
    # the bracket's width sets the spacing, so a peak at 0 is found as
    # well as any other
    width = 1e-3
    x_star, history = tov._brent_maximize(
        lambda x: -(x - peak) ** 2, -1.0, 2.0, width)
    assert abs(x_star - peak) <= width
    assert len(history) <= 12


PEAK_SHAPES = {
    "quartic": lambda t: -t ** 4,
    "power-1.5": lambda t: -abs(t) ** 1.5,
    "cosine": math.cos,
    "skewed": lambda t: -t * t - 0.5 * t ** 3,  # unimodal on [-1, 1.5]
}


@pytest.mark.parametrize("width", [1e-15, 1e-300])
@pytest.mark.parametrize("centre", [81.87, 0.0])
@pytest.mark.parametrize("shape", PEAK_SHAPES)
def test_brent_maximize_ends_below_the_float_spacing(shape, centre, width):
    # near u = ln P_c ~ 82 the doubles are 1.4e-14 apart: a width below
    # that is met at the spacing, and the search still ends
    calls = []

    def f(u):
        calls.append(u)
        if len(calls) > 500:
            raise RuntimeError("the search does not end")
        return PEAK_SHAPES[shape](u - centre)

    x_star, history = tov._brent_maximize(f, centre - 1.0, centre + 1.5,
                                          width)
    assert len(history) <= 100
    assert abs(x_star - centre) <= 1e-6


def test_brent_maximize_rejects_bad_bracket():
    with pytest.raises(ValueError):
        tov._brent_maximize(lambda x: x, 1.0, 1.0, 1e-3)
    with pytest.raises(ValueError):
        tov._brent_maximize(lambda x: x, 1.0, 2.0, 0.0)


@pytest.fixture(scope="module")
def fast_sieve():
    config = star_config(4, 1e-6, dx_initial=1000.0, dx_min=1000.0)
    stars = []

    def counted(P_c, config):
        stars.append(integrate_star(P_c, config))
        return stars[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tov, "integrate_star", counted)
        result = trinary_sieve(2e35, 6e35, config, bracket_tolerance=0.02)
    return result, stars


def test_sieve_finds_the_mass_peak(fast_sieve):
    result, stars = fast_sieve
    assert abs(result.P_c / P_CENTRAL - 1.0) < 2.5e-3
    assert result.M_msun == pytest.approx(0.70999813, rel=1e-6)
    assert result.evaluations == 6
    # every probe is one star, and the answer is not integrated again
    assert len(stars) == result.evaluations
    assert result.star.P_central == result.P_c


def test_sieve_history_lists_each_probe_and_its_star(fast_sieve):
    result, stars = fast_sieve
    assert [(P_c, M) for P_c, M, _ in result.history] == [
        (star.P_central, star.M) for star in stars]
    assert result.history[0][2] == "golden"
    assert result.star.M == max(M for _, M, _ in result.history)
    assert result.star in stars


def final_bracket(result, P_lo, P_hi):
    """The sieve's last bracket: the probes or ends next to P_c.

    Every probe but the best lies outside Brent's open bracket, and
    each end is the original end or a probe.
    """
    probes = [P for P, _, _ in result.history]
    return (max([P_lo] + [P for P in probes if P < result.P_c]),
            min([P_hi] + [P for P in probes if P > result.P_c]))


def test_sieve_last_bracket_is_within_the_bracket_tolerance(fast_sieve):
    result, _ = fast_sieve
    lo, hi = final_bracket(result, 2e35, 6e35)
    assert lo < result.P_c < hi
    assert hi - lo <= 0.02 * result.P_c


# Bracket ends moved by +-5 %, as the benchmark's sieve workload moves
# them, in units of that 5 %
SIEVE_SHIFTS = ((-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0),
                (0.0, 0.0), (0.5, -0.5), (-0.5, 0.5), (0.3, 0.8),
                (-0.8, -0.3), (0.9, -0.1))


@pytest.mark.parametrize("low, high", SIEVE_SHIFTS)
def test_sieve_on_shifted_brackets(low, high):
    P_lo, P_hi = 1e35 * (1.0 + 0.05 * low), 1e36 * (1.0 + 0.05 * high)
    result = trinary_sieve(P_lo, P_hi, star_config(6, 1e-8))
    assert len(result.history) <= 7
    assert result.evaluations == len(result.history) + 1
    # the maximum-mass star of criteria 5 and 7, within the benchmark's
    # bounds on the sieve's answer
    assert result.P_c == pytest.approx(3.631382e35, rel=1e-3)
    assert result.M_msun == pytest.approx(0.71017188, rel=1e-3)
    assert result.R_km == pytest.approx(9.16233, rel=2e-3)
    lo, hi = final_bracket(result, P_lo, P_hi)
    assert hi - lo <= 1e-3 * result.P_c


@pytest.mark.parametrize("P_lo, P_hi, end", [
    (1e33, 1e34, "P_hi"),   # the peak lies above the bracket
    (1e36, 1e37, "P_lo"),   # and below this one
])
def test_sieve_refuses_a_peak_it_has_not_bracketed(P_lo, P_hi, end):
    with pytest.raises(ValueError, match=f"not bracketed.*{end} = "):
        trinary_sieve(P_lo, P_hi, star_config(6, 1e-8))


def test_sieve_tie_goes_to_the_later_probe(monkeypatch):
    # M capped on a plateau about the peak, so several probes reach the
    # top mass exactly; Brent's method keeps the later of tied probes,
    # and the sieve answers at that probe's P_c
    top = 1.0 - 0.03 ** 2
    stars = []

    def capped(P_c, config):
        M = min(1.0 - math.log(P_c / P_CENTRAL) ** 2, top)
        stars.append(StarSolution(P_c, Trajectory(1.0, [M, 0.0])))
        return stars[-1]

    monkeypatch.setattr(tov, "integrate_star", capped)
    result = trinary_sieve(1e35, 1e36, star_config(6, 1e-8))
    *probes, final = stars
    tied = [star for star in probes if star.M == top]
    assert len(tied) >= 2
    assert result.P_c == tied[-1].P_central
    # one star per probe, none integrated twice, then the answer's star
    # at the asked E: one more integration, at that probe's P_c
    assert result.star is final
    assert final.P_central == tied[-1].P_central
    assert len(stars) == result.evaluations == len(result.history) + 1
    assert len({star.P_central for star in probes}) == len(probes)


@pytest.fixture(scope="module")
def default_sieve():
    """The default sieve, and (P_c, config) of each star it integrated."""
    calls = []

    def recorded_star(P_c, config):
        calls.append((P_c, config))
        return integrate_star(P_c, config)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tov, "integrate_star", recorded_star)
        result = trinary_sieve(1e35, 1e36, star_config(6, 1e-8))
    return result, calls


def test_default_sieve_finds_the_oracle_peak(default_sieve):
    result, _ = default_sieve
    assert result.M_msun == pytest.approx(ORACLE_M_MAX_MSUN, rel=1e-8)
    assert result.P_c == pytest.approx(ORACLE_PC_STAR, rel=1e-3)


def test_sieve_probes_at_a_loose_tolerance_then_integrates_its_answer(
        default_sieve):
    # E_probe = min(1e-5, 10 * bracket_tolerance^2) = 1e-5 is 1000 E, so
    # the probes run there, and one star at the asked config follows at
    # the best probe's P_c
    result, calls = default_sieve
    asked = star_config(6, 1e-8)
    *probes, (final_P_c, final_config) = calls
    assert [config for _, config in probes] == (
        [asked._replace(target_correction=1e-5)] * len(probes))
    assert [P_c for P_c, _ in probes] == [P_c for P_c, _, _ in result.history]
    assert final_config == asked
    assert final_P_c == result.P_c
    best = max(result.history, key=lambda probe: probe[1])
    assert result.P_c == best[0]
    assert result.evaluations == len(calls) == len(result.history) + 1


def trajectory_bits(star):
    """Every column of a star's trajectory, its floats as float.hex."""
    trajectory = star.trajectory
    columns = [trajectory.x, trajectory.dx, trajectory.epsilon_max,
               *trajectory.y]
    flags = [(record.effective_order, record.capped, record.floored)
             for record in trajectory]
    return [[value.hex() for value in column] for column in columns], flags


def test_sieve_star_is_the_asked_star_at_its_answer(default_sieve):
    result, _ = default_sieve
    star = integrate_star(result.P_c, star_config(6, 1e-8))
    assert result.star.M.hex() == star.M.hex()
    assert result.star.R.hex() == star.R.hex()
    assert result.star.steps == star.steps
    assert trajectory_bits(result.star) == trajectory_bits(star)


@pytest.mark.parametrize("config, bracket_tolerance", [
    # E_probe = 1e-5 is below E
    (star_config(6, 1e-2), 1e-3),
    # E_probe = 1e-5 is 10 E, under the 100 E the final star costs
    (star_config(6, 1e-6), 1e-3),
    # a fixed step ignores E
    (star_config(6, 1e-8, dx_initial=5000.0,
                 dx_min=5000.0)._replace(mode=Mode.ABM_FIXED),
     0.02),
], ids=["E=1e-2", "E=1e-6", "abm-fixed"])
def test_sieve_integrates_each_star_once_when_loose_probes_do_not_pay(
        monkeypatch, config, bracket_tolerance):
    calls = []

    def recorded_star(P_c, config):
        calls.append((config, integrate_star(P_c, config)))
        return calls[-1][1]

    monkeypatch.setattr(tov, "integrate_star", recorded_star)
    result = trinary_sieve(1e35, 1e36, config,
                           bracket_tolerance=bracket_tolerance)
    assert [used for used, _ in calls] == [config] * len(calls)
    assert result.evaluations == len(calls) == len(result.history)
    assert len({star.P_central for _, star in calls}) == len(calls)
    assert any(result.star is star for _, star in calls)


def test_sieve_runs_serially():
    with pytest.raises(ValueError):
        trinary_sieve(1e35, 1e36, star_config(4, 1e-6), jobs=2)


def test_sieve_rejects_bad_bracket(monkeypatch):
    # each is refused in the sieve's own terms before any star runs
    stars = []
    monkeypatch.setattr(tov, "integrate_star",
                        lambda *args: stars.append(args))
    config = star_config(4, 1e-6)
    for P_lo, P_hi, bracket_tolerance, message in [
            (0.0, 1e36, 1e-3, "P_lo < P_hi"),
            (1e36, 1e35, 1e-3, "P_lo < P_hi"),
            (math.nan, 1e36, 1e-3, "P_lo < P_hi"),
            (1e35, math.inf, 1e-3, "P_hi < inf"),
            # adjacent doubles, which share one logarithm
            (1e35, 1.0000000000000002e35, 1e-3, "ln P_lo < ln P_hi"),
            (1e35, 1e36, 0.0, "bracket_tolerance"),
            (1e35, 1e36, -1.0, "bracket_tolerance"),
            (1e35, 1e36, -0.5, "bracket_tolerance"),
            (1e35, 1e36, math.nan, "bracket_tolerance"),
            (1e35, 1e36, math.inf, "bracket_tolerance")]:
        with pytest.raises(ValueError, match=message):
            trinary_sieve(P_lo, P_hi, config,
                          bracket_tolerance=bracket_tolerance)
    assert stars == []


# --- order/tolerance sweep --------------------------------------------

def test_sweep_reports_steps_and_agreement(reference_star):
    reference = (reference_star.M, reference_star.R)
    cells = parameter_sweep([4], [1e-4, 1e-6], P_CENTRAL, reference)
    assert [(cell.order, cell.tolerance) for cell in cells] == [
        (4, 1e-4), (4, 1e-6)]
    for cell in cells:
        assert cell.ok
        assert cell.steps > 0
        assert cell.rel_dM < 1e-4
        assert cell.rel_dR < 1e-3


def test_sweep_mass_converges_on_the_tov_oracle():
    # against the oracle star, each order's global error in M falls as
    # E tightens; R is not held, since it follows the last surface step
    reference = (ORACLE_M_MSUN * CONSTANTS.M_sun, ORACLE_R_KM * 1e5)
    tolerances = [1e-2, 1e-5, 1e-8]
    cells = parameter_sweep(range(3, 11), tolerances, P_CENTRAL, reference)
    assert all(cell.ok for cell in cells)
    for start in range(0, len(cells), len(tolerances)):
        errors = [cell.rel_dM for cell in cells[start:start + len(tolerances)]]
        assert errors[0] > errors[1] > errors[2] <= 5e-9


def test_sweep_continues_past_failed_cells():
    # a central pressure beyond float range for the EOS overflows the
    # density on the first evaluation and is reported, not raised
    cells = parameter_sweep([4], [1e-6], 1e308, (1.0, 1.0))
    assert cells[0].status == "non-finite"
    assert not cells[0].ok
    assert math.isnan(cells[0].M_msun)
    assert cells[0].steps == 0


def test_sweep_tags_horizon_and_step_budget(monkeypatch):
    def claustrophobic(P_c, config):
        raise HorizonError("synthetic")

    monkeypatch.setattr(tov, "integrate_star", claustrophobic)
    cells = parameter_sweep([4], [1e-6], P_CENTRAL, (1.0, 1.0))
    assert cells[0].status == "horizon"

    def exhausted(P_c, config):
        raise MaxStepsExceeded("synthetic", Trajectory(0.0, np.zeros(2)))

    monkeypatch.setattr(tov, "integrate_star", exhausted)
    cells = parameter_sweep([4], [1e-6], P_CENTRAL, (1.0, 1.0))
    assert cells[0].status == "max-steps"


def test_sweep_validates_inputs(monkeypatch):
    stars = []
    monkeypatch.setattr(tov, "integrate_star",
                        lambda *args: stars.append(args))
    for reference in ((0.0, 1.0), (1.0, -1.0), (math.inf, 1.0),
                      (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="reference mass and radius"):
            parameter_sweep([4], [1e-6], P_CENTRAL, reference)
    with pytest.raises(ValueError):
        parameter_sweep([], [1e-6], P_CENTRAL, (1.0, 1.0))
    # the whole grid is checked before the first star, in the sweep's terms
    for order in (0, -1, 2.5, 4.0, "4", None):
        with pytest.raises(ValueError, match="orders must be integers"):
            parameter_sweep([4, order], [1e-6], P_CENTRAL, (1.0, 1.0))
    for tolerance in (0.0, -1e-6, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerances must be positive"):
            parameter_sweep([4], [1e-6, tolerance], P_CENTRAL, (1.0, 1.0))
    assert stars == []


def test_sweep_reads_each_axis_once(monkeypatch):
    # one-shot iterables give the full grid, orders outermost, and numpy
    # integers count as orders
    cells = []
    monkeypatch.setattr(tov, "_sweep_cell",
                        lambda order, tolerance, *rest: cells.append(
                            (order, tolerance)))
    parameter_sweep((order for order in [3, np.int64(4)]),
                    iter([1e-2, 1e-5]), P_CENTRAL, (1.0, 1.0))
    assert cells == [(3, 1e-2), (3, 1e-5), (4, 1e-2), (4, 1e-5)]


def test_sweep_runs_serially():
    with pytest.raises(ValueError):
        parameter_sweep([4], [1e-6], P_CENTRAL, (1.0, 1.0), jobs=2)
