"""Relativistic stellar structure for a degenerate neutron gas (CGS).

The hydrostatic equilibrium of a static, spherically symmetric star in
general relativity is

    dm/dr = (4 pi / c^2) r^2 rho
    dP/dr = - G / (c^2 r^2) * (rho + P) * (m + (4 pi / c^2) r^3 P)
            / (1 - 2 G m / (c^2 r))

with m(0) = 0 and a chosen central pressure; rho(P) comes from the
degenerate-gas equation of state.  Integration proceeds outward from
the regular center (both derivatives vanish at r = 0) and stops at the
first accepted step whose pressure is zero or below: that step's mass
and radius ARE the star's M and R, with no surface interpolation.

The maximum-mass hunt exploits that M(P_central) is unimodal over the
physical range and smooth near its peak.  It searches u = ln P_central,
on which M is nearly symmetric about the peak: Brent's method probes
the vertex of the parabola through the three best stars so far when
that is safe, and the golden-section point of the bracket when it is
not.  Each probe integrates one star.  M is flat at its peak, so an
error in P_c moves M only to second order, and the probes need M(P_c)
smooth and unimodal, not accurate to the asked tolerance: when that
tolerance is tight enough, they run at a looser one set by the bracket,
and one star at the asked tolerance is integrated at the best probe.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

from .eos import CONSTANTS, gas_at_pressure
from .integrator import IntegrationError, IntegratorConfig, Mode, Trajectory
# bound as ``integrate``, the name that perfbench/tracing.py replaces to
# trace this module's integrations
from .integrator import integrate_floats as integrate

__all__ = ["HorizonError", "StarSolution", "SieveResult", "SweepCell",
           "tov_derivatives", "star_config", "integrate_star",
           "stable_plateau", "trinary_sieve",
           "parameter_sweep"]


# c^2, G and 4 pi / c^2, read once rather than on every derivative
_C2 = CONSTANTS.c ** 2
_G = CONSTANTS.G
_FOUR_PI_C2 = 4.0 * math.pi / _C2


class HorizonError(IntegrationError):
    """2Gm/(c^2 r) reached 1: the configuration is inside its own horizon."""

    tag = "horizon"


def tov_derivatives(r: float, m: float, P: float):
    """(dm/dr, dP/dr) at one point of the stellar interior.

    At the regular center r = 0 both derivatives vanish.  At or below
    zero pressure the gas is absent and both derivatives are zero as
    well, which lets the step that crosses the surface complete and be
    recorded.  A configuration at or inside its own horizon raises
    :class:`HorizonError`.
    """
    if r < 0.0:
        raise ValueError("radius must be non-negative")
    if r == 0.0 or P <= 0.0:
        return 0.0, 0.0
    metric = 1.0 - 2.0 * _G * m / (_C2 * r)
    if metric <= 0.0:
        raise HorizonError(
            f"2Gm/(c^2 r) >= 1 at r={float(r)!r} cm, m={float(m)!r} g")
    rho = gas_at_pressure(P)[1]
    dm_dr = _FOUR_PI_C2 * r * r * rho
    dP_dr = (-(_G / (_C2 * r * r)) * (rho + P)
             * (m + _FOUR_PI_C2 * r ** 3 * P) / metric)
    return dm_dr, dP_dr


@dataclass(frozen=True)
class StarSolution:
    """One star: its central pressure and the run from its center.

    M, R and steps are read off the trajectory: the mass and radius of
    the last accepted step, and the number of accepted steps.  On a
    finished run that last step crossed the surface and is kept as-is
    (its pressure may be slightly negative in the trajectory record; it
    is flagged, never used as a physical pressure).  A failed run's
    partial trajectory reads the same way, at its last accepted step.
    """

    P_central: float          # erg/cm^3
    trajectory: Trajectory

    @property
    def M(self) -> float:  # g
        return self.trajectory.final_state[0]

    @property
    def R(self) -> float:  # cm
        return self.trajectory.final_x

    @property
    def steps(self) -> int:
        return len(self.trajectory)

    @property
    def M_msun(self) -> float:
        return self.M / CONSTANTS.M_sun

    @property
    def R_km(self) -> float:
        return self.R / 1e5


def star_config(order: int, tolerance: float, dx_initial: float = 10.0,
                dx_min: float = 10.0) -> IntegratorConfig:
    """Stellar defaults: start and floor at 10 cm, adaptive stepping,
    a budget of 200 000 steps.

    The floor guarantees termination: near the surface the pressure
    scale height collapses and the controller would otherwise shrink dx
    indefinitely instead of crossing P = 0.
    """
    return IntegratorConfig(order_ab=order, target_correction=tolerance,
                            dx_initial=dx_initial, dx_min=dx_min,
                            mode=Mode.ABM_ADAPTIVE, max_steps=200_000)


def integrate_star(P_central: float, config: IntegratorConfig) -> StarSolution:
    """Integrate one star outward from its center.

    The state vector is (m, P); integration halts at the first accepted
    step with P <= 0.  Raises :class:`HorizonError` if the enclosed
    mass traps the radius, inside the star or at its surface, or the
    engine's errors for step-budget and non-finite failures; each is an
    :class:`IntegrationError` carrying the partial trajectory.
    """
    if not (P_central > 0.0 and math.isfinite(P_central)):
        raise ValueError("central pressure must be positive and finite")

    def system(r, state):
        return tov_derivatives(r, *state)

    star = StarSolution(P_central, integrate(
        system, [0.0, P_central], 0.0, config,
        halt=lambda r, state: state[1] <= 0.0))
    # the surface step evaluates at P <= 0, where tov_derivatives does
    # not look at the horizon
    if 2.0 * _G * star.M / (_C2 * star.R) >= 1.0:
        raise HorizonError(f"2Gm/(c^2 r) >= 1 at r={star.R!r} cm, "
                           f"m={star.M!r} g", star.trajectory)
    return star


_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # golden section of a unit segment


def _brent_maximize(f, lo: float, hi: float, width: float):
    """Maximum of a unimodal function on [lo, hi] by Brent's method.

    Brent (1973), *Algorithms for Minimization without Derivatives*,
    ch. 5, run on -f.  The bracket [a, b] always holds the best point x
    so far; w and v are the second and third best.  Each new probe is
    the vertex of the parabola through x, w and v when that vertex lies
    inside the bracket and moves less than half the step before last;
    otherwise it is the golden-section point of the larger side of x.
    No probe lands closer than tol = width / 4 to x, and the search
    stops once x is within 2 tol of both ends, so the final bracket is
    at most ``width`` wide.  tol is never below 4 ulp of the larger end,
    so a probe never lands on x again: a ``width`` finer than the
    doubles resolve near the bracket is met at that resolution.

    Returns (x, history): x is the best probe, the later one on a tie,
    and history holds one (point, value, "golden" or "parabolic") per
    probe, in order.
    """
    if not (lo < hi and width > 0.0):
        raise ValueError("need lo < hi and width > 0")
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    history = [(x, fx, "golden")]
    d = e = 0.0  # the last step and the one before it
    tol = max(0.25 * width, 4.0 * math.ulp(max(abs(lo), abs(hi))))
    while True:
        mid = 0.5 * (a + b)
        if max(x - a, b - x) <= 2.0 * tol:
            return x, tuple(history)
        parabolic = False
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            parabolic = (abs(p) < abs(0.5 * q * e)
                         and q * (a - x) < p < q * (b - x))
        if parabolic:
            e, d = d, p / q
            if min(x + d - a, b - x - d) < 2.0 * tol:
                d = math.copysign(tol, mid - x)
        else:
            e = a - x if x >= mid else b - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        history.append((u, fu, "parabolic" if parabolic else "golden"))
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def stable_plateau(trajectory: Trajectory, tolerance: float,
                   order_ab: int) -> slice:
    """Index slice of a star run's stable mid-body.

    A stellar integration has three regimes: a bootstrap head (ramping
    order, floored steps, and the controller's recovery overshoot), a
    long plateau where the controller holds epsilon_max near the target
    E, and a terminal dive where the collapsing pressure scale height
    drags dx monotonically down to the floor at the surface.  The
    plateau is delimited here as: from the first step at full order
    whose epsilon_max has risen to at least E/10, up to (excluding) the
    maximal terminal suffix over which dx never increases.
    """
    eps = trajectory.epsilon_max
    dxs = trajectory.dx
    n = len(dxs)
    suffix = n - 1
    while suffix > 0 and dxs[suffix] <= dxs[suffix - 1]:
        suffix -= 1
    start = None
    for index in range(order_ab, n):
        if eps[index] >= tolerance / 10.0:
            start = index
            break
    if start is None or start >= suffix:
        return slice(0, 0)
    return slice(start, suffix)


@dataclass(frozen=True)
class SieveResult:
    """Outcome of the maximum-mass hunt.

    The search runs on ln P_c, but P_c and the history's pressures are
    in erg/cm^3: each is the central pressure of a star it integrated.
    ``star`` ran at the asked config, at the best probe's P_c; when the
    probes ran at that config too, it is the best probe's star.
    ``history`` holds the probes, at the tolerance they ran at.
    ``evaluations`` counts every star integrated: the probes, plus the
    final star when it was integrated on its own.
    """

    star: StarSolution        # at the asked config, at the best probe's P_c
    history: tuple            # (P_c, M grams, "golden"/"parabolic") per probe
    evaluations: int          # stars integrated, the final one included

    @property
    def P_c(self) -> float:
        """erg/cm^3, the best probe's central pressure, the star's."""
        return self.star.P_central

    @property
    def M_msun(self) -> float:
        return self.star.M_msun

    @property
    def R_km(self) -> float:
        return self.star.R_km


def trinary_sieve(P_lo: float, P_hi: float, config: IntegratorConfig,
                  bracket_tolerance: float = 1e-3,
                  jobs: int = 1) -> SieveResult:
    """Central pressure of the maximum-mass star on [P_lo, P_hi].

    Assumes M(P_central) is unimodal on the bracket, which holds for
    this gas over the physical range.  Brent's method searches u =
    ln P_c, where M is nearly symmetric about its peak, integrating one
    star at P_c = exp(u) per probe: a parabolic step near the smooth
    peak and a golden-section step where a parabola is not safe.  It
    stops once the bracket in u is at most ln(1 + bracket_tolerance)
    wide, so the bracket in P is at most ``bracket_tolerance`` of the
    best probe wide; a ``bracket_tolerance`` finer than the doubles
    resolve near ln P_hi is met at that resolution.  The answer is the
    probe Brent's method returns.  The search is serial: ``jobs``
    accepts only 1.

    The probes run at E_probe = min(1e-5, 10 bracket_tolerance^2) when
    ``config`` is adaptive and E_probe is at least 100 times its
    tolerance E; then one star at ``config`` is integrated at the
    answer's P_c, and that star is the result's.  An error in P_c
    moves M only to second order at the peak: the default sieve (order
    6, E = 1e-8) takes 44 % fewer steps, and its M moves by 7e-11.
    Without the cap, a bracket_tolerance of 1e-2 would probe at 1e-3,
    which moves the order-3 answer by more than the bracket; below
    100 E the final star costs more than the looser probes save.
    Otherwise the probes run at ``config``, and the best probe's star
    is the result's.

    Raises ValueError before any star unless 0 < P_lo < P_hi < inf and
    0 < bracket_tolerance < inf.  Raises ValueError, naming the end,
    when no probe lies between the best probe and ``P_lo`` or ``P_hi``:
    the final bracket then still reaches that end, so the peak may lie
    outside [P_lo, P_hi].
    """
    if not 0.0 < P_lo < P_hi < math.inf:
        raise ValueError("need 0 < P_lo < P_hi < inf")
    if not 0.0 < bracket_tolerance < math.inf:
        raise ValueError("need 0 < bracket_tolerance < inf")
    if jobs != 1:
        raise ValueError("the sieve runs serially; jobs must be 1")
    probe_tolerance = min(1e-5, 10.0 * bracket_tolerance * bracket_tolerance)
    two_fidelity = (config.mode is Mode.ABM_ADAPTIVE
                    and probe_tolerance >= 100.0 * config.target_correction)
    probe_config = (replace(config, target_correction=probe_tolerance)
                    if two_fidelity else config)
    stars = {}  # each probe's star, by its u

    def mass(u: float) -> float:
        stars[u] = integrate_star(math.exp(u), probe_config)
        return stars[u].M

    u, probes = _brent_maximize(mass, math.log(P_lo), math.log(P_hi),
                                math.log1p(bracket_tolerance))
    best = stars[u]
    history = tuple((math.exp(u), M, kind) for u, M, kind in probes)
    # every end of Brent's bracket is an original end or a probe
    pressures = [P for P, _, _ in history]
    for name, end, nearest in (("P_lo", P_lo, min(pressures)),
                               ("P_hi", P_hi, max(pressures))):
        if nearest == best.P_central:
            raise ValueError(
                f"the mass peak is not bracketed: no probe lies between "
                f"the heaviest star, at P_c = {best.P_central:.6g} "
                f"erg/cm^3, and {name} = {end:.6g} erg/cm^3")
    star = integrate_star(best.P_central, config) if two_fidelity else best
    return SieveResult(star=star, history=history,
                       evaluations=len(history) + two_fidelity)


@dataclass(frozen=True)
class SweepCell:
    """One (order, tolerance) cell of the efficiency sweep."""

    order: int
    tolerance: float
    steps: int
    M_msun: float
    R_km: float
    rel_dM: float
    rel_dR: float
    status: str               # "ok" or the failure's IntegrationError.tag

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _sweep_cell(order: int, tolerance: float, P_central: float,
                M_ref: float, R_ref: float) -> SweepCell:
    """One sweep cell: its star against the reference, or its failure."""
    try:
        star = integrate_star(P_central, star_config(order, tolerance))
    except IntegrationError as failure:
        return SweepCell(order=order, tolerance=tolerance,
                         steps=len(failure.trajectory or ()),
                         M_msun=math.nan, R_km=math.nan, rel_dM=math.nan,
                         rel_dR=math.nan, status=failure.tag)
    return SweepCell(order=order, tolerance=tolerance, steps=star.steps,
                     M_msun=star.M_msun, R_km=star.R_km,
                     rel_dM=abs(star.M - M_ref) / M_ref,
                     rel_dR=abs(star.R - R_ref) / R_ref,
                     status="ok")


def parameter_sweep(orders, tolerances, P_central: float, reference,
                    jobs: int = 1) -> list[SweepCell]:
    """Steps-and-accuracy table over an order x tolerance grid.

    ``orders`` and ``tolerances`` may be any iterables; each is read
    once, and every order (an integer >= 1) and tolerance (positive and
    finite) is checked before the first star.  ``reference`` is (M_ref
    grams, R_ref cm), each positive and finite, normally from a
    high-order, tight-tolerance run.  Cells that fail to integrate are
    reported with a failure status; the sweep continues.  The cells run
    one after another, orders outermost: ``jobs`` accepts only 1.
    """
    M_ref, R_ref = reference
    if not (0.0 < M_ref < math.inf and 0.0 < R_ref < math.inf):
        raise ValueError("reference mass and radius must be positive "
                         "and finite")
    if jobs != 1:
        raise ValueError("the sweep runs serially; jobs must be 1")
    orders, tolerances = tuple(orders), tuple(tolerances)
    for order in orders:
        try:
            valid = operator.index(order) >= 1
        except TypeError:
            valid = False
        if not valid:
            raise ValueError(f"orders must be integers >= 1, not {order!r}")
    for tolerance in tolerances:
        if not 0.0 < tolerance < math.inf:
            raise ValueError(f"tolerances must be positive and finite, "
                             f"not {tolerance!r}")
    cells = [_sweep_cell(order, tolerance, P_central, M_ref, R_ref)
             for order in orders for tolerance in tolerances]
    if not cells:
        raise ValueError("sweep grid is empty")
    return cells
