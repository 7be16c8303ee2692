"""Integrate one neutron star and print its interior profile.

The state vector is (m, P): enclosed gravitational mass and pressure of
a zero-temperature degenerate neutron gas.  Integration starts at the
regular center and halts at the first accepted step with P <= 0 — the
stellar surface.  The printed profile shows the three regimes of the
step-size controller: the bootstrap ramp at small radius, the settled
plateau where the correction holds near the target, and the surface
approach where the collapsing pressure scale height drives dx down to
the floor.
"""
import numpy as np

from abmgrid import CONSTANTS, integrate_star, stable_plateau, star_config

P_CENTRAL = 3.631382e35   # erg/cm^3: the maximum-mass configuration
ORDER = 4
TOLERANCE = 1e-8


def main() -> None:
    star = integrate_star(P_CENTRAL, star_config(ORDER, TOLERANCE))
    trajectory = star.trajectory
    print(f"central pressure {P_CENTRAL:.6e} erg/cm^3, order {ORDER}, "
          f"target correction {TOLERANCE:.0e}")
    print()
    print(f"{'i':>5} {'r [km]':>10} {'dr [cm]':>12} {'m [M_sun]':>12} "
          f"{'P [erg/cm^3]':>14} {'epsilon':>10}")
    stride = max(len(trajectory) // 20, 1)
    picks = sorted(set(range(0, len(trajectory), stride))
                   | {len(trajectory) - 1})
    M_sun = CONSTANTS.M_sun
    r, dr, epsilon = (np.asarray(column) for column in (
        trajectory.x, trajectory.dx, trajectory.epsilon_max))
    m, P = np.asarray(trajectory.y)  # one row per component
    for i in picks:
        print(f"{i:>5} {r[i] / 1e5:>10.4f} {dr[i]:>12.4e} "
              f"{m[i] / M_sun:>12.6f} {P[i]:>14.4e} {epsilon[i]:>10.2e}")
    print()
    window = stable_plateau(trajectory, TOLERANCE, ORDER)
    eps = epsilon[window]
    compactness = 2.0 * CONSTANTS.G * m / (CONSTANTS.c ** 2 * r)
    print(f"M = {star.M_msun:.6f} M_sun   R = {star.R_km:.4f} km   "
          f"steps = {star.steps}   evaluations = {trajectory.n_evals}")
    print(f"controller plateau: records {window.start}..{window.stop - 1}, "
          f"correction in [{eps.min():.2e}, {eps.max():.2e}] "
          f"(target {TOLERANCE:.0e})")
    print(f"peak compactness 2Gm/(c^2 r) = {compactness.max():.4f} "
          f"at r = {r[np.argmax(compactness)] / 1e5:.3f} km")


if __name__ == "__main__":
    main()
