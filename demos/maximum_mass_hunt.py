"""Hunt the maximum gravitational mass over central pressure.

First maps the mass curve M(P_central) on a coarse logarithmic grid to
show the single hump, then runs the trinary sieve to locate the peak.
The sieve is Brent's method on ln P_central, where the hump is nearly
symmetric: near the smooth peak it probes the vertex of the parabola
through the three best stars so far, and elsewhere the golden-section
point of the bracket.  Its probes run at a looser tolerance than the
asked one, since M is flat at the peak; its answer is the best probe's
pressure, where one star at the asked tolerance is integrated last.
"""
import numpy as np

from abmgrid import integrate_star, star_config, trinary_sieve

BRACKET = (1e35, 1e36)    # erg/cm^3
ORDER = 6
TOLERANCE = 1e-8


def main() -> None:
    config = star_config(ORDER, TOLERANCE)

    print("mass curve on a coarse grid (single hump):")
    print(f"{'P_central [erg/cm^3]':>22} {'M [M_sun]':>12} {'R [km]':>10} "
          f"{'steps':>7}")
    for P_c in np.logspace(np.log10(BRACKET[0]), np.log10(BRACKET[1]), 9):
        star = integrate_star(float(P_c), config)
        print(f"{P_c:>22.4e} {star.M_msun:>12.6f} {star.R_km:>10.4f} "
              f"{star.steps:>7}")
    print()

    result = trinary_sieve(*BRACKET, config)
    star = result.star
    print(f"sieve over [{BRACKET[0]:.1e}, {BRACKET[1]:.1e}]: "
          f"{result.evaluations} star integrations")
    print(f"P_c* = {result.P_c:.6e} erg/cm^3")
    print(f"M*   = {star.M_msun:.6f} M_sun")
    print(f"R*   = {star.R_km:.4f} km")


if __name__ == "__main__":
    main()
