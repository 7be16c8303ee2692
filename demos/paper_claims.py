"""Check the abstract's two step counts against the TOV oracle star.

The abstract says the maximum-mass star comes out at 0.71 M_sun in 23
integration steps, and with both mass and radius within 1 % in 27.
This integrates the star at P_c = 3.631382e35 erg/cm^3 over orders
2..8 and target corrections E = 10^(-1 - k/20), k = 0..60 (427 stars),
compares each with the oracle star of tests/oracles/gen_tov_oracle.py,
and prints, for each claim, how many configurations meet it and the
ones that take the fewest steps.
"""
from abmgrid import integrate_star, star_config

P_CENTRAL = 3.631382e35         # erg/cm^3
ORACLE_M_MSUN = 0.7099981412845939
ORACLE_R_KM = 9.1614962851487
ORDERS = range(2, 9)
TOLERANCES = [10.0 ** (-1 - k / 20) for k in range(61)]


def main() -> None:
    stars = []  # (steps, order, E, relative error of M, of R)
    for order in ORDERS:
        for tolerance in TOLERANCES:
            star = integrate_star(P_CENTRAL, star_config(order, tolerance))
            stars.append((star.steps, order, tolerance,
                          star.M_msun / ORACLE_M_MSUN - 1.0,
                          star.R_km / ORACLE_R_KM - 1.0))
    print(f"{len(stars)} stars at P_c = {P_CENTRAL:.6e} erg/cm^3 against "
          f"the oracle: M = {ORACLE_M_MSUN} M_sun, R = {ORACLE_R_KM} km")
    claims = [
        ("M within 1 % in at most 23 steps",
         [s for s in stars if abs(s[3]) <= 0.01 and s[0] <= 23]),
        ("M and R within 1 % in at most 27 steps",
         [s for s in stars
          if abs(s[3]) <= 0.01 and abs(s[4]) <= 0.01 and s[0] <= 27]),
    ]
    for claim, meeting in claims:
        print()
        print(f"{claim}: {len(meeting)} configurations")
        if not meeting:
            continue
        fewest = min(s[0] for s in meeting)
        print(f"{'steps':>5} {'order':>5} {'E':>10} {'dM/M':>10} {'dR/R':>10}")
        for steps, order, tolerance, dM, dR in sorted(meeting):
            if steps == fewest:
                print(f"{steps:>5} {order:>5} {tolerance:>10.4g} "
                      f"{dM:>+10.2e} {dR:>+10.2e}")


if __name__ == "__main__":
    main()
