"""Mass and radius of the degenerate-neutron-gas star, independently of
the package, for frozen test data.

Integrates the TOV equations in the enthalpy h = ln(mu / m_n c^2)
(Lindblom 1992, ApJ 398, 569), with r and m as functions of h:

    dr/dh = -r (c^2 r - 2 G m) / (G (m + 4 pi r^3 P / c^2))
    dm/dh = (4 pi / c^2) r^2 rho dr/dh

For this gas dh = dP / (rho + P) = dmu / mu, so h = 1/2 ln(1 + x^2) and
x(h) = sqrt(expm1(2h)): P and rho are closed forms of x, with no
inversion.  The run goes from the centre (h = h_c) to the surface
(h = 0) in w, with x = x_c (1 - w^2): r and m are analytic in w at both
ends, where they are not in h (r ~ sqrt(h_c - h) at the centre, rho ~
h^(3/2) at the surface).  It starts at w = 1e-4 from the centre's series

    r^2 = 3 c^4 (h_c - h) / (2 pi G (rho_c + 3 P_c)),
    m = (4 pi / 3 c^2) rho_c r^3,

whose neglected terms are w^2 = 1e-8 relative in r and m there: r's
error dies out as (w0 / w)^2 and m's is 1e-20 of M.  Classical RK4 runs
on a mesh that is geometric from there to w = 0.05 (near the centre
d(dr/dw)/dr ~ -1/w, so a uniform step loses an order) and uniform
after; the answer is the Richardson extrapolation of n and 2n steps,
and their difference is printed as the error estimate.  ``--taylor``
checks the reference star with mpmath's Taylor-series ``odefun``
instead (about two minutes).

The EOS is written from ``PhysicalConstants``' literal values, and rho
is rest mass plus the kinetic bracket (m_n c^2 n + K U), as in
gen_eos_oracle.py, not the package's 8 K x^3 sqrt(1 + x^2) - P.  The
peak of M over ln P_c is found by two rounds of a parabola through
three stars.

Run:  python tests/oracles/gen_tov_oracle.py [--taylor]
"""
import sys

import mpmath as mp

mp.mp.dps = 30

M_N = mp.mpf("1.67492749804e-24")
C = mp.mpf("2.99792458e10")
H = mp.mpf("6.62607015e-27")
G = mp.mpf("6.67430e-8")
M_SUN = mp.mpf("1.98892e33")

K = mp.pi * M_N ** 4 * C ** 5 / (3 * H ** 3)
C2 = C ** 2

P_REFERENCE = mp.mpf("3.631382e35")
W_START = mp.mpf("1e-4")
W_GEOMETRIC = mp.mpf("0.05")


@mp.extradps(30)
def pressure_bracket(x):
    return x * (2 * x ** 2 - 3) * mp.sqrt(x ** 2 + 1) + 3 * mp.asinh(x)


@mp.extradps(30)
def kinetic_bracket(x):
    return (3 * x * (2 * x ** 2 + 1) * mp.sqrt(x ** 2 + 1) - 8 * x ** 3
            - 3 * mp.asinh(x))


def pressure(x):
    return K * pressure_bracket(x)


def rho(x):
    n = (mp.pi / 3) * (2 * M_N * C * x / H) ** 3
    return M_N * C2 * n + K * kinetic_bracket(x)


def x_of_pressure(P):
    t = P / K
    x0 = max((5 * t / 8) ** (mp.mpf(1) / 5), (t / 2) ** (mp.mpf(1) / 4))
    return mp.findroot(lambda x: pressure_bracket(x) - t, x0)


def derivatives(w, state, x_c):
    """d(r, m)/dw at x = x_c (1 - w^2)."""
    r, m = state
    x = x_c * (1 - w * w)
    dr_dh = -r * (C2 * r - 2 * G * m) / (
        G * (m + 4 * mp.pi * r ** 3 * pressure(x) / C2))
    dr_dw = dr_dh * x / (1 + x * x) * (-2 * x_c * w)
    return [dr_dw, 4 * mp.pi * r * r * rho(x) / C2 * dr_dw]


def centre(w, x_c):
    """(r, m) at w from the centre's leading-order series."""
    x = x_c * (1 - w * w)
    depth = (mp.log1p(x_c * x_c) - mp.log1p(x * x)) / 2  # h_c - h
    rho_c, P_c = rho(x_c), pressure(x_c)
    r = mp.sqrt(3 * C2 ** 2 * depth / (2 * mp.pi * G * (rho_c + 3 * P_c)))
    return [r, 4 * mp.pi / (3 * C2) * rho_c * r ** 3]


def mesh(n):
    """n/2 geometric steps from W_START to W_GEOMETRIC, n uniform to 1."""
    half = n // 2
    geometric = [W_START * (W_GEOMETRIC / W_START) ** (mp.mpf(k) / half)
                 for k in range(half)]
    return geometric + [W_GEOMETRIC + (1 - W_GEOMETRIC) * mp.mpf(k) / n
                        for k in range(n + 1)]


def rk4(x_c, n):
    """(M grams, R cm) by classical RK4 on ``mesh(n)``."""
    nodes = mesh(n)
    y = centre(nodes[0], x_c)
    for a, b in zip(nodes, nodes[1:]):
        step = b - a
        k1 = derivatives(a, y, x_c)
        k2 = derivatives(a + step / 2,
                         [u + step / 2 * v for u, v in zip(y, k1)], x_c)
        k3 = derivatives(a + step / 2,
                         [u + step / 2 * v for u, v in zip(y, k2)], x_c)
        k4 = derivatives(b, [u + step * v for u, v in zip(y, k3)], x_c)
        y = [u + step / 6 * (v1 + 2 * v2 + 2 * v3 + v4)
             for u, v1, v2, v3, v4 in zip(y, k1, k2, k3, k4)]
    return y[1], y[0]


def star(P_c, n=1600):
    """(M_sun, km, |M change|, |R change|): RK4 at n and 2n, extrapolated."""
    x_c = x_of_pressure(P_c)
    M1, R1 = rk4(x_c, n)
    M2, R2 = rk4(x_c, 2 * n)
    M = M2 + (M2 - M1) / 15
    R = R2 + (R2 - R1) / 15
    return M / M_SUN, R / 1e5, abs(M - M2) / M_SUN, abs(R - R2) / 1e5


def taylor_star(P_c):
    """(M_sun, km) by mpmath's Taylor-series ODE solver."""
    x_c = x_of_pressure(P_c)
    solution = mp.odefun(lambda w, y: derivatives(w, y, x_c), W_START,
                         centre(W_START, x_c))
    r, m = solution(1)
    return m / M_SUN, r / 1e5


def vertex(points):
    """Abscissa of the parabola's vertex through three (u, M) points."""
    (a, fa), (b, fb), (c, fc) = points
    p = (b - a) ** 2 * (fb - fc) - (b - c) ** 2 * (fb - fa)
    q = (b - a) * (fb - fc) - (b - c) * (fb - fa)
    return b - p / (2 * q)


def peak(u, widths=(mp.mpf("1e-2"), mp.mpf("1e-3"))):
    """(P_c*, M_max in M_sun) from u = ln P_c near the peak."""
    for width in widths:
        u = vertex([(v, star(mp.exp(v))[0])
                    for v in (u - width, u, u + width)])
    return mp.exp(u), star(mp.exp(u))[0]


if __name__ == "__main__":
    M, R, dM, dR = star(P_REFERENCE)
    print(f"P_c = {mp.nstr(P_REFERENCE, 8)} erg/cm^3: "
          f"M = {mp.nstr(M, 16)} M_sun, R = {mp.nstr(R, 14)} km "
          f"(extrapolation moved M by {mp.nstr(dM, 2)}, R by "
          f"{mp.nstr(dR, 2)} km)")
    if "--taylor" in sys.argv[1:]:
        M_t, R_t = taylor_star(P_REFERENCE)
        print(f"  Taylor series: M = {mp.nstr(M_t, 16)} M_sun, "
              f"R = {mp.nstr(R_t, 14)} km")
    P_star, M_max = peak(mp.log(P_REFERENCE))
    print(f"peak: P_c* = {mp.nstr(P_star, 8)} erg/cm^3, "
          f"M_max = {mp.nstr(M_max, 16)} M_sun")
