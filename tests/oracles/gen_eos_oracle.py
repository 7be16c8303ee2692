"""High-precision degenerate-neutron-gas EOS values for frozen test data.

Evaluates the pressure and kinetic-energy brackets, the pressure scale
K = pi m_n^4 c^5 / 3 h^3, the mass-energy density rho = m_n c^2 n + K *
(kinetic bracket), and selected inversions at 50 significant digits
with mpmath, independently of the package implementation (which takes
rho from the pressure bracket through rho + P = n mu).  The brackets
are the closed forms, which cancel as x -> 0 (about 4 log10(1/x) digits
are lost), so they are evaluated with 40 extra digits.

Run:  python tests/oracles/gen_eos_oracle.py
"""
import mpmath as mp

mp.mp.dps = 50

M_N = mp.mpf("1.67492749804e-24")
C = mp.mpf("2.99792458e10")
H = mp.mpf("6.62607015e-27")
G = mp.mpf("6.67430e-8")

K = mp.pi * M_N ** 4 * C ** 5 / (3 * H ** 3)
X_OF_N = (H / (2 * M_N * C))  # times (3n/pi)^(1/3)


@mp.extradps(40)
def pressure_bracket(x):
    return x * (2 * x ** 2 - 3) * mp.sqrt(x ** 2 + 1) + 3 * mp.asinh(x)


@mp.extradps(40)
def kinetic_bracket(x):
    return 3 * x * (2 * x ** 2 + 1) * mp.sqrt(x ** 2 + 1) - 8 * x ** 3 - 3 * mp.asinh(x)


def n_of_x(x):
    return (mp.pi / 3) * (2 * M_N * C * x / H) ** 3


def pressure(x):
    return K * pressure_bracket(x)


def rho(x):
    return M_N * C ** 2 * n_of_x(x) + K * kinetic_bracket(x)


def invert(p):
    """x at which pressure(x) = p: Newton in log x on log(pressure / p),
    from the larger of the low- and high-density roots (5P/8K)^(1/5) and
    (P/2K)^(1/4)."""
    t = p / K
    x0 = max((5 * t / 8) ** (mp.mpf(1) / 5), (t / 2) ** (mp.mpf(1) / 4))
    u = mp.findroot(lambda u: mp.log(pressure(mp.exp(u)) / p), mp.log(x0),
                    solver="newton")
    return mp.exp(u)


if __name__ == "__main__":
    print(f"K = {mp.nstr(K, 20)} erg/cm^3")
    print(f"n(x=1) = {mp.nstr(n_of_x(1), 20)} cm^-3")
    print(f"P(x=1) = {mp.nstr(pressure(1), 20)} erg/cm^3")
    print(f"rho(x=1) = {mp.nstr(rho(1), 20)} erg/cm^3")
    print()
    for xs in ("1e-4", "1e-3", "1e-2", "0.1", "0.5", "1", "2", "10", "100", "1000"):
        x = mp.mpf(xs)
        pb = pressure_bracket(x)
        kb = kinetic_bracket(x)
        print(f"x={xs}: P-bracket={mp.nstr(pb, 20)}  U-bracket={mp.nstr(kb, 20)}"
              f"  U/P={mp.nstr(kb / pb, 20)}")
    print()
    # small-x leading terms
    for xs in ("1e-4", "1e-3"):
        x = mp.mpf(xs)
        print(f"x={xs}: P-bracket/(8/5 x^5) = "
              f"{mp.nstr(pressure_bracket(x) / (mp.mpf(8) / 5 * x ** 5), 20)}  "
              f"U-bracket/(12/5 x^5) = "
              f"{mp.nstr(kinetic_bracket(x) / (mp.mpf(12) / 5 * x ** 5), 20)}")
    print()
    # inversion targets
    for p_str, x0 in (("3.631382e35", "0.8"), ("1e30", "0.06"), ("1e38", "2.4")):
        p = mp.mpf(p_str)
        x = mp.findroot(lambda x: pressure(x) / p - 1, mp.mpf(x0))
        print(f"P={p_str}: x={mp.nstr(x, 20)} n={mp.nstr(n_of_x(x), 20)} "
              f"rho={mp.nstr(rho(x), 20)}")
    print()
    # the pressure bracket at small x and on both sides of the package's
    # series cutoff x = 0.3
    for xs in ("1e-6", "1e-4", "0.2999999", "0.3000001"):
        print(f"x={xs}: P-bracket={mp.nstr(pressure_bracket(mp.mpf(xs)), 20)}")
    print()
    # inversions over the whole double range of P, with rho at each x
    for p_str in ("1e-10", "1", "1e5", "1e10", "1e20", "1e30", "1e33",
                  "1e36", "1e40", "1e100", "1e200", "1e300", "1.7e308"):
        x = invert(mp.mpf(p_str))
        print(f"P={p_str}: x={mp.nstr(x, 20)} rho={mp.nstr(rho(x), 20)}")
    print()
    # inversions on both sides of P(x = 1.2) = 1.93667409801...e36, where
    # the package's Newton start switches from its polynomial to the
    # low- and high-density roots
    for p_str in ("1.9e36", "1.936674098e36", "1.936674099e36", "2e36"):
        x = invert(mp.mpf(p_str))
        print(f"P={p_str}: x={mp.nstr(x, 20)} rho={mp.nstr(rho(x), 20)}")
    print()
    # mass-energy density, rest plus kinetic, from x = 1e-8, where the
    # kinetic part is 3e-17 of the rest mass, to the ultrarelativistic gas
    for xs in ("1e-8", "1e-7", "1e-6", "1e-4", "1e-2", "0.29", "0.31", "1",
               "10", "1e3"):
        print(f"x={xs}: rho={mp.nstr(rho(mp.mpf(xs)), 20)}")
    print()
    # Newtonian-limit test point: x = 1e-3, r = 1e5 cm, m = 1e30 g
    x = mp.mpf("1e-3")
    r = mp.mpf("1e5")
    m = mp.mpf("1e30")
    p = pressure(x)
    rh = rho(x)
    full = (-(G / (C ** 2 * r ** 2)) * (rh + p)
            * (m + 4 * mp.pi / C ** 2 * r ** 3 * p)
            / (1 - 2 * G * m / (C ** 2 * r)))
    newt = -G * rh * m / (C ** 2 * r ** 2)
    print(f"Newtonian point: P={mp.nstr(p, 20)} rho={mp.nstr(rh, 20)}")
    print(f"  dP/dr full = {mp.nstr(full, 20)}")
    print(f"  dP/dr newt = {mp.nstr(newt, 20)}  ratio={mp.nstr(full / newt, 20)}")
