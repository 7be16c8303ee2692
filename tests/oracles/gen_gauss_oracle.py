"""The Gauss-Legendre rule on [0, 1], correctly rounded, from mpmath.

Each root x of the Legendre polynomial P_n is found by mpmath's
``findroot`` on ``mpmath.legendre`` at 60 digits, inside a bracket that
holds that root alone, and its weight on [0, 1] is
1 / ((1 - x^2) P_n'(x)^2) with P_n' from ``mpmath.diff``.  The point
(1 + x) / 2 and the weight are rounded to the nearest double once, so
the rule is the correctly rounded one whatever way a float
implementation computes it.  The points ascend.

Run:  python tests/oracles/gen_gauss_oracle.py [N]
"""
import sys

import mpmath
from mpmath.libmp import to_float

DIGITS = 60


def nearest_double(value):
    return to_float(mpmath.mpf(value)._mpf_, rnd="n")


def gauss_rule(count):
    """(point, weight) pairs of the count-point rule on [0, 1]."""
    rule = []
    with mpmath.workdps(DIGITS):
        def legendre(t):
            return mpmath.legendre(count, t)

        for i in range(count, 0, -1):
            # the i-th largest root is cos(theta) with theta strictly
            # between (i - 1/2) pi / (n + 1/2) and i pi / (n + 1/2)
            # (Szego, Orthogonal Polynomials, sec. 6.21)
            bracket = [mpmath.cos(mpmath.pi * k / (count + mpmath.mpf(0.5)))
                       for k in (i, i - mpmath.mpf(0.5))]
            x = mpmath.findroot(legendre, bracket, solver="anderson")
            slope = mpmath.diff(legendre, x)
            rule.append((nearest_double((1 + x) / 2),
                         nearest_double(1 / ((1 - x * x) * slope ** 2))))
    return rule


if __name__ == "__main__":
    for count in range(1, int(sys.argv[1]) + 1 if len(sys.argv) > 1 else 13):
        print(count, [(point.hex(), weight.hex())
                      for point, weight in gauss_rule(count)])
