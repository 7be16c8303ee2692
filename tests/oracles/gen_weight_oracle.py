"""Exact-rational quadrature weights and PECE steps for frozen test values.

Integrates each Lagrange basis polynomial over [0, dx] in Fraction
arithmetic, with no floating point anywhere, so the results are an
independent check on the float implementation.  ``exact_pece`` applies
those weights to one predictor-corrector step.

Run:  python tests/oracles/gen_weight_oracle.py
"""
from fractions import Fraction


def exact_weights(nodes, dx):
    nodes = [Fraction(n) for n in nodes]
    dx = Fraction(dx)
    out = []
    for j, xj in enumerate(nodes):
        # poly = prod_{k != j} (x - x_k), coefficients highest power first
        poly = [Fraction(1)]
        for k, xk in enumerate(nodes):
            if k == j:
                continue
            nxt = [Fraction(0)] * (len(poly) + 1)
            for a, c in enumerate(poly):
                nxt[a] += c
                nxt[a + 1] -= c * xk
            poly = nxt
        denom = Fraction(1)
        for k, xk in enumerate(nodes):
            if k != j:
                denom *= xj - xk
        deg = len(poly) - 1
        integral = Fraction(0)
        for a, c in enumerate(poly):
            p = deg - a + 1
            integral += c * dx ** p / p
        out.append(integral / denom)
    return out


def exact_pece(y, offsets, derivatives, dx, newest):
    """Exact y_AB and y_AM of one PECE step, with the weights used.

    ``offsets`` are the stencil's nodes relative to the current point
    (the last is 0), ``derivatives`` one row per node, and ``newest``
    the derivative at the new node dx, as the step evaluated it.
    Returns (y_ab, y_am, w_ab, w_am): the states as lists of Fractions,
    the predictor's N weights and the corrector's N + 1.
    """
    offsets = [Fraction(t) for t in offsets]
    dx = Fraction(dx)
    w_ab = exact_weights(offsets, dx)
    w_am = exact_weights(offsets + [dx], dx)
    rows = [[Fraction(f) for f in row] for row in derivatives]
    rows_am = rows + [[Fraction(f) for f in newest]]
    y_ab = [Fraction(y0) + sum(w * row[j] for w, row in zip(w_ab, rows))
            for j, y0 in enumerate(y)]
    y_am = [Fraction(y0) + sum(w * row[j] for w, row in zip(w_am, rows_am))
            for j, y0 in enumerate(y)]
    return y_ab, y_am, w_ab, w_am


CASES = [
    ("AB1", [0], 1),
    ("AB2", [-1, 0], 1),
    ("AB3", [-2, -1, 0], 1),
    ("AB4", [-3, -2, -1, 0], 1),
    ("AM trapezoid", [0, 1], 1),
    ("AM3", [-1, 0, 1], 1),
    ("AM4", [-2, -1, 0, 1], 1),
    ("AM5", [-3, -2, -1, 0, 1], 1),
    # non-uniform spacings, AB-style (most recent node at 0)
    ("nonuni3", [-1, Fraction(-1, 3), 0], Fraction(1, 2)),
    ("nonuni4", [Fraction(-7, 2), -2, Fraction(-1, 2), 0], Fraction(3, 4)),
    # non-uniform AM-style (future node at dx)
    ("nonuni-am4", [-4, -1, 0, Fraction(1, 2)], Fraction(1, 2)),
]

if __name__ == "__main__":
    for name, nodes, dx in CASES:
        w = exact_weights(nodes, dx)
        assert sum(w) == Fraction(dx)
        pretty = ", ".join(str(x) for x in w)
        print(f"{name}: nodes={nodes} dx={dx}")
        print(f"  weights = [{pretty}]")
        print(f"  floats  = {[float(x) for x in w]}")
    # one PECE step on y' = x from x = 1 over [-1, 0] + 1, y(1) = 1/2:
    # both updates land on x^2/2 at 3/2
    y_ab, y_am, _, _ = exact_pece([Fraction(1, 2)], [-1, 0], [[0], [1]],
                                  Fraction(1, 2), [Fraction(3, 2)])
    print(f"PECE y' = x: y_AB = {y_ab[0]}, y_AM = {y_am[0]}")
