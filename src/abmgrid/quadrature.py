"""Lagrange quadrature weights on arbitrarily spaced nodes.

An Adams step advances y through the integral of an interpolating
polynomial built on the recent derivative history.  Writing the node
abscissae relative to the current point (the most recent accepted node
sits at 0; explicit histories lie at negative offsets, and an implicit
stencil adds one node at +dx), the weight of node j is

    w_j = integral_0^dx  l_j(t) dt,
    l_j(t) = prod_{k != j} (t - t_k) / (t_j - t_k).

Each basis polynomial has degree N - 1 for N nodes, so ceil(N / 2)
Gauss-Legendre points on [0, dx] integrate it exactly.  The basis is
evaluated at those points in product (barycentric) form, as a product
of ratios (t - t_k) / (t_j - t_k) and never through expanded monomial
coefficients (Berrut & Trefethen, "Barycentric Lagrange Interpolation",
SIAM Rev. 46, 2004).  Every factor is accurate to a few units of
roundoff, and on an Adams stencil no node lies inside (0, dx), so the
basis keeps one sign across the Gauss points and their sum cannot
cancel: each weight is accurate to roundoff however stretched the node
spacing.  The k = j factor is left out by masking, not by division, so
nothing breaks if a Gauss point lands on a node.  This is the
Lagrange-form weight API, checked against an exact-rational oracle by
``tests/test_quadrature.py`` and timed by ``perfbench/micro.py``; the
integrator's step uses the Newton form in ``integrator.adams_update``.
"""
from functools import lru_cache

from .integrator import _gauss_rule

__all__ = ["quadrature_weights"]


@lru_cache(maxsize=None)
def _gauss_legendre_unit(count):
    """Gauss-Legendre points and weights on [0, 1]: the engine's rule.

    The arrays are cached and shared, so they are made read-only.
    """
    import numpy as np
    rule = tuple(np.array(column) for column in zip(*_gauss_rule(count)))
    for array in rule:
        array.setflags(write=False)
    return rule


def quadrature_weights(offsets, dx):
    """Integration weights for derivative nodes at ``offsets``.

    Parameters
    ----------
    offsets : array_like
        Node positions relative to the current point, strictly
        increasing.  An explicit (predictor) stencil ends at 0; an
        implicit (corrector) stencil ends at ``dx``.
    dx : float
        Upper integration limit; the step being taken.

    Returns
    -------
    numpy.ndarray
        One weight per node, in node order.  The weights reproduce the
        integral of any polynomial of degree < len(offsets) exactly, so
        they always sum to dx (the integral of 1).
    """
    import numpy as np
    offsets = np.asarray(offsets, dtype=float)
    if offsets.ndim != 1 or offsets.size == 0:
        raise ValueError("offsets must be a non-empty 1-D array")
    if (offsets[1:] <= offsets[:-1]).any():
        raise ValueError("offsets must be strictly increasing")
    count = offsets.size
    points, gauss_weights = _gauss_legendre_unit((count + 1) // 2)
    # ratios[i, j, k] = (g_i - t_k) / (t_j - t_k) at the Gauss point
    # g_i = dx * points[i]; the k = j factor is set to 1 (its gap too,
    # before dividing), so nothing divides by zero.  Both arrays are
    # fresh and C-ordered, so the flat and reshaped views write in place.
    diagonal = slice(None, None, count + 1)
    gaps = offsets[:, None] - offsets
    gaps.flat[diagonal] = 1.0
    ratios = (dx * points[:, None, None] - offsets) / gaps
    ratios.reshape(points.size, -1)[:, diagonal] = 1.0
    return dx * (gauss_weights @ ratios.prod(axis=2))
