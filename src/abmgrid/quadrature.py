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
spacing.  The weights are built on Python floats, with the Gauss terms
summed in a fixed order, so no BLAS kernel enters them.  This is the
Lagrange-form weight API, checked against an exact-rational oracle by
``tests/test_quadrature.py`` and timed by ``perfbench/micro.py``; the
integrator's step uses the Newton form in ``integrator.adams_update``.
"""
import math
from array import array

from .integrator import _gauss_rule

__all__ = ["quadrature_weights"]


def quadrature_weights(offsets, dx):
    """Integration weights for derivative nodes at ``offsets``.

    Parameters
    ----------
    offsets : sequence of float
        Node positions relative to the current point, finite and
        strictly increasing.  An explicit (predictor) stencil ends at 0;
        an implicit (corrector) stencil ends at ``dx``.
    dx : float
        Upper integration limit, finite; the step being taken.

    Returns
    -------
    array.array
        One weight per node, in node order, as an ``array("d")``.  The
        weights reproduce the integral of any polynomial of degree
        < len(offsets) exactly, so they always sum to dx (the integral
        of 1).

    Raises
    ------
    ValueError
        If ``offsets`` is empty, not one-dimensional, not finite or not
        strictly increasing, or if ``dx`` is not finite.
    """
    try:
        nodes = [float(t) for t in offsets]
    except TypeError:
        nodes = []
    if not nodes or isinstance(offsets, (str, bytes)):
        raise ValueError("offsets must be a non-empty 1-D array")
    if not all(map(math.isfinite, nodes)):
        raise ValueError("offsets must be finite")
    if any(later <= earlier for earlier, later in zip(nodes, nodes[1:])):
        raise ValueError("offsets must be strictly increasing")
    dx = float(dx)
    if not math.isfinite(dx):
        raise ValueError("dx must be finite")
    rule = [(dx * point, weight)
            for point, weight in _gauss_rule((len(nodes) + 1) // 2)]
    weights = array("d")
    for j, t_j in enumerate(nodes):
        total = 0.0
        for g, weight in rule:
            product = 1.0
            for k, t_k in enumerate(nodes):
                if k != j:
                    product *= (g - t_k) / (t_j - t_k)
            total += weight * product
        weights.append(dx * total)
    return weights
