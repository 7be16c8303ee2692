"""Quadrature-weight construction against exact-rational references.

The frozen expected values come from tests/oracles/gen_weight_oracle.py,
which integrates the Lagrange basis polynomials with exact Fraction
arithmetic, independently of the package implementation; the
stretched-grid test calls that oracle directly on random stencils.
"""
import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from abmgrid import quadrature_weights


def _load_weight_oracle():
    path = Path(__file__).parent / "oracles" / "gen_weight_oracle.py"
    spec = importlib.util.spec_from_file_location("gen_weight_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


exact_weights = _load_weight_oracle().exact_weights

# classical equispaced explicit rules (offsets end at 0, integrate 0..h)
AB_CASES = [
    ([0.0], 1.0, [1.0]),
    ([-1.0, 0.0], 1.0, [-1.0 / 2.0, 3.0 / 2.0]),
    ([-2.0, -1.0, 0.0], 1.0, [5.0 / 12.0, -4.0 / 3.0, 23.0 / 12.0]),
    ([-3.0, -2.0, -1.0, 0.0], 1.0,
     [-3.0 / 8.0, 37.0 / 24.0, -59.0 / 24.0, 55.0 / 24.0]),
]

# classical equispaced implicit rules (offsets end at dx)
AM_CASES = [
    ([0.0, 1.0], 1.0, [1.0 / 2.0, 1.0 / 2.0]),                # trapezoid
    ([-1.0, 0.0, 1.0], 1.0, [-1.0 / 12.0, 2.0 / 3.0, 5.0 / 12.0]),
    ([-2.0, -1.0, 0.0, 1.0], 1.0,
     [1.0 / 24.0, -5.0 / 24.0, 19.0 / 24.0, 3.0 / 8.0]),
    ([-3.0, -2.0, -1.0, 0.0, 1.0], 1.0,
     [-19.0 / 720.0, 53.0 / 360.0, -11.0 / 30.0, 323.0 / 360.0,
      251.0 / 720.0]),
]

# non-uniform spacings, exact-rational oracle values
NONUNIFORM_CASES = [
    ([-1.0, -1.0 / 3.0, 0.0], 0.5, [1.0 / 8.0, -3.0 / 4.0, 9.0 / 8.0]),
    ([-3.5, -2.0, -0.5, 0.0], 0.75,
     [-81.0 / 1792.0, 129.0 / 512.0, -321.0 / 256.0, 6441.0 / 3584.0]),
    ([-4.0, -1.0, 0.0, 0.5], 0.5,
     [5.0 / 10368.0, -17.0 / 864.0, 39.0 / 128.0, 139.0 / 648.0]),
]


@pytest.mark.parametrize("offsets,dx,expected",
                         AB_CASES + AM_CASES + NONUNIFORM_CASES)
def test_weights_match_exact_rational_oracle(offsets, dx, expected):
    weights = np.asarray(quadrature_weights(offsets, dx))
    np.testing.assert_allclose(weights, expected, rtol=1e-12)


def test_weights_scale_linearly_with_h():
    # the classical rules are quoted per unit h; offsets and dx in
    # units of h scale every weight by h
    h = 0.37
    weights = np.asarray(quadrature_weights([-3 * h, -2 * h, -h, 0.0], h))
    expected = h * np.array([-3.0 / 8.0, 37.0 / 24.0, -59.0 / 24.0,
                             55.0 / 24.0])
    np.testing.assert_allclose(weights, expected, rtol=1e-12)


def _random_history(rng, count, dx, spread):
    """Strictly increasing offsets ending at 0 with gaps near dx."""
    if count == 1:
        return np.array([0.0])
    gaps = dx * rng.uniform(1.0 / spread, spread, count - 1)
    return np.append(-np.cumsum(gaps[::-1])[::-1], 0.0)


def test_weight_sum_equals_dx_on_settled_grids():
    # a constant derivative must integrate exactly, so the weights sum
    # to dx; near-uniform histories (a settled controller) keep the
    # construction well conditioned up to twelve nodes
    rng = np.random.default_rng(20250819)
    for _ in range(500):
        count = int(rng.integers(1, 12))
        dx = float(rng.uniform(0.01, 2.0))
        offsets = _random_history(rng, count, dx, spread=1.25)
        if rng.random() < 0.5:
            offsets = np.append(offsets, dx)  # implicit stencil
        weights = np.asarray(quadrature_weights(offsets, dx))
        budget = 1e-7 * max(abs(dx), np.sum(np.abs(weights)))
        assert abs(weights.sum() - dx) <= budget


def test_weight_sum_degrades_gracefully_on_stretched_grids():
    # gap ratios out to the controller's growth cap stretch the node
    # span to ~30 dx; the product-form construction keeps every weight
    # within roundoff of the exact-rational weights of the same float
    # nodes, and so the sum at dx
    rng = np.random.default_rng(42)
    for _ in range(500):
        count = int(rng.integers(2, 12))
        dx = float(rng.uniform(0.01, 2.0))
        offsets = _random_history(rng, count, dx, spread=3.0)
        if rng.random() < 0.5:
            offsets = np.append(offsets, dx)
        weights = np.asarray(quadrature_weights(offsets, dx))
        exact = exact_weights([Fraction(float(t)) for t in offsets],
                              Fraction(dx))
        scale = float(sum(abs(w) for w in exact))
        error = max(abs(float(Fraction(float(w)) - e))
                    for w, e in zip(weights, exact))
        assert error <= 1e-13 * scale, (offsets, dx, error / scale)
        assert abs(weights.sum() - dx) <= 1e-13 * scale


def test_polynomial_exactness_up_to_node_count():
    # k nodes integrate any derivative of degree k-1 exactly: compare
    # against the analytic antiderivative on settled-controller grids
    rng = np.random.default_rng(7)
    for _ in range(300):
        count = int(rng.integers(2, 12))
        dx = float(rng.uniform(0.05, 1.5))
        offsets = _random_history(rng, count, dx, spread=1.25)
        if rng.random() < 0.5:
            offsets = np.append(offsets, dx)
        n = offsets.size
        coeffs = rng.uniform(-2.0, 2.0, n)  # degree n-1
        weights = np.asarray(quadrature_weights(offsets, dx))
        values = np.polyval(coeffs[::-1], offsets)
        approx = np.sum(weights * values)
        k = np.arange(1, n + 1)
        exact = np.sum(coeffs * dx ** k / k)
        budget = 1e-7 * max(1.0, np.sum(np.abs(weights * values)))
        assert abs(approx - exact) <= budget


def test_weights_scale_spans_stellar_magnitudes():
    # node spacings of order 1e4 (centimeter grids) must construct
    # cleanly; the sum rule is the canary for conditioning trouble
    offsets = np.array([-4.0e4, -2.5e4, -1.1e4, 0.0, 0.7e4])
    dx = 0.7e4
    weights = np.asarray(quadrature_weights(offsets, dx))
    assert abs(weights.sum() - dx) <= 1e-12 * dx


def test_duplicate_nodes_rejected():
    with pytest.raises(ValueError):
        quadrature_weights([-1.0, -1.0, 0.0], 1.0)


def test_unsorted_nodes_rejected():
    with pytest.raises(ValueError):
        quadrature_weights([0.0, -1.0], 1.0)


def test_empty_nodes_rejected():
    with pytest.raises(ValueError):
        quadrature_weights([], 1.0)


@pytest.mark.parametrize("offsets,dx,message", [
    ([math.nan, 0.0], 1.0, "finite"),
    ([-1.0, math.nan], 1.0, "finite"),
    ([-math.inf, 0.0], 1.0, "finite"),
    ([-1.0, 0.0, math.inf], 1.0, "finite"),
    ([-1.0, 0.0], math.nan, "dx must be finite"),
    ([-1.0, 0.0], math.inf, "dx must be finite"),
    ([[-1.0], [0.0]], 1.0, "non-empty 1-D"),
    (np.zeros((2, 1)), 1.0, "non-empty 1-D"),
    (1.0, 1.0, "non-empty 1-D"),
    ("01", 1.0, "non-empty 1-D"),
], ids=["nan-first", "nan-last", "-inf", "+inf", "nan-dx", "inf-dx",
        "nested-list", "2-D-array", "scalar", "string"])
def test_non_finite_and_non_flat_inputs_rejected(offsets, dx, message):
    # NaN and inf nodes or steps used to give NaN weights silently
    with pytest.raises(ValueError, match=message):
        quadrature_weights(offsets, dx)
