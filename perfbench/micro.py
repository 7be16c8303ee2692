"""Layer micro-timings: each calls one public function directly.

Inputs come from the run's seed.  Times are the median over batches of
the per-call time within a batch.  The weight accuracy is measured against
weights computed in exact rational arithmetic on the same float nodes.
"""
from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import numpy as np

from abmgrid import eos, integrator, quadrature, tov

PAIR_SIZES = range(2, 12)     # predictor stencil sizes N; corrector has N+1
STENCILS = 20                 # per size
BATCHES = 5
EXACT_STENCILS = 8            # per size, for the exact-weight comparison

MICRO_UNITS = {f"quadrature.pair_us.N{n}": "us" for n in PAIR_SIZES}
MICRO_UNITS.update({
    "quadrature.max_rel_err": "ratio",
    "eos.invert_us": "us",
    "eos.invert_rel_err": "ratio",
    "tov.rhs_us": "us",
    "integrator.step_us.N4": "us",
    "integrator.step_us.N10": "us",
})


def _per_call_us(fn, items, batches: int = BATCHES) -> float:
    """Median over batches of the mean time of ``fn(item)``, in us."""
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for item in items:
            fn(item)
        times.append((time.perf_counter() - start) / len(items))
    return 1e6 * statistics.median(times)


def irregular_stencil(rng, n: int):
    """History offsets ending at 0 and a step dx.

    dx is log-uniform over [1e-3, 1e4], covering the quartic problem's
    and the star's step sizes; each history gap is dx times a factor
    log-uniform over [1/3, 3], the controller's growth cap.
    """
    dx = 10.0 ** rng.uniform(-3.0, 4.0)
    gaps = dx * 3.0 ** rng.uniform(-1.0, 1.0, size=n - 1)
    offsets = -np.concatenate((np.cumsum(gaps[::-1])[::-1], [0.0]))
    return offsets, dx


def exact_weights(offsets, dx) -> list:
    """Integral over [0, dx] of each Lagrange basis polynomial, exactly."""
    nodes = [Fraction(float(t)) for t in offsets]
    h = Fraction(float(dx))
    weights = []
    for j, t_j in enumerate(nodes):
        coeffs = [Fraction(1)]            # ascending powers of t
        denom = Fraction(1)
        for k, t_k in enumerate(nodes):
            if k == j:
                continue
            shifted = [Fraction(0)] + coeffs
            for i, c in enumerate(coeffs):
                shifted[i] -= t_k * c
            coeffs = shifted
            denom *= t_j - t_k
        integral = sum(c * h ** (i + 1) / (i + 1) for i, c in enumerate(coeffs))
        weights.append(integral / denom)
    return weights


def _max_rel_err(weights, exact) -> float:
    """Normwise error: max |w - w*| over max |w*|."""
    scale = max(abs(w) for w in exact)
    return float(max(abs(Fraction(float(w)) - e) for w, e in zip(weights, exact))
                 / scale)


def quadrature_metrics(rng) -> dict:
    metrics, worst = {}, 0.0
    for n in PAIR_SIZES:
        stencils = [irregular_stencil(rng, n) for _ in range(STENCILS)]
        pairs = [(offsets, np.append(offsets, dx), dx)
                 for offsets, dx in stencils]

        def pair(item):
            predictor, corrector, dx = item
            quadrature.quadrature_weights(predictor, dx)
            quadrature.quadrature_weights(corrector, dx)

        metrics[f"quadrature.pair_us.N{n}"] = _per_call_us(pair, pairs)
        for predictor, corrector, dx in pairs[:EXACT_STENCILS]:
            for offsets in (predictor, corrector):
                worst = max(worst, _max_rel_err(
                    quadrature.quadrature_weights(offsets, dx),
                    exact_weights(offsets, dx)))
    metrics["quadrature.max_rel_err"] = worst
    return metrics


def eos_metrics(rng) -> dict:
    pressures = [float(p) for p in 10.0 ** rng.uniform(30.0, 38.0, size=400)]
    invert = eos.invert_pressure_to_x
    worst = max(abs(eos.pressure_from_x(invert(p)) - p) / p for p in pressures)
    return {"eos.invert_us": _per_call_us(invert, pressures),
            "eos.invert_rel_err": worst}


def tov_metrics(rng) -> dict:
    """Interior points: r up to 10 km, P over the stellar range, and m
    kept below 0.3 of the horizon mass c^2 r / 2G."""
    c2_over_2g = eos.CONSTANTS.c ** 2 / (2.0 * eos.CONSTANTS.G)
    points = []
    for _ in range(400):
        r = float(rng.uniform(1e3, 1e6))
        points.append((r, float(rng.uniform(0.0, 0.3)) * c2_over_2g * r,
                       float(10.0 ** rng.uniform(30.0, math.log10(4e35)))))
    return {"tov.rhs_us": _per_call_us(
        lambda point: tov.tov_derivatives(*point), points)}


def integrator_metrics(rng, steps: int = 300) -> dict:
    """Per-step time of fixed-grid PECE steps on y' = -y."""
    metrics = {}
    dx = float(rng.uniform(0.5, 1.0)) / steps
    for order in (4, 10):
        config = integrator.IntegratorConfig(
            order_ab=order, dx_initial=dx, mode=integrator.Mode.ABM_FIXED)

        def run(_):
            integrator.integrate(lambda x, y: -y, [1.0], 0.0, config,
                                 x_end=steps * dx)

        metrics[f"integrator.step_us.N{order}"] = _per_call_us(
            run, [None], batches=3) / steps
    return metrics


def measure(rng) -> tuple:
    """(metrics, missing public names) of every micro-timing."""
    metrics, missing = {}, []
    for group, needs in ((quadrature_metrics, "quadrature.quadrature_weights"),
                         (eos_metrics, "eos.invert_pressure_to_x"),
                         (tov_metrics, "tov.tov_derivatives"),
                         (integrator_metrics, "integrator.integrate")):
        try:
            metrics.update(group(rng))
        except AttributeError as exc:
            missing.append(f"{needs}: {exc}")
    for name in MICRO_UNITS:
        metrics.setdefault(name, 0.0)
    return metrics, missing
