"""Exact conditional expectation of a bias-sweep ratio at level u = 0.

Given the cells, the facet between reference points x_a and x_b is crossed
with probability arccos(rho) / pi, where rho is the field correlation at lag
|x_a - x_b|.  The expected surface-estimate ratio is therefore

    E = sum_f |f| arccos(rho_f) / pi / (|T| C*)

over the facets the estimator counts, C* being the analytic surface density.
Lattices have a closed form; hexagonal tilings use the public builder's
interior facets; Voronoi averages over clouds drawn here, so E carries a
standard error.  Only the Gaussian model at u = 0 is covered.
"""

from __future__ import annotations

import math

import numpy as np

from excursionkit import (
    Box,
    CovarianceModel,
    gaussian_surface_density,
    hexagonal_honeycomb,
    sample_poisson_process,
)
from excursionkit.tessellation import voronoi_honeycomb_2d


def _ratio(measure, lag, window_volume: float, d: int, ell: float) -> float:
    model = CovarianceModel(ell)
    rho = np.clip(model.covariance(np.square(lag)), -1.0, 1.0)
    crossed = np.sum(np.asarray(measure) * np.arccos(rho)) / math.pi
    return float(crossed / (window_volume * gaussian_surface_density(0.0, 1.0 / ell**2, d)))


def lattice(d: int, half_width: float, delta: float, ell: float = 1.0) -> float:
    """Hypercubic lattice: d (2N-1) (2N)^(d-1) facets of measure delta^(d-1) at lag delta."""
    n = round(half_width / delta)
    facets = d * (2 * n - 1) * (2 * n) ** (d - 1)
    return _ratio(facets * delta ** (d - 1), delta, (2 * half_width) ** d, d, ell)


def _honeycomb(wh, ell: float) -> float:
    f = wh.interior_facets
    ref = wh.ref_points_inside
    lag = np.linalg.norm(ref[f.b] - ref[f.a], axis=1)
    return _ratio(f.measure, lag, wh.window.volume, wh.d, ell)


def _window(half_width: float) -> Box:
    return Box(np.full(2, -half_width), np.full(2, half_width))


def hexagonal(half_width: float, delta: float, ell: float = 1.0) -> float:
    """Hexagonal tiling of circumradius delta on [-half_width, half_width]^2."""
    return _honeycomb(hexagonal_honeycomb(delta, _window(half_width)), ell)


def voronoi(
    half_width: float, delta: float, guard: float, seed: int, clouds: int, ell: float = 1.0
) -> tuple:
    """Mean and standard error of E over unit-rate clouds scaled by delta.

    The clouds are built the way the bias-sweep campaign builds its own
    (guard margin in cell units), from the streams (seed, k), k < clouds.
    """
    unit_half = half_width / delta + guard
    unit_box = Box(np.full(2, -unit_half), np.full(2, unit_half))
    values = []
    for k in range(clouds):
        pts = delta * sample_poisson_process(1.0, unit_box, (seed, k))
        values.append(_honeycomb(voronoi_honeycomb_2d(pts, _window(half_width), guard * delta), ell))
    values = np.asarray(values)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))
