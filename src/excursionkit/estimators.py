"""Volume and surface-density estimators over windowed honeycombs.

``surface_estimate`` is the paper's estimator, the one for every family: it
sums the measure of the facets whose two cells lie on opposite sides of the
level and divides by sigma_d(T).  It reads the honeycomb's one window view,
with flags on every cell of a facet with a reference point in T, each facet
counted unclipped at half its measure per such point (Campbell's theorem
gives it the mean of the window-clipped sum on a stationary tessellation),
so no edge band of partly covered cells is lost.  On a lattice, whose
reference points all lie in T, the view is every facet, and the value is
(2d/beta_d) times the true surface density in the small-cell limit;
``corrected_surface`` inverts that universal factor.  Each estimator is a
function of the windowed honeycomb and one boolean exceedance flag per cell
of its view, ``exceedance_indicator``.
On the lattice both estimates take only two counts of a field, its exceeding
nodes and its neighbour pairs whose flags differ (``_counted_volume``,
``_counted_surface``); a lattice grid draw counts its own fields, and
``hypercubic_surface_fast`` counts a field given whole as a single slab.
"""

from __future__ import annotations

import numpy as np

from .densities import CovarianceModel, _check_level, beta_d
from .sampling import DRAW_OVERHEAD, _lattice_counts, _rng
from .tessellation import GridSpec, WindowedHoneycomb


def exceedance_indicator(values: np.ndarray, u: float) -> np.ndarray:
    """Per-cell flags 1{X(ref point) >= u}; exact ties count as exceedances."""
    _check_level(u)
    return np.asarray(values) >= u


def _check_flags(flags: np.ndarray, n_cells: int, cells: str) -> None:
    if flags.shape[0] != n_cells:
        raise ValueError(f"indicator has {flags.shape[0]} flags for {n_cells} {cells}")


def volume_estimate(wh: WindowedHoneycomb, flags: np.ndarray) -> float:
    """Volume fraction: sum of the volumes of the cells with exceeding
    reference points, normalized by the window volume.

    ``flags`` holds one flag per cell of ``wh.weighted_index``, which on the
    lattice is every cell.  Only the lattice honeycomb carries cell volumes;
    on a honeycomb that tiles T the estimate is unbiased by
    sum |C n T| = |T|, so a point-family volume run would show nothing the
    lattice run does not.

    Raises:
        ValueError: the honeycomb has no cell volumes, or the flags do not
            match the cells of its view.
    """
    volumes = wh.cell_volumes
    if volumes is None:
        raise ValueError("volume_estimate needs cell volumes, which only the lattice honeycomb has")
    _check_flags(flags, wh.weighted_index.size, "cells on a weighted facet")
    return float(np.sum(volumes[wh.weighted_index][flags]) / wh.window.volume)


def surface_estimate(wh: WindowedHoneycomb, flags: np.ndarray) -> float:
    """Generator-weighted measure of the crossed facets per unit window volume.

    ``flags`` holds one flag per cell of ``wh.weighted_index``, and each
    facet counts with its measure in ``wh.weighted_facets``: half its own
    per reference point in the window.  A facet contributes when its two
    cells sit on opposite sides of the level; exactly one of the two
    orderings satisfies the crossing indicator, so the unordered pass equals
    the ordered double sum.
    """
    _check_flags(flags, wh.weighted_index.size, "cells on a weighted facet")
    f = wh.weighted_facets
    crossing = flags[f.a] != flags[f.b]
    return float(np.sum(f.measure[crossing]) / wh.window.volume)


def corrected_surface(raw: float, d: int) -> float:
    """Undo the universal lattice bias: raw * beta_d / (2d)."""
    if raw < 0:
        raise ValueError(f"raw surface density must be nonnegative, got {raw}")
    return raw * beta_d(d) / (2.0 * d)


def hypercubic_surface_fast(values: np.ndarray, grid: GridSpec, u: float) -> float:
    """Lattice surface estimator from directed indicator differences.

    Computes (delta^(d-1) / sigma_d(T)) * sum over axes and in-grid node pairs
    of |1{X(t) >= u} - 1{X(t + delta e_j) >= u}|.  Equals ``surface_estimate``
    on the materialized lattice honeycomb exactly.  Boolean ``values`` at
    ``u = True`` are the flags themselves.
    """
    values = np.asarray(values)
    if values.size != grid.n_nodes:
        raise ValueError(f"expected {grid.n_nodes} grid values, got {values.size}")
    _check_level(u)
    return _counted_surface(_lattice_counts([values.reshape(grid.shape)], u)[1], grid)


def _counted_volume(count: int, grid: GridSpec) -> float:
    """Volume estimate of ``count`` exceeding nodes: their cells over |T|."""
    return _lattice_sum(count, grid.spacing**grid.d, grid)


def _counted_surface(count: int, grid: GridSpec) -> float:
    """Surface estimate of ``count`` differing neighbour pairs: their facets over |T|."""
    return _lattice_sum(count, grid.spacing ** (grid.d - 1), grid)


def _lattice_sum(count: int, measure: float, grid: GridSpec) -> float:
    """``count`` equal cell or facet measures summed, over |T|.

    Summed as a multiset, not as count * measure, so that the reduction is
    bit-identical to the cell- and facet-table routes of ``volume_estimate``
    and ``surface_estimate``; count * measure can differ in the last bit.
    The multiset is a view of one value with stride 0, so no array of
    ``count`` values is allocated; numpy sums it in the same order, with the
    same bits.  The view is made by the ndarray constructor, which costs a
    few microseconds less per estimate than ``np.broadcast_to``.
    """
    measures = np.ndarray((count,), buffer=np.array([measure], dtype=float), strides=(0,))
    return float(np.add.reduce(measures) / grid.window_volume)


def crossing_frequency(
    model: CovarianceModel, u: float, distance: float, n_pairs: int, seed: int
) -> float:
    """Monte Carlo frequency of {X(0) <= u < X(t)} at ||t|| = distance.

    Draws i.i.d. bivariate pairs with the exact model correlation at that lag.
    """
    if n_pairs < 1:
        raise ValueError(f"need at least one pair, got {n_pairs}")
    for name, value in (("level", u), ("distance", distance)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    rho = float(model.covariance(distance * distance))
    z = _rng(seed).standard_normal((2, n_pairs))
    # the second value is formed in place: the sum has the bits of
    # rho z0 + sqrt(1 - rho^2) z1, as addition commutes
    z[1] *= np.sqrt(max(1.0 - rho * rho, 0.0))
    z[1] += rho * z[0]
    return float(np.count_nonzero((z[0] <= u) & (z[1] > u)) / n_pairs)


def _crossing_memory(n_pairs: int) -> int:
    """Bytes ``crossing_frequency`` holds for ``n_pairs`` pairs: their
    (2, n_pairs) normals and the product rho z0 added into the second
    values, each value of 8 B, plus DRAW_OVERHEAD.  The 3 B of flags per
    pair that follow are allocated once that product is freed."""
    return DRAW_OVERHEAD + 8 * 3 * n_pairs
