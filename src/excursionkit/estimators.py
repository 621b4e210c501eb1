"""Volume and surface-density estimators over windowed honeycombs.

``surface_estimate`` is the paper's estimator: it counts level crossings
across interior facets (both cells wholly inside the window T) and divides by
sigma_d(T).  On a lattice, whose cells tile T, its value is (2d/beta_d) times
the true surface density in the small-cell limit, and ``corrected_surface``
inverts that universal factor.  On a honeycomb whose cells do not tile T it
misses the facets near the window edge, so it estimates the facet density of
the inside-cell union, not of T.  ``clipped_surface_estimate`` is the
plus-sampling edge correction for that case: flags on every cell meeting T,
facet lengths clipped to T.  ``crossing_rate_surface`` is the one-pair
shortcut: the crossing probability over a single lag q, rescaled by beta_d/q.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .densities import CovarianceModel, beta_d
from .sampling import FieldSample, GridSpec, _rng
from .tessellation import FacetSet, WindowedHoneycomb

REPORT_CSV_HEADER = "d,delta,u,volume,surface_raw,surface_corrected,coverage"


@dataclass(eq=False)
class ExcursionIndicator:
    """Per-cell exceedance flags 1{X(ref point) >= u}; ties count as exceedance."""

    flags: np.ndarray
    u: float
    source_tag: str = ""


def exceedance_indicator(sample: FieldSample, u: float) -> ExcursionIndicator:
    """Threshold a field sample at level u (>=, so exact ties are exceedances)."""
    return ExcursionIndicator(flags=sample.values >= u, u=u, source_tag=sample.model_tag)


def _check_alignment(wh: WindowedHoneycomb, ind: ExcursionIndicator) -> None:
    if ind.flags.shape[0] != wh.n_inside:
        raise ValueError(
            f"indicator has {ind.flags.shape[0]} flags for {wh.n_inside} inside cells"
        )


def volume_estimate(wh: WindowedHoneycomb, ind: ExcursionIndicator) -> float:
    """Volume fraction: sum of inside-cell volumes with exceeding reference points,
    normalized by the window volume (not by the covered volume)."""
    _check_alignment(wh, ind)
    return float(np.sum(wh.cell_volumes_inside[ind.flags]) / wh.window.volume)


def surface_estimate(wh: WindowedHoneycomb, ind: ExcursionIndicator) -> float:
    """Crossing-weighted interior facet measure per unit window volume.

    A facet contributes when its two cells sit on opposite sides of the level;
    exactly one of the two orderings satisfies the crossing indicator, so the
    unordered pass of ``_crossing_density`` equals the ordered double sum.
    """
    _check_alignment(wh, ind)
    return _crossing_density(wh.interior_facets, ind.flags, wh.window.volume)


def clipped_surface_estimate(wh: WindowedHoneycomb, ind: ExcursionIndicator) -> float:
    """Crossing-weighted facet measure inside the window, per unit window volume.

    Plus-sampling edge correction of ``surface_estimate``: the flags are
    aligned with ``wh.meeting_index`` (every cell with positive area in the
    window), and each facet between two such cells counts with its length
    clipped to the window.  Equals ``surface_estimate`` bit for bit when every
    cell meeting the window lies inside it.
    """
    n_meeting = wh.meeting_index.size
    if ind.flags.shape[0] != n_meeting:
        raise ValueError(
            f"indicator has {ind.flags.shape[0]} flags for {n_meeting} cells meeting the window"
        )
    return _crossing_density(wh.clipped_facets(), ind.flags, wh.window.volume)


def _crossing_density(f: FacetSet, flags: np.ndarray, window_volume: float) -> float:
    """Summed measure of the facets whose two cells disagree, over |T|."""
    if len(f) == 0:
        return 0.0
    crossing = flags[f.a] != flags[f.b]
    return float(np.sum(f.measure[crossing]) / window_volume)


def corrected_surface(raw: float, d: int) -> float:
    """Undo the universal lattice bias: raw * beta_d / (2d)."""
    if raw < 0:
        raise ValueError(f"raw surface density must be nonnegative, got {raw}")
    return raw * beta_d(d) / (2.0 * d)


def hypercubic_surface_fast(values: np.ndarray, grid: GridSpec, u: float) -> float:
    """Lattice surface estimator from directed indicator differences.

    Computes (delta^(d-1) / sigma_d(T)) * sum over axes and in-grid node pairs
    of |1{X(t) >= u} - 1{X(t + delta e_j) >= u}|.  Equals ``surface_estimate``
    on the materialized lattice honeycomb exactly.
    """
    vals = np.asarray(values)
    if vals.size != grid.n_nodes:
        raise ValueError(f"expected {grid.n_nodes} grid values, got {vals.size}")
    flags = vals.reshape(grid.shape) >= u
    crossings = 0
    for axis in range(grid.d):
        lo = [slice(None)] * grid.d
        hi = [slice(None)] * grid.d
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        crossings += int(np.count_nonzero(flags[tuple(lo)] != flags[tuple(hi)]))
    # summed as a multiset of equal facet measures so the reduction is
    # bit-identical to the facet-table route of surface_estimate
    total = float(np.sum(np.full(crossings, grid.spacing ** (grid.d - 1))))
    return total / grid.window_volume


def first_order_surface_from_crossing(p_hat: float, q: float, d: int) -> float:
    """First-order surface density beta_d * p_hat / q from a crossing frequency."""
    if q <= 0:
        raise ValueError(f"lag must be positive, got {q}")
    return beta_d(d) * p_hat / q


@dataclass(frozen=True)
class CrossingRateResult:
    p_hat: float
    surface_first_order: float
    q: float
    n_pairs: int


def crossing_frequency(
    model: CovarianceModel, u: float, distance: float, n_pairs: int, seed: int
) -> float:
    """Monte Carlo frequency of {X(0) <= u < X(t)} at ||t|| = distance.

    Draws i.i.d. bivariate pairs with the exact model correlation at that lag.
    """
    if n_pairs < 1:
        raise ValueError(f"need at least one pair, got {n_pairs}")
    rho = float(model.covariance(distance * distance))
    rng = _rng(seed)
    z = rng.standard_normal((2, n_pairs))
    x0 = z[0]
    x1 = rho * z[0] + np.sqrt(max(1.0 - rho * rho, 0.0)) * z[1]
    return float(np.count_nonzero((x0 <= u) & (x1 > u)) / n_pairs)


def crossing_rate_surface(
    model: CovarianceModel, u: float, q: float, d: int, n_pairs: int, seed: int
) -> CrossingRateResult:
    """Crossing-probability estimate of the surface density over lag q.

    The rescaled rate beta_d * p_hat / q approaches the surface density from
    below as q -> 0; at fixed q it underestimates by O(q).
    """
    if q <= 0:
        raise ValueError(f"lag must be positive, got {q}")
    p_hat = crossing_frequency(model, u, q, n_pairs, seed)
    return CrossingRateResult(
        p_hat=p_hat,
        surface_first_order=first_order_surface_from_crossing(p_hat, q, d),
        q=q,
        n_pairs=n_pairs,
    )


@dataclass(frozen=True)
class EstimateReport:
    """One set of excursion-geometry estimates with normalization metadata.

    ``surface_corrected`` is always surface_raw * beta_d/(2d); ``coverage`` is
    the inside-cell volume fraction of the window, reported so the
    deterministic volume bias of partial coverage can be undone downstream.
    """

    d: int
    delta: float
    u: float
    volume: float
    surface_raw: float
    surface_corrected: float
    coverage: float
    window_volume: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def csv_row(self) -> str:
        fields = (
            str(self.d),
            format(self.delta, ".17g"),
            format(self.u, ".17g"),
            format(self.volume, ".17g"),
            format(self.surface_raw, ".17g"),
            format(self.surface_corrected, ".17g"),
            format(self.coverage, ".17g"),
        )
        return ",".join(fields)


def make_report(
    wh: WindowedHoneycomb, ind: ExcursionIndicator, delta: float | None = None
) -> EstimateReport:
    """Evaluate both estimators on a honeycomb and package the results."""
    raw = surface_estimate(wh, ind)
    return EstimateReport(
        d=wh.d,
        delta=wh.diameter_bound if delta is None else delta,
        u=ind.u,
        volume=volume_estimate(wh, ind),
        surface_raw=raw,
        surface_corrected=corrected_surface(raw, wh.d),
        coverage=wh.coverage_ratio,
        window_volume=wh.window.volume,
    )
