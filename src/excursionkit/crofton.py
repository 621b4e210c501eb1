"""Integral-geometry oracles: Crofton line sampling, the sphere L1 constant,
and 2D level-curve extraction with L1-weighted length.

These provide reference values that do not go through the lattice estimators:
random-line measures of analytic shapes, the deterministic quadrature of the
average L1 norm over the unit sphere (which equals 2d/beta_d), and the
marching-squares level polyline whose L1-weighted length is the limit object
of the lattice surface estimator in 2D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampling import _rng
from .tessellation import GridSpec

_CHUNK = 200_000       # lines evaluated per vectorized batch
_GAUSS_NODES = 96      # Gauss-Legendre nodes; overkill for these analytic integrands


@dataclass(frozen=True)
class CroftonEstimate:
    value: float
    stderr: float
    n_lines: int


def _sample_lines(rng: np.random.Generator, d: int, n: int, radius: float):
    """Directions uniform on the sphere; offsets uniform in the orthogonal
    (d-1)-disk of the given radius."""
    s = rng.standard_normal((n, d))
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    # gaussian projected onto the orthogonal complement gives a uniform
    # direction there; an independent radius makes the offset ball-uniform
    z = rng.standard_normal((n, d))
    z -= np.sum(z * s, axis=1, keepdims=True) * s
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    r = radius * rng.random(n) ** (1.0 / (d - 1))
    return s, z * r[:, None]


def crofton_measure_mc(shape, d: int, n_lines: int, bounding_radius: float, seed: int) -> CroftonEstimate:
    """Monte Carlo Crofton measure of a shape from random line intersections.

    Parameters
    ----------
    shape : callable
        Vectorized intersection-count oracle: (directions (n, d), offsets
        (n, d)) -> integer counts (n,).  The shape must fit in the ball of
        ``bounding_radius``.
    d : int
        Ambient dimension, at least 2.
    n_lines : int
        Number of sampled lines.
    bounding_radius : float
        Offset-disk radius; lines farther from the origin never hit the shape.
    seed : int

    Returns
    -------
    CroftonEstimate
        The (d-1)-measure estimate with its Monte Carlo standard error.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if n_lines < 1:
        raise ValueError(f"need at least one line, got {n_lines}")
    if bounding_radius <= 0:
        raise ValueError(f"bounding radius must be positive, got {bounding_radius}")
    rng = _rng(seed)
    counts = np.empty(n_lines)
    done = 0
    while done < n_lines:
        m = min(_CHUNK, n_lines - done)
        s, v = _sample_lines(rng, d, m, bounding_radius)
        counts[done:done + m] = shape(s, v)
        done += m
    # the direction average cancels the sphere area; the offset-disk volume
    # times the dimensional constant sqrt(pi)*Gamma((d+1)/2)/Gamma(d/2)
    # collapses to pi^(d/2) * R^(d-1) / Gamma(d/2)
    factor = np.pi ** (d / 2.0) * bounding_radius ** (d - 1) / math.gamma(d / 2.0)
    mean = float(counts.mean())
    sd = float(counts.std(ddof=1)) if n_lines > 1 else 0.0
    return CroftonEstimate(
        value=factor * mean,
        stderr=factor * sd / np.sqrt(n_lines),
        n_lines=n_lines,
    )


def _convex_boundary(center, half_width):
    """Intersection-count oracle for the boundary of a convex shape.

    A line through v with unit direction s crosses the boundary twice when
    its distance |w x s| to the center (w = center - v) is below
    ``half_width(s)``, the shape's half-width across the line, and misses
    it otherwise; tangent lines, a null set, count as misses.
    """
    c = np.asarray(center, dtype=float)

    def count(s, v):
        w = c - v
        dist = np.abs(w[:, 0] * s[:, 1] - w[:, 1] * s[:, 0])
        return np.where(dist < half_width(s), 2, 0)

    return count


def circle_shape(radius: float, center=(0.0, 0.0)):
    """Intersection-count oracle for a circle boundary in 2D."""
    return _convex_boundary(center, lambda s: radius)


def square_shape(side: float, center=(0.0, 0.0)):
    """Intersection-count oracle for the boundary of an axis-aligned square:
    its half-width across direction s is (side / 2)(|s_x| + |s_y|)."""
    return _convex_boundary(center, lambda s: 0.5 * side * (np.abs(s[:, 0]) + np.abs(s[:, 1])))


def _gauss_quarter_period():
    x, w = np.polynomial.legendre.leggauss(_GAUSS_NODES)
    return 0.25 * np.pi * (x + 1.0), 0.25 * np.pi * w


def sphere_l1_average(d: int) -> float:
    """Uniform average of ||r||_1 over the unit sphere in R^d.

    Computed by deterministic quadrature without evaluating gamma functions,
    so it serves as an independent check of the identity
    average * beta_d == 2d.

    d = 1 is the two-point sphere {-1, +1}.  Every d >= 2 uses the coordinate
    reduction E||r||_1 = d * E|r_1|, with the single-coordinate marginal in
    angular form: E|r_1| is the ratio of the integrals of
    cos(phi) sin(phi)^(d-2) and sin(phi)^(d-2) over [0, pi/2].
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if d == 1:
        return 1.0
    phi, w = _gauss_quarter_period()
    sin_pow = np.sin(phi) ** (d - 2)
    numer = float(np.sum(w * np.cos(phi) * sin_pow))
    denom = float(np.sum(w * sin_pow))
    return d * numer / denom


# ---------------------------------------------------------------------------
# 2D level-curve extraction
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class LevelPolyline:
    """Level-curve segments with outward (increasing-field) unit normals."""

    segments: np.ndarray        # (n, 2, 2) endpoint pairs
    normals: np.ndarray         # (n, 2) unit normals at segment midpoints
    saddle_cells: int = 0       # cells where both diagonals crossed the level

    @property
    def lengths(self) -> np.ndarray:
        return np.linalg.norm(self.segments[:, 1] - self.segments[:, 0], axis=1)

    def total_length(self) -> float:
        return float(np.sum(self.lengths))


# marching-squares segments, in output order: (case, whether the cell-center
# average is at or above the level or None where that does not matter, the
# two edges the segment joins); it splits the saddle cases 5 and 10
_MARCHING_SQUARES = (
    (1, None, "LB"), (2, None, "BR"), (3, None, "LR"), (4, None, "RT"),
    (6, None, "BT"), (7, None, "LT"), (8, None, "TL"), (9, None, "BT"),
    (11, None, "RT"), (12, None, "LR"), (13, None, "BR"), (14, None, "LB"),
    (5, True, "BR"), (5, True, "TL"), (5, False, "LB"), (5, False, "RT"),
    (10, True, "LB"), (10, True, "RT"), (10, False, "BR"), (10, False, "TL"),
)


def extract_level_polyline_2d(values: np.ndarray, grid: GridSpec, u: float) -> LevelPolyline:
    """Marching-squares level curve of a gridded 2D field at level u.

    ``values`` holds the field at the grid nodes, in the row-major order of
    ``grid.nodes()``.

    Crossing points are linearly interpolated along cell edges; each segment
    carries a unit normal from the central-difference gradient, bilinearly
    interpolated at the segment midpoint and oriented toward increasing field
    values.  Ambiguous saddle cells are split according to the sign of the
    cell-center average and counted in ``saddle_cells``.
    """
    if grid.d != 2:
        raise ValueError("level-curve extraction is 2D only")
    vals = np.asarray(values).reshape(grid.shape)
    coords = grid.axis_coords
    delta = grid.spacing

    fa = vals[:-1, :-1]
    fb = vals[1:, :-1]
    fc = vals[1:, 1:]
    fd = vals[:-1, 1:]
    flags = vals >= u
    case = (
        flags[:-1, :-1] * 1
        + flags[1:, :-1] * 2
        + flags[1:, 1:] * 4
        + flags[:-1, 1:] * 8
    ).astype(np.int8)

    x0 = coords[:-1][:, None]
    x1 = coords[1:][:, None]
    y0 = coords[:-1][None, :]
    y1 = coords[1:][None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        edge_points = {
            "B": np.stack(np.broadcast_arrays(x0 + delta * (u - fa) / (fb - fa), y0 + 0.0 * fa), axis=-1),
            "T": np.stack(np.broadcast_arrays(x0 + delta * (u - fd) / (fc - fd), y1 + 0.0 * fa), axis=-1),
            "L": np.stack(np.broadcast_arrays(x0 + 0.0 * fa, y0 + delta * (u - fa) / (fd - fa)), axis=-1),
            "R": np.stack(np.broadcast_arrays(x1 + 0.0 * fa, y0 + delta * (u - fb) / (fc - fb)), axis=-1),
        }

    center_in = (fa + fb + fc + fd) * 0.25 >= u
    seg_parts = []
    for case_id, center, (e1, e2) in _MARCHING_SQUARES:
        mask = case == case_id
        if center is not None:
            mask &= center_in == center
        seg_parts.append(np.stack([edge_points[e1][mask], edge_points[e2][mask]], axis=1))
    segments = np.concatenate(seg_parts, axis=0)
    saddle_cells = int(np.count_nonzero((case == 5) | (case == 10)))

    gx, gy = np.gradient(vals, delta)
    mid = 0.5 * (segments[:, 0] + segments[:, 1])
    normals = np.stack(
        [_bilinear(gx, coords, delta, mid), _bilinear(gy, coords, delta, mid)], axis=1
    )
    norms = np.linalg.norm(normals, axis=1)
    normals /= np.maximum(norms, 1e-300)[:, None]
    return LevelPolyline(segments=segments, normals=normals, saddle_cells=saddle_cells)


def _bilinear(field: np.ndarray, coords: np.ndarray, delta: float, pts: np.ndarray) -> np.ndarray:
    n = coords.size
    fi = np.clip((pts[:, 0] - coords[0]) / delta, 0.0, n - 1.000001)
    fj = np.clip((pts[:, 1] - coords[0]) / delta, 0.0, n - 1.000001)
    i0 = np.floor(fi).astype(np.int64)
    j0 = np.floor(fj).astype(np.int64)
    tx = fi - i0
    ty = fj - j0
    return (
        field[i0, j0] * (1 - tx) * (1 - ty)
        + field[i0 + 1, j0] * tx * (1 - ty)
        + field[i0, j0 + 1] * (1 - tx) * ty
        + field[i0 + 1, j0 + 1] * tx * ty
    )


def l1_weighted_length(polyline: LevelPolyline) -> float:
    """Sum over segments of length * ||normal||_1.

    Dividing by the window volume gives the L1-weighted level-length density
    that the lattice surface estimator approaches as the spacing shrinks.
    """
    l1 = np.abs(polyline.normals).sum(axis=1)
    return float(np.sum(polyline.lengths * l1))
