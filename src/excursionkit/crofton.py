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


def circle_shape(radius: float, center=(0.0, 0.0)):
    """Intersection-count oracle for a circle boundary in 2D."""
    c = np.asarray(center, dtype=float)

    def count(s, v):
        w = c - v
        along = np.sum(w * s, axis=1)
        dist_sq = np.sum(w * w, axis=1) - along * along
        return np.where(dist_sq < radius * radius, 2, 0)

    return count


def square_shape(side: float, center=(0.0, 0.0)):
    """Intersection-count oracle for the boundary of an axis-aligned square."""
    c = np.asarray(center, dtype=float)
    h = 0.5 * side
    corners = c + h * np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
    edges = [(corners[k], corners[(k + 1) % 4]) for k in range(4)]

    def count(s, v):
        total = np.zeros(s.shape[0], dtype=np.int64)
        for p, q in edges:
            e = q - p
            w = p - v
            denom = e[0] * s[:, 1] - e[1] * s[:, 0]
            ok = np.abs(denom) > 1e-15
            r = np.where(
                ok,
                (s[:, 0] * w[:, 1] - s[:, 1] * w[:, 0]) / np.where(ok, denom, 1.0),
                -1.0,
            )
            # half-open [0, 1) so that a corner hit is counted once
            total += ((r >= 0.0) & (r < 1.0) & ok).astype(np.int64)
        return total

    return count


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


# segment endpoints per marching-squares case, as pairs of edge names;
# saddle cases 5 and 10 are resolved by the cell-center average at runtime
_CASE_SEGMENTS = {
    1: [("L", "B")],
    2: [("B", "R")],
    3: [("L", "R")],
    4: [("R", "T")],
    6: [("B", "T")],
    7: [("L", "T")],
    8: [("T", "L")],
    9: [("B", "T")],
    11: [("R", "T")],
    12: [("L", "R")],
    13: [("B", "R")],
    14: [("L", "B")],
}


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

    seg_parts = []
    for case_id, pairs in _CASE_SEGMENTS.items():
        mask = case == case_id
        if not np.any(mask):
            continue
        for e1, e2 in pairs:
            seg_parts.append(np.stack([edge_points[e1][mask], edge_points[e2][mask]], axis=1))

    saddle_cells = 0
    for case_id in (5, 10):
        mask = case == case_id
        if not np.any(mask):
            continue
        saddle_cells += int(np.count_nonzero(mask))
        center_in = (fa + fb + fc + fd) * 0.25 >= u
        if case_id == 5:
            first, second = [("B", "R"), ("T", "L")], [("L", "B"), ("R", "T")]
        else:
            first, second = [("L", "B"), ("R", "T")], [("B", "R"), ("T", "L")]
        for sub, pairs in ((mask & center_in, first), (mask & ~center_in, second)):
            if not np.any(sub):
                continue
            for e1, e2 in pairs:
                seg_parts.append(np.stack([edge_points[e1][sub], edge_points[e2][sub]], axis=1))

    if not seg_parts:
        return LevelPolyline(
            segments=np.empty((0, 2, 2)), normals=np.empty((0, 2)), saddle_cells=saddle_cells
        )
    segments = np.concatenate(seg_parts, axis=0)

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
    if polyline.segments.shape[0] == 0:
        return 0.0
    l1 = np.abs(polyline.normals).sum(axis=1)
    return float(np.sum(polyline.lengths * l1))
