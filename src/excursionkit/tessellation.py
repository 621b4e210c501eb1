"""Point-referenced honeycombs and their views from an observation window.

A honeycomb is a tessellation of the plane (or of R^d for the cubic lattice)
by closed convex polytopes, each carrying a reference point, such that every
shared facet is orthogonal to the difference of the two reference points.
Three families are built here:

* hypercubic lattices in any dimension d >= 2 (implicit cell geometry on
  the nodes of a ``GridSpec``, the lattice the grid samplers draw on),
* regular hexagonal tilings in 2D,
* Voronoi diagrams of arbitrary 2D generator clouds (``scipy.spatial.Voronoi``).

Each builder returns one object, a ``WindowedHoneycomb``: the reference
points, the facet table, the window T and the mask of the cells inside T,
with the window views computed from them when it is made, in any d.  Cells
whose closure lies inside the observation window are the ones the paper's
estimators operate on; facets between two such cells are "interior".  The
generator-weighted view (``weighted_facets``) instead keeps every facet with
a reference point in T on either side, unclipped, at half its measure per
such point: by Campbell's theorem its crossing sum has the mean of the
window-clipped one on a stationary tessellation, and it needs only the
reference points, in any d.  Each builder finds its own inside cells: every
lattice cell is inside, since the cells tile T, and a 2D point family reads
them from the segment endpoints of its facet table (``_window_masks``); the
builders make no cell polygons.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

# geometric tolerances, in the spatial units of the tessellation
DUPLICATE_TOL = 1e-12     # generators closer than this are merged
CONTAINMENT_TOL = 1e-12   # slack for the closed-cell containment test
MIN_FACET_FRACTION = 1e-12  # facets shorter than this fraction of the window scale are dropped


@dataclass(eq=False)
class Box:
    """Axis-aligned d-box [lo_1, hi_1] x ... x [lo_d, hi_d]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("box corners must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise ValueError("box corners must be finite")
        if np.any(self.hi <= self.lo):
            raise ValueError("box must have positive side lengths")

    @property
    def d(self) -> int:
        return self.lo.size

    @property
    def side_lengths(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def expanded(self, margin: float) -> "Box":
        return Box(self.lo - margin, self.hi + margin)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the closed box."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=1)


@dataclass(frozen=True)
class GridSpec:
    """Regular lattice of (2N)^d nodes delta*i, i in [-N, N-1]^d.

    The nodes are the cell reference corners of the hypercubic honeycomb on
    T = [-delta*N, delta*N]^d (``hypercubic_honeycomb``), in row-major order.

    Parameters
    ----------
    d : int
        Dimension.
    half_extent : int
        N, nodes per half-axis.
    spacing : float
        Lattice spacing delta.
    """

    d: int
    half_extent: int
    spacing: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.half_extent < 1:
            raise ValueError(f"half extent must be >= 1, got {self.half_extent}")
        if not 0 < self.spacing < np.inf:
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")

    @property
    def shape(self) -> tuple:
        return (2 * self.half_extent,) * self.d

    @property
    def n_nodes(self) -> int:
        return (2 * self.half_extent) ** self.d

    @property
    def axis_coords(self) -> np.ndarray:
        return self.spacing * np.arange(-self.half_extent, self.half_extent, dtype=float)

    @property
    def window(self) -> Box:
        half = self.spacing * self.half_extent
        return Box(np.full(self.d, -half), np.full(self.d, half))

    @cached_property
    def window_volume(self) -> float:
        # cached: each lattice estimate divides by it (``estimators._lattice_sum``)
        return self.window.volume

    def nodes(self) -> np.ndarray:
        """All node locations as an (n_nodes, d) array in row-major order."""
        mesh = np.meshgrid(*([self.axis_coords] * self.d), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)


@dataclass(eq=False)
class FacetSet:
    """Flat table of shared facets.

    No direction is stored: a facet is orthogonal to ref[b] - ref[a].

    Args:
        a: integer cell index of the first cell of each facet.
        b: integer cell index of the second cell.
        measure: sigma_{d-1} measure of each facet (length in 2D).
        endpoints: (n, 2, 2) segment endpoints, on the full facet table of
            a 2D point family only, where its builder reads the inside cells
            from them; None on the lattice and on every window view.
    """

    a: np.ndarray
    b: np.ndarray
    measure: np.ndarray
    endpoints: np.ndarray | None = None

    def __len__(self) -> int:
        return self.a.size


@dataclass(eq=False)
class WindowedHoneycomb:
    """A tessellation of the guard region as a facet table, with its window views.

    Args:
        ref_points: (n, d) reference point of each cell; d is its width.
        facets: all positive-measure shared facets, indexed by global cell id.
        window: the observation window T.
        inside: (n,) mask of the cells entirely contained in the closed
            window, which each builder finds: every cell on the lattice,
            whose cells tile the window, and on a 2D point family the cells
            whose facet endpoints all lie in it (``_window_masks``).
        cell_volumes: (n,) sigma_d measure of each cell, for the hypercubic
            lattice only (delta^d each); None for the 2D point families,
            which keep no cell polygons.

    ``interior_facets`` keeps only facets between two inside cells, with
    cell indices remapped to positions in the inside-cell ordering (the
    ordering of the field values and exceedance flags).  The views carry
    the cells and measures the estimators read, and no endpoints: the
    segments stay on ``facets``, where the interior rows are
    ``inside[facets.a] & inside[facets.b]``.

    ``weighted_facets`` is the generator-weighted view: a facet between
    reference points x_a and x_b has weight w = (1{x_a in T} + 1{x_b in T}) / 2,
    T closed, and the facets with w > 0 are kept unclipped, with measure
    w |f| (exact: w is 0.5 or 1).  Their cells are renumbered among the
    cells on a kept facet, ``weighted_index``, in ascending global id.  On
    the lattice every reference point lies in T, so the view is the
    interior one.
    """

    ref_points: np.ndarray
    facets: FacetSet
    window: Box
    inside: np.ndarray
    cell_volumes: np.ndarray | None = None
    interior_facets: FacetSet = field(init=False)
    inside_index: np.ndarray = field(init=False)
    weighted_facets: FacetSet = field(init=False)
    weighted_index: np.ndarray = field(init=False)

    def __post_init__(self):
        f = self.facets
        self.inside_index = np.flatnonzero(self.inside)
        interior = self.inside[f.a] & self.inside[f.b]
        self.interior_facets = _restrict(f, self.inside, interior, f.measure)
        in_window = self.window.contains(self.ref_points)
        weight = 0.5 * in_window[f.a] + 0.5 * in_window[f.b]
        kept = weight > 0
        cells = _cells_with(f, self.ref_points.shape[0], kept)
        self.weighted_index = np.flatnonzero(cells)
        self.weighted_facets = _restrict(f, cells, kept, weight * f.measure)

    @property
    def parent(self) -> "WindowedHoneycomb":
        # the honeycomb itself; read only by perfbench/worker.py::_honeycomb_attrs
        # (``result.parent.ref_points`` on traced builds), which ROADMAP item 7 deletes
        return self

    @property
    def d(self) -> int:
        return self.ref_points.shape[1]

    @property
    def n_inside(self) -> int:
        return int(self.inside_index.size)

    @property
    def ref_points_inside(self) -> np.ndarray:
        return self.ref_points[self.inside_index]

    @property
    def ref_points_weighted(self) -> np.ndarray:
        return self.ref_points[self.weighted_index]


def _restrict(facets: FacetSet, cells, keep, measure) -> FacetSet:
    """Rows ``keep`` of a facet table, cell ids renumbered among the cells marked ``cells``."""
    local = np.cumsum(cells) - 1
    return FacetSet(a=local[facets.a[keep]], b=local[facets.b[keep]], measure=measure[keep])


# ---------------------------------------------------------------------------
# hypercubic lattice
# ---------------------------------------------------------------------------

def hypercubic_honeycomb(delta: float, half_extent: int, d: int) -> WindowedHoneycomb:
    """Cubic lattice of spacing delta covering T = [-delta*N, delta*N]^d.

    Cells are the cubes delta*i + [0, delta]^d for i in [-N, N-1]^d, each
    referenced by its corner delta*i: the window and the reference points
    are those of ``GridSpec(d, N, delta)``, so the cells are in its row-major
    node order.  Cell vertex lists are not materialized; facet geometry is
    generated by index arithmetic.

    Args:
        delta: positive lattice spacing.
        half_extent: N, the number of cells per half-axis.
        d: dimension, at least 2.

    Returns:
        WindowedHoneycomb with every cell inside.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    grid = GridSpec(d, half_extent, delta)
    n_side = 2 * half_extent
    ref_points = grid.nodes()

    ids = np.arange(grid.n_nodes, dtype=np.int64).reshape(grid.shape)
    a_parts, b_parts = [], []
    for axis in range(d):
        sl_lo = [slice(None)] * d
        sl_hi = [slice(None)] * d
        sl_lo[axis] = slice(0, n_side - 1)
        sl_hi[axis] = slice(1, n_side)
        a_parts.append(ids[tuple(sl_lo)].reshape(-1))
        b_parts.append(ids[tuple(sl_hi)].reshape(-1))
    a = np.concatenate(a_parts)
    b = np.concatenate(b_parts)
    # no facet endpoints: the cells tile T, so every cell is inside it
    facets = FacetSet(a=a, b=b, measure=np.full(a.size, delta ** (d - 1)))
    n = ref_points.shape[0]
    return WindowedHoneycomb(
        ref_points, facets, grid.window, np.ones(n, dtype=bool), cell_volumes=np.full(n, delta**d)
    )


# ---------------------------------------------------------------------------
# regular hexagonal tiling (2D)
# ---------------------------------------------------------------------------

def hexagonal_honeycomb(delta: float, window: Box) -> WindowedHoneycomb:
    """Regular hexagonal tiling with circumradius delta, centers as references.

    Cell side length equals delta and adjacent centers are sqrt(3)*delta
    apart, orthogonal to the shared edge, so the reference-normality property
    holds by symmetry.

    Args:
        delta: hexagon circumradius; must be smaller than the shortest window side.
        window: 2D observation window.

    Returns:
        WindowedHoneycomb covering the window (plus a margin of cells).
    """
    if window.d != 2:
        raise ValueError("hexagonal tiling is 2D only")
    if not 0 < delta < np.inf:
        raise ValueError(f"circumradius must be positive and finite, got {delta}")
    if delta >= np.min(window.side_lengths):
        raise ValueError("circumradius must be smaller than the window sides")

    root3 = np.sqrt(3.0)
    margin = 2.0 * delta
    # axial lattice: center(q, r) = q*a1 + r*a2, cells ordered by q, then r
    a1 = np.array([1.5 * delta, 0.5 * root3 * delta])
    a2 = np.array([0.0, -root3 * delta])

    q_lo = int(np.ceil((window.lo[0] - margin) / a1[0]))
    q_hi = int(np.floor((window.hi[0] + margin) / a1[0]))
    q_axis = np.arange(q_lo, q_hi + 1)
    y_of_q = q_axis * a1[1]
    r_lo = np.ceil((y_of_q - (window.hi[1] + margin)) / root3 / delta).astype(np.int64)
    r_hi = np.floor((y_of_q - (window.lo[1] - margin)) / root3 / delta).astype(np.int64)
    counts = np.maximum(r_hi - r_lo + 1, 0)
    qi = np.repeat(np.arange(q_axis.size), counts)
    ri = np.arange(qi.size) - np.repeat(np.cumsum(counts) - counts, counts) + r_lo[qi]
    q = q_axis[qi]
    centers = q[:, None] * a1 + ri[:, None] * a2

    angles = np.deg2rad(60.0 * np.arange(6))
    hex_offsets = delta * np.stack([np.cos(angles), np.sin(angles)], axis=1)

    # (q, r) -> cell id, with a border of -1 so that every neighbor step stays in range
    r_min = int(ri.min())
    ids = np.full((q_axis.size + 2, int(ri.max()) - r_min + 3), -1, dtype=np.int64)
    ids[qi + 1, ri - r_min + 1] = np.arange(qi.size)
    # neighbor at direction angle 30 + 60k shares the edge (vertex k, vertex k+1)
    steps = np.array([(1, 0), (0, -1), (-1, -1)])
    nb = ids[qi[:, None] + 1 + steps[:, 0], ri[:, None] - r_min + 1 + steps[:, 1]]
    fa, k = np.nonzero(nb >= 0)
    fb = nb[fa, k]
    endpoints = centers[fa, None] + hex_offsets[np.stack([k, k + 1], axis=1)]
    facets = FacetSet(a=fa, b=fb, measure=np.full(fa.size, delta), endpoints=endpoints)
    return WindowedHoneycomb(centers, facets, window, _window_masks(facets, centers, window, None))


# ---------------------------------------------------------------------------
# Voronoi diagram (2D)
# ---------------------------------------------------------------------------

def voronoi_honeycomb_2d(points, window: Box, guard: float) -> WindowedHoneycomb:
    """Voronoi tessellation of a 2D generator cloud, clipped to a guard box.

    The diagram is one ``scipy.spatial.Voronoi`` call on the generators plus
    four far sentinel points, which bound every generator's region.
    Generators are the reference points.  Each facet is the Voronoi
    ridge between two generators a < b, clipped to the guard box, so it is
    orthogonal to their difference by construction; rows are sorted by
    (a, b), and facets shorter than ``MIN_FACET_FRACTION`` of the longest
    guard-box side are dropped.

    A facet with a generator in the window may still be cut by the guard
    box: at the bias-sweep guard of 1.5 unit-rate cell units, 104 of
    249,687 such facets reached it over 20 clouds on [-4, 4]^2 at
    delta = 0.125, and none at a guard of 3.  What holds is
    that the diagram restricted to the window is exact: when the generators
    are a process sampled over the guard box, it equals the Voronoi diagram
    of the whole process inside the window, unless some point of the window
    has no generator within distance ``guard``.

    Args:
        points: (n, 2) generator positions, n >= 2, normally covering the
            window plus the guard margin.
        window: 2D observation window.
        guard: nonnegative guard margin; 0 clips the diagram exactly to the window.

    Returns:
        WindowedHoneycomb whose reference points are the generators, in
        input order.  Of two generators closer than ``DUPLICATE_TOL`` the
        later one is dropped, with a warning that counts the dropped ones.

    Raises:
        ValueError: fewer than 2 distinct generators, a non-finite
            coordinate, or a non-2D window.
    """
    # imported here: loading scipy.spatial (and the scipy.linalg it pulls in)
    # would cost every CLI call more than a lattice campaign, and only this
    # builder needs it
    from scipy.spatial import Voronoi, cKDTree

    if window.d != 2:
        raise ValueError("voronoi construction is 2D only")
    if guard < 0:
        raise ValueError(f"guard margin must be nonnegative, got {guard}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    if not np.all(np.isfinite(points)):
        raise ValueError("generator points must be finite")

    if points.shape[0] >= 2:
        pairs = cKDTree(points).query_pairs(DUPLICATE_TOL, output_type="ndarray")
        if pairs.size:
            drop = np.zeros(points.shape[0], dtype=bool)
            # keep the lower index of every duplicate pair
            drop[np.maximum(pairs[:, 0], pairs[:, 1])] = True
            merged = int(drop.sum())
            points = points[~drop]
            warnings.warn(f"merged {merged} duplicate generator(s)", stacklevel=2)
    n = points.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 distinct generators, got {n}")

    guard_box = window.expanded(guard)
    # Sentinels sit at the corners of a square 4 spans out from the centre of
    # (guard box U cloud).  Every generator is then inside their hull, so its
    # region is bounded, and inside that box any generator is nearer than any
    # sentinel, so no sentinel bisector reaches it.
    lo = np.minimum(guard_box.lo, points.min(axis=0))
    hi = np.maximum(guard_box.hi, points.max(axis=0))
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    vor = Voronoi(np.vstack([points, 0.5 * (lo + hi) + 4.0 * float(np.max(hi - lo)) * corners]))

    # facets: the ridges between two generators, in (a, b) order
    ridge = np.asarray(vor.ridge_points, dtype=np.int64)
    real = np.all(ridge < n, axis=1)
    ab = np.sort(ridge[real], axis=1)
    order = np.lexsort((ab[:, 1], ab[:, 0]))
    ab = ab[order]
    ends = vor.vertices[np.asarray(vor.ridge_vertices)[real][order]]
    ends = clip_segments_to_box(ends, guard_box)
    measure = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
    keep = measure > MIN_FACET_FRACTION * float(np.max(guard_box.side_lengths))
    facets = FacetSet(a=ab[keep, 0], b=ab[keep, 1], measure=measure[keep], endpoints=ends[keep])

    inside = _window_masks(facets, points, window, guard_box)
    return WindowedHoneycomb(points, facets, window, inside)


# ---------------------------------------------------------------------------
# shared geometry helpers
# ---------------------------------------------------------------------------

def _excess(points: np.ndarray, box: Box) -> np.ndarray:
    """How far each (N, d) point lies beyond the box: the largest of its 2d
    side values (<= 0 inside it)."""
    return reduce(np.maximum, [*(points - box.hi).T, *(box.lo - points).T])


def _window_masks(
    facets: FacetSet, ref_points: np.ndarray, window: Box, guard_box: Box | None
) -> np.ndarray:
    """Inside mask of the cells of a 2D honeycomb, from its facet table.

    Within the guard region the vertices of a cell are its facet endpoints.
    So a cell is inside the closed window when it has a facet and no
    endpoint of its facets lies beyond a side by more than
    ``CONTAINMENT_TOL``.  A cell with no facet either misses the
    ``guard_box`` the facets were clipped to or covers all of it, and then
    it is the cell whose reference point is nearest the window centre; that
    cell is inside exactly when the guard box lies within the window (a
    guard margin of 0).  Without a guard box the facets were not clipped,
    and a cell with no facet is not counted inside.
    """
    n = ref_points.shape[0]
    # how far the farther endpoint of each facet lies beyond the window
    excess = _excess(facets.endpoints.reshape(-1, 2), window).reshape(-1, 2)
    excess = np.maximum(excess[:, 0], excess[:, 1])
    has_facet = _cells_with(facets, n, slice(None))
    inside = has_facet & ~_cells_with(facets, n, excess > CONTAINMENT_TOL)
    centre = 0.5 * (window.lo + window.hi)
    covering = np.argmin(np.sum((ref_points - centre) ** 2, axis=1))
    if guard_box is not None and not has_facet[covering]:
        corners = np.stack([guard_box.lo, guard_box.hi])
        inside[covering] = bool(np.all(_excess(corners, window) <= CONTAINMENT_TOL))
    return inside


def _cells_with(facets: FacetSet, n: int, rows) -> np.ndarray:
    """(n,) mask of the cells on either side of the facet rows ``rows``."""
    mask = np.zeros(n, dtype=bool)
    mask[facets.a[rows]] = True
    mask[facets.b[rows]] = True
    return mask


def clip_segments_to_box(endpoints: np.ndarray, box: Box) -> np.ndarray:
    """Clip (n, 2, d) segments to an axis-aligned box (Liang-Barsky).

    Returns the clipped (n, 2, d) endpoints; a segment that misses the box
    collapses to a single point (zero length).
    """
    p0 = endpoints[:, 0]
    step = endpoints[:, 1] - p0
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = (box.lo - p0) / step
        tb = (box.hi - p0) / step
    flat = step == 0
    # an axis-parallel segment is unconstrained along that axis when it lies
    # within the slab, and empty otherwise
    in_slab = (p0 >= box.lo) & (p0 <= box.hi)
    enter = np.where(flat, np.where(in_slab, -np.inf, np.inf), np.minimum(ta, tb))
    leave = np.where(flat, np.where(in_slab, np.inf, -np.inf), np.maximum(ta, tb))
    # reduced column by column, with the same bits: numpy's axis=1 reduction
    # runs row by row over the d columns, tens of times slower on 2D facets
    t0 = np.clip(reduce(np.maximum, enter.T), 0.0, 1.0)
    t1 = np.clip(reduce(np.minimum, leave.T), t0, 1.0)
    return np.stack([p0 + t0[:, None] * step, p0 + t1[:, None] * step], axis=1)


def pyramid_identity_sum(wh: WindowedHoneycomb) -> float:
    """Sum over ordered interior facet pairs of measure * reference distance.

    The value is bounded by 2*d*sigma_d(T) and converges to that bound as the
    cells shrink to points, which is the geometric identity behind the
    surface estimator's limiting constant.
    """
    f = wh.interior_facets
    refs = wh.ref_points_inside
    dist = np.linalg.norm(refs[f.b] - refs[f.a], axis=1)
    return float(2.0 * np.sum(f.measure * dist))

