"""Point-referenced honeycombs and their view from an observation window.

A honeycomb is a tessellation of the plane (or of R^d for the cubic lattice)
by closed convex polytopes, each carrying a reference point, such that every
shared facet is orthogonal to the difference of the two reference points.
Three families are built here:

* hypercubic lattices in any dimension d >= 2 (implicit cell geometry on
  the nodes of a ``GridSpec``, the lattice the grid samplers draw on),
* regular hexagonal tilings in 2D,
* Voronoi diagrams of arbitrary 2D generator clouds (``scipy.spatial.Voronoi``).

Each builder returns one object, a ``WindowedHoneycomb``: the reference
points, the facet table and the window T, with the one window view the
estimators read computed from them when it is made, in any d.  The view
(``weighted_facets``) is generator-weighted: it keeps every facet with a
reference point in T on either side, unclipped, at half its measure per
such point.  By Campbell's theorem its crossing sum has the mean of the
window-clipped one on a stationary tessellation, and it needs only the
reference points and the facet table, so no builder makes cell polygons or
facet segments, and none decides which cells lie inside T.  On the lattice
every reference point lies in T, so the view is every cell and facet.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

# geometric tolerances, in the spatial units of the tessellation
DUPLICATE_TOL = 1e-12     # generators closer than this are merged
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

    No direction and no geometry are stored: a facet is orthogonal to
    ref[b] - ref[a], and the estimators read only its two cells and its
    measure.

    Args:
        a: integer cell index of the first cell of each facet.
        b: integer cell index of the second cell.
        measure: sigma_{d-1} measure of each facet (length in 2D).
    """

    a: np.ndarray
    b: np.ndarray
    measure: np.ndarray

    def __len__(self) -> int:
        return self.a.size


@dataclass(eq=False)
class WindowedHoneycomb:
    """A tessellation of the guard region as a facet table, with its window view.

    Args:
        ref_points: (n, d) reference point of each cell; d is its width.
        facets: all positive-measure shared facets, indexed by global cell id.
        window: the observation window T.
        cell_volumes: (n,) sigma_d measure of each cell, for the hypercubic
            lattice only (delta^d each); None for the 2D point families,
            which keep no cell polygons.

    ``weighted_facets`` is the generator-weighted view, the one the
    estimators read: a facet between reference points x_a and x_b has
    weight w = (1{x_a in T} + 1{x_b in T}) / 2, T closed, and the facets
    with w > 0 are kept unclipped, with measure w |f| (exact: w is 0.5 or 1).
    Their cells are renumbered among the cells on a kept facet,
    ``weighted_index``, in ascending global id; that is the order of the
    field values and exceedance flags.  On the lattice every reference point
    lies in T, so the view is every cell and every facet.
    """

    ref_points: np.ndarray
    facets: FacetSet
    window: Box
    cell_volumes: np.ndarray | None = None
    weighted_facets: FacetSet = field(init=False)
    weighted_index: np.ndarray = field(init=False)

    def __post_init__(self):
        f = self.facets
        in_window = self.window.contains(self.ref_points)
        weight = 0.5 * in_window[f.a] + 0.5 * in_window[f.b]
        kept = weight > 0
        cells = _cells_with(f, self.ref_points.shape[0], kept)
        self.weighted_index = np.flatnonzero(cells)
        self.weighted_facets = _restrict(f, cells, kept, weight * f.measure)

    @property
    def d(self) -> int:
        return self.ref_points.shape[1]

    @property
    def ref_points_weighted(self) -> np.ndarray:
        return self.ref_points[self.weighted_index]

    # Read-only names for the one view, read only by perfbench/oracle.py
    # (``interior_facets``, ``ref_points_inside``) and perfbench/worker.py
    # (``parent``, ``n_inside``) until ROADMAP item 2 moves those files off them.

    @property
    def parent(self) -> "WindowedHoneycomb":
        return self

    @property
    def interior_facets(self) -> FacetSet:
        return self.weighted_facets

    @property
    def ref_points_inside(self) -> np.ndarray:
        return self.ref_points_weighted

    @property
    def n_inside(self) -> int:
        return int(self.weighted_index.size)


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
        WindowedHoneycomb whose view is every cell: each reference corner
        lies in T.
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
    facets = FacetSet(a=a, b=b, measure=np.full(a.size, delta ** (d - 1)))
    n = ref_points.shape[0]
    return WindowedHoneycomb(ref_points, facets, grid.window, cell_volumes=np.full(n, delta**d))


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
        WindowedHoneycomb of the cells whose centres lie within 2 delta of
        the window.  Neighbouring centres are sqrt(3) delta apart, so each
        cell with its centre in the window has all six of its facets in the
        table, and the window view loses no edge.
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

    # (q, r) -> cell id, with a border of -1 so that every neighbor step stays in range
    r_min = int(ri.min())
    ids = np.full((q_axis.size + 2, int(ri.max()) - r_min + 3), -1, dtype=np.int64)
    ids[qi + 1, ri - r_min + 1] = np.arange(qi.size)
    # the neighbors at direction angles 30, 90 and 150 degrees: each shares
    # one edge of length delta, and each facet is listed once
    steps = np.array([(1, 0), (0, -1), (-1, -1)])
    nb = ids[qi[:, None] + 1 + steps[:, 0], ri[:, None] - r_min + 1 + steps[:, 1]]
    fa, k = np.nonzero(nb >= 0)
    fb = nb[fa, k]
    facets = FacetSet(a=fa, b=fb, measure=np.full(fa.size, delta))
    return WindowedHoneycomb(centers, facets, window)


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
    facets = FacetSet(a=ab[keep, 0], b=ab[keep, 1], measure=measure[keep])
    return WindowedHoneycomb(points, facets, window)


# ---------------------------------------------------------------------------
# shared geometry helpers
# ---------------------------------------------------------------------------

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
    """Sum over ordered facet pairs of the window view of measure * reference distance.

    Each facet counts at its weighted measure, so the sum runs over the
    facets of the cells whose reference point lies in T.  By the pyramid
    identity, a cell whose facets are all in the table contributes
    2d sigma_d(C): each of its facets bisects the two reference points, or,
    on the lattice, each cube has 2d facets of measure delta^(d-1) at
    reference distance delta.  So the sum is 2d times the volume of those
    cells, and its ratio to 2*d*sigma_d(T) tends to 1 as the cells shrink
    to points, which is the geometric identity behind the surface
    estimator's limiting constant.  It is not a bound: the cells whose
    reference point lies in T reach beyond T as well as fall short of it,
    and on Poisson-Voronoi clouds the ratio reads up to about 1.0008.  On
    the lattice, whose boundary cells have no facet outside T, it is
    1 - 1/(2N) in any d.
    """
    f = wh.weighted_facets
    refs = wh.ref_points_weighted
    dist = np.linalg.norm(refs[f.b] - refs[f.a], axis=1)
    return float(2.0 * np.sum(f.measure * dist))

