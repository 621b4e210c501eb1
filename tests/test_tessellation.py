import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.spatial import Delaunay, cKDTree

from excursionkit import sampling
from excursionkit.estimators import surface_estimate, weighted_surface_estimate
from excursionkit.sampling import sample_poisson_process
from excursionkit.tessellation import (
    CONTAINMENT_TOL,
    MIN_FACET_FRACTION,
    Box,
    FacetSet,
    GridSpec,
    WindowedHoneycomb,
    clip_segments_to_box,
    hexagonal_honeycomb,
    hypercubic_honeycomb,
    pyramid_identity_sum,
    voronoi_honeycomb_2d,
)


def max_facet_normality_cos(wh) -> float:
    """Largest |cos| of the angle between a facet and the difference of the
    reference points on its two sides."""
    f = wh.facets
    tangent = f.endpoints[:, 1] - f.endpoints[:, 0]
    refs = wh.ref_points
    diff = refs[f.b] - refs[f.a]
    dots = np.abs(np.sum(tangent * diff, axis=1))
    return float(np.max(dots / (np.linalg.norm(tangent, axis=1) * np.linalg.norm(diff, axis=1))))


def polygon_contains_point(verts, point, tol: float = 1e-12) -> bool:
    """Membership test for a convex CCW polygon (closed, with slack tol)."""
    v = np.asarray(verts)
    p = np.asarray(point, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    w = p - v
    cross = e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0]
    return bool(np.all(cross >= -tol))


class TestBox:
    def test_volume_and_sides(self):
        b = Box(np.array([-1.0, 0.0]), np.array([3.0, 2.0]))
        assert b.volume == pytest.approx(8.0)
        assert np.allclose(b.side_lengths, [4.0, 2.0])
        assert b.d == 2

    def test_contains_closed(self):
        b = Box(np.zeros(2), np.ones(2))
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [1.0 + 1e-6, 0.5]])
        assert list(b.contains(pts)) == [True, True, True, False]

    def test_expanded(self):
        b = Box(np.zeros(2), np.ones(2)).expanded(0.5)
        assert np.allclose(b.lo, [-0.5, -0.5]) and np.allclose(b.hi, [1.5, 1.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Box(np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("corner", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_corners(self, corner):
        # a NaN corner passes the hi <= lo test; an infinite one gives an infinite volume
        with pytest.raises(ValueError, match="finite"):
            Box([0.0, 0.0], [corner, 1.0])
        with pytest.raises(ValueError, match="finite"):
            Box([corner, 0.0], [1.0, 1.0])


class TestHypercubic:
    def test_two_by_two_counts(self):
        wh = hypercubic_honeycomb(1.0, 1, 2)
        assert wh.n_inside == 4
        assert wh.interior_facets.measure.size == 4
        assert wh.cell_volumes.sum() == wh.window.volume
        assert wh.window.volume == pytest.approx(4.0)

    def test_two_by_two_pyramid(self):
        wh = hypercubic_honeycomb(1.0, 1, 2)
        assert pyramid_identity_sum(wh) == pytest.approx(8.0)
        # the identity upper bound is 2 d sigma_d(T) = 16
        assert pyramid_identity_sum(wh) <= 2 * 2 * wh.window.volume

    def test_half_spacing_counts(self):
        wh = hypercubic_honeycomb(0.5, 2, 2)
        assert wh.n_inside == 16
        assert wh.interior_facets.measure.size == 24

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_pyramid_closed_form_2d(self, n):
        wh = hypercubic_honeycomb(1.0 / n, n, 2)
        ratio = pyramid_identity_sum(wh) / (2 * 2 * wh.window.volume)
        assert ratio == pytest.approx(1.0 - 1.0 / (2 * n), rel=1e-12)

    def test_pyramid_closed_form_3d(self):
        wh = hypercubic_honeycomb(1.0, 2, 3)
        assert wh.n_inside == 64
        assert wh.interior_facets.measure.size == 144
        ratio = pyramid_identity_sum(wh) / (2 * 3 * wh.window.volume)
        assert ratio == pytest.approx(1.0 - 1.0 / 4.0, rel=1e-12)

    def test_pyramid_ratio_nondecreasing_in_refinement(self):
        ratios = []
        for n in (2, 4, 8, 16):
            wh = hypercubic_honeycomb(2.0 / n, n, 2)
            ratios.append(pyramid_identity_sum(wh) / (4 * wh.window.volume))
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_geometry_metadata(self):
        wh = hypercubic_honeycomb(0.25, 4, 2)
        assert np.allclose(wh.window.lo, [-1.0, -1.0])
        assert np.all(wh.cell_volumes == pytest.approx(0.25**2))

    def test_ref_points_row_major_and_centered(self):
        wh = hypercubic_honeycomb(1.0, 1, 2)
        assert np.allclose(wh.ref_points_inside, [[-1, -1], [-1, 0], [0, -1], [0, 0]])

    def test_facet_normals_axis_aligned(self):
        # cell b is cell a stepped by delta along one axis: refs[b] - refs[a] = delta e_axis
        wh = hypercubic_honeycomb(0.5, 2, 3)
        fs = wh.interior_facets
        refs = wh.ref_points_inside
        steps = refs[fs.b] - refs[fs.a]
        assert np.all((steps == 0.0) | (steps == 0.5))
        assert np.all(np.count_nonzero(steps, axis=1) == 1)
        assert np.all(fs.measure == pytest.approx(0.25))

    def test_facets_connect_adjacent_cells(self):
        wh = hypercubic_honeycomb(1.0, 2, 2)
        refs = wh.ref_points_inside
        fs = wh.interior_facets
        gaps = np.linalg.norm(refs[fs.a] - refs[fs.b], axis=1)
        assert np.allclose(gaps, 1.0)

    def test_lattice_has_no_vertex_array(self):
        # the cells tile the window: no facet endpoints, and every cell is
        # inside the window, with its reference corner in it
        wh = hypercubic_honeycomb(0.5, 2, 2)
        assert wh.facets.endpoints is None
        assert wh.n_inside == 16
        assert np.array_equal(wh.weighted_index, wh.inside_index)

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="spacing must be positive"):
            hypercubic_honeycomb(0.0, 2, 2)
        with pytest.raises(ValueError, match="half extent must be >= 1"):
            hypercubic_honeycomb(0.5, 0, 2)
        with pytest.raises(ValueError, match="dimension must be >= 2"):
            hypercubic_honeycomb(0.5, 2, 1)

    def test_window_and_cells_are_the_grid_nodes(self):
        # the samplers and the honeycomb share one lattice class
        assert sampling.GridSpec is GridSpec
        grid = GridSpec(3, 2, 0.5)
        wh = hypercubic_honeycomb(0.5, 2, 3)
        assert np.array_equal(wh.ref_points, grid.nodes())
        assert np.array_equal(wh.window.lo, grid.window.lo)
        assert np.array_equal(wh.window.hi, grid.window.hi)


class TestWindowViews:
    def test_views_from_a_given_inside_mask_in_3d(self):
        # a facet table with no endpoints and an inside mask that is not all
        # true, as a 3D point-family builder passes them: three unit cubes
        # centred on their reference points along x, the first outside T
        # but for its facet with the second, which lies on a side of T
        refs = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        facets = FacetSet(a=np.array([0, 1]), b=np.array([1, 2]), measure=np.ones(2))
        window = Box([-0.5, -0.5, -0.5], [1.5, 0.5, 0.5])
        wh = WindowedHoneycomb(refs, facets, window, np.array([False, True, True]))
        assert window.volume == 2.0
        f = wh.interior_facets
        assert wh.inside_index.tolist() == [1, 2]
        assert (f.a.tolist(), f.b.tolist(), f.measure.tolist()) == ([0], [1], [1.0])
        # the first reference point lies outside T: its facet counts at half
        g = wh.weighted_facets
        assert wh.weighted_index.tolist() == [0, 1, 2]
        assert (g.a.tolist(), g.b.tolist(), g.measure.tolist()) == ([0, 1], [1, 2], [0.5, 1.0])
        assert surface_estimate(wh, np.array([True, False])) == 0.5
        assert surface_estimate(wh, np.array([True, True])) == 0.0
        assert weighted_surface_estimate(wh, np.array([True, False, True])) == 0.75
        assert weighted_surface_estimate(wh, np.array([True, False, False])) == 0.25

    @pytest.mark.parametrize("family", ["hypercubic", "hexagonal", "voronoi"])
    def test_views_carry_no_endpoints(self, family):
        # the views hold what the estimators read; the segments of a 2D
        # point family stay on the full table
        window = Box(np.full(2, -2.0), np.full(2, 2.0))
        wh = {
            "hypercubic": lambda: hypercubic_honeycomb(0.5, 4, 2),
            "hexagonal": lambda: hexagonal_honeycomb(0.5, window),
            "voronoi": lambda: voronoi_honeycomb_2d(
                sample_poisson_process(4.0, window.expanded(1.0), 3), window, 1.0
            ),
        }[family]()
        assert wh.interior_facets.endpoints is None
        assert wh.weighted_facets.endpoints is None
        assert (wh.facets.endpoints is None) == (family == "hypercubic")


class TestHexagonal:
    WINDOW = Box(np.full(2, -6.0), np.full(2, 6.0))

    def test_single_cell_area(self):
        # the pyramid identity: a cell's area is the sum over its facets of
        # measure * reference distance / (2 d)
        wh = hexagonal_honeycomb(1.0, self.WINDOW)
        f = wh.interior_facets
        refs = wh.ref_points_inside
        center = np.argmin(np.linalg.norm(refs, axis=1))
        own = (f.a == center) | (f.b == center)
        assert np.count_nonzero(own) == 6
        dist = np.linalg.norm(refs[f.b[own]] - refs[f.a[own]], axis=1)
        # regular hexagon with circumradius 1
        assert np.sum(f.measure[own] * dist) / 4 == pytest.approx(1.5 * math.sqrt(3), rel=1e-12)

    def test_facet_measure_is_side_length(self):
        wh = hexagonal_honeycomb(0.5, self.WINDOW)
        assert np.all(wh.interior_facets.measure == pytest.approx(0.5))

    def test_neighbor_spacing(self):
        wh = hexagonal_honeycomb(0.5, self.WINDOW)
        refs = wh.ref_points_inside
        fs = wh.interior_facets
        gaps = np.linalg.norm(refs[fs.a] - refs[fs.b], axis=1)
        assert np.allclose(gaps, 0.5 * math.sqrt(3))

    def test_facet_normality(self):
        wh = hexagonal_honeycomb(0.4, self.WINDOW)
        assert max_facet_normality_cos(wh) < 1e-9

    def test_interior_cell_has_three_unordered_facets(self):
        wh = hexagonal_honeycomb(0.5, self.WINDOW)
        fs = wh.interior_facets
        center = np.argmin(np.linalg.norm(wh.ref_points_inside, axis=1))
        degree = np.sum(fs.a == center) + np.sum(fs.b == center)
        assert degree == 6  # all six neighbors inside, three facets own the cell on each side

    def test_pyramid_bound(self):
        wh = hexagonal_honeycomb(0.5, self.WINDOW)
        assert pyramid_identity_sum(wh) <= 4 * wh.window.volume

    def test_coverage_below_one(self):
        wh = hexagonal_honeycomb(1.0, self.WINDOW)
        # each inside cell is a regular hexagon of area 1.5 sqrt(3) delta^2
        coverage = wh.n_inside * 1.5 * math.sqrt(3) / wh.window.volume
        assert 0.5 < coverage < 1.0


def _clip_half_plane(verts, normal_vec, offset):
    """Clip a convex polygon (list of vertices) against {x : normal_vec . x <= offset}."""
    vals = [float(v @ normal_vec) - offset for v in verts]
    ins = [val <= CONTAINMENT_TOL for val in vals]
    out = []
    for k in range(len(verts)):
        if ins[k - 1] != ins[k]:
            t = vals[k - 1] / (vals[k - 1] - vals[k])
            out.append(verts[k - 1] + t * (verts[k] - verts[k - 1]))
        if ins[k]:
            out.append(verts[k])
    return out if len(out) >= 3 else []


def clip_polygon_to_box(verts, box):
    """Intersection of a convex CCW polygon with an axis-aligned 2D box, one
    box side at a time (Sutherland-Hodgman): the loop reference's clipper."""
    v = [np.asarray(p, dtype=float) for p in verts]
    for sign, axis in ((1.0, 0), (1.0, 1), (-1.0, 0), (-1.0, 1)):
        nrm = np.zeros(2)
        nrm[axis] = sign
        offset = box.hi[axis] if sign > 0 else -box.lo[axis]
        v = _clip_half_plane(v, nrm, float(offset))
        if not v:
            return np.empty((0, 2))
    return np.asarray(v)


def _shoelace_area(verts) -> float:
    """Polygon area with the shoelace terms summed in vertex order, as the
    builders' per-cell ``np.bincount`` sums them."""
    v = np.asarray(verts)
    if v.ndim != 2 or v.shape[0] < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    total = 0.0
    for term in x * np.roll(y, -1) - y * np.roll(x, -1):
        total += term
    return 0.5 * abs(float(total))


def _loop_inside(cells, window):
    """Inside mask, one polygon at a time: no vertex beyond a side of the
    window by more than ``CONTAINMENT_TOL``."""
    inside = np.zeros(len(cells), dtype=bool)
    for i, verts in enumerate(cells):
        if len(verts) < 3:
            continue
        inside[i] = bool(
            np.all(window.lo - verts <= CONTAINMENT_TOL)
            and np.all(verts - window.hi <= CONTAINMENT_TOL)
        )
    return inside


def _loop_hexagonal(delta, window):
    """Per-cell loop construction of the hexagonal tiling, the reference for
    the array-based builder: cells in (q, r) order, facets by dictionary lookup."""
    root3 = np.sqrt(3.0)
    margin = 2.0 * delta
    a1 = np.array([1.5 * delta, 0.5 * root3 * delta])
    a2 = np.array([0.0, -root3 * delta])
    q_lo = int(np.ceil((window.lo[0] - margin) / a1[0]))
    q_hi = int(np.floor((window.hi[0] + margin) / a1[0]))
    centers, keys = [], {}
    for q in range(q_lo, q_hi + 1):
        y_of_q = q * a1[1]
        r_lo = int(np.ceil((y_of_q - (window.hi[1] + margin)) / root3 / delta))
        r_hi = int(np.floor((y_of_q - (window.lo[1] - margin)) / root3 / delta))
        for r in range(r_lo, r_hi + 1):
            keys[(q, r)] = len(centers)
            centers.append(q * a1 + r * a2)
    centers = np.asarray(centers)
    angles = np.deg2rad(60.0 * np.arange(6))
    hex_offsets = delta * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    cells = [c + hex_offsets for c in centers]
    fa, fb, ends = [], [], []
    for (q, r), i in keys.items():
        for (dq, dr), k in [((1, 0), 0), ((0, -1), 1), ((-1, -1), 2)]:
            j = keys.get((q + dq, r + dr))
            if j is not None:
                fa.append(i)
                fb.append(j)
                ends.append((cells[i][k], cells[i][(k + 1) % 6]))
    fa = np.asarray(fa, dtype=np.int64)
    fb = np.asarray(fb, dtype=np.int64)
    facets = FacetSet(
        a=fa,
        b=fb,
        measure=np.full(fa.size, delta),
        endpoints=np.asarray(ends).reshape(-1, 2, 2),
    )
    inside = _loop_inside(cells, window)
    local = np.cumsum(inside) - 1
    keep = inside[fa] & inside[fb]
    interior = FacetSet(a=local[fa[keep]], b=local[fb[keep]], measure=facets.measure[keep])
    return dict(ref_points=centers, inside=inside, facets=facets, interior=interior)


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _same_facets(f, g):
    """Equal tables, bit for bit; a table without endpoints (a window view)
    matches only another without them."""
    if f.endpoints is None or g.endpoints is None:
        same_ends = f.endpoints is None and g.endpoints is None
    else:
        same_ends = _same_bits(f.endpoints, g.endpoints)
    return same_ends and all(
        _same_bits(getattr(f, name), getattr(g, name)) for name in ("a", "b", "measure")
    )


def _random_hexagonal_windows(seed=23, n=12):
    """Seeded random windows and cell sizes.  In every other one each side
    passes through a vertex of the tiling, computed as the builder computes
    it (centre q a1 + r a2, plus a corner offset): a vertical side through a
    vertex, a horizontal one along an edge, where rounding can leave the
    cells beyond the side a few ulps inside it."""
    rng = np.random.default_rng(seed)
    angles = np.deg2rad(60.0 * np.arange(6))
    cases = []
    for i in range(n):
        delta = float(rng.uniform(0.15, 0.6))
        lo = rng.uniform(-3.0, 0.0, size=2)
        hi = lo + rng.uniform(3.0 * delta, 4.0, size=2)
        if i % 2:
            a1 = np.array([1.5 * delta, 0.5 * np.sqrt(3.0) * delta])
            a2 = np.array([0.0, -np.sqrt(3.0) * delta])
            offsets = delta * np.stack([np.cos(angles), np.sin(angles)], axis=1)

            def vertex(p):
                q = np.round(p[0] / a1[0])
                r = np.round((q * a1[1] - p[1]) / (np.sqrt(3.0) * delta))
                return q * a1 + r * a2 + offsets[rng.integers(6)]

            lo, hi = vertex(lo), vertex(hi)
            lo[1], hi[1] = vertex(lo)[1], vertex(hi)[1]
        cases.append((tuple(lo.tolist()), tuple(hi.tolist()), delta))
    return cases


class TestHexagonalMatchesLoopReference:
    @pytest.mark.parametrize(
        "lo,hi,delta",
        [
            ((-4.0, -4.0), (4.0, 4.0), 0.125),  # the benchmark tiling
            ((-4.0, -4.0), (4.0, 4.0), 0.25),
            ((-2.0, -1.0), (3.0, 1.5), 0.2),  # rectangular
            ((0.3, -5.1), (2.9, -1.7), 0.15),  # off-centre
            ((1.0, 2.0), (7.0, 3.0), 0.99),  # delta close to the shortest side
            ((-0.5, -0.5), (0.5, 0.5), 0.999),
            # sides through hexagon vertices: x = 4 is a vertex at delta = 0.5
            ((-4.0, -4.0), (4.0, 4.0), 0.5),
            *_random_hexagonal_windows(),
        ],
    )
    def test_bitwise_equal_to_loop_builder(self, lo, hi, delta):
        window = Box(np.array(lo), np.array(hi))
        ref = _loop_hexagonal(delta, window)
        wh = hexagonal_honeycomb(delta, window)
        assert _same_bits(wh.ref_points, ref["ref_points"])
        assert _same_bits(wh.inside, ref["inside"])
        assert _same_facets(wh.facets, ref["facets"])
        assert _same_facets(wh.interior_facets, ref["interior"])

    def test_voronoi_window_stats_equal_to_loop(self):
        guard_box = Box(np.full(2, -3.0), np.full(2, 3.0))
        pts = sample_poisson_process(4.0, guard_box, 5)
        window = Box(np.full(2, -2.0), np.full(2, 2.0))
        wh = voronoi_honeycomb_2d(pts, window, guard=1.0)
        inside = _loop_inside(_half_plane_voronoi(pts, guard_box)[0], window)
        assert _same_bits(wh.inside, inside)

    def test_voronoi_empty_cells_window_stats_equal_to_loop(self):
        # two far generators whose regions the guard box clips away to no
        # vertices: one in the middle of the generator order and the last one
        guard = 0.5
        window = Box(np.full(2, -1.0), np.full(2, 1.0))
        cloud = np.random.default_rng(4).uniform(-1.5, 1.5, size=(40, 2))
        pts = np.vstack([cloud[:20], [[30.0, 0.0]], cloud[20:], [[0.0, -30.0]]])
        wh = voronoi_honeycomb_2d(pts, window, guard)
        cells, _ = _half_plane_voronoi(pts, window.expanded(guard))
        assert len(cells[20]) == 0 and len(cells[-1]) == 0
        assert _same_bits(wh.inside, _loop_inside(cells, window))


def _clip_labelled(verts, labels, normal_vec, offset, new_label):
    """Half-plane clip of a convex polygon whose edges carry labels:
    ``labels[k]`` names the edge from vertex k-1 to vertex k, and pieces
    created on the clip line get ``new_label``."""
    vals = [float(v @ normal_vec) - offset for v in verts]
    ins = [val <= CONTAINMENT_TOL for val in vals]
    out_v, out_l = [], []
    for k in range(len(verts)):
        s_in, e_in = ins[k - 1], ins[k]
        if s_in != e_in:
            t = vals[k - 1] / (vals[k - 1] - vals[k])
            out_v.append(verts[k - 1] + t * (verts[k] - verts[k - 1]))
            out_l.append(labels[k] if s_in else new_label)
        if e_in:
            out_v.append(verts[k])
            out_l.append(labels[k])
    if len(out_v) < 3:
        return [], []
    return out_v, out_l


def _half_plane_voronoi(points, guard_box):
    """Per-cell half-plane construction of the Voronoi diagram, the reference
    for the scipy-based builder: each cell is the guard box clipped by the
    bisectors against its Delaunay neighbors, and the clip-line labels give
    the facets.  Returns the cells and {(a, b): length} with a < b."""
    indptr, nbrs = Delaunay(points).vertex_neighbor_vertices
    lo, hi = guard_box.lo, guard_box.hi
    box = [np.array(c) for c in ([lo[0], lo[1]], [hi[0], lo[1]], [hi[0], hi[1]], [lo[0], hi[1]])]
    cells, lengths = [], {}
    for i, p in enumerate(points):
        verts, labels = box, [-1] * 4
        for j in nbrs[indptr[i]:indptr[i + 1]]:
            nrm = points[j] - p
            verts, labels = _clip_labelled(verts, labels, nrm, float(nrm @ (0.5 * (p + points[j]))), int(j))
            if not verts:
                break
        cells.append(np.asarray(verts))
        for k, lab in enumerate(labels):
            if lab > i:
                lengths[(i, lab)] = float(np.linalg.norm(verts[k] - verts[k - 1]))
    return cells, lengths


class TestVoronoiMatchesHalfPlaneReference:
    @pytest.mark.parametrize(
        "seed, guard",
        [
            pytest.param(21, 0.5, id="21"),
            pytest.param(22, 0.5, id="22"),
            pytest.param(23, 0.5, id="23"),
            # guard 0 clips the diagram to the window, so every cell is inside
            pytest.param(24, 0.0, id="24-guard-0"),
            pytest.param(25, 0.0, id="25-guard-0"),
            pytest.param(26, 0.375, id="26-guard-0.375"),  # the bias-sweep guard of 1.5 cells
            pytest.param(27, 1.5, id="27-guard-1.5"),
        ],
    )
    def test_same_diagram_as_half_plane_builder(self, seed, guard):
        window = Box(np.full(2, -3.0), np.full(2, 3.0))
        guard_box = window.expanded(guard)
        pts = sample_poisson_process(16.0, guard_box, seed)
        wh = voronoi_honeycomb_2d(pts, window, guard=guard)
        cells, lengths = _half_plane_voronoi(pts, guard_box)
        scale = float(np.max(guard_box.side_lengths))
        pairs = sorted(k for k, m in lengths.items() if m > MIN_FACET_FRACTION * scale)
        f = wh.facets
        assert list(zip(f.a.tolist(), f.b.tolist())) == pairs  # rows sorted by (a, b)
        assert np.array_equal(wh.inside, _loop_inside(cells, window))
        if guard == 0:
            assert wh.inside.all()
        # Voronoi vertices are rounded relative to their coordinates, not to
        # the facet length, so the tolerance is relative to the guard-box side:
        # short facets differ by up to ~1e-9 of their own length, but by less
        # than 1e-13 in absolute terms
        tol = 1e-12 * scale
        assert np.allclose(f.measure, [lengths[k] for k in pairs], rtol=0, atol=tol)
        # the reference cells are CCW, and each generator lies in its own cell
        for i in np.flatnonzero(guard_box.contains(pts)):
            assert polygon_contains_point(cells[i], pts[i])


    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_weighted_measure_is_half_the_edges_of_cells_in_window(self, seed):
        # the generators fill the guard box, so some lie outside the window;
        # the weighted measure sums to half the shared-edge length of the
        # reference cells whose generator lies in the window, and the view
        # holds the cells on those edges
        window = Box(np.full(2, -2.0), np.full(2, 2.0))
        guard_box = window.expanded(1.0)
        pts = sample_poisson_process(4.0, guard_box, seed)
        wh = voronoi_honeycomb_2d(pts, window, guard=1.0)
        _, lengths = _half_plane_voronoi(pts, guard_box)
        scale = float(np.max(guard_box.side_lengths))
        edges = {k: m for k, m in lengths.items() if m > MIN_FACET_FRACTION * scale}
        in_window = window.contains(pts)
        assert 0 < in_window.sum() < len(pts)
        half = 0.5 * sum(m for pair, m in edges.items() for c in pair if in_window[c])
        total = wh.weighted_facets.measure.sum()
        assert total == pytest.approx(half, rel=0, abs=1e-12 * scale * len(edges))
        cells = sorted({c for pair in edges if in_window[list(pair)].any() for c in pair})
        assert wh.weighted_index.tolist() == cells


def _table_digest(wh):
    """Digest of what the campaigns read from a 2D honeycomb: the facet
    table, the inside mask, and the cells and measures of the
    generator-weighted view."""
    f = wh.facets
    h = hashlib.sha256()
    for x in (f.a, f.b, f.measure, f.endpoints, wh.inside, wh.weighted_index,
              wh.weighted_facets.measure):
        h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()[:16]


class TestHoneycombDigests:
    """Fixed honeycombs pinned bit for bit: what the campaigns read from them,
    apart from the field draws that the campaign digests add on top, so a
    change to a builder shows here first.  The Voronoi digests also depend
    on the Qhull build that scipy ships with."""

    WINDOW = Box(np.full(2, -4.0), np.full(2, 4.0))

    @pytest.mark.parametrize(
        "delta, digest", [(0.25, "de5c490c1f9e660c"), (0.125, "42eb7ab38f11b84e")]
    )
    def test_hexagonal(self, delta, digest):
        assert _table_digest(hexagonal_honeycomb(delta, self.WINDOW)) == digest

    @pytest.mark.parametrize("seed, digest", [(1, "d8a684b52b2f7e54"), (2, "f96764d52dd85779")])
    def test_voronoi(self, seed, digest):
        assert _table_digest(self._voronoi(seed)) == digest

    def _voronoi(self, seed):
        guard = 0.375
        pts = sample_poisson_process(16.0, self.WINDOW.expanded(guard), seed)
        return voronoi_honeycomb_2d(pts, self.WINDOW, guard)


class TestPoissonVoronoiFacetDensity:
    def test_weighted_facet_length_per_area_is_two_sqrt_rate(self):
        # The edge length per unit area of a rate-lambda Poisson-Voronoi
        # tessellation is 2 sqrt(lambda) (Okabe, Boots, Sugihara & Chiu,
        # Spatial Tessellations, 2000), and by Campbell's theorem the
        # generator-weighted edge length of a window has mean 2 sqrt(lambda)
        # times its area.  At about 1,024 cells per window the ratio of one
        # cloud spread with sd 0.017 over 30 clouds, so the mean of 8 has sd
        # 0.006 and the 3% tolerance is 5 of those.
        rate, guard = 16.0, 0.375  # guard of 1.5 mean cell spacings, as in the bias sweep
        window = Box(np.full(2, -4.0), np.full(2, 4.0))
        ratios = []
        for seed in range(8):
            pts = sample_poisson_process(rate, window.expanded(guard), seed)
            wh = voronoi_honeycomb_2d(pts, window, guard)
            density = wh.weighted_facets.measure.sum() / window.volume
            ratios.append(density / (2.0 * math.sqrt(rate)))
        assert abs(np.mean(ratios) - 1.0) < 0.03


class TestVoronoiTwoGenerators:
    WINDOW = Box(np.array([-1.0, -1.0]), np.array([2.0, 1.0]))

    def build(self):
        return voronoi_honeycomb_2d(
            np.array([[0.0, 0.0], [1.0, 0.0]]), self.WINDOW, guard=0.0
        )

    def test_counts(self):
        wh = self.build()
        assert wh.n_inside == 2
        assert wh.interior_facets.measure.size == 1

    def test_facet_geometry(self):
        wh = self.build()
        fs = wh.interior_facets
        assert fs.measure[0] == pytest.approx(2.0, rel=1e-12)
        mid = wh.facets.endpoints[0].mean(axis=0)
        assert mid[0] == pytest.approx(0.5, rel=1e-12)

    def test_volumes_partition_window(self):
        # the bisector x = 1/2 spans the window's height, so it splits the
        # window into two rectangles of area 3, each a cell inside the window
        wh = self.build()
        assert wh.window.volume == pytest.approx(6.0)
        assert wh.n_inside == 2 and wh.weighted_index.tolist() == [0, 1]
        ends = wh.facets.endpoints[0]
        assert ends[:, 0].tolist() == [0.5, 0.5]
        assert sorted(ends[:, 1].tolist()) == [-1.0, 1.0]
        widths = np.array([0.5 - self.WINDOW.lo[0], self.WINDOW.hi[0] - 0.5])
        assert (2.0 * widths).tolist() == [3.0, 3.0]

    def test_crossing_surface_value(self):
        # exceedance on one side only: estimate = facet length / window area
        from excursionkit.estimators import surface_estimate

        wh = self.build()
        assert surface_estimate(wh, np.array([True, False])) == pytest.approx(1.0 / 3.0, rel=1e-12)


class TestVoronoiCornerGenerators:
    def test_no_diagonal_facets(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        window = Box(np.zeros(2), np.ones(2))
        wh = voronoi_honeycomb_2d(pts, window, guard=0.0)
        assert wh.n_inside == 4
        fs = wh.interior_facets
        # cocircular generators: the two bisector segments give 4 facets of
        # length 1/2; the diagonal pairs touch only at the center point
        assert fs.measure.size == 4
        assert np.allclose(fs.measure, 0.5)
        pairs = {tuple(sorted((int(a), int(b)))) for a, b in zip(fs.a, fs.b)}
        assert (0, 3) not in pairs and (1, 2) not in pairs


class TestVoronoiClouds:
    def make_cloud(self, seed, n=60, half=3.0):
        rng = np.random.default_rng(seed)
        return rng.uniform(-half, half, size=(n, 2))

    def test_nearest_generator_oracle(self):
        pts = self.make_cloud(2)
        window = Box(np.full(2, -3.0), np.full(2, 3.0))
        wh = voronoi_honeycomb_2d(pts, window, guard=1.0)
        tree = cKDTree(pts)
        # the two generators nearest a facet's midpoint are its own two, at
        # one distance
        f = wh.facets
        dist, nearest = tree.query(f.endpoints.mean(axis=1), k=2)
        assert np.array_equal(np.sort(nearest, axis=1), np.stack([f.a, f.b], axis=1))
        assert np.allclose(dist[:, 0], dist[:, 1], rtol=0, atol=1e-12)

    def test_cells_partition_window(self):
        # every generator lies in the window, so the weighted view holds
        # every cell, and their reference cells, clipped to the window, tile it
        pts = self.make_cloud(5)
        window = Box(np.full(2, -3.0), np.full(2, 3.0))
        wh = voronoi_honeycomb_2d(pts, window, guard=1.0)
        assert wh.weighted_index.tolist() == list(range(len(pts)))
        cells, _ = _half_plane_voronoi(pts, window.expanded(1.0))
        areas = [_shoelace_area(clip_polygon_to_box(cells[i], window)) for i in wh.weighted_index]
        assert np.sum(areas) == pytest.approx(window.volume, rel=1e-9)

    def test_facet_normality(self):
        pts = self.make_cloud(7)
        wh = voronoi_honeycomb_2d(pts, Box(np.full(2, -3.0), np.full(2, 3.0)), guard=1.0)
        assert max_facet_normality_cos(wh) < 1e-9

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_pyramid_inequality(self, seed):
        window = Box(np.full(2, -4.0), np.full(2, 4.0))
        pts = sample_poisson_process(1.5, window.expanded(1.5), seed)
        wh = voronoi_honeycomb_2d(pts, window, guard=1.5)
        assert pyramid_identity_sum(wh) <= 2 * 2 * window.volume

    def test_interior_facet_requires_both_cells_inside(self):
        pts = self.make_cloud(9)
        window = Box(np.full(2, -3.0), np.full(2, 3.0))
        wh = voronoi_honeycomb_2d(pts, window, guard=1.0)
        assert np.all(wh.inside[wh.inside_index[wh.interior_facets.a]])
        assert np.all(wh.inside[wh.inside_index[wh.interior_facets.b]])

    def test_rescaling_halves_facet_lengths(self):
        pts = self.make_cloud(15)
        big = voronoi_honeycomb_2d(pts, Box(np.full(2, -3.0), np.full(2, 3.0)), guard=1.0)
        small = voronoi_honeycomb_2d(
            0.5 * pts, Box(np.full(2, -1.5), np.full(2, 1.5)), guard=0.5
        )
        assert small.interior_facets.measure.sum() == pytest.approx(
            0.5 * big.interior_facets.measure.sum(), rel=1e-9
        )

    def test_collinear_generators_supported(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        window = Box(np.array([-0.5, -1.0]), np.array([2.5, 1.0]))
        wh = voronoi_honeycomb_2d(pts, window, guard=0.0)
        assert wh.n_inside == 3
        assert wh.interior_facets.measure.size == 2
        assert np.allclose(wh.interior_facets.measure, 2.0)

    def test_duplicate_generators_merged_with_warning(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0 + 1e-14, 0.0]])
        window = Box(np.array([-1.0, -1.0]), np.array([2.0, 1.0]))
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            wh = voronoi_honeycomb_2d(pts, window, guard=0.0)
        assert any("merged 1 duplicate" in str(w.message).lower() for w in rec)
        assert wh.ref_points.shape[0] == 2

    def test_too_few_generators_rejected(self):
        window = Box(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            voronoi_honeycomb_2d(np.array([[0.5, 0.5]]), window, guard=0.0)

    def test_single_inside_cell_has_no_interior_facets(self):
        # one generator deep inside, others far outside the window
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [-10.0, -10.0]])
        window = Box(np.full(2, -2.0), np.full(2, 2.0))
        wh = voronoi_honeycomb_2d(pts, window, guard=10.0)
        assert wh.n_inside <= 1
        assert wh.interior_facets.measure.size == 0
        # the generator at the centre is the only one in the window: each of
        # its facets, all outside the window, counts at half its length
        f = wh.weighted_facets
        assert wh.weighted_index.tolist() == [0, 1, 2, 3]
        assert f.a.tolist() == [0, 0, 0]
        assert np.array_equal(f.measure, 0.5 * wh.facets.measure[wh.facets.a == 0])
        flags = np.array([True, False, False, False])
        assert weighted_surface_estimate(wh, flags) == f.measure.sum() / window.volume
        assert weighted_surface_estimate(wh, np.ones(4, dtype=bool)) == 0.0

    @pytest.mark.parametrize("seed, cell", [((5, 36), 0), ((5, 48), 6)], ids=["5-36", "5-48"])
    def test_cell_covering_the_guard_box(self, seed, cell):
        # a sparse cloud whose diagram has no facet in the guard box: one
        # cell covers it, and at guard 0 the guard box is the window
        pts = sample_poisson_process(0.1, Box(np.full(2, -5.0), np.full(2, 5.0)), seed)
        window = Box(np.full(2, -1.0), np.full(2, 1.0))
        wh = voronoi_honeycomb_2d(pts, window, guard=0.0)
        assert wh.facets.measure.size == 0
        assert wh.inside_index.tolist() == [cell]
        # with no facet, no generator weights one
        assert wh.weighted_index.size == 0
        # with a guard margin the covering cell reaches beyond the window
        wh = voronoi_honeycomb_2d(pts, window, guard=0.5)
        assert wh.n_inside == 0

    def test_negative_guard_rejected(self):
        window = Box(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            voronoi_honeycomb_2d(np.array([[0.2, 0.2], [0.8, 0.8]]), window, guard=-0.5)


class TestPolygonHelpers:
    def test_clip_segments_to_box(self):
        box = Box(np.full(2, -1.0), np.full(2, 1.0))
        segs = np.array(
            [
                [[-3.0, 0.0], [3.0, 0.0]],   # crosses: clipped to [-1, 1]
                [[0.0, 0.0], [0.5, 0.5]],    # inside: unchanged
                [[2.0, 2.0], [3.0, 3.0]],    # misses
                [[2.0, -3.0], [2.0, 3.0]],   # vertical, outside the slab
                [[1.0, -3.0], [1.0, 3.0]],   # runs along the box side
                [[-2.0, 0.0], [0.0, 2.0]],   # touches a corner only
            ]
        )
        out = clip_segments_to_box(segs, box)
        lengths = np.linalg.norm(out[:, 1] - out[:, 0], axis=1)
        assert np.allclose(lengths, [2.0, math.sqrt(0.5), 0.0, 0.0, 2.0, 0.0])
        assert np.array_equal(out[0], [[-1.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(out[1], segs[1])

    def test_contains_point(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert polygon_contains_point(square, np.array([0.5, 0.5]))
        assert not polygon_contains_point(square, np.array([1.5, 0.5]))
