import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull, Delaunay, cKDTree

from excursionkit import sampling
from excursionkit.sampling import sample_poisson_process
from excursionkit.tessellation import (
    CONTAINMENT_TOL,
    MIN_FACET_FRACTION,
    Box,
    FacetSet,
    GridSpec,
    clip_cells_to_box,
    clip_segments_to_box,
    hexagonal_honeycomb,
    hypercubic_honeycomb,
    pyramid_identity_sum,
    voronoi_honeycomb_2d,
)


def split_cells(parent):
    """Per-cell (m_i, 2) vertex arrays of a 2D honeycomb's flat ``verts``."""
    return np.split(parent.verts, np.cumsum(parent.counts)[:-1])


def coverage(wh) -> float:
    """Share of the window covered by the cells inside it."""
    return float(wh.cell_volumes_inside.sum() / wh.window.volume)


def max_facet_normality_cos(wh) -> float:
    """Largest |cos| of the angle between an interior facet and the
    difference of the reference points on its two sides."""
    f = wh.interior_facets
    tangent = f.endpoints[:, 1] - f.endpoints[:, 0]
    refs = wh.ref_points_inside
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
        assert coverage(wh) == 1.0
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
        assert np.all(wh.parent.cell_volumes == pytest.approx(0.25**2))

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
        parent = hypercubic_honeycomb(0.5, 2, 2).parent
        assert parent.verts is None and parent.counts is None
        assert parent.facets.endpoints is None

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
        parent = hypercubic_honeycomb(0.5, 2, 3).parent
        assert np.array_equal(parent.ref_points, grid.nodes())
        assert np.array_equal(parent.window.lo, grid.window.lo)
        assert np.array_equal(parent.window.hi, grid.window.hi)


class TestHexagonal:
    WINDOW = Box(np.full(2, -6.0), np.full(2, 6.0))

    def test_single_cell_area(self):
        wh = hexagonal_honeycomb(1.0, self.WINDOW)
        # regular hexagon with circumradius 1
        assert np.allclose(wh.cell_volumes_inside, 1.5 * math.sqrt(3))

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
        assert 0.5 < coverage(wh) < 1.0


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
    polygon and one box side at a time: the reference for ``clip_cells_to_box``."""
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


def _loop_window_stats(cells, window):
    """Inside mask and clipped areas, one polygon at a time."""
    inside = np.zeros(len(cells), dtype=bool)
    areas = np.zeros(len(cells))
    for i, verts in enumerate(cells):
        if len(verts) < 3:
            continue
        inside[i] = bool(
            np.all(verts >= window.lo - CONTAINMENT_TOL)
            and np.all(verts <= window.hi + CONTAINMENT_TOL)
        )
        clipped = clip_polygon_to_box(verts, window)
        if clipped.shape[0] < 3:
            continue
        areas[i] = _shoelace_area(clipped)
    return inside, areas


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
    inside, areas = _loop_window_stats(cells, window)
    local = np.cumsum(inside) - 1
    keep = inside[fa] & inside[fb]
    interior = FacetSet(
        a=local[fa[keep]],
        b=local[fb[keep]],
        measure=facets.measure[keep],
        endpoints=facets.endpoints[keep],
    )
    volumes = np.array([_shoelace_area(v) for v in cells])
    return dict(
        cells=np.asarray(cells), ref_points=centers, cell_volumes=volumes, inside=inside,
        window_areas=areas, facets=facets, interior=interior,
    )


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _same_facets(f, g):
    return all(
        _same_bits(getattr(f, name), getattr(g, name))
        for name in ("a", "b", "measure", "endpoints")
    )


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
        ],
    )
    def test_bitwise_equal_to_loop_builder(self, lo, hi, delta):
        window = Box(np.array(lo), np.array(hi))
        ref = _loop_hexagonal(delta, window)
        wh = hexagonal_honeycomb(delta, window)
        parent = wh.parent
        assert _same_bits(parent.verts, ref["cells"].reshape(-1, 2))
        assert _same_bits(parent.counts, np.full(len(ref["cells"]), 6))
        assert _same_bits(parent.ref_points, ref["ref_points"])
        assert _same_bits(parent.cell_volumes, ref["cell_volumes"])
        assert _same_bits(wh.inside, ref["inside"])
        assert _same_bits(parent.window_areas, ref["window_areas"])
        assert _same_facets(parent.facets, ref["facets"])
        assert _same_facets(wh.interior_facets, ref["interior"])

    def test_voronoi_window_stats_equal_to_loop(self):
        pts = sample_poisson_process(4.0, Box(np.full(2, -3.0), np.full(2, 3.0)), 5)
        window = Box(np.full(2, -2.0), np.full(2, 2.0))
        wh = voronoi_honeycomb_2d(pts, window, guard=1.0)
        cells = split_cells(wh.parent)
        inside, areas = _loop_window_stats(cells, window)
        assert _same_bits(wh.inside, inside)
        assert _same_bits(wh.parent.window_areas, areas)
        assert _same_bits(wh.parent.cell_volumes, np.array([_shoelace_area(c) for c in cells]))

    def test_voronoi_empty_cells_window_stats_equal_to_loop(self):
        # two far generators whose regions the guard box clips away to no
        # vertices: one in the middle of the generator order and the last one
        guard = 0.5
        window = Box(np.full(2, -1.0), np.full(2, 1.0))
        cloud = np.random.default_rng(4).uniform(-1.5, 1.5, size=(40, 2))
        pts = np.vstack([cloud[:20], [[30.0, 0.0]], cloud[20:], [[0.0, -30.0]]])
        wh = voronoi_honeycomb_2d(pts, window, guard)
        cells = split_cells(wh.parent)
        assert len(cells[20]) == 0 and len(cells[-1]) == 0
        inside, areas = _loop_window_stats(cells, window)
        assert _same_bits(wh.inside, inside)
        assert _same_bits(wh.meeting_index, np.flatnonzero(areas > 0))
        assert _same_bits(wh.parent.window_areas, areas)
        assert _same_bits(wh.parent.cell_volumes, np.array([_shoelace_area(c) for c in cells]))
        assert np.sum(wh.parent.window_areas) == pytest.approx(window.volume, rel=1e-12)


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
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_same_diagram_as_half_plane_builder(self, seed):
        window = Box(np.full(2, -3.0), np.full(2, 3.0))
        guard_box = window.expanded(0.5)
        pts = sample_poisson_process(16.0, guard_box, seed)
        wh = voronoi_honeycomb_2d(pts, window, guard=0.5)
        cells, lengths = _half_plane_voronoi(pts, guard_box)
        scale = float(np.max(guard_box.side_lengths))
        pairs = sorted(k for k, m in lengths.items() if m > MIN_FACET_FRACTION * scale)
        f = wh.parent.facets
        assert list(zip(f.a.tolist(), f.b.tolist())) == pairs  # rows sorted by (a, b)
        inside, areas = _loop_window_stats(cells, window)
        assert np.array_equal(wh.inside, inside)
        assert np.array_equal(wh.meeting_index, np.flatnonzero(areas > 0))
        # Voronoi vertices are rounded relative to their coordinates, not to
        # the facet length, so the tolerance is relative to the guard-box side
        # (its square for areas): short facets differ by up to ~1e-9 of their
        # own length, but by less than 1e-13 in absolute terms
        tol = 1e-12 * scale
        assert np.allclose(f.measure, [lengths[k] for k in pairs], rtol=0, atol=tol)
        assert np.allclose(wh.parent.window_areas, areas, rtol=0, atol=tol * scale)
        volumes = [_shoelace_area(c) for c in cells]
        assert np.allclose(wh.parent.cell_volumes, volumes, rtol=0, atol=tol * scale)
        # each generator in the guard box lies in its own cell, which needs CCW order
        built = split_cells(wh.parent)
        for i in np.flatnonzero(guard_box.contains(pts)):
            assert polygon_contains_point(built[i], pts[i])


def _table_digest(wh):
    """Digest of what the campaigns read from a 2D honeycomb: the facet
    table, the inside mask, the cells meeting the window and the clipped
    facet lengths."""
    f = wh.parent.facets
    h = hashlib.sha256()
    for x in (f.a, f.b, f.measure, f.endpoints, wh.inside, wh.meeting_index,
              wh.clipped_facets().measure):
        h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()[:16]


class TestHoneycombDigests:
    """Fixed honeycombs pinned bit for bit, apart from the field draws that
    the campaign digests add on top of them, so a change to a builder shows
    here first.  The Voronoi digests also depend on the Qhull build that
    scipy ships with."""

    WINDOW = Box(np.full(2, -4.0), np.full(2, 4.0))

    @pytest.mark.parametrize(
        "delta, digest", [(0.25, "82cd5b9f7691a9c2"), (0.125, "72682d92d09dcd6b")]
    )
    def test_hexagonal(self, delta, digest):
        assert _table_digest(hexagonal_honeycomb(delta, self.WINDOW)) == digest

    @pytest.mark.parametrize("seed, digest", [(1, "28d73be115a399f7"), (2, "6030ea4022c65f58")])
    def test_voronoi(self, seed, digest):
        guard = 0.375
        pts = sample_poisson_process(16.0, self.WINDOW.expanded(guard), seed)
        assert _table_digest(voronoi_honeycomb_2d(pts, self.WINDOW, guard)) == digest


class TestPoissonVoronoiFacetDensity:
    def test_clipped_facet_length_per_area_is_two_sqrt_rate(self):
        # The edge length per unit area of a rate-lambda Poisson-Voronoi
        # tessellation is 2 sqrt(lambda) (Okabe, Boots, Sugihara & Chiu,
        # Spatial Tessellations, 2000).  At about 1,024 cells per window the
        # ratio of one cloud spread with sd 0.017 over 30 clouds, so the mean
        # of 8 has sd 0.006 and the 3% tolerance is 5 of those.
        rate, guard = 16.0, 0.375  # guard of 1.5 mean cell spacings, as in the bias sweep
        window = Box(np.full(2, -4.0), np.full(2, 4.0))
        ratios = []
        for seed in range(8):
            pts = sample_poisson_process(rate, window.expanded(guard), seed)
            wh = voronoi_honeycomb_2d(pts, window, guard)
            density = wh.clipped_facets().measure.sum() / window.volume
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
        mid = fs.endpoints[0].mean(axis=0)
        assert mid[0] == pytest.approx(0.5, rel=1e-12)

    def test_volumes_partition_window(self):
        wh = self.build()
        assert wh.window.volume == pytest.approx(6.0)
        assert np.sort(wh.cell_volumes_inside).tolist() == pytest.approx([3.0, 3.0])
        assert coverage(wh) == pytest.approx(1.0, rel=1e-12)

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
        assert np.allclose(wh.cell_volumes_inside, 0.25)


class TestVoronoiClouds:
    def make_cloud(self, seed, n=60, half=3.0):
        rng = np.random.default_rng(seed)
        return rng.uniform(-half, half, size=(n, 2))

    def test_nearest_generator_oracle(self):
        pts = self.make_cloud(2)
        window = Box(np.full(2, -3.0), np.full(2, 3.0))
        wh = voronoi_honeycomb_2d(pts, window, guard=1.0)
        tree = cKDTree(pts)
        rng = np.random.default_rng(3)
        queries = rng.uniform(-2.0, 2.0, size=(200, 2))
        cells = split_cells(wh.parent)
        hits = 0
        for q in queries:
            for ci, poly in enumerate(cells):
                if polygon_contains_point(poly, q):
                    assert tree.query(q)[1] == ci
                    hits += 1
                    break
        assert hits >= 190  # nearly all queries land strictly inside some cell

    def test_cells_partition_window(self):
        pts = self.make_cloud(5)
        window = Box(np.full(2, -3.0), np.full(2, 3.0))
        wh = voronoi_honeycomb_2d(pts, window, guard=1.0)
        assert np.sum(wh.parent.window_areas) == pytest.approx(window.volume, rel=1e-9)

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
        assert wh.parent.ref_points.shape[0] == 2

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

    def test_clipped_facets_account_for_all_cell_boundary_in_window(self):
        # each facet piece in T borders two cells, and the rest of the clipped
        # cell perimeters is the boundary of T itself
        pts = self.make_cloud(17)
        window = Box(np.full(2, -2.0), np.full(2, 2.0))
        wh = voronoi_honeycomb_2d(pts, window, guard=1.0)
        perimeters = 0.0
        cells = split_cells(wh.parent)
        for i in wh.meeting_index:
            poly = clip_polygon_to_box(cells[i], window)
            perimeters += np.sum(np.linalg.norm(np.roll(poly, -1, axis=0) - poly, axis=1))
        f = wh.clipped_facets()
        assert perimeters == pytest.approx(2 * f.measure.sum() + 16.0, rel=1e-9)
        assert np.all(window.contains(f.endpoints.reshape(-1, 2), tol=1e-12))
        assert f.a.max() < wh.meeting_index.size and f.b.max() < wh.meeting_index.size

    def test_negative_guard_rejected(self):
        window = Box(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            voronoi_honeycomb_2d(np.array([[0.2, 0.2], [0.8, 0.8]]), window, guard=-0.5)


def _assert_clip_equals_loop(cells, box):
    """``clip_cells_to_box`` on all cells at once equals the per-polygon loop
    on each cell, bit for bit; returns the clipped cells."""
    counts = np.array([len(c) for c in cells], dtype=np.int64)
    verts, out_counts = clip_cells_to_box(np.concatenate(cells), counts, box)
    assert out_counts.shape == counts.shape and out_counts.sum() == verts.shape[0]
    clipped = np.split(verts, np.cumsum(out_counts)[:-1])
    for got, cell in zip(clipped, cells):
        assert _same_bits(got, clip_polygon_to_box(cell, box).reshape(-1, 2))
    return clipped


class TestClipCellsToBox:
    BOX = Box(np.zeros(2), np.ones(2))

    def test_case_table_matches_loop(self):
        cases = [
            # triangle whose hypotenuse x + y = 4 misses the box: the full square
            np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]),
            np.array([[0.25, 0.25], [0.75, 0.25], [0.5, 0.75]]),  # wholly inside
            np.empty((0, 2)),  # empty cell in the middle
            np.array([[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5]]),  # across a corner
            np.array([[2.0, 2.0], [3.0, 2.0], [3.0, 3.0], [2.0, 3.0]]),  # wholly outside
            np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0]]),  # touches side x = 1
            # beyond side x = 1 by less than CONTAINMENT_TOL: inside
            np.array([[0.5, 0.5], [1.0 + 5e-13, 0.5], [0.5, 0.9]]),
            # two vertices inside side x = 1 empty the cell before side y = 1
            # would turn them into three
            np.array([[0.5, 0.5], [0.5, 1.5]]),
            np.empty((0, 2)),  # empty cell at the end
        ]
        clipped = _assert_clip_equals_loop(cases, self.BOX)
        assert _shoelace_area(clipped[0]) == pytest.approx(1.0)
        assert _same_bits(clipped[1], cases[1])  # an inside cell comes back unchanged
        assert _shoelace_area(clipped[3]) == pytest.approx(0.25)
        assert [len(clipped[i]) for i in (2, 4, 7, 8)] == [0, 0, 0, 0]
        assert _shoelace_area(clipped[5]) == 0.0
        assert _same_bits(clipped[6], cases[6])

    def test_empty_input(self):
        verts, counts = clip_cells_to_box(np.empty((0, 2)), np.empty(0, dtype=np.int64), self.BOX)
        assert verts.shape == (0, 2) and counts.shape == (0,)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_convex_polygons_match_loop(self, seed, n_cells, scale, x0, y0, w, h, shift):
        # convex hulls of random points, scaled and shifted by up to two box
        # sides from the box centre, so some miss the box and some cover it
        rng = np.random.default_rng(seed)
        box = Box(np.array([x0, y0]), np.array([x0 + w, y0 + h]))
        centre = box.lo + (0.5 + shift) * box.side_lengths
        cells = []
        for _ in range(n_cells):
            pts = centre + scale * rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 12)), 2))
            cells.append(pts[ConvexHull(pts).vertices])  # CCW in 2D
        clipped = _assert_clip_equals_loop(cells, box)
        for got, cell in zip(clipped, cells):
            area = _shoelace_area(got)
            # shoelace rounding grows with the coordinates' magnitude
            slack = 1e-12 * len(got) * float(np.max(np.abs(cell))) ** 2
            assert area <= _shoelace_area(cell) + slack
            assert area <= box.volume + slack


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
