import math
import time

import numpy as np
import pytest

from excursionkit.crofton import (
    CroftonEstimate,
    LevelPolyline,
    circle_shape,
    crofton_measure_mc,
    extract_level_polyline_2d,
    l1_weighted_length,
    sphere_l1_average,
    square_shape,
)
from excursionkit.densities import beta_d
from excursionkit.sampling import GridSpec, sample_gaussian_grid
from excursionkit.densities import CovarianceModel


class TestSphereL1Average:
    def test_low_dimension_closed_forms(self):
        assert sphere_l1_average(1) == 1.0
        assert sphere_l1_average(2) == pytest.approx(4.0 / math.pi, abs=1e-9)
        assert sphere_l1_average(3) == pytest.approx(1.5, abs=1e-9)

    def test_identity_with_beta(self):
        start = time.perf_counter()
        for d in range(1, 9):
            assert abs(sphere_l1_average(d) * beta_d(d) - 2.0 * d) < 1e-6
        assert time.perf_counter() - start < 1.0

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            sphere_l1_average(0)


class TestCroftonMc:
    def test_circle_measure(self):
        est = crofton_measure_mc(circle_shape(1.0), 2, 100_000, 1.5, 17)
        assert isinstance(est, CroftonEstimate)
        truth = 2.0 * math.pi
        assert abs(est.value - truth) / truth < 0.01
        assert abs(est.value - truth) < 3.0 * est.stderr

    def test_square_measure(self):
        est = crofton_measure_mc(square_shape(1.0), 2, 100_000, 1.5, 18)
        assert abs(est.value - 4.0) / 4.0 < 0.01
        assert abs(est.value - 4.0) < 3.0 * est.stderr

    def test_scaled_square(self):
        est = crofton_measure_mc(square_shape(2.0, center=(0.3, -0.2)), 2, 60_000, 2.5, 19)
        assert est.value == pytest.approx(8.0, rel=0.02)

    def test_stderr_shrinks_with_lines(self):
        small = crofton_measure_mc(circle_shape(1.0), 2, 4_000, 1.5, 20)
        large = crofton_measure_mc(circle_shape(1.0), 2, 64_000, 1.5, 20)
        assert large.stderr < small.stderr / 3.0  # 16x lines, 4x reduction

    def test_deterministic(self):
        a = crofton_measure_mc(circle_shape(1.0), 2, 5_000, 1.5, 21)
        b = crofton_measure_mc(circle_shape(1.0), 2, 5_000, 1.5, 21)
        assert a.value == b.value

    def test_sphere_in_3d(self):
        # unit sphere area 4*pi via chords counting 2 per hit
        def sphere(s, v):
            w = -v
            along = np.sum(w * s, axis=1)
            dist_sq = np.sum(w * w, axis=1) - along**2
            return np.where(dist_sq < 1.0, 2, 0)

        est = crofton_measure_mc(sphere, 3, 120_000, 1.4, 22)
        assert est.value == pytest.approx(4.0 * math.pi, rel=0.02)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            crofton_measure_mc(circle_shape(1.0), 1, 100, 1.5, 0)
        with pytest.raises(ValueError):
            crofton_measure_mc(circle_shape(1.0), 2, 0, 1.5, 0)
        with pytest.raises(ValueError):
            crofton_measure_mc(circle_shape(1.0), 2, 100, 0.0, 0)


class TestLevelPolyline:
    def test_vertical_level_line(self):
        grid = GridSpec(2, 40, 0.1)
        values = grid.nodes()[:, 0]
        poly = extract_level_polyline_2d(values, grid, 0.0)
        # the zero set x = 0 spans the node range [-4, 3.9]
        assert poly.total_length() == pytest.approx(7.9, rel=1e-9)
        assert np.allclose(np.abs(poly.normals[:, 0]), 1.0)
        assert np.allclose(poly.normals[:, 1], 0.0, atol=1e-12)

    def test_diagonal_level_line_l1_weight(self):
        grid = GridSpec(2, 40, 0.1)
        nodes = grid.nodes()
        values = nodes[:, 0] + nodes[:, 1]
        poly = extract_level_polyline_2d(values, grid, 0.0)
        assert poly.total_length() == pytest.approx(7.8 * math.sqrt(2), rel=1e-6)
        # normals are (1,1)/sqrt(2): the l1 weight is sqrt(2) per unit length
        assert l1_weighted_length(poly) == pytest.approx(2 * 7.8, rel=1e-6)

    def test_circle_level_line(self):
        grid = GridSpec(2, 400, 0.01)
        nodes = grid.nodes()
        values = -np.hypot(nodes[:, 0], nodes[:, 1])
        poly = extract_level_polyline_2d(values, grid, -1.0)
        assert poly.total_length() == pytest.approx(2.0 * math.pi, rel=0.005)
        # average of ||n||_1 over the circle is 4/pi
        assert l1_weighted_length(poly) == pytest.approx(8.0, rel=0.01)

    def test_constant_field_empty(self):
        grid = GridSpec(2, 10, 0.2)
        values = np.ones(grid.n_nodes)
        poly = extract_level_polyline_2d(values, grid, 0.0)
        assert poly.segments.shape == (0, 2, 2)
        assert poly.total_length() == 0.0

    def test_l1_at_least_euclidean(self):
        grid = GridSpec(2, 30, 0.2)
        values = sample_gaussian_grid(CovarianceModel(1.0), grid, 55)[0]
        poly = extract_level_polyline_2d(values, grid, 0.3)
        assert l1_weighted_length(poly) >= poly.total_length() - 1e-9

    def test_saddles_recorded(self):
        # four-node checkerboard forces the ambiguous case
        grid = GridSpec(2, 1, 1.0)
        poly = extract_level_polyline_2d(np.array([1.0, -1.0, -1.0, 1.0]), grid, 0.0)
        assert poly.saddle_cells == 1
        assert poly.segments.shape[0] == 2

    def test_segment_endpoints_on_level(self):
        grid = GridSpec(2, 20, 0.25)
        values = sample_gaussian_grid(CovarianceModel(1.0), grid, 77)[0]
        u = 0.4
        poly = extract_level_polyline_2d(values, grid, u)
        vals = values.reshape(grid.shape)
        coords = grid.axis_coords
        # bilinear interpolation of the field at segment endpoints returns u
        for seg in poly.segments[:50]:
            for pt in seg:
                fx = np.interp(pt[0], coords, np.arange(coords.size))
                fy = np.interp(pt[1], coords, np.arange(coords.size))
                i, j = int(min(fx, coords.size - 2)), int(min(fy, coords.size - 2))
                tx, ty = fx - i, fy - j
                v = (
                    vals[i, j] * (1 - tx) * (1 - ty)
                    + vals[i + 1, j] * tx * (1 - ty)
                    + vals[i, j + 1] * (1 - tx) * ty
                    + vals[i + 1, j + 1] * tx * ty
                )
                assert v == pytest.approx(u, abs=1e-9)

    def test_mismatched_grid_rejected(self):
        grid = GridSpec(2, 4, 0.5)
        with pytest.raises(ValueError):
            extract_level_polyline_2d(np.zeros(10), grid, 0.0)


class TestLevelLineVsLatticeEstimator:
    def test_l1_oracle_tracks_lattice_estimate(self):
        # the l1-weighted level length divided by the window volume and the
        # lattice crossing estimate agree to O(delta) on a smooth field
        from excursionkit.estimators import hypercubic_surface_fast

        grid = GridSpec(2, 100, 0.04)
        values = sample_gaussian_grid(CovarianceModel(1.0), grid, 4242)[0]
        est = hypercubic_surface_fast(values, grid, 0.0)
        oracle = l1_weighted_length(extract_level_polyline_2d(values, grid, 0.0))
        assert est == pytest.approx(oracle / grid.window_volume, rel=0.08)
