"""Distributional checks for the field samplers.

Monte Carlo tolerances are set at roughly four standard errors of the
statistic under test, so a correct implementation fails any single check with
probability well under 1e-3.
"""

import math
import tracemalloc

import numpy as np
import pytest

from excursionkit import sampling
from excursionkit.densities import CovarianceModel
from excursionkit.estimators import _counted_surface, hypercubic_surface_fast
from excursionkit.sampling import (
    FACTOR_TOL,
    GridSpec,
    _axis_factor,
    _lattice_counts,
    _pivoted_factor,
    covariance_factor,
    sample_chi_square,
    sample_gaussian_grid,
    sample_gaussian_points,
    sample_poisson_process,
)
from excursionkit.tessellation import Box, hexagonal_honeycomb, voronoi_honeycomb_2d

MODEL = CovarianceModel(1.0)


class TestGridSpec:
    def test_shape_and_counts(self):
        g = GridSpec(2, 3, 0.5)
        assert g.shape == (6, 6)
        assert g.n_nodes == 36
        assert g.window_volume == pytest.approx(9.0)

    def test_axis_coords_symmetric_lattice(self):
        g = GridSpec(1, 2, 0.25)
        assert np.allclose(g.axis_coords, [-0.5, -0.25, 0.0, 0.25])

    def test_nodes_row_major(self):
        g = GridSpec(2, 1, 1.0)
        nodes = g.nodes()
        assert nodes.shape == (4, 2)
        # first axis varies slowest
        assert np.allclose(nodes, [[-1, -1], [-1, 0], [0, -1], [0, 0]])

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            GridSpec(0, 4, 0.5)
        with pytest.raises(ValueError):
            GridSpec(2, 0, 0.5)
        with pytest.raises(ValueError):
            GridSpec(2, 4, -0.1)


class TestGaussianGrid:
    def test_deterministic_in_seed(self):
        g = GridSpec(2, 8, 0.25)
        a = sample_gaussian_grid(MODEL, g, 123)[0]
        b = sample_gaussian_grid(MODEL, g, 123)[0]
        c = sample_gaussian_grid(MODEL, g, 124)[0]
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_fields_read_in_any_order(self):
        # each field is contracted from its own noise slice when read: the
        # second read first, or a field read twice, has the bits of the tuple
        g = GridSpec(3, 4, 0.5)
        both = tuple(sample_gaussian_grid(MODEL, g, 7))
        draw = sample_gaussian_grid(MODEL, g, 7)
        assert len(draw) == 2
        second, first = draw[1], draw[0]
        assert second.tobytes() == both[1].tobytes()
        assert first.tobytes() == both[0].tobytes()
        assert draw[-1].tobytes() == draw[1].tobytes() == second.tobytes()
        with pytest.raises(IndexError):
            draw[2]

    def test_field_is_the_noise_times_the_axis_factor_on_each_axis(self):
        # in 2D field h is A E_h A^T for the noise slice E_h
        g = GridSpec(2, 8, 0.25)
        factor = sampling._axis_factor(g.shape[0], g.spacing, MODEL.length_scale)
        noise = sampling._rng(5).standard_normal((2,) + (factor.shape[1],) * 2)
        draw = sample_gaussian_grid(MODEL, g, 5)
        for h in (1, 0):
            expected = factor @ noise[h] @ factor.T
            assert np.allclose(draw[h].reshape(g.shape), expected, rtol=0, atol=1e-12)

    def test_exact_covariance_small_grid(self):
        # the draw is exact, so the empirical covariance of a tiny 1D grid
        # must match the model within plain Monte Carlo error
        g = GridSpec(1, 4, 0.5)
        reps = 3000
        draws = np.stack([sample_gaussian_grid(MODEL, g, s)[0] for s in range(reps)])
        emp = draws.T @ draws / reps
        coords = g.axis_coords
        expected = MODEL.covariance((coords[:, None] - coords[None, :]) ** 2)
        # entrywise s.e. of a Gaussian product moment is about 1/sqrt(reps)
        assert np.max(np.abs(emp - expected)) < 4.5 / np.sqrt(reps)

    def test_imaginary_half_has_model_covariance(self):
        g = GridSpec(1, 4, 0.5)
        reps = 3000
        draws = np.stack([sample_gaussian_grid(MODEL, g, s)[1] for s in range(reps)])
        emp = draws.T @ draws / reps
        coords = g.axis_coords
        expected = MODEL.covariance((coords[:, None] - coords[None, :]) ** 2)
        assert np.max(np.abs(emp - expected)) < 4.5 / np.sqrt(reps)

    def test_exact_covariance_at_every_lag_of_a_low_rank_axis(self):
        # 128 nodes at spacing 0.125 take a factor of rank 47, far below n;
        # every lag, the longest included, keeps the model covariance
        g = GridSpec(1, 64, 0.125)
        assert _axis_factor(128, 0.125, 1.0).shape[1] < 64
        reps = 3000
        draws = np.stack([sample_gaussian_grid(MODEL, g, 20_000 + s)[0] for s in range(reps)])
        emp = draws.T @ draws / reps
        n = g.shape[0]
        lags = np.arange(n)
        # mean of the empirical covariance over the pairs at each lag, the
        # longest (one pair, nodes 0 and 127) included
        emp_lag = np.array([np.diagonal(emp, k).mean() for k in lags])
        expected = MODEL.covariance((lags * g.spacing) ** 2)
        assert np.max(np.abs(emp_lag - expected)) < 4.5 / np.sqrt(reps)

    def test_halves_are_uncorrelated(self):
        # the two halves of one draw contract independent noise blocks:
        # every entry of their cross-covariance is 0
        g = GridSpec(1, 4, 0.5)
        reps = 3000
        pairs = [sample_gaussian_grid(MODEL, g, 10_000 + s) for s in range(reps)]
        re = np.stack([p[0] for p in pairs])
        im = np.stack([p[1] for p in pairs])
        cross = re.T @ im / reps
        # each entry is a mean of products of two independent unit normals
        assert np.max(np.abs(cross)) < 4.5 / np.sqrt(reps)

    def test_draw_builds_no_nodes(self, monkeypatch):
        g = GridSpec(2, 2, 0.5)
        calls = []
        real_nodes = GridSpec.nodes
        monkeypatch.setattr(GridSpec, "nodes", lambda self: calls.append(1) or real_nodes(self))
        sample_gaussian_grid(MODEL, g, 1)
        sample_chi_square(MODEL, 2, g, 1)
        assert calls == []

    def test_normalized_lag_correlation_2d(self):
        g = GridSpec(2, 16, 0.25)
        reps = 80
        fields = np.stack(
            [sample_gaussian_grid(MODEL, g, 1000 + s)[0].reshape(g.shape) for s in range(reps)]
        )
        var = fields.var()
        lag = np.mean(fields[:, :-1, :] * fields[:, 1:, :]) / var
        assert lag == pytest.approx(np.exp(-0.5 * 0.25**2), abs=0.004)

    def test_mean_and_variance(self):
        g = GridSpec(2, 16, 0.5)
        reps = 60
        vals = np.concatenate([sample_gaussian_grid(MODEL, g, 2000 + s)[0] for s in range(reps)])
        assert abs(vals.mean()) < 0.05
        assert vals.var() == pytest.approx(1.0, abs=0.06)

    def test_isotropy_of_axis_correlations(self):
        g = GridSpec(2, 16, 0.25)
        reps = 60
        fields = np.stack(
            [sample_gaussian_grid(MODEL, g, 3000 + s)[0].reshape(g.shape) for s in range(reps)]
        )
        c0 = np.mean(fields[:, :-1, :] * fields[:, 1:, :])
        c1 = np.mean(fields[:, :, :-1] * fields[:, :, 1:])
        assert c0 == pytest.approx(c1, abs=0.01)


def _one_shot(noise, factor):
    """The whole field of one noise slice, contracted in one pass: the
    leading noise axis with A, the n result nodes appended last, d times."""
    z, n = noise, factor.shape[0]
    for _ in range(z.ndim):
        rest = z.shape[1:]
        z = np.matmul(z.reshape(z.shape[0], -1).T, factor.T).reshape(rest + (n,))
    return z.reshape(-1)


def _whole_field_counts(field, grid, u):
    """(nodes >= u, neighbour pairs whose flags differ) of a whole field, by
    one comparison of the flags per axis."""
    flags = (field >= u).reshape(grid.shape)
    pairs = 0
    for axis in range(grid.d):
        lo = np.take(flags, np.arange(grid.shape[axis] - 1), axis=axis)
        hi = np.take(flags, np.arange(1, grid.shape[axis]), axis=axis)
        pairs += int(np.count_nonzero(lo != hi))
    return int(np.count_nonzero(flags)), pairs


class TestSlabs:
    """A field contracted slab by slab has the bits of one whole contraction,
    and its counts, taken slab by slab, those of the whole field."""

    @pytest.mark.parametrize(
        "d, half_extent, slab_values, slabs",
        [
            (1, 16, sampling.SLAB_VALUES, [32]),
            (1, 6, 12, [8, 4]),  # rows that do not divide n
            (2, 6, 10, [2] * 6),  # n^(d-1) = 12 exceeds the slab: 2 rows
            (2, 6, 100, [8, 4]),
            (2, 128, sampling.SLAB_VALUES, [128, 128]),
            (3, 6, 100, [2] * 6),  # n^(d-1) = 144 exceeds the slab: 2 rows
            (3, 6, 1200, [8, 4]),
            (3, 32, sampling.SLAB_VALUES, [8] * 8),
        ],
    )
    def test_slabs_have_the_one_shot_bits(self, monkeypatch, d, half_extent, slab_values, slabs):
        monkeypatch.setattr(sampling, "SLAB_VALUES", slab_values)
        g = GridSpec(d, half_extent, 0.25)
        factor = _axis_factor(g.shape[0], g.spacing, MODEL.length_scale)
        shapes = [(rows,) + g.shape[1:] for rows in slabs]
        draw = sample_gaussian_grid(MODEL, g, 31)
        assert [slab.shape for slab in draw.slabs(0)] == shapes

        noise = sampling._rng(31).standard_normal((2,) + (factor.shape[1],) * d)
        for h in (0, 1):
            field = _one_shot(noise[h], factor)
            assert draw[h].tobytes() == field.tobytes()
            for u in (-0.5, 0.0, 1.0, field[5]):  # field[5] is a tie at node 5
                counts = _lattice_counts(draw.slabs(h), u)
                assert counts == _whole_field_counts(field, g, u)
                assert _counted_surface(counts[1], g) == hypercubic_surface_fast(field, g, u)

        sums = np.zeros((2, g.n_nodes))
        for comp in range(3):
            noise = sampling._rng((31, comp)).standard_normal((2,) + (factor.shape[1],) * d)
            for h in (0, 1):
                sums[h] += np.square(_one_shot(noise[h], factor))
        chi = sample_chi_square(MODEL, 3, g, 31)
        assert [slab.shape for slab in chi.slabs(1)] == shapes
        assert len(chi) == 2
        assert [x.tobytes() for x in chi] == [x.tobytes() for x in sums]
        first, second = chi
        assert (first.tobytes(), second.tobytes()) == (sums[0].tobytes(), sums[1].tobytes())
        with pytest.raises(IndexError):
            chi[2]
        for h in (0, 1):
            for u in (0.5, 1.0, 3.0, sums[h][5]):  # sums[h][5] is a tie at node 5
                counts = _lattice_counts(chi.slabs(h), u)
                assert counts == _whole_field_counts(sums[h], g, u)

        # one degree: the squared Gaussian field of the component's key
        one, gauss = sample_chi_square(MODEL, 1, g, 31), sample_gaussian_grid(MODEL, g, (31, 0))
        for h in (0, 1):
            assert one[h].tobytes() == np.square(gauss[h]).tobytes()


def _kernel_matrix(n, spacing, length_scale):
    lags = spacing * np.arange(n)
    return CovarianceModel(length_scale).covariance((lags[:, None] - lags[None, :]) ** 2)


class TestAxisFactor:
    @pytest.mark.parametrize(
        "n,spacing,length_scale,full_rank",
        [
            (1, 0.5, 1.0, True),
            (8, 0.5, 1.0, True),  # spacing >= ell / 2: every node is needed
            (48, 0.5, 1.0, True),
            (40, 1.5, 2.5, True),
            (16, 1.0, 1.0, True),
            (64, 0.125, 1.0, False),  # the 3D acceptance axis
            (256, 0.0625, 1.0, False),  # the 2D acceptance axis
            (320, 0.1, 1.0, False),  # the widest default clt window
            (400, 0.02, 0.3, False),
            (1280, 0.0625, 1.0, False),  # a window 80 length scales wide
        ],
    )
    def test_factor_reproduces_axis_kernel(self, n, spacing, length_scale, full_rank):
        factor = _axis_factor(n, spacing, length_scale)
        rank = factor.shape[1]
        assert factor.shape == (n, rank) and rank <= n
        assert (rank == n) == full_rank
        error = factor @ factor.T - _kernel_matrix(n, spacing, length_scale)
        assert np.max(np.abs(error)) <= FACTOR_TOL

    @pytest.mark.parametrize("length_scale", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("spacing", [0.5, 0.3, 0.125, 0.0625])
    @pytest.mark.parametrize("n", [3, 17, 40, 64, 256, 1000])
    def test_factor_is_model_covariance_within_tol(self, n, spacing, length_scale):
        factor = _axis_factor.__wrapped__(n, spacing, length_scale)  # uncached
        assert factor.shape[0] == n and factor.shape[1] <= n
        error = factor @ factor.T - _kernel_matrix(n, spacing, length_scale)
        assert np.max(np.abs(error)) <= FACTOR_TOL

    def test_rank_set_by_window_width_not_node_count(self):
        # 8 length scales wide: the same rank to within a few columns at 4x the nodes
        ranks = [_axis_factor(n, 8.0 / n, 1.0).shape[1] for n in (64, 128, 256)]
        assert max(ranks) - min(ranks) <= 3 and max(ranks) < 64

    def test_never_forms_the_axis_matrix(self):
        n = 1280
        tracemalloc.start()
        try:
            _axis_factor.__wrapped__(n, 0.0625, 1.0)  # uncached: every allocation counts
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 2

    def test_cached_and_read_only(self):
        factor = _axis_factor(64, 0.125, 1.0)
        assert _axis_factor(64, 0.125, 1.0) is factor
        with pytest.raises(ValueError):
            factor[0, 0] = 0.0


def _point_covariance(points, length_scale=1.0):
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    return CovarianceModel(length_scale).covariance(d2)


def _hexagon_centres():
    return hexagonal_honeycomb(0.25, Box(np.full(2, -4.0), np.full(2, 4.0))).ref_points_inside


def _voronoi_generators():
    window = Box(np.full(2, -2.0), np.full(2, 2.0))
    unit_box = Box(np.full(2, -9.5), np.full(2, 9.5))
    pts = 0.25 * sample_poisson_process(1.0, unit_box, (12, 0))
    return voronoi_honeycomb_2d(pts, window, 0.375).ref_points_weighted


class TestPointFactor:
    @pytest.mark.parametrize(
        "name, points, length_scale",
        [
            # 367 hexagon centres on 21 distinct x and 91 distinct y values
            ("hexagonal", _hexagon_centres(), 1.0),
            ("voronoi", _voronoi_generators(), 1.0),
            ("voronoi-short-scale", _voronoi_generators(), 0.4),
            ("3d", np.random.default_rng(21).uniform(-3.0, 3.0, (300, 3)), 1.0),
            ("one point", np.array([[0.3, -1.2]]), 1.0),
            ("no points", np.empty((0, 2)), 1.0),
            # coordinates further apart than the length scale: every axis full rank
            ("full rank", np.array([[0.0, 0.0], [3.0, 1.5], [6.0, 3.0], [9.0, 4.5]]), 1.0),
        ],
    )
    def test_product_of_axis_factors_is_the_covariance(self, name, points, length_scale):
        model = CovarianceModel(length_scale)
        n, d = points.shape
        factors = covariance_factor(model, points)
        assert len(factors) == d
        product = np.ones((n, n))
        for r in factors:
            assert r.shape[1] == n and r.shape[0] <= n
            assert not r.flags.writeable
            product *= r.T @ r
        error = product - _point_covariance(points, length_scale)
        assert np.max(np.abs(error), initial=0.0) <= (1.0 + FACTOR_TOL) ** d - 1.0
        if name == "full rank":
            assert [r.shape[0] for r in factors] == [n] * d

    def test_repeated_coordinates_add_no_rank(self):
        # 367 centres, but x takes 21 distinct values: that axis has rank 21
        points = _hexagon_centres()
        for x, r in zip(points.T, covariance_factor(MODEL, points)):
            assert r.shape[0] <= np.unique(x).size

    def test_axis_factor_is_the_transposed_pivoted_factor(self):
        factor = _axis_factor(64, 0.125, 1.0)
        assert np.array_equal(factor, _pivoted_factor(0.125 * np.arange(64)).T)
        assert factor.flags.c_contiguous


class TestGaussianPoints:
    def test_matches_grid_distribution(self):
        # same covariance model through the point route: check variance and
        # a short-lag correlation against closed forms
        pts = np.stack([np.zeros(40), 0.25 * np.arange(40)], axis=1)
        reps = 400
        draws = np.stack(
            [sample_gaussian_points(MODEL, pts, 4000 + s) for s in range(reps)]
        )
        var = draws.var()
        lag = np.mean(draws[:, :-1] * draws[:, 1:]) / var
        assert var == pytest.approx(1.0, abs=0.08)
        assert lag == pytest.approx(np.exp(-0.5 * 0.25**2), abs=0.01)

    def test_exact_covariance_at_scattered_points(self):
        # 8 points in the plane, some closer than the length scale and some
        # several apart: the empirical covariance matches the model within
        # plain Monte Carlo error
        pts = np.random.default_rng(22).uniform(-2.0, 2.0, (8, 2))
        reps = 3000
        draws = np.stack([sample_gaussian_points(MODEL, pts, (23, s)) for s in range(reps)])
        emp = draws.T @ draws / reps
        assert np.max(np.abs(emp - _point_covariance(pts))) < 4.5 / np.sqrt(reps)

    def test_deterministic(self):
        pts = np.random.default_rng(0).random((30, 2))
        a = sample_gaussian_points(MODEL, pts, 9)
        b = sample_gaussian_points(MODEL, pts, 9)
        assert np.array_equal(a, b)

    def test_large_cloud_needs_no_cap(self):
        # far beyond the 4,096 points the dense factor was capped at, and
        # without any n x n array: the draw allocates a few n x r arrays
        n = 6000
        pts = np.random.default_rng(1).uniform(-4.0, 4.0, (n, 2))
        tracemalloc.start()
        try:
            out = sample_gaussian_points(MODEL, pts, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (n,) and np.all(np.isfinite(out))
        assert peak < 8 * n * n / 20

    def test_empty_points(self):
        out = sample_gaussian_points(MODEL, np.empty((0, 2)), 0)
        assert out.shape == (0,)

    def test_precomputed_factor_gives_the_same_bits(self):
        pts = np.random.default_rng(2).random((50, 2)) * 4
        factor = covariance_factor(MODEL, pts)
        for seed in (0, (5, 1, 2)):
            fresh = sample_gaussian_points(MODEL, pts, seed)
            reused = sample_gaussian_points(MODEL, pts, seed, factor=factor)
            assert fresh.tobytes() == reused.tobytes()

    def test_factor_shape_checked(self):
        pts = np.random.default_rng(3).random((6, 2))
        with pytest.raises(ValueError, match="do not match"):
            sample_gaussian_points(MODEL, pts, 0, factor=covariance_factor(MODEL, pts[:5]))
        with pytest.raises(ValueError, match="do not match"):
            sample_gaussian_points(MODEL, pts, 0, factor=covariance_factor(MODEL, pts)[:1])
        with pytest.raises(ValueError, match="do not match"):
            sample_chi_square(MODEL, 2, pts, 0, factor=covariance_factor(MODEL, pts[:, :1]))

    def test_factor_reproduces_covariance(self):
        pts = np.random.default_rng(4).random((20, 2)) * 3
        rx, ry = covariance_factor(MODEL, pts)
        assert np.allclose((rx.T @ rx) * (ry.T @ ry), _point_covariance(pts), rtol=0, atol=1e-12)
        # each factor is that of one coordinate, on the length scale
        scaled = covariance_factor(CovarianceModel(2.0), 2.0 * pts)
        assert np.array_equal(scaled[0], rx) and np.array_equal(scaled[1], ry)


class TestChiSquare:
    def test_moments_at_single_point(self):
        # K=3 marginal: mean 3, variance 6
        reps = 6000
        vals = np.array(
            [sample_chi_square(MODEL, 3, [[0.0, 0.0]], s)[0] for s in range(reps)]
        )
        assert vals.mean() == pytest.approx(3.0, abs=0.15)
        assert vals.var() == pytest.approx(6.0, abs=0.6)

    def test_one_degree_survival(self):
        reps = 8000
        vals = np.array(
            [sample_chi_square(MODEL, 1, [[0.0, 0.0]], s)[0] for s in range(reps)]
        )
        assert np.mean(vals >= 1.0) == pytest.approx(0.3173, abs=0.015)

    def test_grid_path_matches_marginals(self):
        g = GridSpec(2, 8, 0.5)
        vals = np.concatenate(
            [sample_chi_square(MODEL, 2, g, 7000 + s)[0] for s in range(50)]
        )
        assert vals.mean() == pytest.approx(2.0, abs=0.1)
        assert np.mean(vals >= 2.0) == pytest.approx(np.exp(-1.0), abs=0.02)

    def test_nonnegative_and_deterministic(self):
        g = GridSpec(2, 4, 0.5)
        a = np.concatenate(sample_chi_square(MODEL, 2, g, 3))
        b = np.concatenate(sample_chi_square(MODEL, 2, g, 3))
        assert np.all(a >= 0.0)
        assert np.array_equal(a, b)

    def test_components_are_independent_streams(self):
        # with equal component seeds the field would be k * Z^2; the survival
        # at u = k would then be about 0.32, not the chi-square value
        g = GridSpec(1, 256, 0.5)
        v = sample_chi_square(MODEL, 2, g, 11)[0]
        frac = np.mean(v >= 2.0)
        assert 0.2 < frac < 0.55  # loose: one correlated field draw

    def test_grid_pair_sums_both_halves_of_each_component(self):
        # both halves take their k components from the draws keyed (seed, component)
        g = GridSpec(2, 4, 0.5)
        real, imag = sample_chi_square(MODEL, 3, g, (9, 1))
        expected = np.zeros((2, g.n_nodes))
        for comp in range(3):
            halves = sample_gaussian_grid(MODEL, g, (9, 1, comp))
            for acc, half in zip(expected, halves):
                acc += half * half
        assert real.tobytes() == expected[0].tobytes()
        assert imag.tobytes() == expected[1].tobytes()

    def test_rejects_bad_degrees(self):
        with pytest.raises(ValueError):
            sample_chi_square(MODEL, 0, [[0.0, 0.0]], 1)

    def test_scattered_points_factor_once(self, monkeypatch):
        calls = []
        real = sampling.covariance_factor
        monkeypatch.setattr(
            sampling, "covariance_factor", lambda *a, **kw: calls.append(1) or real(*a, **kw)
        )
        pts = np.random.default_rng(6).random((25, 2)) * 3
        out = sample_chi_square(MODEL, 3, pts, 8)
        assert len(calls) == 1
        # each component is still the Gaussian draw on stream (seed, component)
        expected = np.zeros(25)
        for comp in range(3):
            g = sample_gaussian_points(MODEL, pts, (8, comp))
            expected += g * g
        assert out.tobytes() == expected.tobytes()


class TestPoissonProcess:
    def test_count_statistics(self):
        box = Box(np.zeros(2), np.array([5.0, 2.0]))
        counts = np.array([sample_poisson_process(4.0, box, s).shape[0] for s in range(500)])
        assert counts.mean() == pytest.approx(40.0, abs=1.2)
        fano = counts.var(ddof=1) / counts.mean()
        assert fano == pytest.approx(1.0, abs=0.2)

    def test_points_inside_box(self):
        box = Box(np.array([-1.0, 2.0]), np.array([1.0, 3.0]))
        pts = sample_poisson_process(30.0, box, 1)
        assert np.all(pts >= box.lo) and np.all(pts <= box.hi)

    def test_deterministic(self):
        box = Box(np.zeros(2), np.ones(2))
        assert np.array_equal(
            sample_poisson_process(20.0, box, 42), sample_poisson_process(20.0, box, 42)
        )

    def test_degenerate_cases(self):
        box = Box(np.zeros(2), np.ones(2))
        assert sample_poisson_process(0.0, box, 0).shape == (0, 2)
        with pytest.raises(ValueError):
            sample_poisson_process(-1.0, box, 0)
