import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from excursionkit.campaigns import default_config, run_campaign
from excursionkit.densities import CovarianceModel, beta_d
from excursionkit.estimators import (
    _counted_volume,
    _lattice_sum,
    corrected_surface,
    crossing_frequency,
    exceedance_indicator,
    hypercubic_surface_fast,
    surface_estimate,
    volume_estimate,
    weighted_surface_estimate,
)
from excursionkit.sampling import (
    GridSpec,
    _lattice_counts,
    sample_gaussian_grid,
    sample_poisson_process,
)
from excursionkit.tessellation import (
    Box,
    hypercubic_honeycomb,
    pyramid_identity_sum,
    voronoi_honeycomb_2d,
)

MODEL = CovarianceModel(1.0)


class TestHandExamples:
    """The 2x2 unit lattice worked by hand: cells at (-1,-1), (-1,0), (0,-1), (0,0)."""

    @pytest.fixture()
    def wh(self):
        return hypercubic_honeycomb(1.0, 1, 2)

    def test_single_cell_exceedance(self, wh):
        flags = np.array([False, False, False, True])  # only (0, 0)
        assert volume_estimate(wh, flags) == pytest.approx(0.25)
        assert surface_estimate(wh, flags) == pytest.approx(0.5)

    def test_checkerboard(self, wh):
        values = wh.ref_points_inside.sum(axis=1) % 2  # 0, 1, 1, 0 pattern
        flags = exceedance_indicator(values, 0.5)
        assert volume_estimate(wh, flags) == pytest.approx(0.5)
        # all four interior facets cross: 4 * 1 / sigma = 1
        assert surface_estimate(wh, flags) == pytest.approx(1.0)

    def test_constant_field(self, wh):
        flags = exceedance_indicator(np.ones(4), 0.0)
        assert volume_estimate(wh, flags) == pytest.approx(1.0)
        assert surface_estimate(wh, flags) == 0.0

    def test_ties_count_as_exceedance(self, wh):
        assert np.all(exceedance_indicator(np.zeros(4), 0.0))

    def test_alignment_checked(self, wh):
        with pytest.raises(ValueError):
            volume_estimate(wh, np.ones(3, dtype=bool))
        with pytest.raises(ValueError):
            surface_estimate(wh, np.ones(5, dtype=bool))

    def test_volume_needs_cell_volumes(self):
        # only the lattice honeycomb carries cell volumes
        window = Box(np.full(2, -1.0), np.full(2, 1.0))
        wh = voronoi_honeycomb_2d(np.array([[-0.5, 0.0], [0.5, 0.0]]), window, guard=0.0)
        with pytest.raises(ValueError, match="cell volumes"):
            volume_estimate(wh, np.ones(wh.n_inside, dtype=bool))


class TestCorrection:
    def test_two_dimensional_factor(self):
        assert corrected_surface(1.0, 2) == pytest.approx(math.pi / 4.0, rel=1e-14)

    def test_three_dimensional_factor(self):
        assert corrected_surface(3.0, 3) == pytest.approx(2.0, rel=1e-14)

    @given(st.floats(min_value=0.0, max_value=100.0), st.integers(min_value=1, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_inverts_limit_bias(self, raw, d):
        assert corrected_surface(raw, d) == pytest.approx(raw * beta_d(d) / (2 * d), rel=1e-12)


class TestFastEqualsGeneric:
    @pytest.mark.parametrize("d", [2, 3])
    def test_exact_equality_random_indicators(self, d):
        rng = np.random.default_rng(20260823 + d)
        for trial in range(25):
            n = int(rng.integers(1, 5))
            delta = float(rng.choice([0.25, 0.5, 1.0, 1.3]))
            grid = GridSpec(d, n, delta)
            wh = hypercubic_honeycomb(delta, n, d)
            values = rng.standard_normal(grid.n_nodes)
            u = float(rng.standard_normal())
            flags = exceedance_indicator(values, u)
            generic = surface_estimate(wh, flags)
            fast = hypercubic_surface_fast(values, grid, u)
            assert fast == generic  # bitwise, not approx
            counts = _lattice_counts([values.reshape(grid.shape)], u)
            assert _counted_volume(counts[0], grid) == volume_estimate(wh, flags)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hypercubic_surface_fast(np.zeros(5), GridSpec(2, 1, 1.0), 0.0)

    # counts on both sides of the 8,192-value ufunc buffer (np.getbufsize())
    @pytest.mark.parametrize("count", [0, 1, 7, 8191, 8192, 8193, 3 * 8192 + 5, 100_000, 256**2])
    def test_lattice_sum_has_the_bits_of_the_full_multiset(self, count):
        grid = GridSpec(2, 128, 0.0625)
        for measure in (0.0625, 0.0625**2, 0.1, 0.1**2, 1.3**3, 1.0 / 3.0):
            expected = float(np.sum(np.full(count, measure)) / grid.window_volume)
            assert _lattice_sum(count, measure, grid) == expected


class TestEstimatorProperties:
    @given(st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=40, deadline=None)
    def test_surface_invariant_under_complement(self, bits):
        wh = hypercubic_honeycomb(0.5, 2, 2)
        flags = np.array([(bits >> k) & 1 for k in range(16)], dtype=bool)
        a = surface_estimate(wh, flags)
        b = surface_estimate(wh, ~flags)
        assert a == b

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=40, deadline=None)
    def test_volumes_of_complements_sum_to_coverage(self, bits):
        wh = hypercubic_honeycomb(0.5, 2, 2)
        flags = np.array([(bits >> k) & 1 for k in range(16)], dtype=bool)
        a = volume_estimate(wh, flags)
        b = volume_estimate(wh, ~flags)
        # the lattice cells tile the window
        assert a + b == pytest.approx(1.0, rel=1e-12)

    @given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_volume_monotone_in_level(self, u, step):
        grid = GridSpec(2, 8, 0.5)
        wh = hypercubic_honeycomb(0.5, 8, 2)
        values = sample_gaussian_grid(MODEL, grid, 77)[0]
        lo = volume_estimate(wh, exceedance_indicator(values, u))
        hi = volume_estimate(wh, exceedance_indicator(values, u + step))
        assert hi <= lo

    def test_far_level_gives_empty_set(self):
        grid = GridSpec(2, 8, 0.5)
        values = sample_gaussian_grid(MODEL, grid, 5)[0]
        assert hypercubic_surface_fast(values, grid, 50.0) == 0.0
        assert hypercubic_surface_fast(values, grid, -50.0) == 0.0


def _poisson_voronoi(seed, guard, half=2.0):
    window = Box(np.full(2, -half), np.full(2, half))
    pts = sample_poisson_process(4.0, window.expanded(guard), seed)
    return voronoi_honeycomb_2d(pts, window, guard=guard)


_GUARDED = _poisson_voronoi(31, guard=0.75)


class TestClippedSurface:
    """``weighted_surface_estimate``, the window-edge-aware estimator of the
    Voronoi sweep."""

    def test_two_generators_one_in_window_count_half_the_facet(self):
        # the bisector x = 1 spans the guard box [-2, 2]^2, unclipped to T =
        # [-1, 1]^2; one of its generators lies in T, so it counts at half
        # its length 4
        window = Box(np.full(2, -1.0), np.full(2, 1.0))
        wh = voronoi_honeycomb_2d(np.array([[0.5, 0.0], [1.5, 0.0]]), window, guard=1.0)
        assert wh.n_inside == 0
        # an empty interior facet table sums to 0 on the general path
        assert len(wh.interior_facets) == 0
        assert surface_estimate(wh, np.zeros(0, dtype=bool)) == 0.0
        assert pyramid_identity_sum(wh) == 0.0
        assert wh.facets.measure.tolist() == [4.0]
        f = wh.weighted_facets
        assert wh.weighted_index.tolist() == [0, 1]
        assert (f.a.tolist(), f.b.tolist(), f.measure.tolist()) == ([0], [1], [2.0])
        assert weighted_surface_estimate(wh, np.array([True, False])) == 2.0 / window.volume
        assert weighted_surface_estimate(wh, np.array([True, True])) == 0.0

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_equals_inside_estimator_when_cells_lie_inside(self, seed):
        # at guard 0 every generator lies in the window, so every facet has
        # weight 1 and every cell is inside
        wh = _poisson_voronoi(seed, guard=0.0)
        assert np.array_equal(wh.weighted_index, wh.inside_index)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            flags = rng.random(wh.n_inside) < 0.5
            assert weighted_surface_estimate(wh, flags) == surface_estimate(wh, flags)  # bitwise

    @pytest.mark.parametrize("d", [2, 3])
    def test_equals_inside_estimator_on_lattice(self, d):
        wh = hypercubic_honeycomb(0.5, 2, d)
        flags = np.random.default_rng(d).random(wh.n_inside) < 0.5
        assert weighted_surface_estimate(wh, flags) == surface_estimate(wh, flags)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_complement(self, seed):
        n = _GUARDED.weighted_index.size
        flags = np.random.default_rng(seed).random(n) < 0.5
        a = weighted_surface_estimate(_GUARDED, flags)
        b = weighted_surface_estimate(_GUARDED, ~flags)
        assert a == b

    def test_alignment_checked(self):
        n = _GUARDED.weighted_index.size
        with pytest.raises(ValueError):
            weighted_surface_estimate(_GUARDED, np.ones(n - 1, dtype=bool))

    def test_voronoi_sweep_identical_across_threads(self, tmp_path):
        cfg = replace(
            default_config("bias-sweep"),
            family="voronoi", half_width=1.5, deltas=(0.5, 0.375), reps=4, seed=11,
        )
        outputs = []
        for threads in (1, 2):
            res = run_campaign(replace(cfg, threads=threads))
            path = tmp_path / f"rows{threads}.csv"
            res.write_csv(path)
            outputs.append((path.read_bytes(), res.raw_csv_text()))
        assert outputs[0] == outputs[1]


class TestCrossing:
    def test_frequency_matches_closed_form(self):
        # P(X(0) <= 0 < X(q)) = arccos(rho)/(2 pi) for a centered bivariate pair
        q = 0.3
        p = crossing_frequency(MODEL, 0.0, q, 400_000, 99)
        rho = math.exp(-0.5 * q * q)
        expected = math.acos(rho) / (2.0 * math.pi)
        se = math.sqrt(expected * (1 - expected) / 400_000)
        assert abs(p - expected) < 4 * se

    def test_deterministic(self):
        a = crossing_frequency(MODEL, 0.0, 0.1, 10_000, 7)
        b = crossing_frequency(MODEL, 0.0, 0.1, 10_000, 7)
        assert a == b

    def test_far_levels_never_cross(self):
        assert crossing_frequency(MODEL, -40.0, 0.1, 50_000, 3) == 0.0

    def test_estimate_below_density_over_lags(self):
        # the rescaled rate approaches the surface density from below
        for qi, q in enumerate((0.4, 0.1, 0.02)):
            p = crossing_frequency(MODEL, 0.0, q, 200_000, 1000 + qi)
            se = beta_d(2) / q * math.sqrt(p * (1 - p) / 200_000)
            assert beta_d(2) * p / q <= 0.5 + 3 * se

    def test_directed_crossing_bounded_by_surface_times_lag(self):
        # p(t) <= C* ||t|| / beta_d + Monte Carlo slack, in several directions
        for qi, q in enumerate((0.05, 0.15, 0.3)):
            p = crossing_frequency(MODEL, 0.0, q, 300_000, 2000 + qi)
            bound = 0.5 * q / beta_d(2)
            se = math.sqrt(max(p, 1e-9) / 300_000)
            assert p <= bound + 3 * se

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            crossing_frequency(MODEL, 0.0, 0.1, 0, 1)
