import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from excursionkit.densities import (
    CovarianceModel,
    beta_d,
    bias_factor,
    chisq_surface_density,
    chisq_volume_density,
    gaussian_l1_limit,
    gaussian_surface_density,
    gaussian_volume_density,
)

# closed-form values from the gamma-ratio definition, worked by hand
BETA_KNOWN = {
    1: 2.0,
    2: math.pi,
    3: 4.0,
    4: 1.5 * math.pi,
    5: 16.0 / 3.0,
    8: 35.0 * math.pi / 16.0,
}


class TestBeta:
    @pytest.mark.parametrize("d,expected", sorted(BETA_KNOWN.items()))
    def test_known_values(self, d, expected):
        assert beta_d(d) == pytest.approx(expected, rel=1e-12)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            beta_d(0)

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_product_recurrence(self, d):
        # beta_d * beta_{d+1} = 4*pi*Gamma(d/2 + 1)/Gamma(d/2) = 2*pi*d
        assert beta_d(d) * beta_d(d + 1) == pytest.approx(2.0 * math.pi * d, rel=1e-12)

    @given(st.integers(min_value=1, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_increasing_in_dimension(self, d):
        assert beta_d(d + 1) > beta_d(d)


class TestBiasFactor:
    def test_values(self):
        assert bias_factor(1) == pytest.approx(1.0, rel=1e-12)
        assert bias_factor(2) == pytest.approx(4.0 / math.pi, rel=1e-12)
        assert bias_factor(3) == pytest.approx(1.5, rel=1e-12)

    def test_consistent_with_beta(self):
        for d in range(1, 12):
            assert bias_factor(d) == pytest.approx(2.0 * d / beta_d(d), rel=1e-14)


class TestGaussianVolume:
    def test_symmetry_point(self):
        assert gaussian_volume_density(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_normal_tail(self):
        assert gaussian_volume_density(1.0) == pytest.approx(0.15865525393145707, rel=1e-12)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=80, deadline=None)
    def test_complement_symmetry(self, u):
        assert gaussian_volume_density(-u) == pytest.approx(
            1.0 - gaussian_volume_density(u), abs=1e-13
        )

    def test_monotone_decreasing(self):
        u = np.linspace(-6, 6, 41)
        v = np.array([gaussian_volume_density(x) for x in u])
        assert np.all(np.diff(v) < 0)


class TestGaussianSurface:
    def test_d2_level0(self):
        # sqrt(1/pi) * Gamma(3/2)/Gamma(1) = 1/2
        assert gaussian_surface_density(0.0, 1.0, 2) == pytest.approx(0.5, rel=1e-14)

    def test_d3_level0(self):
        # Gamma(2)/Gamma(3/2) = 2/sqrt(pi)
        assert gaussian_surface_density(0.0, 1.0, 3) == pytest.approx(2.0 / math.pi, rel=1e-12)

    @given(
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=0.01, max_value=50.0),
        st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_sqrt_lambda_scaling(self, u, lam, d):
        assert gaussian_surface_density(u, 4.0 * lam, d) == pytest.approx(
            2.0 * gaussian_surface_density(u, lam, d), rel=1e-12
        )

    def test_level_symmetry(self):
        assert gaussian_surface_density(1.3, 2.0, 2) == pytest.approx(
            gaussian_surface_density(-1.3, 2.0, 2), rel=1e-14
        )


class TestChiSquareVolume:
    def test_exponential_case(self):
        # K=2 survival is exp(-u/2)
        assert chisq_volume_density(2.0, 2) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert chisq_volume_density(5.0, 2) == pytest.approx(math.exp(-2.5), rel=1e-12)

    def test_one_degree_reduces_to_normal_tail(self):
        assert chisq_volume_density(1.0, 1) == pytest.approx(0.3173105078629141, rel=1e-10)

    def test_nonpositive_levels_are_certain(self):
        assert chisq_volume_density(0.0, 3) == 1.0
        assert chisq_volume_density(-2.5, 1) == 1.0


class TestChiSquareSurface:
    def test_d2_value(self):
        assert chisq_surface_density(2.0, 1.0, 2, 2) == pytest.approx(
            math.exp(-1.0) * math.sqrt(math.pi), rel=1e-12
        )

    def test_d3_value(self):
        assert chisq_surface_density(2.0, 1.0, 3, 2) == pytest.approx(
            math.exp(-1.0) * 4.0 / math.sqrt(math.pi), rel=1e-12
        )

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            chisq_surface_density(0.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            chisq_surface_density(-1.0, 1.0, 2, 1)

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_degree_matches_gaussian_at_root_level(self, u, lam, d):
        # squaring a Gaussian field maps both levels sqrt(u) and -sqrt(u) to u
        assert chisq_surface_density(u, lam, d, 1) == pytest.approx(
            2.0 * gaussian_surface_density(math.sqrt(u), lam, d), rel=1e-12
        )

    def test_large_degrees_stay_finite(self):
        v = chisq_surface_density(150.0, 1.0, 3, 120)
        assert np.isfinite(v) and v > 0.0


class TestL1Limit:
    @given(
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=0.05, max_value=25.0),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_bias_times_surface_density(self, u, lam, d):
        assert gaussian_l1_limit(u, lam, d) == pytest.approx(
            bias_factor(d) * gaussian_surface_density(u, lam, d), rel=1e-12
        )


class TestAgainstScipy:
    """The package computes its scalar densities with the math module, so
    that importing it loads no scipy subpackage; their scipy.special forms
    are the reference here."""

    LEVELS = np.concatenate([np.geomspace(1e-6, 1e-3, 7), np.linspace(1e-3, 60.0, 241)])

    @pytest.mark.parametrize("k", range(1, 31))
    def test_chisq_volume_matches_chdtrc(self, k):
        for u in self.LEVELS:
            assert chisq_volume_density(float(u), k) == pytest.approx(
                special.chdtrc(k, u), rel=1e-13
            )

    def test_beta_matches_log_gamma_route(self):
        for d in range(1, 201):
            log_ratio = special.gammaln((d + 1) / 2.0) - special.gammaln(d / 2.0)
            ref = 2.0 * np.sqrt(np.pi) * np.exp(log_ratio)
            assert beta_d(d) == pytest.approx(ref, rel=1e-12)

    def test_beta_exact_in_low_dimensions(self):
        assert beta_d(1) == 2.0
        assert beta_d(2) == math.pi
        assert beta_d(3) == 4.0

    @pytest.mark.parametrize("d", range(2, 9))
    def test_gaussian_surface_matches_gamma_ratio(self, d):
        gamma_ratio = np.exp(special.gammaln((d + 1) / 2.0) - special.gammaln(d / 2.0))
        for u in np.linspace(-6.0, 6.0, 25):
            for lam in (0.01, 1.0, 50.0):
                ref = np.sqrt(lam / np.pi) * np.exp(-0.5 * u * u) * gamma_ratio
                assert gaussian_surface_density(float(u), lam, d) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("d", range(2, 6))
    def test_chisq_surface_matches_log_gamma_form(self, d):
        for k in range(1, 31):
            for u in np.linspace(0.05, 60.0, 25):
                for lam in (0.1, 1.0, 10.0):
                    ref = np.exp(
                        np.log(2.0) + 0.5 * np.log(lam) + 0.5 * (k - 1) * np.log(u / 2.0) - 0.5 * u
                        + special.gammaln((d + 1) / 2.0) - special.gammaln(k / 2.0)
                        - special.gammaln(d / 2.0)
                    )
                    assert chisq_surface_density(float(u), lam, d, k) == pytest.approx(
                        ref, rel=1e-13
                    )

    def test_gaussian_volume_matches_erfc(self):
        for u in np.linspace(-8.0, 8.0, 161):
            assert gaussian_volume_density(float(u)) == pytest.approx(
                0.5 * special.erfc(u / np.sqrt(2.0)), rel=1e-13
            )


class TestCovarianceModel:
    def test_unit_variance_at_zero(self):
        assert CovarianceModel(0.7).covariance(0.0) == 1.0

    def test_spectral_moment(self):
        assert CovarianceModel(0.5).second_spectral_moment == pytest.approx(4.0, rel=1e-14)

    def test_length_scale_decay(self):
        m = CovarianceModel(2.0)
        # exp(-sq/(2*ell^2)) at sq = 2*ell^2
        assert m.covariance(8.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            CovarianceModel(0.0)
