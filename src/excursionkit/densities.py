"""Closed-form reference densities for excursion sets of smooth isotropic fields.

The quantities here are the analytic targets that every empirical estimate in
the toolkit is compared against: the dimensional constant ``beta_d``, the
volume density C*_d(u) = P(X(0) >= u), the surface-area density C*_{d-1}(u)
for the Gaussian and chi-square models, and the L1-gradient limit that the
lattice surface estimator converges to.

All functions are pure and safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _check_level(u: float) -> None:
    if not math.isfinite(u):
        raise ValueError(f"level must be finite, got {u}")


def _check_moment(lam: float) -> None:
    if not 0 < lam < math.inf:
        raise ValueError(f"second spectral moment must be positive and finite, got {lam}")


def beta_d(d: int) -> float:
    """Dimensional constant 2*sqrt(pi)*Gamma((d+1)/2)/Gamma(d/2).

    Strictly increasing in d.  The naive lattice surface estimator is biased
    by the universal factor 2d/beta_d, so this constant also defines the
    correction applied by the estimators module.

    Parameters
    ----------
    d : int
        Dimension, at least 1.

    Returns
    -------
    float
        beta_1 = 2, beta_2 = pi, beta_3 = 4, ...  The gamma ratio is a ratio
        of integers for odd d = 2m + 1, 2 * 4**m / C(2m, m), and pi times one
        for even d = 2m, 2 * pi * m * C(2m, m) / 4**m.  Dividing the exact
        integers rounds once, so beta_d is correctly rounded for odd d and is
        2 * math.pi times a correctly rounded ratio for even d:
        beta_2 == math.pi and beta_3 == 4.0.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    m, odd = divmod(d, 2)
    if odd:
        return 2 * 4**m / math.comb(2 * m, m)
    return 2.0 * math.pi * (m * math.comb(2 * m, m) / 4**m)


def bias_factor(d: int) -> float:
    """Limiting bias 2d/beta_d of the raw lattice surface estimator (4/pi in 2D, 3/2 in 3D)."""
    return 2.0 * d / beta_d(d)


def gaussian_volume_density(u: float) -> float:
    """Volume density C*_d(u) = P(Z >= u) of a unit-variance Gaussian field.

    Uses the complementary error function rather than 1 - cdf so that deep
    tails do not cancel.
    """
    _check_level(u)
    return 0.5 * math.erfc(u / math.sqrt(2.0))


def gaussian_surface_density(u: float, lam: float, d: int) -> float:
    """Surface-area density C*_{d-1}(u) of a unit-variance Gaussian field.

    Parameters
    ----------
    u : float
        Excursion level.
    lam : float
        Second spectral moment of the field (1/ell**2 for the
        squared-exponential covariance with length scale ell).
    d : int
        Ambient dimension, at least 2.

    Returns
    -------
    float
        sqrt(lam/pi) * exp(-u**2/2) * Gamma((d+1)/2) / Gamma(d/2), computed
        as sqrt(lam) * exp(-u**2/2) * beta_d / (2*pi): 1/2 exactly at
        d = 2, u = 0, lam = 1.
    """
    _check_level(u)
    _check_moment(lam)
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    return beta_d(d) / (2.0 * math.pi) * math.sqrt(lam) * math.exp(-0.5 * u * u)


def chisq_volume_density(u: float, k: int) -> float:
    """Volume density of a chi-square field with k degrees of freedom: P(chi2_k >= u).

    For integer k the survival function is a finite series in x = u/2:
    exp(-x) * sum_{j < k/2} x**j / j! for even k, and
    erfc(sqrt(x)) + exp(-x) * sum_{j < (k-1)/2} x**(j+1/2) / Gamma(j+3/2)
    for odd k.  Each sum has k // 2 positive terms, summed by recurrence
    with exp(-x) folded into the first, so none overflows.
    """
    if k < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {k}")
    _check_level(u)
    if u <= 0:
        return 1.0
    x = 0.5 * u
    if k % 2:
        root = math.sqrt(x)
        head, term, a = math.erfc(root), math.exp(-x) * root / math.gamma(1.5), 1.5
    else:
        head, term, a = 0.0, math.exp(-x), 1.0
    tail = 0.0
    for _ in range(k // 2):
        tail += term
        term *= x / a
        a += 1.0
    return head + tail


def chisq_surface_density(u: float, lam: float, d: int, k: int) -> float:
    """Surface-area density C*_{d-1}(u) of a chi-square field with k degrees of freedom.

    The underlying Gaussian components have unit variance and second spectral
    moment ``lam``.  The level must be strictly positive: the closed form
    diverges as u -> 0 when k = 1, so u <= 0 is treated as a domain error.

    The density is E[|grad Y| | Y = u] p_Y(u).  With Y = sum X_i**2 the
    gradient is 2 sum X_i grad X_i, which given Y = u is N(0, 4 u lam I):
    twice the spread of a unit-variance Gaussian field's gradient, times
    sqrt(u).  At k = 1 this is twice the Gaussian density at sqrt(u), since
    {X**2 = u} is the two level sets X = sqrt(u) and X = -sqrt(u).

    Returns
    -------
    float
        2 sqrt(lam) * (u/2)**((k-1)/2) * exp(-u/2) * Gamma((d+1)/2) / (Gamma(k/2)*Gamma(d/2)).
    """
    if not 0 < u < math.inf:
        raise ValueError(f"chi-square level must be positive and finite, got {u}")
    _check_moment(lam)
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if k < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {k}")
    log_val = (
        math.log(2.0)
        + 0.5 * math.log(lam)
        + 0.5 * (k - 1) * math.log(u / 2.0)
        - 0.5 * u
        + math.lgamma((d + 1) / 2.0)
        - math.lgamma(k / 2.0)
        - math.lgamma(d / 2.0)
    )
    return math.exp(log_val)


def gaussian_l1_limit(u: float, lam: float, d: int) -> float:
    """Gaussian closed form of the limit of the lattice surface estimator.

    Evaluates phi(u) * d * sqrt(2*lam/pi), which is the density of the level
    u times the conditional mean L1 norm of the gradient.  Algebraically this
    equals (2d/beta_d) * gaussian_surface_density(u, lam, d); the two routes
    are kept separate so the identity can be checked numerically.
    """
    _check_level(u)
    _check_moment(lam)
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    phi_u = np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
    return phi_u * d * np.sqrt(2.0 * lam / np.pi)


@dataclass(frozen=True)
class CovarianceModel:
    """Stationary isotropic unit-variance covariance with a known spectral moment.

    Only the squared-exponential family exp(-||t||^2 / (2*ell^2)) is provided;
    it has almost-surely smooth sample paths and second spectral moment
    1/ell^2 in closed form.

    Attributes
    ----------
    length_scale : float
        Positive length scale ell, with a finite nonzero square.
    """

    length_scale: float = 1.0

    def __post_init__(self):
        ell = self.length_scale
        if not (ell > 0 and 0 < ell * ell < math.inf):
            raise ValueError(
                f"length scale must be positive with a finite nonzero square, got {ell}"
            )

    @property
    def second_spectral_moment(self) -> float:
        """Variance lambda = 1/ell^2 of any directional derivative of the field."""
        return 1.0 / (self.length_scale * self.length_scale)

    def covariance(self, sq_dist):
        """Covariance as a function of squared distance (vectorized).

        Parameters
        ----------
        sq_dist : array_like
            Squared Euclidean distances ||t - s||^2.

        Returns
        -------
        ndarray or float
            exp(-sq_dist / (2*ell^2)); equals 1 at lag 0 and lies in (0, 1].
        """
        return np.exp(-0.5 * np.asarray(sq_dist) / (self.length_scale * self.length_scale))
