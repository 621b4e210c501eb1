"""Random-field and point-process samplers with counter-based seeding.

Gaussian fields on regular grids are drawn exactly by circulant embedding
(FFT on a torus that contains the grid).  Each axis of n nodes starts on the
smallest torus on which the wrapped kernel still equals the model covariance
at every lag the grid uses, to within machine epsilon: n - 1 nodes plus the
reach of the kernel, rounded up to a 5-smooth FFT size, at most 2n.  It
grows only if its embedding is indefinite.  One draw fills the torus
spectrum with complex white noise, so the real and the imaginary part of its
inverse FFT are two independent exact fields (Wood & Chan 1994; Dietrich &
Newsam 1997); ``sample_gaussian_grid`` returns both as plain value arrays.
Scattered locations use a dense Cholesky factor of the covariance matrix and
give one value array.  All samplers are pure functions of (model, locations,
seed): the RNG is a Philox counter generator keyed by the seed, so
replicates can run on any number of threads in any order and still reproduce
bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cholesky as _scipy_cholesky
from scipy.linalg import LinAlgError
from scipy.spatial.distance import cdist

from .densities import CovarianceModel
from .tessellation import Box

EIGENVALUE_TOL = 1e-9       # largest negative embedding eigenvalue that is clipped to 0
DEFAULT_POINT_CAP = 4096    # default dense-factorization size limit
CHOLESKY_JITTER = 1e-10     # one-shot diagonal jitter on factorization failure, with a warning
_MAX_PAD = 8                # an indefinite embedding torus doubles up to 8x the grid per axis
# lag / ell beyond which the squared-exponential kernel is below float eps
_KERNEL_REACH = math.sqrt(-2.0 * math.log(np.finfo(float).eps))


class EmbeddingNotNonnegativeDefiniteError(RuntimeError):
    """Raised when the circulant embedding stays indefinite on the largest torus."""


class CovarianceNotPositiveDefiniteError(RuntimeError):
    """Raised when the dense covariance cannot be factorized even after jitter."""


class PointCapacityError(ValueError):
    """Raised when a scattered-point draw exceeds the dense-factorization cap."""


@dataclass(frozen=True)
class GridSpec:
    """Regular lattice of (2N)^d nodes delta*i, i in [-N, N-1]^d.

    The nodes are the cell reference corners of the matching hypercubic
    honeycomb on T = [-delta*N, delta*N]^d, in row-major order.

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
        if self.spacing <= 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")

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

    @property
    def window_volume(self) -> float:
        return self.window.volume

    def nodes(self) -> np.ndarray:
        """All node locations as an (n_nodes, d) array in row-major order."""
        mesh = np.meshgrid(*([self.axis_coords] * self.d), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _rng(seed_key) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed_key)))


def _flat_key(seed, *extra) -> tuple:
    """Append stream indices to a seed that may itself be an index tuple."""
    head = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    return tuple(int(s) for s in head) + tuple(int(e) for e in extra)


def _check_eigenvalues(lam: np.ndarray) -> np.ndarray | None:
    """Clip tiny negative embedding eigenvalues; None signals real indefiniteness.

    Negative values no larger in magnitude than EIGENVALUE_TOL are rounding
    noise and are set to 0; anything below that must not be truncated
    silently, so the caller grows the torus or raises.
    """
    lam_min = float(lam.min())
    if lam_min < -EIGENVALUE_TOL:
        return None
    if lam_min < 0.0:
        lam = np.where(lam < 0.0, 0.0, lam)
    return lam


def _smooth_size(m: int) -> int:
    """Smallest integer >= m with no prime factor above 5 (a fast FFT length).

    Computed here rather than taken from an FFT library's table of fast
    lengths, which may change between versions: the torus size fixes the
    replicate streams.
    """
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _torus_size(n: int, length_scale: float, spacing: float) -> int:
    """Nodes per axis of the smallest exact embedding torus for n grid nodes.

    On a torus of m >= n - 1 + reach nodes, where beyond ``reach`` lags the
    kernel is below float eps, a lag k < n wraps to min(k, m - k); the two
    differ only when both are at least ``reach``, so the wrapped kernel is the
    model covariance to within eps at every lag of the grid.  m is that bound
    rounded up to a 5-smooth size, capped at 2n: a torus of 2n nodes wraps no
    lag of the grid at all, and is the size used whenever the window is not
    wide relative to the length scale.
    """
    target = n - 1 + math.ceil(length_scale * _KERNEL_REACH / spacing)
    return min(2 * n, _smooth_size(min(target, 2 * n)))


def _wrapped_axis_covariance(m: int, length_scale: float, spacing: float) -> np.ndarray:
    """The kernel at the minimal-image lags min(k, m - k), k = 0..m-1, of a
    torus axis of m nodes."""
    k = np.arange(m)
    wrapped = np.minimum(k, m - k) * spacing
    return np.exp(-0.5 * wrapped**2 / (length_scale * length_scale))


@lru_cache(maxsize=16)
def _embedding_spectrum(length_scale: float, spacing: float, shape: tuple) -> tuple:
    """Square roots of the circulant-embedding eigenvalues for a grid shape.

    Each axis of n nodes starts on the torus of ``_torus_size`` nodes, the
    smallest on which the wrapped kernel is the model covariance at every lag
    of the grid.  While some eigenvalue is negative beyond rounding
    (``_check_eigenvalues``), every axis doubles, up to _MAX_PAD times its
    grid size.  A torus on which the kernel decays below eps before it wraps
    is nonnegative definite to rounding, as the squared-exponential spectrum
    is strictly positive; a 2x torus of a window only a few length scales
    wide may need to grow.  The kernel is a product over axes, so the eigenvalues, the FFT
    of the wrapped kernel, are the outer product of one 1D FFT per axis.
    """
    dims = tuple(_torus_size(n, length_scale, spacing) for n in shape)
    tried = []
    while True:
        tried.append(dims)
        lam = np.ones(())
        for m in dims:
            axis_cov = _wrapped_axis_covariance(m, length_scale, spacing)
            lam = np.multiply.outer(lam, np.fft.fft(axis_cov).real)
        lam = _check_eigenvalues(lam)
        if lam is not None:
            return np.sqrt(lam, out=lam), dims
        if all(m >= _MAX_PAD * n for m, n in zip(dims, shape)):
            raise EmbeddingNotNonnegativeDefiniteError(
                "circulant embedding not nonnegative definite on the tori "
                f"{', '.join(map(str, tried))} (grid {shape}, spacing {spacing}, "
                f"length scale {length_scale})"
            )
        dims = tuple(min(2 * m, _MAX_PAD * n) for m, n in zip(dims, shape))


def _pruned_ifftn(spectral: np.ndarray, shape: tuple) -> np.ndarray:
    """``np.fft.ifftn(spectral)`` cut to its leading ``shape`` block, bit for bit.

    Like ``ifftn`` it transforms the last axis first, but it cuts each axis
    to its ``shape`` length before transforming the next, so the torus rows
    that are never read are never transformed.  Every remaining line is the
    same 1D transform as in ``ifftn``.  ``spectral`` is overwritten.
    """
    z = np.fft.ifft(spectral, axis=-1, out=spectral)
    for axis in reversed(range(z.ndim)):
        z = z[(slice(None),) * axis + (slice(0, shape[axis]),)]
        if axis:
            z = np.fft.ifft(z, axis=axis - 1)
    return z


def sample_gaussian_grid(model: CovarianceModel, grid: GridSpec, seed) -> tuple:
    """Draw two independent zero-mean unit-variance Gaussian fields at the grid nodes.

    The draw is exact: the covariance of each returned array equals the
    model covariance at every pair of nodes, up to floating-point rounding.
    One draw is one complex inverse FFT whose real and imaginary parts are
    the two fields.

    Parameters
    ----------
    model : CovarianceModel
    grid : GridSpec
    seed : int or tuple of int
        Replicate seed key.

    Returns
    -------
    tuple of two ndarray
        The (real, imaginary) halves, each of length ``grid.n_nodes`` in the
        row-major node order of ``grid.nodes()``.
    """
    sqrt_lam, dims = _embedding_spectrum(model.length_scale, grid.spacing, grid.shape)
    noise = _rng(seed).standard_normal((2,) + dims)
    spectral = np.empty(dims, dtype=complex)
    np.multiply(sqrt_lam, noise[0], out=spectral.real)
    np.multiply(sqrt_lam, noise[1], out=spectral.imag)
    del noise
    z = _pruned_ifftn(spectral, grid.shape)
    z *= np.sqrt(float(np.prod(dims)))
    return np.ascontiguousarray(z.real).reshape(-1), np.ascontiguousarray(z.imag).reshape(-1)


def covariance_factor(
    model: CovarianceModel, points, max_points: int = DEFAULT_POINT_CAP
) -> np.ndarray:
    """Lower Cholesky factor of the model covariance at scattered points.

    A factor depends only on (model, points), so a point set drawn many
    times is factored once and each draw is a matrix-vector product.  When
    the plain factorization fails, CHOLESKY_JITTER is added to the diagonal
    once and a RuntimeWarning is emitted.

    Parameters
    ----------
    model : CovarianceModel
    points : array_like
        (n, d) locations with n <= max_points.
    max_points : int
        Dense-factorization size cap.

    Returns
    -------
    ndarray
        (n, n) lower-triangular L with L @ L.T equal to the covariance.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if n > max_points:
        raise PointCapacityError(
            f"{n} points exceed the dense-factorization cap of {max_points}"
        )
    if n == 0:
        return np.empty((0, 0))
    cov = model.covariance(cdist(points, points, "sqeuclidean"))
    try:
        return _scipy_cholesky(cov, lower=True, check_finite=False)
    except LinAlgError:
        # a fixed text: the default filter reports it once per call site, not per factor
        warnings.warn(
            f"covariance not numerically positive definite; added {CHOLESKY_JITTER:g} "
            "to its diagonal",
            RuntimeWarning,
            stacklevel=2,
        )
        cov[np.diag_indices_from(cov)] += CHOLESKY_JITTER
        try:
            return _scipy_cholesky(cov, lower=True, check_finite=False)
        except LinAlgError as exc:
            raise CovarianceNotPositiveDefiniteError(
                f"covariance of {n} points not positive definite after jitter"
            ) from exc


def _draw(factor: np.ndarray, seed_key) -> np.ndarray:
    return factor @ _rng(seed_key).standard_normal(factor.shape[0])


def _point_factor(model, points, max_points, factor) -> np.ndarray:
    """The given factor after a shape check, or a fresh one."""
    if factor is None:
        return covariance_factor(model, points, max_points)
    n = points.shape[0]
    if factor.shape != (n, n):
        raise ValueError(f"factor of shape {factor.shape} does not match {n} points")
    return factor


def sample_gaussian_points(
    model: CovarianceModel,
    points,
    seed: int,
    max_points: int = DEFAULT_POINT_CAP,
    factor: np.ndarray | None = None,
) -> np.ndarray:
    """Exact Gaussian draw at scattered locations via dense Cholesky.

    Parameters
    ----------
    model : CovarianceModel
    points : array_like
        (n, d) sample locations with n <= max_points.
    seed : int
    max_points : int
        Dense-factorization size cap; raise it explicitly for larger clouds.
    factor : ndarray, optional
        ``covariance_factor(model, points)``, to reuse one factor across
        draws; computed here when omitted.

    Returns
    -------
    ndarray
        (n,) values in the order of ``points``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _draw(_point_factor(model, points, max_points, factor), seed)


def sample_chi_square(
    model: CovarianceModel,
    k: int,
    locations,
    seed: int,
    max_points: int = DEFAULT_POINT_CAP,
    factor: np.ndarray | None = None,
):
    """Chi-square field with k degrees of freedom: sum of k squared Gaussian draws.

    Component fields are independent, with sub-seeds derived from
    (seed, component) through the SeedSequence hash, so the draw is
    reproducible and component order is immaterial.  On a grid each
    component is one ``sample_gaussian_grid`` draw whose two halves are
    independent, and two fields are returned: one sums the real halves, the
    other the imaginary halves of the same k draws.

    Parameters
    ----------
    model : CovarianceModel
    k : int
        Degrees of freedom, at least 1.
    locations : GridSpec or array_like
        Grid (FFT path) or scattered points (Cholesky path).
    seed : int
    max_points : int
        Cap for the scattered-point path.
    factor : ndarray, optional
        Precomputed ``covariance_factor`` for scattered points.  All k
        components are drawn from one factor either way.

    Returns
    -------
    tuple of two ndarray or ndarray
        On a grid the (real-half, imaginary-half) fields, in the node order
        of ``locations.nodes()``; on scattered points one (n,) array.
    """
    if k < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {k}")
    if isinstance(locations, GridSpec):
        real, imag = np.zeros((2, locations.n_nodes))
        for comp in range(k):
            re, im = sample_gaussian_grid(model, locations, _flat_key(seed, comp))
            real += re * re
            imag += im * im
        return real, imag
    pts = np.atleast_2d(np.asarray(locations, dtype=float))
    factor = _point_factor(model, pts, max_points, factor)
    values = np.zeros(pts.shape[0])
    for comp in range(k):
        g = _draw(factor, _flat_key(seed, comp))
        values += g * g
    return values


def sample_poisson_process(rate: float, box, seed: int) -> np.ndarray:
    """Homogeneous Poisson point process in an axis-aligned box.

    Parameters
    ----------
    rate : float
        Nonnegative intensity per unit volume.
    box : Box or array_like
        Either a Box or a (2, d) array [[lo...], [hi...]].
    seed : int

    Returns
    -------
    ndarray
        (count, d) points, count ~ Poisson(rate * volume), i.i.d. uniform.
    """
    if rate < 0:
        raise ValueError(f"rate must be nonnegative, got {rate}")
    if isinstance(box, Box):
        lo, hi = box.lo, box.hi
    else:
        arr = np.asarray(box, dtype=float)
        lo, hi = arr[0], arr[1]
    d = lo.size
    volume = float(np.prod(np.maximum(hi - lo, 0.0)))
    if volume == 0.0 or rate == 0.0:
        return np.empty((0, d))
    rng = _rng(_flat_key(seed, 0x9E3779B9))  # fixed stream tag keeps counts and positions coupled
    count = int(rng.poisson(rate * volume))
    return lo + (hi - lo) * rng.random((count, d))
