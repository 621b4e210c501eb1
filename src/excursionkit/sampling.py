"""Random-field and point-process samplers with counter-based seeding.

Gaussian fields on regular grids are drawn exactly by circulant embedding
(FFT on a padded torus); scattered locations use a dense Cholesky factor of
the covariance matrix.  All samplers are pure functions of
(model, locations, seed): the RNG is a Philox counter generator keyed by the
seed, so replicates can run on any number of threads in any order and still
reproduce bit for bit.
"""

from __future__ import annotations

import csv
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
_MAX_PAD = 8                # padding factors tried: 2, 4, 8


class EmbeddingNotNonnegativeDefiniteError(RuntimeError):
    """Raised when the circulant embedding stays indefinite at maximum padding."""


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


@dataclass(eq=False)
class FieldSample:
    """Field values attached to sample locations.

    Identical (model, locations, seed) triples reproduce identical values bit
    for bit; ``model_tag`` records the generating model and RNG for provenance.
    """

    locations: np.ndarray
    values: np.ndarray
    seed: int
    model_tag: str

    def __post_init__(self):
        if self.locations.shape[0] != self.values.shape[0]:
            raise ValueError("locations and values must have equal length")

    def to_csv(self, path) -> None:
        """Dump the sample as CSV with header x1,...,xd,value."""
        d = self.locations.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j + 1}" for j in range(d)] + ["value"])
            for loc, val in zip(self.locations, self.values):
                writer.writerow([format(x, ".17g") for x in loc] + [format(val, ".17g")])


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
    silently, so the caller pads further or raises.
    """
    lam_min = float(lam.min())
    if lam_min < -EIGENVALUE_TOL:
        return None
    if lam_min < 0.0:
        lam = np.where(lam < 0.0, 0.0, lam)
    return lam


@lru_cache(maxsize=16)
def _embedding_spectrum(length_scale: float, spacing: float, shape: tuple) -> tuple:
    """Square roots of the circulant-embedding eigenvalues for a grid shape.

    The covariance is wrapped onto a torus with per-axis size pad * (grid
    size); padding starts at 2x and doubles until the eigenvalues are
    nonnegative (the squared-exponential spectrum is strictly positive, so 2x
    always suffices in practice).
    """
    pad = 2
    while True:
        dims = tuple(pad * s for s in shape)
        sq = np.zeros(())
        for axis, m in enumerate(dims):
            k = np.arange(m)
            wrapped = np.minimum(k, m - k) * spacing
            ax_shape = [1] * len(dims)
            ax_shape[axis] = m
            sq = sq + (wrapped**2).reshape(ax_shape)
        cov = np.exp(-0.5 * sq / (length_scale * length_scale))
        lam = np.fft.fftn(cov).real
        lam = _check_eigenvalues(lam)
        if lam is not None:
            return np.sqrt(lam), dims
        if pad >= _MAX_PAD:
            raise EmbeddingNotNonnegativeDefiniteError(
                f"circulant embedding not nonnegative definite at padding {pad}x "
                f"(grid {shape}, spacing {spacing}, length scale {length_scale})"
            )
        pad *= 2


def _gaussian_grid_values(model: CovarianceModel, grid: GridSpec, seed_key) -> np.ndarray:
    sqrt_lam, dims = _embedding_spectrum(model.length_scale, grid.spacing, grid.shape)
    rng = _rng(seed_key)
    noise = rng.standard_normal((2,) + dims)
    spectral = sqrt_lam * (noise[0] + 1j * noise[1])
    z = np.fft.ifftn(spectral) * np.sqrt(float(np.prod(dims)))
    block = z.real[tuple(slice(0, s) for s in grid.shape)]
    return np.ascontiguousarray(block).reshape(-1)


def sample_gaussian_grid(model: CovarianceModel, grid: GridSpec, seed: int) -> FieldSample:
    """Draw a zero-mean unit-variance Gaussian field at the grid nodes.

    The draw is exact: the covariance of the returned values equals the model
    covariance at every pair of nodes, up to floating-point rounding.

    Parameters
    ----------
    model : CovarianceModel
    grid : GridSpec
    seed : int
        64-bit replicate seed.

    Returns
    -------
    FieldSample
        Values in the row-major node order of ``grid.nodes()``.
    """
    values = _gaussian_grid_values(model, grid, seed)
    return FieldSample(
        locations=grid.nodes(),
        values=values,
        seed=seed,
        model_tag=f"gaussian-grid[{model.tag()}, philox]",
    )


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
) -> FieldSample:
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
    FieldSample
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = _draw(_point_factor(model, points, max_points, factor), seed)
    return FieldSample(
        locations=points,
        values=values,
        seed=seed,
        model_tag=f"gaussian-points[{model.tag()}, philox]",
    )


def sample_chi_square(
    model: CovarianceModel,
    k: int,
    locations,
    seed: int,
    max_points: int = DEFAULT_POINT_CAP,
    factor: np.ndarray | None = None,
) -> FieldSample:
    """Chi-square field with k degrees of freedom: sum of k squared Gaussian draws.

    Component fields are independent, with sub-seeds derived from
    (seed, component) through the SeedSequence hash, so the draw is
    reproducible and component order is immaterial.

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
    """
    if k < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {k}")
    if isinstance(locations, GridSpec):
        values = np.zeros(locations.n_nodes)
        for comp in range(k):
            g = _gaussian_grid_values(model, locations, _flat_key(seed, comp))
            values += g * g
        locs = locations.nodes()
    else:
        pts = np.atleast_2d(np.asarray(locations, dtype=float))
        factor = _point_factor(model, pts, max_points, factor)
        values = np.zeros(pts.shape[0])
        for comp in range(k):
            g = _draw(factor, _flat_key(seed, comp))
            values += g * g
        locs = pts
    return FieldSample(
        locations=locs,
        values=values,
        seed=seed,
        model_tag=f"chi-square[K={k}, {model.tag()}, philox]",
    )


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
