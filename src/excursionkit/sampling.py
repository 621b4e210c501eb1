"""Random-field and point-process samplers with counter-based seeding.

Gaussian fields on regular grids are drawn from a low-rank factor of the
covariance.  The squared-exponential kernel is a product over axes, so the
grid covariance is the Kronecker product of one kernel matrix per axis.  Each
axis matrix is factored by pivoted Cholesky, C ~ A A^T with A of n x r, until
no residual variance exceeds FACTOR_TOL (Harbrecht, Peters & Schneider
2012).  The rank r follows the window width in length scales, not the node
count n: 27 or 28 for 64 or 128 nodes on a window 8 length scales wide,
47 or 48 for 64 to 256 nodes on one 16 wide, 215 on one 80 wide.  One draw
multiplies every axis of a (2, r, ..., r) block of white noise by A: the
two slices are two independent fields, which ``sample_gaussian_grid``
returns as plain value arrays.  Scattered locations use a dense Cholesky
factor of the covariance matrix and give one value array.  All samplers are
pure functions of (model, locations, seed): the RNG is a Philox counter
generator keyed by the seed, so replicates can run on any number of threads
in any order and still reproduce bit for bit.  Grid draws multiply through BLAS, so their last bits depend on
the BLAS build, though not on its thread count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cholesky as _scipy_cholesky
from scipy.linalg import LinAlgError
from scipy.spatial.distance import cdist

from .densities import CovarianceModel
from .tessellation import Box

FACTOR_TOL = 1e-13          # largest residual variance left by an axis factor
DEFAULT_POINT_CAP = 4096    # default dense-factorization size limit
CHOLESKY_JITTER = 1e-10     # one-shot diagonal jitter on factorization failure, with a warning


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


@lru_cache(maxsize=16)
def _axis_factor(n: int, spacing: float, length_scale: float) -> np.ndarray:
    """Low-rank factor A (n x r) of the kernel matrix of one grid axis.

    The matrix C_ij = exp(-(spacing (i - j))^2 / (2 length_scale^2)) is
    factored by pivoted Cholesky: each step takes the node of largest
    residual variance as pivot, computes the kernel column there and
    subtracts its projection on the columns found so far.  It stops once no
    residual variance exceeds FACTOR_TOL; the residual C - A A^T is positive
    semidefinite, so none of its entries does either.  Only kernel columns
    are evaluated, never the n x n matrix, and the arithmetic is elementwise
    numpy with no BLAS call, so the factor has the same bits at any BLAS
    thread count.  The result is cached and read-only.
    """
    x = (spacing / length_scale) * np.arange(n)
    residual = np.ones(n)
    rows = np.empty((min(n, 32), n))  # row k is column k of A; grows by doubling
    k = 0
    while k < n:
        p = int(np.argmax(residual))
        if residual[p] <= FACTOR_TOL:
            break
        if k == rows.shape[0]:
            rows = np.concatenate([rows, np.empty((min(k, n - k), n))])
        col = np.exp(-0.5 * (x - x[p]) ** 2)
        col -= np.einsum("kn,k->n", rows[:k], rows[:k, p])
        col /= np.sqrt(residual[p])
        rows[k] = col
        residual -= col * col
        k += 1
    factor = np.ascontiguousarray(rows[:k].T)
    factor.setflags(write=False)
    return factor


def sample_gaussian_grid(model: CovarianceModel, grid: GridSpec, seed) -> tuple:
    """Draw two independent zero-mean unit-variance Gaussian fields at the grid nodes.

    The covariance of each returned array is the model covariance at every
    pair of nodes to within d x FACTOR_TOL, as each axis factor is exact to
    within FACTOR_TOL and every kernel value is at most 1.  One draw takes a
    (2, r, ..., r) block of standard normals and multiplies each of its d
    noise axes by the axis factor A; the two fields are the two slices of
    the result.

    Parameters
    ----------
    model : CovarianceModel
    grid : GridSpec
    seed : int or tuple of int
        Replicate seed key.

    Returns
    -------
    tuple of two ndarray
        The two fields, each of length ``grid.n_nodes`` in the row-major node
        order of ``grid.nodes()``.
    """
    n = grid.shape[0]
    factor = _axis_factor(n, grid.spacing, model.length_scale)
    z = _rng(seed).standard_normal((2,) + (factor.shape[1],) * grid.d)
    # contract the leading noise axis with A and append the n result nodes
    # last, d times, so the axes come back in order
    for _ in range(grid.d):
        rest = z.shape[2:]
        z = np.matmul(z.reshape(2, z.shape[1], -1).transpose(0, 2, 1), factor.T)
        z = z.reshape((2,) + rest + (n,))
    return z[0].reshape(-1), z[1].reshape(-1)


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
    independent, and two fields are returned: one sums the first halves, the
    other the second halves of the same k draws.

    Parameters
    ----------
    model : CovarianceModel
    k : int
        Degrees of freedom, at least 1.
    locations : GridSpec or array_like
        Grid (axis-factor path) or scattered points (Cholesky path).
    seed : int
    max_points : int
        Cap for the scattered-point path.
    factor : ndarray, optional
        Precomputed ``covariance_factor`` for scattered points.  All k
        components are drawn from one factor either way.

    Returns
    -------
    tuple of two ndarray or ndarray
        On a grid the (first-half, second-half) fields, in the node order
        of ``locations.nodes()``; on scattered points one (n,) array.
    """
    if k < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {k}")
    if isinstance(locations, GridSpec):
        first, second = np.zeros((2, locations.n_nodes))
        for comp in range(k):
            a, b = sample_gaussian_grid(model, locations, _flat_key(seed, comp))
            first += a * a
            second += b * b
        return first, second
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
