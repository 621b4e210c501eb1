"""Random-field and point-process samplers with counter-based seeding.

Gaussian fields are drawn from a low-rank factor of the covariance.  The
squared-exponential kernel is a product over axes, so the covariance is the
elementwise product of one kernel matrix per coordinate, on a grid and at
scattered points alike.  Each such matrix is factored by pivoted Cholesky,
C ~ A A^T with A of n x r, until no residual variance exceeds FACTOR_TOL
(Harbrecht, Peters & Schneider 2012).  The rank r follows the extent of the
coordinates in length scales, not the point count n: 27 or 28 for 64 or 128
nodes on a window 8 length scales wide, 47 or 48 for 64 to 256 nodes on one
16 wide, 215 on one 80 wide.  On a grid, one draw multiplies every axis of a
(2, r, ..., r) block of white noise by the axis factor: the two slices are
two independent fields, which ``sample_gaussian_grid`` returns as plain
value arrays.  At scattered points, point i takes row i of every axis factor
and one (r_1, ..., r_d) noise block gives one value array.  All samplers are
pure functions of (model, locations, seed): the RNG is a Philox counter
generator keyed by the seed, so replicates can run on any number of threads
in any order and still reproduce bit for bit.  Draws multiply through BLAS,
so their last bits depend on the BLAS build, though not on its thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .densities import CovarianceModel
from .tessellation import Box

FACTOR_TOL = 1e-13          # largest residual variance left by an axis factor


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


def _pivoted_factor(x: np.ndarray) -> np.ndarray:
    """Low-rank factor of the kernel matrix C_ij = exp(-(x_i - x_j)^2 / 2),
    returned transposed: R (r x n) with C ~ R^T R.

    ``x`` holds n coordinates in length scales, in any order and with any
    repeats.  The matrix is factored by pivoted Cholesky: each step takes the
    point of largest residual variance as pivot, computes the kernel column
    there and subtracts its projection on the columns found so far.  It stops
    once no residual variance exceeds FACTOR_TOL; the residual C - R^T R is
    positive semidefinite, so none of its entries does either.  Only kernel
    columns are evaluated, never the n x n matrix, and the arithmetic is
    elementwise numpy with no BLAS call, so the factor has the same bits at
    any BLAS thread count.  The row buffer grows and shrinks in place, so it
    never holds more than r + 15 rows.  The result is read-only.
    """
    n = x.size
    residual = np.ones(n)
    rows = np.empty((min(n, 16), n))  # row k is column k of the factor
    k = 0
    while k < n:
        p = int(np.argmax(residual))
        if residual[p] <= FACTOR_TOL:
            break
        if k == rows.shape[0]:
            rows.resize((min(k + 16, n), n))
        col = np.exp(-0.5 * (x - x[p]) ** 2)
        col -= np.einsum("kn,k->n", rows[:k], rows[:k, p])
        col /= np.sqrt(residual[p])
        rows[k] = col
        residual -= col * col
        k += 1
    rows.resize((k, n))
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=16)
def _axis_factor(n: int, spacing: float, length_scale: float) -> np.ndarray:
    """Low-rank factor A (n x r) of the kernel matrix of one grid axis,
    C_ij = exp(-(spacing (i - j))^2 / (2 length_scale^2)), with
    max|A A^T - C| <= FACTOR_TOL: the transpose of ``_pivoted_factor`` of the
    scaled node coordinates.  The result is cached and read-only."""
    factor = np.ascontiguousarray(_pivoted_factor((spacing / length_scale) * np.arange(n)).T)
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


def covariance_factor(model: CovarianceModel, points) -> tuple:
    """Per-axis low-rank factors of the model covariance at scattered points.

    The squared-exponential kernel is a product over axes, so the covariance
    of n points is the elementwise product of d kernel matrices, one per
    coordinate.  The matrix of coordinate a is factored by
    ``_pivoted_factor`` to R_a (r_a x n); every entry of the elementwise
    product of the d approximations R_a^T R_a is within
    (1 + FACTOR_TOL)^d - 1 of the covariance.  A factor depends only on
    (model, points), so a point set drawn many times is factored once.

    Parameters
    ----------
    model : CovarianceModel
    points : array_like
        (n, d) locations.

    Returns
    -------
    tuple of ndarray
        The d read-only transposed factors R_a, each with n columns.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return tuple(_pivoted_factor(x / model.length_scale) for x in points.T)


def _draw(factors: tuple, seed_key) -> np.ndarray:
    """f_i = sum over j of R_1[j_1, i] ... R_d[j_d, i] E[j_1, ..., j_d] for an
    (r_1, ..., r_d) block E of standard normals: one matmul contracts the
    first noise axis, then one columnwise product per remaining axis."""
    ranks = tuple(factor.shape[0] for factor in factors)
    e = _rng(seed_key).standard_normal(ranks)
    z = e.reshape(ranks[0], math.prod(ranks[1:])).T @ factors[0]
    z = z.reshape(ranks[1:] + (factors[0].shape[1],))
    for factor in factors[1:]:
        z = np.einsum("ji,j...i->...i", factor, z)
    return z


def _point_factor(model, points, factor) -> tuple:
    """The given per-axis factors after a shape check, or fresh ones."""
    if factor is None:
        return covariance_factor(model, points)
    n, d = points.shape
    columns = [axis.shape[1] for axis in factor]
    if columns != [n] * d:
        raise ValueError(f"factors of {columns} columns do not match {n} points in {d} dimensions")
    return factor


def sample_gaussian_points(
    model: CovarianceModel, points, seed: int, factor: tuple | None = None
) -> np.ndarray:
    """Gaussian draw at scattered locations from per-axis low-rank factors.

    The covariance of the draw is the model covariance at every pair of
    points to within (1 + FACTOR_TOL)^d - 1; no n x n matrix is formed, and
    a draw costs n r^d for axis ranks r.

    Parameters
    ----------
    model : CovarianceModel
    points : array_like
        (n, d) sample locations.
    seed : int
    factor : tuple of ndarray, optional
        ``covariance_factor(model, points)``, to reuse one factor across
        draws; computed here when omitted.

    Returns
    -------
    ndarray
        (n,) values in the order of ``points``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _draw(_point_factor(model, points, factor), seed)


def sample_chi_square(
    model: CovarianceModel,
    k: int,
    locations,
    seed: int,
    factor: tuple | None = None,
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
        Grid or scattered points.
    seed : int
    factor : tuple of ndarray, optional
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
    factor = _point_factor(model, pts, factor)
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
