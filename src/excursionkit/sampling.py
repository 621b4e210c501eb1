"""Random-field and point-process samplers with counter-based seeding.

Gaussian fields are drawn from a low-rank factor of the covariance.  The
squared-exponential kernel is a product over axes, so the covariance is the
elementwise product of one kernel matrix per coordinate, on a grid and at
scattered points alike.  Each such matrix is factored by pivoted Cholesky,
C ~ A A^T with A of n x r, until no residual variance exceeds FACTOR_TOL
(Harbrecht, Peters & Schneider 2012).  The rank r follows the extent of the
coordinates in length scales, not the point count n: 27 or 28 for 64 or 128
nodes on a window 8 length scales wide, 47 or 48 for 64 to 256 nodes on one
16 wide, 215 on one 80 wide.  On a grid, one draw takes a (2, r, ..., r)
block of white noise, and each slice of it gives one field once every
axis of it is multiplied by the axis factor: ``sample_gaussian_grid``
returns the two fields as a sequence that contracts a slice only when the
field is read, so a caller that is done with the first field before it
reads the second never holds both.  A field is contracted one slab of
leading-axis planes at a time, about SLAB_VALUES values, with the bits of
one whole contraction, and ``_GridDraw.slabs`` yields the slabs in turn.
The lattice estimators take only two counts from a field, its exceeding
nodes and its neighbour pairs whose flags differ; ``_GridDraw.counts``
takes them with ``_lattice_counts``, which thresholds and counts each slab
as it comes, so a lattice task never holds the field or its flags, and
``_grid_draw_memory`` prices all that it does hold.  A chi-square grid
draw of k degrees is one such draw with k noise blocks: each slab of its
field h is the sum of the squared slabs h of the k blocks, so it is read
by the same slab loop and never held whole either.  At scattered points,
point i takes row i of every axis factor and one (r_1, ..., r_d) noise
block gives one value array.  All samplers are pure functions of (model,
locations, seed): the RNG is a Philox counter generator keyed by the seed,
so replicates can run on any number of threads in any order and still
reproduce bit for bit.  Draws multiply through BLAS, so their last bits
depend on the BLAS build, though not on its thread count;
``_one_blas_thread`` holds OpenBLAS at one thread while a campaign draws,
so that its workers start no BLAS threads of their own and none wait,
asleep, between two products.
"""

from __future__ import annotations

import ctypes
import math
import operator
import threading
from collections.abc import Sequence
from functools import lru_cache

import numpy as np
# imported at module level so that the first draw of a campaign does not pay
# for numpy's lazy import of its random subpackage
from numpy.random import Generator, Philox, SeedSequence

from .densities import CovarianceModel
from .tessellation import Box, GridSpec

FACTOR_TOL = 1e-13          # largest residual variance left by an axis factor
SLAB_VALUES = 2**15         # about as many grid field values contracted at a time
# bytes a draw holds besides its arrays' values: its Philox generator,
# array headers and draw object (3.3 to 3.7 kB for a Gaussian draw on an
# 8^2 grid); every memory price of a task adds it per draw or noise block
DRAW_OVERHEAD = 8192


def _rng(seed_key) -> Generator:
    return Generator(Philox(SeedSequence(seed_key)))


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
    never holds more than r + 15 rows.  The resize skips numpy's reference
    check, which a profiler or tracer trips by holding the frame's locals;
    no view of the buffer outlives the statement that makes it.  The result
    is read-only.
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
            rows.resize((min(k + 16, n), n), refcheck=False)
        col = np.exp(-0.5 * (x - x[p]) ** 2)
        col -= np.einsum("kn,k->n", rows[:k], rows[:k, p])
        col /= np.sqrt(residual[p])
        rows[k] = col
        residual -= col * col
        k += 1
    rows.resize((k, n), refcheck=False)
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


def _slab_rows(n: int, d: int) -> int:
    """Leading-axis planes per slab of an n^d field: the largest power of two
    of at least 2 whose slab holds at most SLAB_VALUES values, or n where
    that is fewer.  No slab has 1 row, as n is even, as every grid's is."""
    return min(n, 1 << (max(2, SLAB_VALUES // n ** (d - 1)).bit_length() - 1))


def _grid_draw_memory(n: int, d: int, k: int, rank: int) -> int:
    """Bytes one lattice task holds while it counts a field of its grid draw
    of k noise blocks on n^d nodes, with an axis factor of rank
    r = ``rank`` (``_GridDraw.counts``): the k (2, r, ..., r) noise
    blocks, and for the slab being contracted, of s = ``_slab_rows(n, d)``
    planes, its partial contraction of r s n^(d-2) values and min(k, 2)
    slabs of s n^(d-1) values (for k >= 2 the sum of squares so far besides
    the slab of the block being added), each value of 8 B, plus
    DRAW_OVERHEAD per block; and what ``_lattice_counts`` holds besides the
    slab, its s n^(d-1) flags, one comparison of at most as many neighbour
    pairs and the copied n^(d-1) flags of the last plane of the slab
    before, each of 1 B.  At rank 0 it is the part that no factor changes."""
    lines = _slab_rows(n, d) * n ** (d - 2)  # a slab's values over n
    return (
        k * DRAW_OVERHEAD
        + 8 * (2 * k * rank**d + lines * (min(k, 2) * n + rank))
        + 2 * lines * n + n ** (d - 1)
    )


class _GridDraw(Sequence):
    """The two fields of one grid draw, each contracted from slice h of the
    (2, r, ..., r) noise blocks of the draw when it is read, one slab of
    leading-axis planes at a time (``slabs``), or counted as it is
    contracted (``counts``).  A Gaussian draw has one
    block, keyed by its seed; a chi-square draw of k degrees has k, keyed in
    order, and its field h sums the squares of the k fields h.  Reading a
    field twice contracts it twice, to the same bits, and holds no field
    between reads."""

    def __init__(self, model: CovarianceModel, grid: GridSpec, keys, squared: bool = False):
        self._factor = _axis_factor(grid.shape[0], grid.spacing, model.length_scale)
        shape = (2,) + (self._factor.shape[1],) * grid.d
        self._blocks = [_rng(key).standard_normal(shape) for key in keys]
        self._squared = squared
        self._rows = _slab_rows(grid.shape[0], grid.d)

    def __len__(self) -> int:
        return 2

    def __getitem__(self, half) -> np.ndarray:
        n, d = self._factor.shape[0], self._blocks[0].ndim - 1
        field = np.empty((n,) * d)
        lo = 0
        for slab in self.slabs(half):
            field[lo : lo + slab.shape[0]] = slab
            lo += slab.shape[0]
        return field.reshape(-1)

    def slabs(self, half):
        """Yield field ``half`` in slabs of ``_slab_rows`` leading-axis planes,
        in order, each of shape (rows, n, ..., n); a reader may overwrite
        them.  A slab contracts the leading noise axis with its rows of A,
        then each remaining axis with all of A, in the order and with the
        bits of one contraction of the whole field; a slab of 1 row would go
        to a matrix-vector product with other bits.  A squared draw squares
        each block's slab in place and adds it to the first, in block order.
        No slab is held here once the next is being contracted, so a reader
        that drops each slab before it asks for the next holds one at a
        time.  Raises IndexError past the second field when iterated."""
        half = operator.index(half)
        factor, rows = self._factor, self._rows
        n, r, d = factor.shape[0], factor.shape[1], self._blocks[0].ndim - 1
        leads = [block[half].reshape(r, -1).T for block in self._blocks]
        for lo in range(0, n, rows):
            total = None
            for lead in leads:
                z = np.matmul(lead, factor[lo : lo + rows].T)
                # contract each remaining leading noise axis with A and append
                # its n nodes last, so the axes come back in order; z stays the
                # row-major 2D view of the (r, ..., r, rows, n, ..., n) block
                for _ in range(d - 1):
                    z = np.matmul(z.reshape(r, -1).T, factor.T)
                if self._squared:
                    np.square(z, out=z)
                total = z if total is None else np.add(total, z, out=total)
            z = None  # the reader alone holds the slab while the next is contracted
            yield total.reshape((-1,) + (n,) * (d - 1))

    def counts(self, half, u) -> tuple:
        """(nodes with X >= u, neighbour node pairs whose flags differ) of
        field ``half``, counted slab by slab (``_lattice_counts``), so that
        neither the field nor its flags are ever held whole."""
        return _lattice_counts(self.slabs(half), u)


def _lattice_counts(slabs, u) -> tuple:
    """(nodes with X >= u, neighbour node pairs whose flags differ) of a
    lattice field, read from ``slabs``: the field in blocks of whole
    leading-axis planes, in order, each of shape (rows, n, ..., n).

    These two integers are all that the lattice volume and surface
    estimates take from a field.  Each slab is thresholded into its own
    flags, and the neighbour pairs of each axis within it are compared and
    counted one axis at a time; the pairs across a slab boundary compare its first plane
    with a copy of the last plane of the slab before.  Each slab and its
    flags are dropped before the next slab is asked for, so a reader of
    ``_GridDraw.slabs`` holds one slab, its flags, one comparison and one
    copied plane at a time, and never a whole field's flags.
    """
    exceeding = crossing = 0
    last = None
    for slab in slabs:
        flags = slab >= u
        del slab  # freed before the next slab is contracted
        exceeding += int(np.count_nonzero(flags))
        if last is not None:
            crossing += int(np.count_nonzero(flags[:1] != last))
        for axis in range(flags.ndim):
            head = (slice(None),) * axis
            lo, hi = flags[head + (slice(-1),)], flags[head + (slice(1, None),)]
            crossing += int(np.count_nonzero(lo != hi))
        # a copy, not a view, so that no flags of this slab are held while
        # the next slab is contracted
        last = flags[-1:].copy()
        del flags, lo, hi
    return exceeding, crossing


def sample_gaussian_grid(model: CovarianceModel, grid: GridSpec, seed) -> Sequence:
    """Draw two independent zero-mean unit-variance Gaussian fields at the grid nodes.

    The covariance of each returned array is the model covariance at every
    pair of nodes to within d x FACTOR_TOL, as each axis factor is exact to
    within FACTOR_TOL and every kernel value is at most 1.  One draw takes a
    (2, r, ..., r) block of standard normals; field h multiplies each of the
    d noise axes of slice h by the axis factor A.  The product is formed
    when field h is read, so only the noise is held until then.

    Parameters
    ----------
    model : CovarianceModel
    grid : GridSpec
    seed : int or tuple of int
        Replicate seed key.

    Returns
    -------
    sequence of two ndarray
        The two fields, each of length ``grid.n_nodes`` in the row-major node
        order of ``grid.nodes()``; it unpacks, iterates and indexes like a
        tuple, in any order and with the same bits.
    """
    return _GridDraw(model, grid, [seed])


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


def _point_draw_memory(n: int, d: int, rank: int | None) -> int:
    """Bytes a draw at n scattered points in d dimensions holds when no axis
    factor has more than ``rank`` rows: the n values and the n x d points,
    the d axis factors and one partial product of n columns and up to
    rank + 1 rows each (the pivot order of scattered coordinates can take
    one column more than a grid axis's), and while factoring the row buffer
    of ``_pivoted_factor``, which grows 16 rows at a time; each value of
    8 B, plus DRAW_OVERHEAD.  A rank of None prices the values and points
    alone, the part that no factor changes.  A chi-square draw at points
    squares its k draws into the sum one at a time, so k does not change
    the price."""
    values = 1 + d if rank is None else 1 + d + (d + 1) * (rank + 1) + 16
    return DRAW_OVERHEAD + 8 * n * values


def _point_factor(model, points, factor) -> tuple:
    """The given per-axis factors after a shape check, or fresh ones."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
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
    reproducible and component order is immaterial.  On a grid component c
    is the (2, r, ..., r) noise block that ``sample_gaussian_grid`` would
    draw with the key (seed, c), and two fields are returned: one sums the
    squared first halves, the other the squared second halves of the k
    components.  The k blocks are drawn up front; a field is contracted,
    squared and summed one slab at a time when it is read, so until then
    only the noise is held, and then one slab sum besides.

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
    sequence of two ndarray or ndarray
        On a grid the (first-half, second-half) fields, in the node order
        of ``locations.nodes()``, read as the draw of ``sample_gaussian_grid``
        is; on scattered points one (n,) array.
    """
    if k < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {k}")
    if not isinstance(locations, GridSpec):
        factor = _point_factor(model, locations, factor)
        total = np.zeros(factor[0].shape[1])
        for comp in range(k):
            total += np.square(_draw(factor, _flat_key(seed, comp)))
        return total
    return _GridDraw(model, locations, [_flat_key(seed, comp) for comp in range(k)], squared=True)


def sample_poisson_process(rate: float, box: Box, seed: int) -> np.ndarray:
    """Homogeneous Poisson point process in an axis-aligned box.

    Parameters
    ----------
    rate : float
        Nonnegative intensity per unit volume.
    box : Box
        The region; a Box has positive side lengths, so positive volume.
    seed : int

    Returns
    -------
    ndarray
        (count, d) points, count ~ Poisson(rate * volume), i.i.d. uniform.
    """
    if not 0 <= rate < math.inf:
        raise ValueError(f"rate must be nonnegative and finite, got {rate}")
    if rate == 0.0:
        return np.empty((0, box.d))
    rng = _rng(_flat_key(seed, 0x9E3779B9))  # fixed stream tag keeps counts and positions coupled
    count = int(rng.poisson(rate * box.volume))
    return box.lo + box.side_lengths * rng.random((count, box.d))


# (get, set) thread-count symbols of the OpenBLAS builds numpy links: the
# scipy-openblas wheel, a 64-bit-integer build, a plain build
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=1)
def _blas_control() -> tuple | None:
    """(get, set) thread-count functions of the loaded OpenBLAS, or None
    where no OpenBLAS with a known symbol is loaded (MKL, Accelerate, or a
    platform without /proc/self/maps)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file is gone
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                return get, set_
    return None


def _blas_threads() -> int | None:
    """Current BLAS thread count, or None where it cannot be read."""
    control = _blas_control()
    return control[0]() if control else None


class _OneBlasThread:
    """Context manager keeping BLAS single-threaded while any caller is
    inside it, as a campaign's worker pool is.  The BLAS thread count is
    process-wide, so the first caller in saves it and the last one out
    restores it: pools running side by side in other threads do not restore
    over each other's cap.  Without a thread-count control it does nothing."""

    def __init__(self):
        self._lock = threading.Lock()
        self._open = 0
        self._saved = None

    def __enter__(self):
        control = _blas_control()
        if control:
            with self._lock:
                if self._open == 0:
                    self._saved = control[0]()
                    control[1](1)
                self._open += 1

    def __exit__(self, *exc_info):
        control = _blas_control()
        if control:
            with self._lock:
                self._open -= 1
                if self._open == 0:
                    control[1](self._saved)


_one_blas_thread = _OneBlasThread()
