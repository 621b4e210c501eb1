"""Reproducible Monte Carlo campaigns over the estimators.

Each campaign maps a sweep parameter (cell size, crossing lag, window size,
shape) to replicate statistics.  Replicate seeds are derived from
(base seed, sweep index, replicate index) through a SeedSequence hash, so any
replicate can run on any thread at any time and the aggregated output is byte
identical regardless of the thread count.  Lattice fields come two per grid
draw: replicate r of sweep step s is half r % 2 of the grid draw keyed
(base seed, s, r // 2).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict, fields, replace

import numpy as np

from .densities import (
    CovarianceModel,
    beta_d,
    chisq_surface_density,
    chisq_volume_density,
    gaussian_surface_density,
    gaussian_volume_density,
)
from .sampling import (
    GridSpec,
    _axis_factor,
    covariance_factor,
    sample_chi_square,
    sample_gaussian_grid,
    sample_gaussian_points,
    sample_poisson_process,
)
from .tessellation import Box, hexagonal_honeycomb, voronoi_honeycomb_2d
from .estimators import (
    clipped_surface_estimate,
    corrected_surface,
    crossing_frequency,
    exceedance_indicator,
    hypercubic_surface_fast,
    surface_estimate,
)
from .crofton import circle_shape, crofton_measure_mc, square_shape

KINDS = ("bias-sweep", "crossing", "clt", "crofton-demo", "volume-check")
FAMILIES = ("hypercubic", "hexagonal", "voronoi")
MODELS = ("gaussian", "chi-square")

# fields that do not influence the computed numbers and are therefore
# excluded from the config hash echoed on every output row
_NON_SEMANTIC_FIELDS = ("threads", "out", "summary")

class ConfigError(ValueError):
    """Invalid campaign configuration (bad key, value, or combination)."""


@dataclass
class CampaignConfig:
    kind: str
    d: int = 2
    family: str = "hypercubic"
    model: str = "gaussian"
    ell: float = 1.0
    k: int = 2
    u: float = 0.0
    half_width: float = 8.0
    deltas: tuple = (0.5, 0.25, 0.125, 0.0625)
    qs: tuple = (0.4, 0.2, 0.1, 0.05, 0.02)
    windows: tuple = (40, 80, 160)
    levels: tuple = (0.0, 1.0)
    reps: int = 200
    n_pairs: int = 1_000_000
    n_lines: int = 100_000
    shape: str = "both"
    circle_radius: float = 1.0
    square_side: float = 1.0
    bounding_radius: float = 1.5
    guard: float = 1.5
    seed: int = 20260823
    threads: int = 1
    out: str | None = None
    summary: str | None = None

    def config_hash(self) -> str:
        payload = {
            k: v for k, v in asdict(self).items() if k not in _NON_SEMANTIC_FIELDS
        }
        blob = json.dumps(payload, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


_FLOAT_TUPLE_KEYS = {"deltas", "qs", "levels"}
_INT_TUPLE_KEYS = {"windows"}


def default_config(kind: str) -> CampaignConfig:
    """Per-campaign defaults at desk scale."""
    if kind not in KINDS:
        raise ConfigError(f"unknown campaign kind {kind!r}; expected one of {KINDS}")
    cfg = CampaignConfig(kind=kind)
    if kind == "volume-check":
        cfg = replace(cfg, half_width=4.0, deltas=(0.25,))
    elif kind == "clt":
        cfg = replace(cfg, deltas=(0.1,), reps=500)
    elif kind == "crossing":
        cfg = replace(cfg, reps=20)
    elif kind == "crofton-demo":
        cfg = replace(cfg, reps=20)
    return cfg


def apply_config_file(cfg: CampaignConfig, path) -> CampaignConfig:
    """Merge a flat key=value file into a config.

    Lines are ``key = value``; blank lines and '#' comments are ignored.
    List-valued keys take comma-separated entries.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    valid = {f.name: f for f in fields(CampaignConfig)}
    updates = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key == "kind":
            raise ConfigError(f"{path}:{lineno}: the campaign kind is set by the subcommand")
        if key not in valid:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        updates[key] = _parse_value(key, value, path, lineno)
    return replace(cfg, **updates)


def _parse_value(key, value, path, lineno):
    try:
        if key in _FLOAT_TUPLE_KEYS:
            return tuple(float(v) for v in value.split(","))
        if key in _INT_TUPLE_KEYS:
            return tuple(int(v) for v in value.split(","))
        current = getattr(CampaignConfig(kind="bias-sweep"), key)
        if isinstance(current, int):
            return int(value)
        if isinstance(current, float):
            return float(value)
        return value
    except ValueError as exc:
        raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc


def validate_config(cfg: CampaignConfig) -> CampaignConfig:
    """Normalize sweep ordering and reject inconsistent configurations."""
    if cfg.kind not in KINDS:
        raise ConfigError(f"unknown campaign kind {cfg.kind!r}")
    if cfg.d < 2:
        raise ConfigError(f"dimension must be >= 2, got {cfg.d}")
    if cfg.family not in FAMILIES:
        raise ConfigError(f"unknown honeycomb family {cfg.family!r}")
    if cfg.model not in MODELS:
        raise ConfigError(f"unknown model {cfg.model!r}")
    if cfg.ell <= 0:
        raise ConfigError(f"length scale must be positive, got {cfg.ell}")
    if cfg.k < 1:
        raise ConfigError(f"chi-square degrees must be >= 1, got {cfg.k}")
    if cfg.reps < 2:
        raise ConfigError(f"stderr needs at least 2 replicates, got {cfg.reps}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {cfg.threads}")
    if cfg.half_width <= 0:
        raise ConfigError(f"window half width must be positive, got {cfg.half_width}")
    for name in ("deltas", "qs", "levels"):
        if not getattr(cfg, name):
            raise ConfigError(f"{name} must be nonempty")
    if min(cfg.deltas) <= 0 or min(cfg.qs) <= 0:
        raise ConfigError("sweep values must be strictly positive")
    if len(set(cfg.deltas)) != len(cfg.deltas) or len(set(cfg.qs)) != len(cfg.qs):
        raise ConfigError("sweep values must be distinct")
    if not cfg.windows or min(cfg.windows) < 1:
        raise ConfigError("window list must contain positive lattice half extents")
    cfg = replace(
        cfg,
        deltas=tuple(sorted(cfg.deltas, reverse=True)),
        qs=tuple(sorted(cfg.qs, reverse=True)),
        windows=tuple(sorted(set(cfg.windows))),
    )
    if cfg.family in ("voronoi", "hexagonal") and cfg.d != 2:
        raise ConfigError(f"the {cfg.family} family is only available in dimension 2")
    if cfg.kind in ("volume-check", "clt") and cfg.family != "hypercubic":
        raise ConfigError(f"the {cfg.kind} campaign runs on the hypercubic family only")
    if cfg.kind == "crossing" and cfg.model != "gaussian":
        raise ConfigError("the crossing campaign supports the gaussian model only")
    if cfg.kind in ("bias-sweep", "volume-check") and cfg.family == "hypercubic":
        for delta in cfg.deltas:
            _lattice_half_extent(cfg.half_width, delta)
    _check_memory(cfg)
    if cfg.kind == "crossing" and cfg.n_pairs < cfg.reps:
        raise ConfigError("n_pairs must be at least the replicate count")
    if cfg.kind == "crofton-demo":
        if cfg.d != 2:
            raise ConfigError(f"the crofton demo measures 2D shapes, not dimension {cfg.d}")
        if cfg.n_lines < cfg.reps:
            raise ConfigError("n_lines must be at least the replicate count")
        if cfg.shape not in ("circle", "square", "both"):
            raise ConfigError(f"unknown crofton shape {cfg.shape!r}")
    return cfg


def _lattice_half_extent(half_width: float, delta: float) -> int:
    n = half_width / delta
    n_int = round(n)
    if abs(n - n_int) > 1e-9 or n_int < 1:
        raise ConfigError(
            f"spacing {delta} does not divide the window half width {half_width}"
        )
    return int(n_int)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(cfg: CampaignConfig) -> None:
    """Refuse a campaign whose concurrent draws cannot fit in physical memory:
    each worker thread holds one draw of the largest size in the sweep."""
    memory = _physical_memory()
    if memory is None:
        return
    need, what = _draw_memory(cfg, memory // cfg.threads)
    if need * cfg.threads > memory:
        raise ConfigError(
            f"field draws need about {need * cfg.threads / 2**30:.1f} GiB of memory ({what} "
            f"x threads = {cfg.threads}), more than the {memory / 2**30:.1f} GiB of "
            "physical memory"
        )


def _row_axes(cfg: CampaignConfig) -> list:
    """(nodes, spacing) of the grid axis each sweep row draws on; empty for
    the kinds and families that draw no grid."""
    if cfg.kind == "clt":
        return [(2 * w, cfg.deltas[0]) for w in cfg.windows]
    if cfg.family != "hypercubic":
        return []
    if cfg.kind == "bias-sweep":
        return [(2 * _lattice_half_extent(cfg.half_width, dl), dl) for dl in cfg.deltas]
    if cfg.kind == "volume-check":
        delta = cfg.deltas[0]
        return [(2 * _lattice_half_extent(cfg.half_width, delta), delta)] * len(cfg.levels)
    return []


def _draw_memory(cfg: CampaignConfig, budget: int) -> tuple:
    """Bytes one worker holds for the largest draw of ``cfg``, and what they are.

    A grid draw of n^d nodes holds, at 8 B each, the two n^d fields, the
    2 r^d noise and the 2 r^(d-j) n^j values of each of its d - 1 partial
    contractions, r being the rank of the axis factor.  A draw at n
    scattered points holds the n values, the n x d points, the d axis
    factors and one n x r partial product (or, while factoring, the factor
    loop's row buffer): 8 B x n (1 + d + (d + 1) r).
    Here n is at most the number of whole hexagons in the window, and for
    Voronoi clouds the expected number of cells meeting the window,
    1 + m^2 + 8 m / pi for a window m cells wide (the Steiner formula with
    the mean Poisson-Voronoi cell perimeter 4 / sqrt(rate)).  r is the rank
    of a grid axis across the extent of the points (the window, plus the
    guard margin for Voronoi generators) at the finest cell size, or at
    1/16 of a length scale where that is finer: a coarser grid has fewer
    nodes than a dense cloud has rank.  The rank is only computed once the
    rank-free part of the draw fits in ``budget``.
    """
    d, side = cfg.d, 2.0 * cfg.half_width
    if cfg.kind == "bias-sweep" and cfg.family != "hypercubic":
        delta = min(cfg.deltas)
        if cfg.family == "hexagonal":
            n = math.floor(side * side / (1.5 * math.sqrt(3.0) * delta * delta))
        else:
            m = side / delta
            n = math.ceil(1.0 + m * m + 8.0 * m / math.pi)
            side += 2.0 * cfg.guard * delta
        need = 8 * n * (1 + d)
        if need > budget:
            return need, f"{n} points x (1 + {d}) x 8 B"
        spacing = min(delta, cfg.ell / 16.0)
        rank = _axis_factor(math.ceil(side / spacing) + 1, spacing, cfg.ell).shape[1]
        need = 8 * n * (1 + d + (d + 1) * rank)
        return need, f"{n} points and rank {rank}: values, points, factors and product x 8 B"
    axes = _row_axes(cfg)
    if not axes:
        return 0, ""
    n, delta = max(axes)
    need = 16 * n**d
    if need > budget:
        return need, f"{n}^{d} grid points x 2 fields x 8 B"
    rank = _axis_factor(n, delta, cfg.ell).shape[1]
    need = 16 * sum(rank ** (d - j) * n**j for j in range(d + 1))
    return need, f"{n}^{d} grid points and rank {rank}: fields, noise and contractions x 8 B"


def _provenance(cfg: CampaignConfig, config_hash: str) -> dict:
    """What produced a run: package, numpy, scipy and BLAS builds, threads,
    seed and config hash.  Lattice draws multiply by BLAS, so their last bits
    depend on its build."""
    import scipy

    from . import __version__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    keys = ("name", "version", "openblas configuration")
    return {
        "excursionkit": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: v for k, v in blas.items() if k in keys},
        "threads": cfg.threads,
        "seed": cfg.seed,
        "config_hash": config_hash,
    }


@dataclass(eq=False)
class McCampaignResult:
    kind: str
    rows: list
    raw: list
    config: CampaignConfig
    config_hash: str
    wall_clock_s: float
    health: list

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(_csv_text(self.rows, self.config_hash))

    def raw_csv_text(self) -> str:
        return _csv_text(self.raw, self.config_hash)

    def write_json(self, path) -> None:
        payload = {
            "kind": self.kind,
            "config": {
                k: v
                for k, v in asdict(self.config).items()
                if k not in _NON_SEMANTIC_FIELDS
            },
            "config_hash": self.config_hash,
            "wall_clock_s": self.wall_clock_s,
            "rows": self.rows,
            "health": self.health,
            "provenance": _provenance(self.config, self.config_hash),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _csv_text(rows, config_hash) -> str:
    if not rows:
        return "config_hash\n"
    names = list(rows[0].keys()) + ["config_hash"]
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join([_fmt(row[k]) for k in rows[0].keys()] + [config_hash]))
    return "\n".join(lines) + "\n"


def _rep_seed(base: int, *indices) -> tuple:
    return (int(base),) + tuple(int(i) for i in indices)


def _parallel(fn, count: int, threads: int) -> list:
    if threads <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(count)))


def _mean_stderr(values: np.ndarray) -> tuple:
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def run_campaign(cfg: CampaignConfig) -> McCampaignResult:
    """Validate ``cfg`` and run the sweep of its kind.

    Every kind is the same loop: for each value of the sweep, ``cfg.reps``
    replicates run through ``_parallel`` and are reduced to one summary row,
    and the replicate results become the raw rows.  The spec of the kind
    (``_SPECS``) returns the sweep column name, the sweep values,
    ``replicates(si, value)`` giving the per-task function of row si,
    ``reduce(value, results)`` giving the row and the named raw columns, and
    ``paired``.  A task is one replicate, or with ``paired`` the two
    replicates 2t and 2t + 1 of one grid draw; an odd count drops the last.
    Each row also gets numeric-health counters, written to the JSON summary
    only: the rank of the axis factor its grid draws use.
    """
    cfg = validate_config(cfg)
    start = time.perf_counter()
    column, values, replicates, reduce, paired = _SPECS[cfg.kind](cfg)
    axes = _row_axes(cfg)
    rows, raw, health = [], [], []
    for si, value in enumerate(values):
        tasks = (cfg.reps + 1) // 2 if paired else cfg.reps
        # no name holds the task function, so what it closes over (a
        # covariance factor, say) is freed before the next row builds its own
        results = _parallel(replicates(si, value), tasks, cfg.threads)
        if paired:
            results = [r for pair in results for r in pair][: cfg.reps]
        row, raw_columns = reduce(value, results)
        rows.append({column: value, **row, "reps": cfg.reps})
        health.append(
            {"axis_rank": _axis_factor(*axes[si], cfg.ell).shape[1]} if axes else {}
        )
        for rep, entries in enumerate(zip(*raw_columns.values())):
            named = dict(zip(raw_columns, map(float, entries)))
            raw.append({column: value, "replicate": rep, **named})
    return McCampaignResult(
        kind=cfg.kind,
        rows=rows,
        raw=raw,
        config=cfg,
        config_hash=cfg.config_hash(),
        wall_clock_s=time.perf_counter() - start,
        health=health,
    )


def _reference_surface_density(cfg: CampaignConfig) -> float:
    lam = 1.0 / (cfg.ell * cfg.ell)
    if cfg.model == "gaussian":
        return gaussian_surface_density(cfg.u, lam, cfg.d)
    return chisq_surface_density(cfg.u, lam, cfg.d, cfg.k)


def _grid_replicates(cfg: CampaignConfig, model: CovarianceModel, grid: GridSpec, si, estimate):
    """Task function of row si on a grid: task t draws once, keyed
    (seed, si, t), and returns ``estimate`` of its first and its second
    half, replicates 2t and 2t + 1."""
    # computed here, in the calling thread, so that pool threads share one
    # axis factor instead of racing to fill the cache with copies of it
    _axis_factor(grid.shape[0], grid.spacing, model.length_scale)

    def task(t):
        key = _rep_seed(cfg.seed, si, t)
        if cfg.model == "gaussian":
            halves = sample_gaussian_grid(model, grid, key)
        else:
            halves = sample_chi_square(model, cfg.k, grid, key)
        return [estimate(half) for half in halves]

    return task


def _lattice_volume(values: np.ndarray, grid: GridSpec, u: float) -> float:
    """Volume of the exceeding lattice cells over |T|.

    Summed as a multiset of equal cell volumes, like
    ``hypercubic_surface_fast`` sums facets, it equals ``volume_estimate`` on
    the lattice honeycomb bit for bit without building one.  The shorter
    count / n_nodes can differ from it in the last bit.
    """
    count = np.count_nonzero(values >= u)
    return float(np.sum(np.full(count, grid.spacing**grid.d)) / grid.window_volume)


def _point_values(cfg: CampaignConfig, model: CovarianceModel, points, seed_key, factor=None):
    if cfg.model == "gaussian":
        return sample_gaussian_points(model, points, seed_key, factor=factor)
    return sample_chi_square(model, cfg.k, points, seed_key, factor=factor)


def _bias_spec(cfg: CampaignConfig):
    """Replicated surface estimates over shrinking cells, as ratios to the
    analytic surface density; the mean ratio approaches 2d/beta_d from below.

    The hypercubic family uses the fast lattice path and the hexagonal family
    ``surface_estimate`` (inside cells only, divided by the window volume).
    Both 2D point families draw from per-axis factors of the cell centres'
    coordinates (``covariance_factor``).  The hexagonal cells are the same in
    every replicate of a cell size, so their factors are computed once per
    row, in the calling thread, and shared read-only.  The Voronoi family
    uses ``clipped_surface_estimate``: the field is drawn at the generators
    of every cell meeting the window and facets count with their length
    clipped to it, so the edge band of partly covered cells is not lost.
    Each Voronoi replicate has its own cloud and so its own factors.
    """
    model = CovarianceModel(cfg.ell)
    denom = _reference_surface_density(cfg)
    window = Box(np.full(cfg.d, -cfg.half_width), np.full(cfg.d, cfg.half_width))

    def replicates(si, delta):
        if cfg.family == "hypercubic":
            grid = GridSpec(cfg.d, _lattice_half_extent(cfg.half_width, delta), delta)
            return _grid_replicates(
                cfg, model, grid, si, lambda values: hypercubic_surface_fast(values, grid, cfg.u)
            )

        elif cfg.family == "hexagonal":
            wh = hexagonal_honeycomb(delta, window)
            refs = wh.ref_points_inside
            # the cells are the same for every replicate of the row, so are
            # the axis factors: compute them once here; the replicates only read them
            factor = covariance_factor(model, refs)

            def one(rep):
                values = _point_values(cfg, model, refs, _rep_seed(cfg.seed, si, rep), factor)
                return surface_estimate(wh, exceedance_indicator(values, cfg.u))

        else:  # voronoi: fresh unit-rate cloud per replicate, scaled by delta
            def one(rep):
                unit_half = cfg.half_width / delta + cfg.guard
                unit_box = Box(np.full(2, -unit_half), np.full(2, unit_half))
                pts = delta * sample_poisson_process(1.0, unit_box, _rep_seed(cfg.seed, si, rep, 0))
                if pts.shape[0] < 2:
                    return 0.0
                wh = voronoi_honeycomb_2d(pts, window, cfg.guard * delta)
                values = _point_values(
                    cfg, model, wh.ref_points_meeting, _rep_seed(cfg.seed, si, rep, 1)
                )
                return clipped_surface_estimate(wh, exceedance_indicator(values, cfg.u))

        return one

    def reduce(delta, surfaces):
        surfaces = np.array(surfaces)
        ratios = surfaces / denom
        corrected = np.array([corrected_surface(r, cfg.d) for r in ratios])
        mean_ratio, se_ratio = _mean_stderr(ratios)
        mean_corr, se_corr = _mean_stderr(corrected)
        row = {
            "mean_ratio": mean_ratio,
            "stderr_ratio": se_ratio,
            "mean_ratio_corrected": mean_corr,
            "stderr_ratio_corrected": se_corr,
            "mean_surface_raw": float(surfaces.mean()),
            "target_bias": 2.0 * cfg.d / beta_d(cfg.d),
        }
        return row, {"surface_raw": surfaces, "ratio": ratios}

    return "delta", cfg.deltas, replicates, reduce, cfg.family == "hypercubic"


def _crossing_spec(cfg: CampaignConfig):
    """beta_d * p_hat / q over a descending lag sweep; the estimate approaches
    the surface density from below as q -> 0."""
    model = CovarianceModel(cfg.ell)
    target = _reference_surface_density(cfg)
    batch = cfg.n_pairs // cfg.reps

    def replicates(qi, q):
        return lambda rep: crossing_frequency(
            model, cfg.u, q, batch, _rep_seed(cfg.seed, qi, rep)
        )

    def reduce(q, freqs):
        freqs = np.array(freqs)
        estimates = beta_d(cfg.d) * freqs / q
        est, se = _mean_stderr(estimates)
        row = {
            "p_hat": float(freqs.mean()),
            "estimate": est,
            "stderr": se,
            "below_limit": bool(est <= target + 3.0 * se),
            "target": target,
            "pairs_per_rep": batch,
        }
        return row, {"p_hat": freqs, "estimate": estimates}

    return "q", cfg.qs, replicates, reduce, False


def _clt_spec(cfg: CampaignConfig):
    """Window sweep of the (volume, surface) estimator pair: scaled variances,
    scaled covariance, and standardized skewness/kurtosis per window."""
    model = CovarianceModel(cfg.ell)
    delta = cfg.deltas[0]

    def replicates(wi, half_extent):
        grid = GridSpec(cfg.d, half_extent, delta)
        return _grid_replicates(
            cfg,
            model,
            grid,
            wi,
            lambda values: (
                _lattice_volume(values, grid, cfg.u),
                hypercubic_surface_fast(values, grid, cfg.u),
            ),
        )

    def reduce(half_extent, pairs):
        from scipy import stats  # slow to import, and only this reduction uses it

        pairs = np.array(pairs)
        vol, surf = pairs[:, 0], pairs[:, 1]
        sigma_t = GridSpec(cfg.d, half_extent, delta).window_volume
        row = {
            "sigma_T": sigma_t,
            "mean_volume": float(vol.mean()),
            "mean_surface": float(surf.mean()),
            "var_volume_scaled": float(sigma_t * vol.var(ddof=1)),
            "var_surface_scaled": float(sigma_t * surf.var(ddof=1)),
            "cov_scaled": float(sigma_t * np.cov(vol, surf, ddof=1)[0, 1]),
            "skew_volume": float(stats.skew(vol)),
            "kurt_volume": float(stats.kurtosis(vol)),
            "skew_surface": float(stats.skew(surf)),
            "kurt_surface": float(stats.kurtosis(surf)),
        }
        return row, {"volume": vol, "surface_raw": surf}

    return "window_half_extent", tuple(int(w) for w in cfg.windows), replicates, reduce, True


def _crofton_spec(cfg: CampaignConfig):
    """Random-line measures of analytic shapes against their closed forms."""
    shapes = {}  # name -> (size, oracle, true boundary length)
    if cfg.shape in ("circle", "both"):
        r = cfg.circle_radius
        shapes["circle"] = (r, circle_shape(r), 2.0 * np.pi * r)
    if cfg.shape in ("square", "both"):
        side = cfg.square_side
        shapes["square"] = (side, square_shape(side), 4.0 * side)
    batch = cfg.n_lines // cfg.reps

    def replicates(si, name):
        oracle = shapes[name][1]
        return lambda rep: crofton_measure_mc(
            oracle, 2, batch, cfg.bounding_radius, _rep_seed(cfg.seed, si, rep)
        ).value

    def reduce(name, values):
        size, _, truth = shapes[name]
        values = np.array(values)
        est, se = _mean_stderr(values)
        row = {
            "size": size,
            "estimate": est,
            "stderr": se,
            "truth": truth,
            "rel_error": abs(est - truth) / truth,
            "lines_total": batch * cfg.reps,
        }
        return row, {"estimate": values}

    return "shape", tuple(shapes), replicates, reduce, False


def _volume_spec(cfg: CampaignConfig):
    """Mean lattice volume estimates (``_lattice_volume``) against the analytic
    volume density."""
    model = CovarianceModel(cfg.ell)
    delta = cfg.deltas[0]
    grid = GridSpec(cfg.d, _lattice_half_extent(cfg.half_width, delta), delta)

    def replicates(ui, u):
        return _grid_replicates(
            cfg, model, grid, ui, lambda values: _lattice_volume(values, grid, u)
        )

    def reduce(u, vols):
        vols = np.array(vols)
        mean, se = _mean_stderr(vols)
        gaussian = cfg.model == "gaussian"
        target = gaussian_volume_density(u) if gaussian else chisq_volume_density(u, cfg.k)
        row = {"mean_volume": mean, "stderr": se, "target": target, "abs_error": abs(mean - target)}
        return row, {"volume": vols}

    return "u", cfg.levels, replicates, reduce, True


_SPECS = {
    "bias-sweep": _bias_spec,
    "crossing": _crossing_spec,
    "clt": _clt_spec,
    "crofton-demo": _crofton_spec,
    "volume-check": _volume_spec,
}
