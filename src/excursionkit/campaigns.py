"""Reproducible Monte Carlo campaigns over the estimators.

Each campaign maps a sweep parameter (cell size, crossing lag, window size,
shape) to replicate statistics.  Replicate seeds are derived from
(base seed, sweep index, replicate index) through a SeedSequence hash, so any
replicate can run on any thread at any time and the aggregated output is byte
identical regardless of the thread count.  Lattice fields come two per grid
draw: replicate r of sweep step s is half r % 2 of the grid draw keyed
(base seed, s, r // 2), and a task estimates the first half before it reads
the second.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import sys
import threading
import time
from dataclasses import dataclass, asdict, fields, replace

import numpy as np

from .densities import (
    CovarianceModel,
    beta_d,
    bias_factor,
    chisq_surface_density,
    chisq_volume_density,
    gaussian_surface_density,
    gaussian_volume_density,
)
from .sampling import (
    _axis_factor,
    _blas_threads,
    _flat_key,
    _grid_draw_memory,
    _one_blas_thread,
    _point_draw_memory,
    covariance_factor,
    sample_chi_square,
    sample_gaussian_grid,
    sample_gaussian_points,
    sample_poisson_process,
)
from .tessellation import Box, GridSpec, hexagonal_honeycomb, voronoi_honeycomb_2d
from .estimators import (
    _counted_surface,
    _counted_volume,
    _crossing_memory,
    crossing_frequency,
    exceedance_indicator,
    hypercubic_surface_fast,  # noqa: F401  (bound here for perfbench/worker.py --spans)
    surface_estimate,
)
from .crofton import _line_memory, circle_shape, crofton_measure_mc, square_shape

KINDS = ("bias-sweep", "crossing", "clt", "crofton-demo", "volume-check")
FAMILIES = ("hypercubic", "hexagonal", "voronoi")
MODELS = ("gaussian", "chi-square")

# fewest expected generators a Voronoi bias sweep accepts at its coarsest cell
# size; a cloud of fewer than 2 has no diagram
MIN_VORONOI_GENERATORS = 16

# fields that do not influence the computed numbers and are therefore
# excluded from the config hash echoed on every output row
_NON_SEMANTIC_FIELDS = ("threads", "out", "summary", "raw")

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
    raw: str | None = None

    def config_hash(self) -> str:
        blob = json.dumps(_semantic(self), sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _semantic(cfg: CampaignConfig) -> dict:
    return {k: v for k, v in asdict(cfg).items() if k not in _NON_SEMANTIC_FIELDS}


def default_config(kind: str) -> CampaignConfig:
    """Per-campaign defaults at desk scale."""
    if kind not in KINDS:
        raise ConfigError(f"unknown campaign kind {kind!r}; expected one of {KINDS}")
    cfg = CampaignConfig(kind=kind)
    if kind == "volume-check":
        cfg = replace(cfg, half_width=4.0, deltas=(0.25,))
    elif kind == "clt":
        cfg = replace(cfg, deltas=(0.1,), reps=500)
    elif kind in ("crossing", "crofton-demo"):
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
    updates, set_on = {}, {}
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
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is already set on line {set_on[key]}")
        set_on[key] = lineno
        updates[key] = _parse_value(key, value, path, lineno)
    return replace(cfg, **updates)


def _parse_value(key, value, path, lineno):
    """``value`` in the type of the key's default; a tuple key takes
    comma-separated entries of its default's element type."""
    current = getattr(CampaignConfig(kind="bias-sweep"), key)
    try:
        if isinstance(current, tuple):
            return tuple(type(current[0])(v) for v in value.split(","))
        return type(current)(value) if isinstance(current, (int, float)) else value
    except ValueError as exc:
        raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc


def validate_config(cfg: CampaignConfig) -> CampaignConfig:
    """Normalize sweep ordering and reject inconsistent configurations."""
    if cfg.kind not in KINDS:
        raise ConfigError(f"unknown campaign kind {cfg.kind!r}")
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        entries = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
            raise ConfigError(f"{f.name} must be finite, got {value}")
    if cfg.d < 2:
        raise ConfigError(f"dimension must be >= 2, got {cfg.d}")
    if cfg.family not in FAMILIES:
        raise ConfigError(f"unknown honeycomb family {cfg.family!r}")
    if cfg.model not in MODELS:
        raise ConfigError(f"unknown model {cfg.model!r}")
    if cfg.ell <= 0 or not 0 < cfg.ell * cfg.ell < math.inf:
        raise ConfigError(
            f"length scale must be positive with a finite nonzero square, got {cfg.ell}"
        )
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
    if cfg.guard < 0:
        raise ConfigError(f"guard margin must be nonnegative, got {cfg.guard}")
    for name in ("deltas", "qs", "levels"):
        if not getattr(cfg, name):
            raise ConfigError(f"{name} must be nonempty")
    if min(cfg.deltas) <= 0 or min(cfg.qs) <= 0:
        raise ConfigError("sweep values must be strictly positive")
    if not cfg.windows or min(cfg.windows) < 1:
        raise ConfigError("window list must contain positive lattice half extents")
    for name in ("deltas", "qs", "windows", "levels"):
        values = getattr(cfg, name)
        if len(set(values)) != len(values):
            raise ConfigError(f"{name} must be distinct, got {values}")
    cfg = replace(
        cfg,
        deltas=tuple(sorted(cfg.deltas, reverse=True)),
        qs=tuple(sorted(cfg.qs, reverse=True)),
        windows=tuple(sorted(cfg.windows)),
    )
    if cfg.family in ("voronoi", "hexagonal") and cfg.d != 2:
        raise ConfigError(f"the {cfg.family} family is only available in dimension 2")
    if cfg.kind in ("volume-check", "clt") and cfg.family != "hypercubic":
        raise ConfigError(f"the {cfg.kind} campaign runs on the hypercubic family only")
    if cfg.kind in ("volume-check", "clt") and len(cfg.deltas) != 1:
        raise ConfigError(f"the {cfg.kind} campaign takes one cell size, got deltas = {cfg.deltas}")
    if cfg.kind == "crossing" and cfg.model != "gaussian":
        raise ConfigError("the crossing campaign supports the gaussian model only")
    _row_grids(cfg)  # refuses a lattice spacing that does not divide the half width
    sweep = cfg.kind == "bias-sweep"
    if sweep and cfg.family != "hypercubic" and cfg.deltas[0] >= 2 * cfg.half_width:
        raise ConfigError(
            f"cell size {cfg.deltas[0]} must be below the window side {2 * cfg.half_width}"
        )
    if sweep and cfg.family == "voronoi":
        generators = _voronoi_box(cfg, cfg.deltas[0]).volume  # at unit rate
        if generators < MIN_VORONOI_GENERATORS:
            raise ConfigError(
                f"a Voronoi cloud at cell size {cfg.deltas[0]} holds about {generators:.3g} "
                f"generators, fewer than {MIN_VORONOI_GENERATORS}: use smaller cells, a wider "
                "window or a wider guard"
            )
    if sweep and cfg.model == "chi-square" and cfg.u <= 0:
        raise ConfigError(f"a chi-square bias sweep needs a positive level u, got {cfg.u}")
    if cfg.kind == "volume-check" and cfg.model == "chi-square" and min(cfg.levels) <= 0:
        # every chi-square value is >= 0: a level u <= 0 would check nothing
        raise ConfigError(f"a chi-square volume check needs positive levels, got {cfg.levels}")
    try:
        density = _reference_surface_density(cfg) if sweep else 1.0
    except ValueError:  # the spectral moment 1 / ell^2 overflows
        density = math.inf
    if not 0 < density < math.inf:
        raise ConfigError(
            f"the {cfg.model} surface density at u = {cfg.u} (ell = {cfg.ell}) is not a positive "
            "finite float: every ratio would divide by it"
        )
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
        # every line that hits a shape must meet the ball of lines
        radii = {"circle": cfg.circle_radius, "square": cfg.square_side / math.sqrt(2.0)}
        for name in radii if cfg.shape == "both" else (cfg.shape,):
            if not 0 < radii[name] <= cfg.bounding_radius:
                raise ConfigError(
                    f"the {name} (circumradius {radii[name]:.6g}) must have a positive size "
                    f"and fit in the ball of lines (bounding_radius {cfg.bounding_radius:.6g})"
                )
    return cfg


def _lattice_half_extent(half_width: float, delta: float) -> int:
    n = half_width / delta
    n_int = round(n)
    if abs(n - n_int) > 1e-9 or n_int < 1:
        raise ConfigError(
            f"spacing {delta} does not divide the window half width {half_width}"
        )
    return int(n_int)


def _voronoi_box(cfg: CampaignConfig, delta: float) -> Box:
    """The box a Voronoi replicate fills with a unit-rate cloud before scaling
    it by the cell size ``delta``: the window plus the guard margin, in cells."""
    half = cfg.half_width / delta + cfg.guard
    return Box(np.full(2, -half), np.full(2, half))


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(cfg: CampaignConfig) -> None:
    """Refuse a campaign whose concurrent draws cannot fit in physical memory:
    ``_parallel`` runs min(``threads``, tasks of a row) tasks at once, the
    calling thread among them, and each holds one draw of the largest size
    in the sweep."""
    memory = _physical_memory()
    if memory is None:
        return
    draws = min(cfg.threads, _task_count(cfg, _row_grids(cfg)))
    need, what = _draw_memory(cfg, memory // draws)
    if need * draws > memory:
        raise ConfigError(
            f"draws need about {need * draws / 2**30:.1f} GiB of memory ({what} "
            f"x concurrent draws = {draws}), more than the {memory / 2**30:.1f} GiB of "
            "physical memory"
        )


def _task_count(cfg: CampaignConfig, grids: list) -> int:
    """Tasks per sweep row: one per replicate, or on rows with a grid
    (``grids``, from ``_row_grids``) one per grid draw of two replicates."""
    return (cfg.reps + 1) // 2 if grids else cfg.reps


def _row_grids(cfg: CampaignConfig) -> list:
    """The lattice each sweep row draws on; empty for the kinds and families
    that draw no grid."""
    if cfg.kind == "clt":
        return [GridSpec(cfg.d, int(w), cfg.deltas[0]) for w in cfg.windows]
    if cfg.family != "hypercubic" or cfg.kind not in ("bias-sweep", "volume-check"):
        return []
    grids = [GridSpec(cfg.d, _lattice_half_extent(cfg.half_width, dl), dl) for dl in cfg.deltas]
    return grids if cfg.kind == "bias-sweep" else grids * len(cfg.levels)


def _draw_memory(cfg: CampaignConfig, budget: int) -> tuple:
    """Bytes one worker holds for the largest draw of ``cfg``, and what they are.

    Each module prices the arrays it allocates, and this sums those prices
    the way a task calls them: a lattice task holds its grid draw while it
    counts each field (``sampling._grid_draw_memory``, k noise blocks for
    chi-square, 1 for Gaussian), at the largest grid of the sweep.  A
    hexagonal or Voronoi task holds one draw at its points
    (``sampling._point_draw_memory``).  A hexagonal task draws at the
    centres within sqrt(3) delta of the window, whose hexagons lie within
    (1 + sqrt(3)) delta of it, so it is priced at the hexagon areas in that
    box; a Voronoi task at the expected number of generators in the cloud
    box (``_voronoi_box``), where every cell drawn has its generator.  Both
    take the rank of a grid axis across that box at the finest cell size,
    or at 1/16 of a length scale where that is finer: a
    coarser grid has fewer nodes than a dense cloud has rank.  A crossing
    task prices its pairs (``estimators._crossing_memory``) and a Crofton
    task its lines (``crofton._line_memory``), ``n_pairs`` or ``n_lines``
    over ``reps`` each.  A draw is first priced without its rank, and an
    axis is factored only once that part fits in ``budget``; the points are
    then priced at the axis node count, which bounds the rank, and the axis
    is factored only when that bound does not fit.
    """
    d, side = cfg.d, 2.0 * cfg.half_width
    if cfg.kind == "bias-sweep" and cfg.family != "hypercubic":
        delta = min(cfg.deltas)
        if cfg.family == "hexagonal":
            side += 2.0 * (1.0 + math.sqrt(3.0)) * delta
            n = math.floor(side * side / (1.5 * math.sqrt(3.0) * delta * delta))
        else:
            box = _voronoi_box(cfg, delta)
            n = math.ceil(box.volume)
            side = delta * float(box.side_lengths[0])
        need = _point_draw_memory(n, d, None)
        if need > budget:
            return need, f"{n} points x (1 + {d}) x 8 B"
        spacing = min(delta, cfg.ell / 16.0)
        nodes = math.ceil(side / spacing) + 1
        rank, what = nodes, f"rank at most {nodes}"
        if _point_draw_memory(n, d, rank) > budget:
            rank = _axis_factor(nodes, spacing, cfg.ell).shape[1]
            what = f"rank {rank}"
        return _point_draw_memory(n, d, rank), (
            f"{n} points and {what}: values, points, factors, product and factor buffer x 8 B"
        )
    if cfg.kind == "crossing":
        pairs = cfg.n_pairs // cfg.reps
        return _crossing_memory(pairs), f"{pairs} pairs"
    if cfg.kind == "crofton-demo":
        lines = cfg.n_lines // cfg.reps
        return _line_memory(lines), f"{lines} lines"
    grids = _row_grids(cfg)
    if not grids:
        return 0, ""
    grid = max(grids, key=lambda g: g.half_extent)
    n = grid.shape[0]
    blocks = cfg.k if cfg.model == "chi-square" else 1
    need = _grid_draw_memory(n, d, blocks, 0)
    if need > budget:
        return need, f"{n}^{d} grid points x (slabs x 8 B + flags x 1 B)"
    rank = _axis_factor(n, grid.spacing, cfg.ell).shape[1]
    return _grid_draw_memory(n, d, blocks, rank), (
        f"{n}^{d} grid points and rank {rank}: noise block x {blocks}, slabs and contraction "
        "x 8 B + flags x 1 B"
    )


def _scipy_version() -> str:
    """``scipy.__version__`` without importing scipy, which no lattice or
    hexagonal campaign runs: the ``version = "..."`` line of the installed
    ``scipy/version.py``, which ``scipy.__version__`` is read from."""
    if "scipy" in sys.modules:
        return sys.modules["scipy"].__version__
    try:
        folder = importlib.util.find_spec("scipy").submodule_search_locations[0]
        with open(os.path.join(folder, "version.py")) as fh:
            line = next(line for line in fh if line.startswith("version = "))
        value = line[len("version = "):].strip()
        if len(value) > 2 and value[0] == value[-1] and value[0] in "'\"":
            return value[1:-1]
    except (AttributeError, TypeError, IndexError, OSError, StopIteration):
        pass
    import scipy  # no readable version file: the version the package reports

    return scipy.__version__


def _provenance(cfg: CampaignConfig, config_hash: str) -> dict:
    """What produced a run: package, numpy, scipy and BLAS builds, campaign
    and BLAS threads, seed and config hash.  Lattice draws multiply by BLAS,
    so their last bits depend on its build."""
    from . import __version__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    keys = ("name", "version", "openblas configuration")
    blas_threads = _blas_threads()
    return {
        "excursionkit": __version__,
        "numpy": np.__version__,
        "scipy": _scipy_version(),
        "blas": {k: v for k, v in blas.items() if k in keys},
        "threads": cfg.threads,
        "blas_threads": blas_threads,
        # the campaign caps BLAS at 1 thread per worker where it can
        "blas_threads_in_pool": 1 if blas_threads is not None else None,
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
            "config": _semantic(self.config),
            "config_hash": self.config_hash,
            "wall_clock_s": self.wall_clock_s,
            "rows": self.rows,
            "health": self.health,
            "provenance": _provenance(self.config, self.config_hash),
        }
        with open(path, "w") as fh:
            json.dump(
                _json_safe(payload), fh, indent=2, sort_keys=True, default=str, allow_nan=False
            )
            fh.write("\n")


def _json_safe(value):
    """``value`` with each non-finite float, such as the skewness of a
    constant column, made None, which JSON writes as null: JSON has no NaN
    or Infinity token.  The CSV keeps writing them as nan."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _csv_text(rows, config_hash) -> str:
    names = list(rows[0].keys()) + ["config_hash"]
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join([_fmt(row[k]) for k in rows[0].keys()] + [config_hash]))
    return "\n".join(lines) + "\n"


def _parallel(fn, count: int, threads: int) -> list:
    """[fn(0), ..., fn(count - 1)], on the calling thread plus up to
    ``threads`` - 1 worker threads, with BLAS single-threaded throughout: the
    matrix products spawn no BLAS threads of their own beyond the cores, and
    no idle BLAS thread falls asleep while an estimate runs between two
    products.  Each product's bits do not depend on the BLAS thread count.

    The workers are plain ``threading`` threads, so no pool module is
    loaded, and they run the caller's loop, taking indices in order: at one
    thread, or for fewer than two tasks, no thread is started.  Once a task
    fails no thread starts another,
    and the exception of the lowest failing index is raised, as
    ``ThreadPoolExecutor.map`` would raise it.  A Ctrl-C, which Python
    raises in the main thread, stops the workers the same way: raised in a
    task it is that task's exception, and raised between two tasks it is
    raised once the workers have finished."""
    with _one_blas_thread:
        results = [None] * count
        errors = {}
        indices = iter(range(count))
        lock = threading.Lock()

        def work():
            while True:
                with lock:
                    i = None if errors else next(indices, None)
                if i is None:
                    return
                try:
                    results[i] = fn(i)
                except BaseException as exc:
                    with lock:
                        errors[i] = exc

        workers = [threading.Thread(target=work) for _ in range(min(threads, count) - 1)]
        for worker in workers:
            worker.start()
        try:
            work()
        except BaseException as exc:
            # below every task index, so it is the one raised
            with lock:
                errors[-1] = exc
        for worker in workers:
            worker.join()
        if errors:
            raise errors[min(errors)]
        return results


def _mean_stderr(values: np.ndarray) -> tuple:
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def run_campaign(cfg: CampaignConfig) -> McCampaignResult:
    """Validate ``cfg`` and run the sweep of its kind.

    Every kind is the same loop: for each value of the sweep, ``cfg.reps``
    replicates run through ``_parallel`` and are reduced to one summary row,
    and the replicate results become the raw rows.  The spec of the kind
    (``_SPECS``) returns the sweep column name, the sweep values,
    ``replicates(si, value)`` giving the per-task function of row si, and
    ``reduce(value, results)`` giving the row and the named raw columns.  A
    task is one replicate, or on rows with a grid (``_row_grids``) the two
    replicates 2t and 2t + 1 of one grid draw; with an odd count the last
    task estimates only its first half.
    Each row also gets numeric-health counters, written to the JSON summary
    only: the rank of the axis factor its grid draws use.
    """
    cfg = validate_config(cfg)
    start = time.perf_counter()
    column, values, replicates, reduce = _SPECS[cfg.kind](cfg)
    grids = _row_grids(cfg)
    rows, raw, health = [], [], []
    for si, value in enumerate(values):
        # computed in the calling thread before the row's tasks start, so
        # that pool threads share the cached axis factor instead of racing
        # to fill the cache with copies of it
        health.append(
            {"axis_rank": _axis_factor(grids[si].shape[0], grids[si].spacing, cfg.ell).shape[1]}
            if grids
            else {}
        )
        # no name holds the task function, so what it closes over (a
        # covariance factor, say) is freed before the next row builds its own
        results = _parallel(replicates(si, value), _task_count(cfg, grids), cfg.threads)
        if grids:
            results = [r for pair in results for r in pair]
        row, raw_columns = reduce(value, results)
        rows.append({column: value, **row, "reps": cfg.reps})
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
    lam = CovarianceModel(cfg.ell).second_spectral_moment
    if cfg.model == "gaussian":
        return gaussian_surface_density(cfg.u, lam, cfg.d)
    return chisq_surface_density(cfg.u, lam, cfg.d, cfg.k)


def _field(cfg: CampaignConfig, model: CovarianceModel, where, key, factor=None):
    """The config's field at ``where``: a two-field draw on a grid, one value
    array at scattered points."""
    if cfg.model == "chi-square":
        return sample_chi_square(model, cfg.k, where, key, factor=factor)
    if isinstance(where, GridSpec):
        return sample_gaussian_grid(model, where, key)
    return sample_gaussian_points(model, where, key, factor=factor)


def _grid_replicates(cfg: CampaignConfig, model: CovarianceModel, grid: GridSpec, si, u, estimate):
    """Task function of row si on a grid: task t draws once, keyed
    (seed, si, t), and returns ``estimate(exceeding, crossing)`` of the
    counts at level ``u`` (``_GridDraw.counts``) of its first and its second
    half, replicates 2t and 2t + 1.  A half past ``cfg.reps`` (the second
    half of the last task of an odd count) is drawn but never counted.
    ``run_campaign`` has computed the row's axis factor before its tasks
    start."""

    def task(t):
        draw = _field(cfg, model, grid, _flat_key(cfg.seed, si, t))
        # each field is thresholded and counted slab by slab as it is
        # contracted, so a task never holds a field or its flags
        return [estimate(*draw.counts(h, u)) for h in (0, 1) if 2 * t + h < cfg.reps]

    return task


def _bias_spec(cfg: CampaignConfig):
    """Replicated surface estimates over shrinking cells, as ratios to the
    analytic surface density; the mean ratio approaches 2d/beta_d from below.

    The hypercubic family uses the fast lattice path.  The two 2D point
    families use ``surface_estimate`` over the honeycomb's window view: the
    field is drawn at the reference points of the facets with one in the
    window (``ref_points_weighted``), and each facet counts unclipped at half
    its length per such point, so the edge band of partly covered cells is
    not lost.  Both draw from per-axis factors of those points' coordinates
    (``covariance_factor``).  The hexagonal tiling has a fixed phase, so its
    cells are the same in every replicate of a cell size: its factors are
    computed once per row, in the calling thread, and shared read-only.  A
    random shift per replicate would make the tiling stationary, at the cost
    of a build and a factor per replicate.  Each Voronoi replicate has its
    own cloud and so its own factors.
    """
    model = CovarianceModel(cfg.ell)
    denom = _reference_surface_density(cfg)
    window = Box(np.full(cfg.d, -cfg.half_width), np.full(cfg.d, cfg.half_width))
    grids = _row_grids(cfg)

    def replicates(si, delta):
        if cfg.family == "hypercubic":
            grid = grids[si]
            return _grid_replicates(
                cfg, model, grid, si, cfg.u, lambda _, crossing: _counted_surface(crossing, grid)
            )

        elif cfg.family == "hexagonal":
            wh = hexagonal_honeycomb(delta, window)
            refs = wh.ref_points_weighted
            # the cells are the same for every replicate of the row, so are
            # the axis factors: compute them once here; the replicates only read them
            factor = covariance_factor(model, refs)

            def one(rep):
                values = _field(cfg, model, refs, _flat_key(cfg.seed, si, rep), factor)
                return surface_estimate(wh, exceedance_indicator(values, cfg.u))

        else:  # voronoi: fresh unit-rate cloud per replicate, scaled by delta
            unit_box = _voronoi_box(cfg, delta)

            def one(rep):
                pts = delta * sample_poisson_process(1.0, unit_box, _flat_key(cfg.seed, si, rep, 0))
                if pts.shape[0] < 2:
                    raise ConfigError(
                        f"the Voronoi cloud of replicate {rep} at cell size {delta} holds "
                        f"{pts.shape[0]} generator(s), fewer than the 2 a diagram needs"
                    )
                wh = voronoi_honeycomb_2d(pts, window, cfg.guard * delta)
                values = _field(cfg, model, wh.ref_points_weighted, _flat_key(cfg.seed, si, rep, 1))
                return surface_estimate(wh, exceedance_indicator(values, cfg.u))

        return one

    def reduce(delta, surfaces):
        surfaces = np.array(surfaces)
        ratios = surfaces / denom
        corrected = ratios * beta_d(cfg.d) / (2.0 * cfg.d)
        mean_ratio, se_ratio = _mean_stderr(ratios)
        mean_corr, se_corr = _mean_stderr(corrected)
        row = {
            "mean_ratio": mean_ratio,
            "stderr_ratio": se_ratio,
            "mean_ratio_corrected": mean_corr,
            "stderr_ratio_corrected": se_corr,
            "mean_surface_raw": float(surfaces.mean()),
            "target_bias": bias_factor(cfg.d),
        }
        return row, {"surface_raw": surfaces, "ratio": ratios}

    return "delta", cfg.deltas, replicates, reduce


def _crossing_spec(cfg: CampaignConfig):
    """beta_d * p_hat / q over a descending lag sweep; the estimate approaches
    the surface density from below as q -> 0."""
    model = CovarianceModel(cfg.ell)
    target = _reference_surface_density(cfg)
    batch = cfg.n_pairs // cfg.reps

    def replicates(qi, q):
        return lambda rep: crossing_frequency(
            model, cfg.u, q, batch, _flat_key(cfg.seed, qi, rep)
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

    return "q", cfg.qs, replicates, reduce


def _clt_spec(cfg: CampaignConfig):
    """Window sweep of the (volume, surface) estimator pair: scaled variances,
    scaled covariance, and standardized skewness/kurtosis per window."""
    model = CovarianceModel(cfg.ell)
    grids = _row_grids(cfg)
    sigma_ts = {grid.half_extent: grid.window_volume for grid in grids}

    def replicates(wi, half_extent):
        grid = grids[wi]
        return _grid_replicates(
            cfg,
            model,
            grid,
            wi,
            cfg.u,
            lambda exceeding, crossing: (
                _counted_volume(exceeding, grid),
                _counted_surface(crossing, grid),
            ),
        )

    def reduce(half_extent, pairs):
        pairs = np.array(pairs)
        vol, surf = pairs[:, 0], pairs[:, 1]
        sigma_t = sigma_ts[half_extent]
        row = {
            "sigma_T": sigma_t,
            "mean_volume": float(vol.mean()),
            "mean_surface": float(surf.mean()),
            "var_volume_scaled": float(sigma_t * vol.var(ddof=1)),
            "var_surface_scaled": float(sigma_t * surf.var(ddof=1)),
            # elementwise, not np.cov, whose BLAS dot rounds by CPU kernel
            "cov_scaled": float(
                sigma_t * (np.sum((vol - vol.mean()) * (surf - surf.mean())) / (vol.size - 1))
            ),
        }
        row["skew_volume"], row["kurt_volume"] = _skew_kurtosis(vol)
        row["skew_surface"], row["kurt_surface"] = _skew_kurtosis(surf)
        return row, {"volume": vol, "surface_raw": surf}

    return "window_half_extent", tuple(grid.half_extent for grid in grids), replicates, reduce


def _skew_kurtosis(x: np.ndarray) -> tuple:
    """Biased sample skewness and excess kurtosis of a 1-d array, nan for an
    array constant to rounding.

    The central moments are formed in the order ``scipy.stats.skew`` and
    ``scipy.stats.kurtosis`` (scipy 1.17) form them, so the values agree bit
    for bit, with the same nan test and without scipy's precision warning.
    """
    mean = x.mean(keepdims=True)
    dev = x - mean
    dev2 = dev**2
    m2, m3, m4 = np.mean(dev2), np.mean(dev2 * dev), np.mean(dev2**2)
    if m2 <= (np.finfo(float).eps * mean[0]) ** 2:
        return math.nan, math.nan
    return float(m3 / m2**1.5), float(m4 / m2**2.0 - 3)


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
            oracle, 2, batch, cfg.bounding_radius, _flat_key(cfg.seed, si, rep)
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

    return "shape", tuple(shapes), replicates, reduce


def _volume_spec(cfg: CampaignConfig):
    """Mean lattice volume estimates (``_counted_volume``) against the analytic
    volume density."""
    model = CovarianceModel(cfg.ell)
    grids = _row_grids(cfg)

    def replicates(ui, u):
        grid = grids[ui]
        return _grid_replicates(
            cfg, model, grid, ui, u, lambda exceeding, _: _counted_volume(exceeding, grid)
        )

    def reduce(u, vols):
        vols = np.array(vols)
        mean, se = _mean_stderr(vols)
        gaussian = cfg.model == "gaussian"
        target = gaussian_volume_density(u) if gaussian else chisq_volume_density(u, cfg.k)
        row = {"mean_volume": mean, "stderr": se, "target": target, "abs_error": abs(mean - target)}
        return row, {"volume": vols}

    return "u", cfg.levels, replicates, reduce


_SPECS = {
    "bias-sweep": _bias_spec,
    "crossing": _crossing_spec,
    "clt": _clt_spec,
    "crofton-demo": _crofton_spec,
    "volume-check": _volume_spec,
}
