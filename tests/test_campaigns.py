import builtins
import functools
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

import excursionkit
from excursionkit import campaigns, cli, sampling
from excursionkit.campaigns import (
    CampaignConfig,
    ConfigError,
    _csv_text,
    apply_config_file,
    default_config,
    run_campaign,
    validate_config,
)
from excursionkit.crofton import _CHUNK
from excursionkit.densities import CovarianceModel, gaussian_surface_density
from excursionkit.estimators import (
    exceedance_indicator,
    surface_estimate,
    volume_estimate,
)
from excursionkit.sampling import (
    GridSpec,
    sample_gaussian_grid,
    sample_gaussian_points,
    sample_poisson_process,
)
from excursionkit.tessellation import (
    Box,
    hexagonal_honeycomb,
    hypercubic_honeycomb,
    voronoi_honeycomb_2d,
)


def tiny(kind, **overrides):
    base = {
        "bias-sweep": dict(deltas=(0.5,), reps=3, half_width=2.0),
        "crossing": dict(qs=(0.4, 0.1), n_pairs=4000, reps=4),
        "clt": dict(windows=(8, 16), reps=6, deltas=(0.25,)),
        "crofton-demo": dict(n_lines=2000, reps=4),
        "volume-check": dict(deltas=(0.5,), reps=4, half_width=2.0, levels=(0.0,)),
    }[kind]
    base.update(overrides)
    return replace(default_config(kind), **base)


class TestConfigFile:
    def test_parse_values_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# comment line\n"
            "d = 2\n"
            "ell = 2.5  # inline comment\n"
            "deltas = 0.5, 0.25\n"
            "windows = 8,16\n"
            "model = gaussian\n"
            "reps=5\n"
            "\n"
        )
        cfg = apply_config_file(default_config("bias-sweep"), path)
        assert cfg.d == 2 and cfg.ell == 2.5 and cfg.reps == 5
        assert cfg.deltas == (0.5, 0.25)
        assert cfg.windows == (8, 16)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("no_such_option = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            apply_config_file(default_config("bias-sweep"), path)

    def test_kind_not_settable_from_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("kind = crossing\n")
        with pytest.raises(ConfigError, match="subcommand"):
            apply_config_file(default_config("bias-sweep"), path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("reps = three\n")
        with pytest.raises(ConfigError, match="bad value"):
            apply_config_file(default_config("bias-sweep"), path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            apply_config_file(default_config("bias-sweep"), tmp_path / "absent.cfg")

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just a sentence\n")
        with pytest.raises(ConfigError, match="key=value"):
            apply_config_file(default_config("bias-sweep"), path)

    @pytest.mark.parametrize("second", ["deltas = 0.25", "half-width = 4"])
    def test_repeated_key_rejected(self, tmp_path, second):
        # the second spelling of a key is the same key; neither value may silently win
        path = tmp_path / "c.cfg"
        first = second.replace("-", "_").split("=")[0] + "= 0.5"
        path.write_text(f"{first}\n# comment\n{second}\n")
        key = second.split("=")[0].strip().replace("-", "_")
        with pytest.raises(ConfigError, match=f"c.cfg:3: key '{key}' is already set on line 1"):
            apply_config_file(default_config("bias-sweep"), path)


class TestValidation:
    def test_sweeps_normalized_descending(self):
        cfg = validate_config(tiny("bias-sweep", deltas=(0.125, 0.5, 0.25)))
        assert cfg.deltas == (0.5, 0.25, 0.125)

    def test_windows_normalized_ascending(self):
        cfg = validate_config(tiny("clt", windows=(16, 8)))
        assert cfg.windows == (8, 16)

    @pytest.mark.parametrize(
        "overrides,match",
        [
            (dict(reps=1), "replicates"),
            (dict(d=1), "dimension"),
            (dict(family="penrose"), "family"),
            (dict(model="cauchy"), "model"),
            (dict(ell=0.0), "length scale"),
            (dict(deltas=(0.5, -0.25)), "positive"),
            (dict(deltas=(0.5, 0.5)), "distinct"),
            (dict(threads=0), "thread"),
            (dict(seed=-1), "seed"),
            (dict(family="voronoi", d=3), "voronoi"),
            (dict(family="hexagonal", d=3), "hexagonal"),
            (dict(deltas=(0.3,)), "divide"),
            # duplicates used to be merged (windows) or printed twice (levels)
            (dict(windows=(8, 8, 4)), "windows must be distinct, got \\(8, 8, 4\\)"),
            (dict(levels=(1.0, 1.0)), "levels must be distinct, got \\(1.0, 1.0\\)"),
        ],
    )
    def test_rejections(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            validate_config(tiny("bias-sweep", **overrides))

    def test_volume_check_requires_hypercubic(self):
        with pytest.raises(ConfigError, match="hypercubic"):
            validate_config(tiny("volume-check", family="hexagonal"))

    @pytest.mark.parametrize("family", ["hexagonal", "voronoi"])
    def test_clt_requires_hypercubic(self, family):
        # the window sweep draws lattice fields only; another family would be
        # ignored under a hash that names it
        with pytest.raises(ConfigError, match="hypercubic"):
            validate_config(tiny("clt", family=family, windows=(20,)))

    def test_crofton_demo_requires_dimension_two(self):
        with pytest.raises(ConfigError, match="2D"):
            validate_config(tiny("crofton-demo", d=3))

    def test_crossing_requires_gaussian(self):
        with pytest.raises(ConfigError, match="gaussian"):
            validate_config(tiny("crossing", model="chi-square"))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown campaign"):
            default_config("frobnicate")
        with pytest.raises(ConfigError):
            validate_config(CampaignConfig(kind="frobnicate"))

    def test_run_campaign_rejects_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown campaign"):
            run_campaign(CampaignConfig(kind="frobnicate"))

    def test_run_campaign_validates_once(self, monkeypatch):
        calls = []
        real = campaigns.validate_config
        monkeypatch.setattr(
            campaigns, "validate_config", lambda cfg: calls.append(1) or real(cfg)
        )
        run_campaign(tiny("crofton-demo"))
        assert len(calls) == 1

    def test_volume_check_hypercubic_only(self):
        with pytest.raises(ConfigError, match="hypercubic"):
            run_campaign(tiny("volume-check", family="hexagonal"))


class TestRowGrids:
    """``_row_grids`` names the lattice of every row, and every grid draw of
    a run is on the lattice of its row."""

    @pytest.mark.parametrize(
        "kind, overrides, grids",
        [
            ("bias-sweep", dict(deltas=(0.25, 0.5)),
             [GridSpec(2, 4, 0.5), GridSpec(2, 8, 0.25)]),
            ("clt", dict(windows=(8, 4)), [GridSpec(2, 4, 0.25), GridSpec(2, 8, 0.25)]),
            ("volume-check", dict(levels=(0.0, 1.0)), [GridSpec(2, 4, 0.5)] * 2),
        ],
    )
    def test_draws_are_on_the_row_grids(self, monkeypatch, kind, overrides, grids):
        drawn = {}
        real = campaigns.sample_gaussian_grid

        def recording(model, grid, key):
            drawn.setdefault(key[1], []).append(grid)  # key = (seed, row, task)
            return real(model, grid, key)

        monkeypatch.setattr(campaigns, "sample_gaussian_grid", recording)
        cfg = validate_config(tiny(kind, **overrides))
        assert campaigns._row_grids(cfg) == grids
        run_campaign(cfg)
        # one draw per pair of replicates, each on its row's grid
        tasks = (cfg.reps + 1) // 2
        assert drawn == {si: [grid] * tasks for si, grid in enumerate(grids)}

    @pytest.mark.parametrize(
        "kind, overrides",
        [
            ("bias-sweep", dict(family="hexagonal", deltas=(0.5, 0.4))),
            ("bias-sweep", dict(family="voronoi")),
            ("crossing", {}),
        ],
    )
    def test_point_families_and_crossing_draw_no_grid(self, monkeypatch, kind, overrides):
        def refuse(*args):
            raise AssertionError("no grid draw expected")

        monkeypatch.setattr(campaigns, "sample_gaussian_grid", refuse)
        cfg = validate_config(tiny(kind, **overrides))
        assert campaigns._row_grids(cfg) == []
        run_campaign(cfg)


# an 8^2 grid (half_width 2, delta 0.5) of full axis rank 8, for one thread:
# the fixed overhead of its one draw, the 2 x 8^2 noise, one 8 x 8 partial
# contraction and the one slab of all 8 rows it makes, each value of 8 B,
# and what the counting pass holds besides, the slab's 8 planes of flags,
# one comparison of at most 8 planes and one copied plane, 8 nodes of 1 B each
_ONE_SMALL_DRAW = sampling.DRAW_OVERHEAD + 8 * (2 * 8**2 + 8 * 8 + 8**2) + (2 * 8 + 1) * 8


class TestGridMemoryPreflight:
    @pytest.mark.parametrize("kind", campaigns.KINDS)
    def test_default_configs_admitted(self, kind):
        validate_config(default_config(kind))

    def test_threads_multiply_the_draw(self, monkeypatch):
        monkeypatch.setattr(campaigns, "_physical_memory", lambda: _ONE_SMALL_DRAW)
        validate_config(tiny("bias-sweep", threads=1))
        with pytest.raises(ConfigError, match="physical memory"):
            validate_config(tiny("bias-sweep", threads=2))

    @pytest.mark.parametrize(
        "threads, reps, admitted",
        # a lattice task draws two replicates, so 8 reps make 4 tasks and 2
        # make 1, and no more tasks run at once than there are
        [(8, 8, True), (8, 2, True), (8, 16, False)],
        ids=["4-tasks", "1-task", "8-tasks"],
    )
    def test_concurrent_draws_priced(self, monkeypatch, threads, reps, admitted):
        cfg = tiny("bias-sweep", d=3, half_width=8.0, deltas=(0.0625,), threads=threads, reps=reps)
        price, _ = campaigns._draw_memory(validate_config(replace(cfg, threads=1)), 2**40)
        assert price == 3_350_528
        monkeypatch.setattr(campaigns, "_physical_memory", lambda: 5 * price)
        if admitted:
            validate_config(cfg)
        else:
            with pytest.raises(ConfigError, match="x concurrent draws = 8"):
                validate_config(cfg)

    @pytest.mark.parametrize(
        "kind, overrides",
        [
            ("bias-sweep", dict(deltas=(0.5, 0.25))),
            ("volume-check", dict(half_width=4.0)),
            ("clt", dict(windows=(8, 16), deltas=(0.5,))),
        ],
    )
    def test_largest_grid_refused(self, monkeypatch, kind, overrides):
        # each config's largest grid has more than 8^2 points
        monkeypatch.setattr(campaigns, "_physical_memory", lambda: _ONE_SMALL_DRAW)
        with pytest.raises(ConfigError, match="physical memory"):
            validate_config(tiny(kind, **overrides))

    @pytest.mark.parametrize(
        "family, cells, rank",
        [
            # the hexagons centred within sqrt(3) 0.5 of [-2, 2]^2 lie in a
            # box of side 4 + 2 (1 + sqrt(3)) 0.5 = 6.73, which holds at most
            # 6.73^2 / (1.5 sqrt(3) 0.5^2) = 69.8 of them; a 109-node axis at
            # spacing 1/16 across that box has rank 24
            ("hexagonal", 69, 24),
            # (2 (2 / 0.5 + 1.5))^2 = 121 generators expected in the cloud
            # box of [-2, 2]^2; they span the window plus the guard margin
            # 1.5 x 0.5 on each side, 89 nodes of rank 21
            ("voronoi", 121, 21),
        ],
    )
    def test_point_families_priced_by_linear_draw(self, monkeypatch, family, cells, rank):
        price = sampling.DRAW_OVERHEAD + 8 * cells * (1 + 2 + 3 * (rank + 1) + 16)
        monkeypatch.setattr(campaigns, "_physical_memory", lambda: price)
        # the finest row sets the price
        cfg = tiny("bias-sweep", family=family, deltas=(0.5, 0.8))
        validate_config(replace(cfg, threads=1))
        with pytest.raises(ConfigError, match=f"{cells} points and rank {rank}"):
            validate_config(replace(cfg, threads=2))

    @pytest.mark.parametrize(
        "family, threads",
        [("hexagonal", 1), ("voronoi", 4)],
        ids=["hexagonal-2d", "criterion-03"],
    )
    def test_point_family_admitted_without_factoring(self, monkeypatch, family, threads):
        # the benchmark's hexagonal-2d config and the criterion-03 Voronoi
        # config fit when priced at the axis node count, which bounds the
        # rank, so no axis is factored just to price it
        monkeypatch.setattr(campaigns, "_physical_memory", lambda: 8 * 2**30)
        monkeypatch.setattr(campaigns, "_axis_factor", _must_not_run)
        cfg = replace(
            default_config("bias-sweep"),
            family=family, half_width=4.0, deltas=(0.25, 0.125), threads=threads,
        )
        validate_config(cfg)

    def test_point_family_rank_only_priced_when_points_fit(self, monkeypatch):
        # (2 (8 / (1/16) + 1.5))^2 = 67,081 Voronoi generators expected on
        # the default window at delta 1/16: with 1 MiB of memory their values
        # and points alone are refused
        monkeypatch.setattr(campaigns, "_physical_memory", lambda: 2**20)
        monkeypatch.setattr(campaigns, "_axis_factor", _must_not_run)
        cfg = replace(default_config("bias-sweep"), family="voronoi")
        with pytest.raises(ConfigError, match="67081 points x \\(1 \\+ 2\\)"):
            validate_config(cfg)

    # a hexagonal id names the hexagon areas that fit in the window, or for
    # "hexagonal-17" the hexagons wholly inside it; each is priced at the
    # hexagon areas in the box (1 + sqrt(3)) delta wider on each side, which
    # holds every cell of the window view
    @pytest.mark.parametrize(
        "family, half_width, delta, overrides, priced_points",
        [
            # floor((4 + 2 (1 + sqrt(3)) 0.25)^2 / (1.5 sqrt(3) 0.25^2)) = 177
            # priced, 149 drawn
            ("hexagonal", 2.0, 0.25, {}, 177),
            # 1,029 drawn, whose axis factors have ranks 23 and 22 against the
            # priced grid rank 108
            ("hexagonal", 3.0, 0.125, {}, 1100),
            ("voronoi", 2.0, 0.25, {}, 361),  # (2 (2 / 0.25 + 1.5))^2
            # 45 drawn, where the fixed overhead outweighs the points
            ("hexagonal", 1.0, 0.25, dict(ell=4.0), 69),
            # k draws, each squared into the sum, one at a time
            ("hexagonal", 2.0, 0.25, dict(model="chi-square", k=3, u=2.0), 177),
            ("voronoi", 2.0, 0.25, dict(model="chi-square", k=3, u=2.0), 361),
        ],
        ids=[
            "hexagonal-98",
            "hexagonal-886",
            "voronoi-361",
            "hexagonal-17",
            "chi-square-98",
            "voronoi-chi-square-361",
        ],
    )
    def test_point_price_bounds_the_draw(self, family, half_width, delta, overrides, priced_points):
        # the fixed and per-point price of the preflight bound what one draw,
        # its factors included, allocates at every point count drawn
        cfg = validate_config(
            tiny("bias-sweep", family=family, half_width=half_width, deltas=(delta,), **overrides)
        )
        price, what = campaigns._draw_memory(cfg, 2**40)
        assert what.startswith(f"{priced_points} points")
        per_point = (price - sampling.DRAW_OVERHEAD) / priced_points
        window = Box(np.full(2, -half_width), np.full(2, half_width))
        if family == "hexagonal":
            clouds = [hexagonal_honeycomb(delta, window).ref_points_weighted]
        else:
            unit_box = Box(np.full(2, -9.5), np.full(2, 9.5))
            clouds = [
                voronoi_honeycomb_2d(
                    0.25 * sample_poisson_process(1.0, unit_box, (cfg.seed, 0, rep, 0)),
                    window,
                    0.375,
                ).ref_points_weighted
                for rep in range(4)
            ]
        for points in clouds:
            tracemalloc.start()
            try:
                campaigns._field(cfg, CovarianceModel(cfg.ell), points, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            bound = sampling.DRAW_OVERHEAD + per_point * points.shape[0]
            assert peak <= bound, (peak, points.shape[0], what)

    @pytest.mark.parametrize(
        "kind, d, overrides, nodes, node_bytes",
        [
            ("bias-sweep", 2, dict(half_width=8.0, deltas=(0.0625,)), 256, 8),
            ("bias-sweep", 3, dict(half_width=4.0, deltas=(0.125,)), 64, 8),
            # a 256^3 task holds less than one byte per node, the flags of
            # one field
            ("bias-sweep", 3, dict(half_width=8.0, deltas=(0.0625,)), 256, 1),
            # at u = -3 nearly every cell exceeds, the most the volume sum counts
            ("volume-check", 2, dict(half_width=8.0, deltas=(0.0625,), levels=(-3.0,)), 256, 8),
            ("clt", 2, dict(windows=(128,), deltas=(0.0625,)), 256, 8),
            (
                "bias-sweep",
                2,
                dict(half_width=8.0, deltas=(0.0625,), model="chi-square", k=3, u=2.0),
                256,
                16,
            ),
            # at u = 0.05 nearly every cell exceeds (P = 0.997 at k = 3)
            (
                "volume-check",
                2,
                dict(half_width=8.0, deltas=(0.0625,), levels=(0.05,), model="chi-square", k=3),
                256,
                16,
            ),
            (
                "bias-sweep",
                3,
                dict(half_width=4.0, deltas=(0.125,), model="chi-square", k=3, u=2.0),
                64,
                8,
            ),
            # on grids this small the fixed overhead of a draw outweighs its
            # fields, so no float-field ceiling applies
            ("bias-sweep", 2, {}, 8, None),
            ("bias-sweep", 2, dict(model="chi-square", k=3, u=2.0), 8, None),
            # the d = 4 and d = 5 lattices of the higher-dimension sweeps;
            # at 16^5 the 2 x 15^5 noise values alone exceed 8 B per node
            ("bias-sweep", 4, dict(half_width=2.0, deltas=(0.125,)), 32, 8),
            ("bias-sweep", 5, dict(half_width=2.0, deltas=(0.25,)), 16, None),
        ],
        ids=[
            "256^2",
            "64^3",
            "256^3",
            "volume-check-256^2",
            "clt-256^2",
            "chi-square-256^2",
            "chi-square-volume-check-256^2",
            "chi-square-64^3",
            "8^2",
            "chi-square-8^2",
            "32^4",
            "16^5",
        ],
    )
    def test_grid_price_bounds_one_task(self, kind, d, overrides, nodes, node_bytes):
        # the grid price of the preflight bounds what one task allocates: its
        # draw and the estimates of both fields.  A Gaussian task counts its
        # fields slab by slab and holds less than one float field; so does a
        # chi-square task, which sums its squared blocks slab by slab, except
        # at 256^2, where its two slabs are a whole field.  At 256^3 the noise
        # and one slab are less than the flags of one field
        cfg = validate_config(tiny(kind, d=d, **overrides))
        price, what = campaigns._draw_memory(cfg, 2**40)
        assert what.startswith(f"{nodes}^{d} grid points and rank")
        _, values, replicates, _ = campaigns._SPECS[kind](cfg)
        task = replicates(0, values[0])  # computes the axis factor before the trace
        tracemalloc.start()
        try:
            task(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= price, (peak, what)
        if node_bytes is not None:
            assert peak < node_bytes * nodes**d, peak

    def test_point_counts_bound_the_cells_drawn(self):
        # the hexagonal price bounds the cells of the window view, 45 of 69
        # here; the Voronoi price, the expected generator count of the cloud
        # box, bounds the mean count of cells a replicate draws at
        window = Box(np.full(2, -2.0), np.full(2, 2.0))
        cfg = validate_config(tiny("bias-sweep", family="hexagonal"))
        _, what = campaigns._draw_memory(cfg, 2**40)
        priced = int(what.split(" points")[0])
        assert hexagonal_honeycomb(0.5, window).weighted_index.size <= priced == 69
        cfg = validate_config(tiny("bias-sweep", family="voronoi"))
        _, what = campaigns._draw_memory(cfg, 2**40)
        priced = int(what.split(" points")[0])
        unit_box = campaigns._voronoi_box(cfg, 0.5)
        drawn = [
            voronoi_honeycomb_2d(
                0.5 * sample_poisson_process(1.0, unit_box, (77, k)), window, 0.75
            ).weighted_index.size
            for k in range(40)
        ]
        assert priced == 121
        assert np.mean(drawn) <= priced

    def test_big_config_refused_before_any_draw(self, monkeypatch):
        # a 32768^3 grid needs about 21 GiB for one slab of 2 planes and its
        # flags alone; only its size is computed, not the axis factor
        monkeypatch.setattr(campaigns, "_physical_memory", lambda: 8 * 2**30)
        monkeypatch.setattr(campaigns, "_axis_factor", _must_not_run)
        monkeypatch.setattr(campaigns, "sample_gaussian_grid", _must_not_run)
        cfg = tiny("bias-sweep", d=3, half_width=1024.0, deltas=(0.0625,))
        with pytest.raises(ConfigError, match="32768\\^3 grid points"):
            run_campaign(cfg)

    @pytest.mark.parametrize(
        "kind, overrides, sampler",
        [
            ("crossing", dict(n_pairs=10**10, reps=2), "crossing_frequency"),
            ("crofton-demo", dict(n_lines=10**10, reps=2), "crofton_measure_mc"),
        ],
        ids=["crossing", "crofton-demo"],
    )
    def test_pairs_and_lines_refused_before_any_draw(self, monkeypatch, kind, overrides, sampler):
        # a task of 5e9 pairs or lines needs about 112 or 37 GiB
        monkeypatch.setattr(campaigns, "_physical_memory", lambda: 8 * 2**30)
        monkeypatch.setattr(campaigns, sampler, _must_not_run)
        with pytest.raises(ConfigError, match="physical memory"):
            run_campaign(tiny(kind, **overrides))

    @pytest.mark.parametrize(
        "kind, overrides, ceiling",
        [
            # 1,000 pairs: arrays too small for numpy to reuse a temporary;
            # a task holds 3 values per pair, its two normals and one product
            ("crossing", dict(n_pairs=2000, reps=2), 24 * 1000),
            ("crossing", dict(n_pairs=200_000, reps=2), 24 * 100_000),
            # the line counts and 9 values per line of the batch evaluated
            ("crofton-demo", dict(n_lines=2000, reps=2), 8 * (1000 + 9 * 1000)),
            # two batches of lines per task, the first freed before the second
            ("crofton-demo", dict(n_lines=800_000, reps=2), 8 * (400_000 + 9 * _CHUNK)),
        ],
        ids=["crossing-1000", "crossing-100000", "crofton-1000", "crofton-400000"],
    )
    def test_pair_and_line_price_bounds_one_task(self, kind, overrides, ceiling):
        # the preflight price bounds what one task allocates, for each row,
        # and so does the ceiling, with the fixed overhead of one draw
        cfg = validate_config(tiny(kind, **overrides))
        price, _ = campaigns._draw_memory(cfg, 2**40)
        _, values, replicates, _ = campaigns._SPECS[kind](cfg)
        for si, value in enumerate(values):
            task = replicates(si, value)
            tracemalloc.start()
            try:
                task(0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= price, (value, peak, price)
            assert peak <= sampling.DRAW_OVERHEAD + ceiling, (value, peak)

    def test_cli_exit_code_two(self, tmp_path, monkeypatch, capsys):
        # 4 replicates are 2 lattice tasks, which run at once on 2 threads
        monkeypatch.setattr(campaigns, "_physical_memory", lambda: _ONE_SMALL_DRAW)
        argv = ["bias-sweep", "--config", str(_write_cfg(tmp_path, "half_width = 2.0\n")),
                "--delta", "0.5", "--reps", "4", "--threads", "2"]
        assert cli.main(argv) == 2
        assert "physical memory" in capsys.readouterr().err
        assert cli.main(argv[:-2]) == 0


def _must_not_run(*args, **kwargs):
    raise AssertionError("called for a config the preflight should refuse")


def _no_constant(token):
    raise ValueError(f"{token} is not a JSON value")


class TestHashing:
    def test_hash_ignores_execution_fields(self):
        a = tiny("bias-sweep", threads=1, out="x.csv")
        b = tiny("bias-sweep", threads=8, out=None, summary="y.json")
        assert a.config_hash() == b.config_hash()

    def test_hash_tracks_semantic_fields(self):
        a = tiny("bias-sweep", seed=1)
        b = tiny("bias-sweep", seed=2)
        assert a.config_hash() != b.config_hash()
        assert len(a.config_hash()) == 12


class TestDeterminism:
    @pytest.mark.parametrize("kind", campaigns.KINDS)
    def test_rows_identical_across_thread_counts(self, kind):
        r1 = run_campaign(tiny(kind, reps=6, threads=1))
        for threads in (2, 4):
            other = run_campaign(tiny(kind, reps=6, threads=threads))
            assert json.dumps(r1.rows, default=str) == json.dumps(other.rows, default=str)
            assert r1.raw == other.raw

    @pytest.mark.parametrize(
        "kind,row_columns,raw_columns",
        [
            (
                "bias-sweep",
                "delta,mean_ratio,stderr_ratio,mean_ratio_corrected,stderr_ratio_corrected,"
                "mean_surface_raw,target_bias,reps",
                "delta,replicate,surface_raw,ratio",
            ),
            (
                "crossing",
                "q,p_hat,estimate,stderr,below_limit,target,pairs_per_rep,reps",
                "q,replicate,p_hat,estimate",
            ),
            (
                "clt",
                "window_half_extent,sigma_T,mean_volume,mean_surface,var_volume_scaled,"
                "var_surface_scaled,cov_scaled,skew_volume,kurt_volume,skew_surface,"
                "kurt_surface,reps",
                "window_half_extent,replicate,volume,surface_raw",
            ),
            (
                "crofton-demo",
                "shape,size,estimate,stderr,truth,rel_error,lines_total,reps",
                "shape,replicate,estimate",
            ),
            (
                "volume-check",
                "u,mean_volume,stderr,target,abs_error,reps",
                "u,replicate,volume",
            ),
        ],
    )
    def test_csv_column_layout(self, tmp_path, kind, row_columns, raw_columns):
        res = run_campaign(tiny(kind))
        path = tmp_path / "rows.csv"
        res.write_csv(path)
        assert path.read_text().splitlines()[0] == row_columns + ",config_hash"
        assert res.raw_csv_text().splitlines()[0] == raw_columns + ",config_hash"

    @pytest.mark.parametrize("kind", ["bias-sweep", "clt", "volume-check"])
    def test_odd_reps_drop_the_last_imaginary_half(self, kind):
        # grid kinds draw two replicates per grid draw; an odd count keeps the
        # first reps of them, the same values as the next even count
        odd = run_campaign(tiny(kind, reps=5))
        even = run_campaign(tiny(kind, reps=6))
        assert all(row["reps"] == 5 for row in odd.rows)
        assert len(odd.raw) == 5 * len(odd.rows)
        assert odd.raw == [r for r in even.raw if r["replicate"] < 5]

    def test_odd_reps_count_no_unused_field(self, monkeypatch):
        # the last task of an odd count draws two fields and counts only the first
        counted = []
        real = sampling._lattice_counts

        def counting(slabs, u):
            counted.append(u)
            return real(slabs, u)

        monkeypatch.setattr(sampling, "_lattice_counts", counting)
        run_campaign(tiny("bias-sweep", reps=3))
        assert len(counted) == 3

    def test_lattice_factor_once_per_grid_axis(self, monkeypatch):
        # a slow factor: pool threads that each computed it on their first
        # replicate would overlap here and count twice
        calls = []
        build = sampling._axis_factor.__wrapped__

        def slow(n, spacing, length_scale):
            calls.append(n)
            time.sleep(0.05)
            return build(n, spacing, length_scale)

        cached = functools.lru_cache(maxsize=16)(slow)
        monkeypatch.setattr(sampling, "_axis_factor", cached)
        monkeypatch.setattr(campaigns, "_axis_factor", cached)
        cfg = tiny("bias-sweep", half_width=4.0, deltas=(0.5, 0.25), reps=8, threads=2)
        run_campaign(cfg)
        assert sorted(calls) == [16, 32]

    def test_csv_byte_identical_across_threads(self, tmp_path):
        p1, p4 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_campaign(tiny("crossing", threads=1)).write_csv(p1)
        run_campaign(tiny("crossing", threads=4)).write_csv(p4)
        assert p1.read_bytes() == p4.read_bytes()

    def test_csv_has_hash_column_and_full_precision(self, tmp_path):
        res = run_campaign(tiny("bias-sweep"))
        path = tmp_path / "rows.csv"
        res.write_csv(path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[-1] == "config_hash"
        assert lines[1].split(",")[-1] == res.config_hash
        # 17 significant digits survive a float round trip
        mean_col = header.index("mean_ratio")
        assert float(lines[1].split(",")[mean_col]) == res.rows[0]["mean_ratio"]

    def test_json_summary(self, tmp_path):
        res = run_campaign(tiny("volume-check"))
        path = tmp_path / "summary.json"
        res.write_json(path)
        data = json.loads(path.read_text())
        assert data["kind"] == "volume-check"
        assert data["config_hash"] == res.config_hash
        assert "threads" not in data["config"]
        assert len(data["rows"]) == 1

    @pytest.mark.parametrize(
        "kind, overrides, axes",
        [
            ("bias-sweep", dict(half_width=4.0, deltas=(0.5, 0.25)), [(16, 0.5), (32, 0.25)]),
            ("clt", dict(windows=(4, 8), deltas=(0.5,)), [(8, 0.5), (16, 0.5)]),
            ("volume-check", dict(levels=(0.0, 1.0)), [(8, 0.5), (8, 0.5)]),
            ("crossing", {}, [None] * 2),
            ("bias-sweep", dict(family="hexagonal", deltas=(0.4,), reps=2), [None]),
        ],
    )
    def test_json_health_and_provenance(self, tmp_path, kind, overrides, axes):
        res = run_campaign(tiny(kind, threads=2, seed=11, **overrides))
        csv_path, json_path = tmp_path / "rows.csv", tmp_path / "summary.json"
        res.write_json(json_path)
        res.write_csv(csv_path)
        data = json.loads(json_path.read_text())
        ranks = [a and sampling._axis_factor(*a, 1.0).shape[1] for a in axes]
        assert [h.get("axis_rank") for h in data["health"]] == ranks
        prov = data["provenance"]
        assert prov["excursionkit"] == excursionkit.__version__
        assert prov["numpy"] == np.__version__ and prov["scipy"] == scipy.__version__
        assert prov["blas"]["name"] and "version" in prov["blas"]
        assert (prov["threads"], prov["seed"], prov["config_hash"]) == (2, 11, res.config_hash)
        # the process default, and the cap the campaign put on BLAS at any
        # thread count
        assert prov["blas_threads"] == sampling._blas_threads()
        capped = sampling._blas_control() is not None
        assert prov["blas_threads_in_pool"] == (1 if capped else None)
        assert (prov["blas_threads"] is None) == (not capped)
        one_thread = replace(res.config, threads=1)
        assert campaigns._provenance(one_thread, res.config_hash)["blas_threads_in_pool"] == (
            1 if capped else None
        )
        # the counters and the provenance stay out of the CSV
        assert csv_path.read_text() == _csv_text(res.rows, res.config_hash)
        assert "axis_rank" not in csv_path.read_text()


class TestBlasThreadDeterminism:
    """Every field draw multiplies through BLAS, on lattices and at the
    hexagonal and Voronoi cell centres: the CSV bytes must not depend on its
    thread count, nor on the campaign's."""

    @pytest.mark.parametrize(
        "kind, config",
        [
            ("bias-sweep", "half_width = 8\ndeltas = 0.125, 0.0625\n"),
            ("bias-sweep", "d = 3\nhalf_width = 2\ndeltas = 0.25, 0.125\n"),
            ("clt", "windows = 40, 80, 160\n"),
            ("bias-sweep", "family = hexagonal\nhalf_width = 4\ndeltas = 0.25, 0.125\n"),
            ("bias-sweep", "family = voronoi\nhalf_width = 2\ndeltas = 0.25, 0.125\n"),
        ],
    )
    def test_csv_bytes_identical(self, tmp_path, kind, config):
        cfg_path = _write_cfg(tmp_path, config)
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = {}
        for blas_threads in ("1", "2"):
            for threads in ("1", "2"):
                out = tmp_path / f"blas{blas_threads}-threads{threads}.csv"
                env = dict(
                    os.environ,
                    OPENBLAS_NUM_THREADS=blas_threads,
                    PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
                )
                subprocess.run(
                    [sys.executable, "-m", "excursionkit.cli", kind, "--config", str(cfg_path),
                     "--reps", "6", "--seed", "5", "--threads", threads, "--out", str(out)],
                    env=env, check=True, capture_output=True, timeout=300,
                )
                outputs[out.name] = out.read_bytes()
        assert len(set(outputs.values())) == 1, sorted(outputs)


class TestPoolBlasCap:
    """Campaign tasks call BLAS single-threaded, on a pool or in the calling
    thread; the caller's count comes back."""

    @pytest.fixture
    def control(self):
        control = sampling._blas_control()
        if control is None:
            pytest.skip("the loaded BLAS exposes no thread-count control")
        get, set_ = control
        before = get()
        set_(2)
        try:
            if get() != 2:
                pytest.skip("the BLAS does not accept a count of 2 threads here")
            yield control
        finally:
            set_(before)

    def test_workers_see_one_blas_thread(self, control):
        seen = campaigns._parallel(lambda i: sampling._blas_threads(), 4, 2)
        assert seen == [1] * 4
        assert sampling._blas_threads() == 2

    def test_count_restored_when_a_task_raises(self, control):
        def task(i):
            if i == 2:
                raise ValueError("task 2 failed")
            return i

        with pytest.raises(ValueError, match="task 2 failed"):
            campaigns._parallel(task, 4, 2)
        assert sampling._blas_threads() == 2

    def test_overlapping_pools_keep_the_cap_until_the_last_closes(self, control):
        # pool A opens first and closes first, while pool B is still running:
        # B's workers must keep the cap, and B must not restore A's 1
        a_running, b_running, a_closed = threading.Event(), threading.Event(), threading.Event()

        def a_task(i):
            a_running.set()
            assert b_running.wait(timeout=30)
            return sampling._blas_threads()

        def b_task(i):
            b_running.set()
            assert a_closed.wait(timeout=30)
            return sampling._blas_threads()

        def run_a():
            seen["a"] = campaigns._parallel(a_task, 2, 2)
            a_closed.set()

        seen = {}
        a = threading.Thread(target=run_a)
        a.start()
        assert a_running.wait(timeout=30)
        seen["b"] = campaigns._parallel(b_task, 2, 2)
        a.join(timeout=30)
        assert not a.is_alive()
        assert seen == {"a": [1, 1], "b": [1, 1]}
        assert sampling._blas_threads() == 2

    def test_one_thread_caps_blas_too(self, control):
        assert campaigns._parallel(lambda i: sampling._blas_threads(), 3, 1) == [1] * 3
        assert sampling._blas_threads() == 2

    def test_control_found_without_proc(self, control, monkeypatch):
        # the control comes from numpy's linalg extension, so a platform
        # whose /proc cannot be read still caps BLAS
        real_open = builtins.open

        def open_without_proc(file, *args, **kwargs):
            if str(file) == "/proc/self/maps":
                raise PermissionError(f"{file} cannot be read here")
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", open_without_proc)
        sampling._blas_control.cache_clear()
        try:
            found = sampling._blas_control()
        finally:
            sampling._blas_control.cache_clear()
        assert found is not None
        assert found[0]() == 2

    def test_without_a_control_the_pool_runs_uncapped(self, monkeypatch):
        monkeypatch.setattr(sampling, "_blas_control", lambda: None)
        assert campaigns._parallel(lambda i: i * i, 4, 2) == [0, 1, 4, 9]
        prov = campaigns._provenance(tiny("bias-sweep", threads=2), "0" * 12)
        assert prov["blas_threads"] is None and prov["blas_threads_in_pool"] is None


class TestParallel:
    """The threads of ``_parallel``, the caller and its workers: index order,
    how many threads, which failure is raised, and a Ctrl-C."""

    def test_results_in_index_order_whatever_the_finishing_order(self):
        naps = np.random.default_rng(20251019).uniform(0.0, 0.004, 40)

        def task(i):
            time.sleep(naps[i])
            return i * i

        assert campaigns._parallel(task, 40, 3) == [i * i for i in range(40)]

    def test_more_threads_than_tasks_and_no_tasks(self):
        assert campaigns._parallel(lambda i: -i, 3, 8) == [0, -1, -2]
        assert campaigns._parallel(lambda i: -i, 0, 4) == []
        assert campaigns._parallel(lambda i: -i, 0, 1) == []

    @pytest.mark.parametrize("threads", [2, 3])
    def test_at_most_threads_workers(self, threads):
        # the caller works as one of the threads, so at most threads - 1 are
        # started, and none is left alive on return
        lock, running, seen = threading.Lock(), [0], {"peak": 0, "workers": set()}
        before, alive = threading.active_count(), set(threading.enumerate())

        def task(i):
            with lock:
                running[0] += 1
                seen["peak"] = max(seen["peak"], running[0])
                seen["workers"].add(threading.current_thread())
                seen["extra"] = max(seen.get("extra", 0), threading.active_count() - before)
            time.sleep(0.002)
            with lock:
                running[0] -= 1
            return i

        assert campaigns._parallel(task, 24, threads) == list(range(24))
        assert 1 <= seen["peak"] <= threads
        assert 1 <= len(seen["workers"]) <= threads
        assert len(seen["workers"] - {threading.current_thread()}) <= threads - 1
        assert seen["extra"] <= threads - 1
        assert set(threading.enumerate()) <= alive

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("count", [0, 1])
    def test_no_thread_for_fewer_than_two_tasks(self, monkeypatch, threads, count):
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(campaigns.threading, "Thread", Recorded)
        caller = threading.current_thread()
        assert campaigns._parallel(lambda i: threading.current_thread(), count, threads) == (
            [caller] * count
        )
        assert started == []

    def test_lowest_failing_index_is_raised(self):
        # index 5 fails first in time; index 3, taken before it, fails later:
        # pool.map raised the lower index's exception, and so does _parallel
        def task(i):
            if i == 3:
                time.sleep(0.2)
                raise ValueError("task 3 failed")
            if i == 5:
                raise KeyError("task 5 failed")
            return i

        with pytest.raises(ValueError, match="task 3 failed"):
            campaigns._parallel(task, 10, 4)

    def test_no_task_starts_after_a_failure(self):
        # one thread sleeps in task 0 while the other fails task 1
        started = []

        def task(i):
            started.append(i)
            if i == 1:
                raise ValueError("task 1 failed")
            time.sleep(0.2)
            return i

        with pytest.raises(ValueError, match="task 1 failed"):
            campaigns._parallel(task, 20, 2)
        assert sorted(started) == [0, 1]

    def test_ctrl_c_stops_the_workers(self):
        # a SIGINT raises KeyboardInterrupt in the main thread, whichever
        # thread runs the task that sends it: no thread may take another
        # index, and no worker may outlive the call, uncapped and holding
        # the process open
        started, alive = [], set(threading.enumerate())

        def task(i):
            started.append(i)
            if i == 2:
                os.kill(os.getpid(), signal.SIGINT)
            time.sleep(0.025)
            return i

        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(KeyboardInterrupt):
                campaigns._parallel(task, 40, 2)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert len(started) <= 5, started
        assert set(threading.enumerate()) <= alive


class TestUnderProfiler:
    """The axis factor and a lattice campaign give the same bits while a
    profiler (cProfile, coverage, a debugger) is attached to the thread."""

    def _factor_and_campaign(self):
        sampling._axis_factor.cache_clear()
        factor = sampling._pivoted_factor(0.125 * np.arange(128))
        res = run_campaign(tiny("bias-sweep", half_width=4.0, deltas=(0.25,), reps=4, threads=2))
        return factor, res

    def test_same_bits_under_sys_setprofile(self):
        factor, res = self._factor_and_campaign()
        sys.setprofile(lambda *args: None)
        try:
            profiled_factor, profiled = self._factor_and_campaign()
        finally:
            sys.setprofile(None)
        # the rank exceeds the 16-row initial buffer, so the buffer grew
        assert factor.shape[0] > 16
        assert np.array_equal(profiled_factor, factor)
        assert profiled.rows == res.rows and profiled.raw == res.raw


def _lattice_expectation(d, half_width, delta, ell=1.0):
    """Exact mean of a lattice bias-sweep ratio at u = 0.

    Each of the d (2N - 1) (2N)^(d - 1) facets of measure delta^(d - 1) is
    crossed with probability arccos(rho) / pi, rho = exp(-delta^2 / (2 ell^2))
    being the correlation of its two nodes; the ratio divides by the window
    volume (2 half_width)^d and the analytic surface density.
    """
    n = round(half_width / delta)
    facets = d * (2 * n - 1) * (2 * n) ** (d - 1)
    rho = math.exp(-0.5 * delta * delta / (ell * ell))
    crossed = facets * delta ** (d - 1) * math.acos(rho) / math.pi
    return crossed / ((2 * half_width) ** d * gaussian_surface_density(0.0, 1.0 / ell**2, d))


class TestLatticeExpectation:
    """Campaign means against the exact conditional expectation of the
    lattice, a sharper reference than the acceptance bands."""

    def test_default_2d_sweep(self):
        res = run_campaign(replace(default_config("bias-sweep"), seed=31_337, threads=2))
        assert [row["delta"] for row in res.rows] == [0.5, 0.25, 0.125, 0.0625]
        for row in res.rows:
            exact = _lattice_expectation(2, 8.0, row["delta"])
            assert abs(row["mean_ratio"] - exact) <= 4.0 * row["stderr_ratio"], (row, exact)

    def test_3d_acceptance_config(self):
        cfg = replace(
            default_config("bias-sweep"),
            d=3, half_width=4.0, deltas=(0.125,), reps=100, seed=31_338, threads=2,
        )
        (row,) = run_campaign(cfg).rows
        exact = _lattice_expectation(3, 4.0, 0.125)
        assert exact == pytest.approx(1.47464, abs=5e-6)
        assert abs(row["mean_ratio"] - exact) <= 4.0 * row["stderr_ratio"], (row, exact)

    @pytest.mark.parametrize(
        "d, deltas, seed",
        [(4, (0.5, 0.25, 0.125), 31_339), (5, (0.5, 0.25), 31_340)],
        ids=["4d", "5d"],
    )
    def test_higher_dimension_sweep(self, d, deltas, seed):
        # the contraction runs over d - 1 trailing axes, so d = 4 and 5 take
        # the same path as d = 3 with longer loops
        cfg = replace(
            default_config("bias-sweep"),
            d=d, half_width=2.0, deltas=deltas, reps=40, seed=seed, threads=2,
        )
        res = run_campaign(cfg)
        assert [row["delta"] for row in res.rows] == list(deltas)
        for row in res.rows:
            exact = _lattice_expectation(d, 2.0, row["delta"])
            assert abs(row["mean_ratio"] - exact) <= 3.0 * row["stderr_ratio"], (row, exact)


class TestChiSquareLatticeRatio:
    """The chi-square surface density against a lattice campaign: the
    corrected ratio of a fine 2D lattice is 1 to within its noise.  Facets
    lost at the window edge, 1/256 of them here, are well inside 3 se."""

    @pytest.mark.parametrize("k, u", [(3, 2.0), (1, 1.0)])
    def test_corrected_ratio_is_one(self, k, u):
        cfg = replace(
            default_config("bias-sweep"),
            model="chi-square", k=k, u=u, deltas=(0.0625,), reps=100, seed=40_961, threads=2,
        )
        (row,) = run_campaign(cfg).rows
        assert abs(row["mean_ratio_corrected"] - 1.0) <= 3.0 * row["stderr_ratio_corrected"], row


def _facet_expectation(facets, refs, window_volume, ell=1.0):
    """Exact mean of a 2D surface-estimate ratio at u = 0, given the cells.

    The facet between the cells of reference points x_a and x_b is crossed
    with probability arccos(rho) / pi, rho = exp(-|x_a - x_b|^2 / (2 ell^2))
    being the correlation of the field there, so the expected estimate is
    sum_f |f| arccos(rho_f) / pi / |T|; the ratio divides it by the analytic
    surface density.
    """
    lag2 = np.sum((refs[facets.b] - refs[facets.a]) ** 2, axis=1)
    rho = np.exp(-0.5 * lag2 / (ell * ell))
    crossed = np.sum(facets.measure * np.arccos(rho)) / math.pi
    return crossed / (window_volume * gaussian_surface_density(0.0, 1.0 / ell**2, 2))


class TestPointFamilyExpectation:
    """Hexagonal and Voronoi campaign means against the exact conditional
    expectation of their own cells: a check of the per-axis factor draw at
    scattered points that is sharper than the acceptance band."""

    def test_hexagonal_sweep(self):
        cfg = replace(
            default_config("bias-sweep"),
            family="hexagonal", half_width=4.0, deltas=(0.25, 0.125), seed=51_101, threads=2,
        )
        res = run_campaign(cfg)
        window = Box(np.full(2, -4.0), np.full(2, 4.0))
        for row in res.rows:
            wh = hexagonal_honeycomb(row["delta"], window)
            exact = _facet_expectation(
                wh.weighted_facets, wh.ref_points_weighted, wh.window.volume
            )
            assert abs(row["mean_ratio"] - exact) <= 4.0 * row["stderr_ratio"], (row, exact)
        # the fixed-phase value at delta 0.125, which the benchmark's
        # hexagonal-2d oracle checks against (tests/test_benchmark_oracle.py)
        assert exact == pytest.approx(1.26220, abs=5e-6)

    def test_voronoi_sweep(self):
        # each replicate has its own cloud and so its own expectation: the
        # mean of ratio - expectation over the replicates must be 0 to within
        # 4 of its standard errors
        cfg = replace(
            default_config("bias-sweep"),
            family="voronoi", half_width=4.0, deltas=(0.25, 0.125), reps=40, seed=51_102,
            threads=2,
        )
        res = run_campaign(cfg)
        window = Box(np.full(2, -4.0), np.full(2, 4.0))
        for si, delta in enumerate(cfg.deltas):
            unit_half = cfg.half_width / delta + cfg.guard
            unit_box = Box(np.full(2, -unit_half), np.full(2, unit_half))
            gaps = []
            for raw in (r for r in res.raw if r["delta"] == delta):
                pts = delta * sample_poisson_process(
                    1.0, unit_box, (cfg.seed, si, raw["replicate"], 0)
                )
                wh = voronoi_honeycomb_2d(pts, window, cfg.guard * delta)
                exact = _facet_expectation(
                    wh.weighted_facets, wh.ref_points_weighted, wh.window.volume
                )
                gaps.append(raw["ratio"] - exact)
            assert len(gaps) == cfg.reps
            mean, se = np.mean(gaps), np.std(gaps, ddof=1) / math.sqrt(len(gaps))
            assert abs(mean) <= 4.0 * se, (delta, mean, se)


@pytest.fixture
def factor_calls(monkeypatch):
    """Count calls of the covariance factor step, wherever it is looked up."""
    calls = []
    real = sampling.covariance_factor

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(sampling, "covariance_factor", counted)
    monkeypatch.setattr(campaigns, "covariance_factor", counted)
    return calls


class TestCovarianceFactorReuse:
    def test_hexagonal_factors_once_per_cell_size(self, factor_calls):
        # the replicates of a row share one factor read-only; more threads
        # than cores and a short switch interval must still give the same bytes
        cfg = validate_config(tiny("bias-sweep", family="hexagonal", deltas=(0.5, 0.25), reps=6))
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in (1, 2, 4):
                factor_calls.clear()
                res = run_campaign(replace(cfg, threads=threads))
                assert len(factor_calls) == len(cfg.deltas)
                results.append(res)
        finally:
            sys.setswitchinterval(interval)
        texts = [_csv_text(r.rows, r.config_hash) + r.raw_csv_text() for r in results]
        assert texts[0] == texts[1] == texts[2]
        # the same values as a fresh factor for every draw
        window = Box(np.full(2, -cfg.half_width), np.full(2, cfg.half_width))
        expected = []
        for si, delta in enumerate(cfg.deltas):
            wh = hexagonal_honeycomb(delta, window)
            for rep in range(cfg.reps):
                values = sample_gaussian_points(
                    CovarianceModel(cfg.ell), wh.ref_points_weighted, (cfg.seed, si, rep)
                )
                expected.append(surface_estimate(wh, exceedance_indicator(values, cfg.u)))
        assert [r["surface_raw"] for r in results[0].raw] == expected

    def test_voronoi_factors_once_per_replicate(self, factor_calls):
        cfg = validate_config(
            tiny("bias-sweep", family="voronoi", deltas=(0.5, 0.25), half_width=1.5, reps=2)
        )
        res = run_campaign(cfg)
        campaign_calls = list(factor_calls)
        window = Box(np.full(2, -cfg.half_width), np.full(2, cfg.half_width))
        expected, sizes = [], []
        for si, delta in enumerate(cfg.deltas):
            unit_half = cfg.half_width / delta + cfg.guard
            unit_box = Box(np.full(2, -unit_half), np.full(2, unit_half))
            for rep in range(cfg.reps):
                pts = delta * sample_poisson_process(1.0, unit_box, (cfg.seed, si, rep, 0))
                wh = voronoi_honeycomb_2d(pts, window, cfg.guard * delta)
                sizes.append(wh.ref_points_weighted.shape[0])
                values = sample_gaussian_points(
                    CovarianceModel(cfg.ell), wh.ref_points_weighted, (cfg.seed, si, rep, 1)
                )
                expected.append(surface_estimate(wh, exceedance_indicator(values, cfg.u)))
        # one factor per replicate, of that replicate's own cloud
        assert campaign_calls == sizes
        assert [r["surface_raw"] for r in res.raw] == expected

    def test_chi_square_hexagonal_factors_once_per_cell_size(self, factor_calls):
        cfg = tiny("bias-sweep", family="hexagonal", model="chi-square", k=3, u=2.0, reps=3)
        run_campaign(cfg)
        assert len(factor_calls) == 1


class TestGoldenDigests:
    """Fixed-seed output pinned as a digest of the summary and raw CSV text.

    A change that alters a replicate stream or a reduction by accident shows
    here, not only in a hand comparison.  Every family is pinned: lattice
    draws and the draws at hexagonal and Voronoi cell centres all multiply
    their noise by pivoted-Cholesky axis factors through BLAS, so their
    digests depend on the BLAS build (the same at any BLAS thread count), and
    the Voronoi ones also on the Qhull build, as the Voronoi honeycomb
    digests do.  The lattice axis factors are full rank at spacing 0.5 and of
    lower rank than their node count for the 16- and 32-node axes at
    spacing 0.25.

    The digests read the same under the OpenBLAS SkylakeX, Haswell, Zen and
    Sandybridge kernels, but the draws are not kernel-independent: the
    per-axis matrix products round differently by kernel in the last bit
    (131 of the 256 values of the clt digest's first field differ, by at
    most 8.9e-16).  No value of these configs lies that close to its level,
    so no flag or count changes; a larger config can flip a flag on another
    kernel.  The summary reductions use no BLAS (``cov_scaled`` is summed
    elementwise), so equal raw rows give equal summary rows.
    """

    @pytest.mark.parametrize(
        "kind, overrides, digest",
        [
            ("bias-sweep", dict(deltas=(0.5, 0.25), reps=5), "8f5ac0dee61849a2"),
            (
                "bias-sweep",
                dict(deltas=(0.5, 0.25), reps=5, model="chi-square", k=3, u=2.0),
                "f5348a19f106eecb",
            ),
            (
                "bias-sweep",
                dict(d=3, half_width=1.0, deltas=(0.5, 0.25), reps=3),
                "69645c9188452bd7",
            ),
            ("clt", dict(u=0.3), "ce4f104fb08483f1"),
            ("volume-check", dict(levels=(0.0, 1.0), reps=5), "9fe6af964ea45921"),
            (
                "volume-check",
                dict(levels=(1.0, 2.5), reps=5, model="chi-square"),
                "80321985854720e3",
            ),
            ("crossing", {}, "7725b6a347405886"),
            ("crofton-demo", {}, "307207bfa19804d8"),
            ("bias-sweep", dict(half_width=8.0, deltas=(0.5,), reps=5), "60fadaec2aaa2746"),
            (
                "bias-sweep",
                dict(family="hexagonal", deltas=(0.5, 0.25), reps=5),
                "2ad71490719ce668",
            ),
            (
                "bias-sweep",
                dict(family="hexagonal", deltas=(0.5, 0.25), reps=3, model="chi-square", k=3, u=2.0),
                "99d5ae9a923aedca",
            ),
            ("bias-sweep", dict(family="voronoi", deltas=(0.5, 0.25), reps=4), "fdc2f8b6e7c2ae57"),
        ],
    )
    def test_output_digest(self, kind, overrides, digest):
        res = run_campaign(tiny(kind, **overrides))
        text = _csv_text(res.rows, res.config_hash) + res.raw_csv_text()
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


class TestCampaignOutputs:
    def test_bias_rows_have_expected_fields(self):
        res = run_campaign(tiny("bias-sweep"))
        row = res.rows[0]
        for key in ("delta", "mean_ratio", "stderr_ratio", "mean_ratio_corrected", "reps"):
            assert key in row
        assert row["target_bias"] == pytest.approx(4.0 / math.pi)
        assert len(res.raw) == 3

    def test_crossing_far_level_gives_zero(self):
        res = run_campaign(tiny("crossing", u=-6.0))
        for row in res.rows:
            assert row["p_hat"] == 0.0
            assert row["estimate"] == 0.0
            assert row["below_limit"]

    def test_volume_targets(self):
        res = run_campaign(tiny("volume-check", levels=(0.0, 1.0), reps=3))
        assert res.rows[0]["target"] == pytest.approx(0.5)
        assert res.rows[1]["target"] == pytest.approx(0.15865525393145707)

    def test_volume_equals_lattice_honeycomb_estimate_bitwise(self):
        # a non-dyadic spacing, where count / n_nodes differs in the last bit
        cfg = validate_config(
            tiny("volume-check", deltas=(0.1,), half_width=2.0, levels=(0.3, -0.7), reps=5)
        )
        res = run_campaign(cfg)
        grid = GridSpec(2, 20, 0.1)
        wh = hypercubic_honeycomb(0.1, 20, 2)
        expected = []
        for ui, u in enumerate(cfg.levels):
            for rep in range(cfg.reps):
                # replicate r is half r % 2 of the draw keyed (seed, ui, r // 2)
                halves = sample_gaussian_grid(
                    CovarianceModel(cfg.ell), grid, (cfg.seed, ui, rep // 2)
                )
                expected.append(volume_estimate(wh, exceedance_indicator(halves[rep % 2], u)))
        assert [r["volume"] for r in res.raw] == expected

    def test_clt_volume_equals_lattice_honeycomb_estimate_bitwise(self):
        cfg = validate_config(tiny("clt", deltas=(0.1,), windows=(20,), u=0.3, reps=5))
        res = run_campaign(cfg)
        grid = GridSpec(2, 20, 0.1)
        wh = hypercubic_honeycomb(0.1, 20, 2)
        expected = []
        for rep in range(cfg.reps):
            halves = sample_gaussian_grid(
                CovarianceModel(cfg.ell), grid, (cfg.seed, 0, rep // 2)
            )
            expected.append(volume_estimate(wh, exceedance_indicator(halves[rep % 2], cfg.u)))
        assert [r["volume"] for r in res.raw] == expected

    def test_volume_chi_square_target(self):
        res = run_campaign(
            tiny("volume-check", model="chi-square", k=2, levels=(2.0,), reps=3)
        )
        assert res.rows[0]["target"] == pytest.approx(math.exp(-1.0))

    def test_clt_scaled_moments_present(self):
        res = run_campaign(tiny("clt"))
        assert [r["window_half_extent"] for r in res.rows] == [8, 16]
        for row in res.rows:
            assert row["var_volume_scaled"] > 0.0
            assert math.isfinite(row["skew_surface"])

    def test_clt_covariance_is_the_elementwise_sum(self):
        # no BLAS dot, whose rounding depends on the CPU kernel: the scaled
        # covariance is the elementwise formula over the raw rows, bit for bit
        res = run_campaign(tiny("clt", u=0.3))
        for row in res.rows:
            raw = [r for r in res.raw if r["window_half_extent"] == row["window_half_extent"]]
            vol = np.array([r["volume"] for r in raw])
            surf = np.array([r["surface_raw"] for r in raw])
            cov = np.sum((vol - vol.mean()) * (surf - surf.mean())) / (vol.size - 1)
            assert cov != 0.0
            assert row["cov_scaled"] == float(row["sigma_T"] * cov)

    def test_clt_moments_of_a_constant_column_are_nan_without_warning(self, tmp_path):
        # at u = -40 every volume is 1 and every surface 0: the moments are
        # undefined, and no precision-loss warning may reach the run
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_campaign(tiny("clt", u=-40.0))
        moments = ("skew_volume", "kurt_volume", "skew_surface", "kurt_surface")
        for row in res.rows:
            assert row["mean_volume"] == 1.0 and row["mean_surface"] == 0.0
            for name in moments:
                assert math.isnan(row[name]), name
        # the JSON summary is strict JSON, with null for an undefined moment
        path = tmp_path / "summary.json"
        res.write_json(path)
        data = json.loads(path.read_text(), parse_constant=_no_constant)
        for row in data["rows"]:
            assert [row[name] for name in moments] == [None] * 4

    def test_crofton_shapes(self):
        res = run_campaign(tiny("crofton-demo"))
        assert {r["shape"] for r in res.rows} == {"circle", "square"}
        for row in res.rows:
            assert row["rel_error"] < 0.2  # loose: only 2000 lines

    def test_crofton_single_shape(self):
        res = run_campaign(tiny("crofton-demo", shape="square"))
        assert [r["shape"] for r in res.rows] == ["square"]

    def test_voronoi_family_runs(self):
        res = run_campaign(
            tiny("bias-sweep", family="voronoi", deltas=(0.5,), half_width=1.5, reps=2)
        )
        assert len(res.rows) == 1 and res.rows[0]["reps"] == 2

    def test_hexagonal_family_runs(self):
        res = run_campaign(tiny("bias-sweep", family="hexagonal", deltas=(0.4,), reps=2))
        assert res.rows[0]["mean_surface_raw"] >= 0.0

    def test_wall_clock_recorded(self):
        res = run_campaign(tiny("crofton-demo"))
        assert res.wall_clock_s > 0.0


class TestCli:
    def test_success_with_outputs(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        summary = tmp_path / "run.json"
        code = cli.main(
            [
                "crossing", "--reps", "3", "--seed", "7", "--threads", "2",
                "--out", str(out), "--summary", str(summary),
                "--config", str(_write_cfg(tmp_path, "qs = 0.4\nn_pairs = 3000\n")),
            ]
        )
        assert code == 0
        assert out.exists() and summary.exists()
        captured = capsys.readouterr()
        assert "q" in captured.out and "hash" in captured.out

    def test_raw_flag_writes_the_raw_rows(self, tmp_path):
        # --raw writes every replicate's row and moves no byte of the summary CSV
        cfg_path = _write_cfg(tmp_path, "half_width = 2.0\n")
        argv = ["bias-sweep", "--delta", "0.5", "--reps", "3", "--config", str(cfg_path)]
        plain, with_raw, raw = tmp_path / "plain.csv", tmp_path / "rows.csv", tmp_path / "raw.csv"
        assert cli.main(argv + ["--out", str(plain)]) == 0
        assert cli.main(argv + ["--out", str(with_raw), "--raw", str(raw)]) == 0
        assert with_raw.read_bytes() == plain.read_bytes()
        res = run_campaign(cli.config_from_args(cli.build_parser().parse_args(argv)))
        assert raw.read_text() == res.raw_csv_text()
        assert raw.read_text().splitlines()[0].split(",")[:2] == ["delta", "replicate"]
        assert len(raw.read_text().splitlines()) == 1 + 3

    def test_delta_override_replaces_sweep(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = cli.main(
            ["bias-sweep", "--delta", "0.5", "--reps", "2", "--out", str(out),
             "--config", str(_write_cfg(tmp_path, "half_width = 2.0\n"))]
        )
        assert code == 0
        body = out.read_text().strip().splitlines()
        assert len(body) == 2  # header plus the single delta row

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = cli.main(
            ["bias-sweep", "--config", str(_write_cfg(tmp_path, "bogus = 1\n"))]
        )
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_validation_error_exit_code(self, capsys):
        assert cli.main(["bias-sweep", "--reps", "1"]) == 2

    def test_main_validates_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        real = campaigns.validate_config

        def counted(cfg):
            calls.append(1)
            return real(cfg)

        monkeypatch.setattr(campaigns, "validate_config", counted)
        monkeypatch.setattr(cli, "validate_config", counted, raising=False)
        cfg_path = _write_cfg(tmp_path, "n_lines = 2000\n")
        assert cli.main(["crofton-demo", "--reps", "2", "--config", str(cfg_path)]) == 0
        assert len(calls) == 1

    def test_removed_point_cap_key_refused(self, tmp_path, capsys):
        # the dense-factor cap is gone; a config that still sets it is refused
        code = cli.main(
            ["bias-sweep", "--config", str(_write_cfg(tmp_path, "point_cap = 4096\n"))]
        )
        assert code == 2
        assert "unknown key 'point_cap'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            ("bias-sweep", "model = chi-square\n", "chi-square bias sweep needs a positive level u"),
            # every chi-square value is >= 0: the u = 0 row of the default
            # levels used to read mean_volume 1, stderr 0, target 1
            ("volume-check", "model = chi-square\n",
             "chi-square volume check needs positive levels, got (0.0, 1.0)"),
            ("volume-check", "model = chi-square\nlevels = 2.0, -1.0\n",
             "chi-square volume check needs positive levels, got (2.0, -1.0)"),
            ("bias-sweep", "family = voronoi\nguard = -1\n", "guard margin must be nonnegative"),
            ("bias-sweep", "family = hexagonal\nhalf_width = 2\ndeltas = 4.0\n",
             "cell size 4.0 must be below the window side 4.0"),
            ("bias-sweep", "family = voronoi\nhalf_width = 0.5\ndeltas = 4.0\nguard = 0.1\n",
             "cell size 4.0 must be below the window side 1.0"),
            ("crofton-demo", "bounding_radius = 0.5\n",
             "the circle (circumradius 1) must have a positive size and fit in the ball of "
             "lines (bounding_radius 0.5)"),
            ("crofton-demo", "bounding_radius = -1\n", "(bounding_radius -1)"),
            ("crofton-demo", "shape = square\nsquare_side = 3\n",
             "the square (circumradius 2.12132)"),
            ("crofton-demo", "shape = circle\ncircle_radius = 0\n", "the circle (circumradius 0)"),
            # non-finite values, which used to print nan ratios or end in a traceback
            ("bias-sweep", "u = nan\n", "u must be finite, got nan"),
            ("bias-sweep", "ell = inf\n", "ell must be finite, got inf"),
            ("bias-sweep", "half_width = inf\n", "half_width must be finite, got inf"),
            ("bias-sweep", "deltas = 0.5, nan\n", "deltas must be finite, got (0.5, nan)"),
            ("bias-sweep", "family = voronoi\nguard = nan\n", "guard must be finite, got nan"),
            ("crossing", "qs = 0.4, inf\n", "qs must be finite, got (0.4, inf)"),
            # exp(-u^2 / 2) underflows: every ratio would be nan
            ("bias-sweep", "u = 40\n", "gaussian surface density at u = 40.0 (ell = 1.0) is not a "
             "positive finite float"),
            ("bias-sweep", "model = chi-square\nu = 3000\n",
             "chi-square surface density at u = 3000.0 (ell = 1.0) is not a positive finite float"),
            # 1 / ell^2 overflows: every ratio would be 0
            ("bias-sweep", "ell = 1e-160\n", "(ell = 1e-160) is not a positive finite float"),
            # ell^2 overflows: the spectral moment 1 / ell^2 would be 0
            ("bias-sweep", "ell = 1e200\n", "positive with a finite nonzero square, got 1e+200"),
            # only the largest cell size used to run, the others were dropped
            ("clt", "deltas = 0.1, 0.05\n",
             "the clt campaign takes one cell size, got deltas = (0.1, 0.05)"),
            ("volume-check", "deltas = 0.25, 0.5\n",
             "the volume-check campaign takes one cell size, got deltas = (0.5, 0.25)"),
            # duplicates used to be merged (windows) or printed twice (levels)
            ("clt", "windows = 8, 8, 4\n", "windows must be distinct, got (8, 8, 4)"),
            ("volume-check", "levels = 1.0, 1.0\n", "levels must be distinct, got (1.0, 1.0)"),
        ],
    )
    def test_unvalidated_input_refused(self, tmp_path, capsys, kind, text, message):
        # each of these used to end in a traceback or a wrong number
        code = cli.main([kind, "--reps", "2", "--config", str(_write_cfg(tmp_path, text))])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_voronoi_cloud_too_small_refused(self, tmp_path, capsys):
        # (2 * (0.5 / 0.9 + 0))^2 = 1.23 expected generators: most replicates
        # would have no diagram, and none may enter mean_ratio as a zero
        text = "family = voronoi\nhalf_width = 0.5\ndeltas = 0.9\nguard = 0\n"
        code = cli.main(["bias-sweep", "--reps", "8", "--config", str(_write_cfg(tmp_path, text))])
        assert code == 2
        assert "cell size 0.9 holds about 1.23 generators, fewer than 16" in capsys.readouterr().err

    def test_hexagonal_window_at_the_facet_threshold_runs(self, tmp_path):
        # 2.5 cells per half width is the fewest at which a facet joins two
        # hexagons wholly inside the window (6 here); the window view also
        # counts the facets of the cells that cross its edge
        text = "family = hexagonal\nhalf_width = 2.5\ndeltas = 1.0\n"
        out = tmp_path / "rows.csv"
        argv = ["bias-sweep", "--reps", "4", "--out", str(out),
                "--config", str(_write_cfg(tmp_path, text))]
        assert cli.main(argv) == 0
        header, row = out.read_text().splitlines()
        assert float(row.split(",")[header.split(",").index("mean_ratio")]) > 0.0

    def test_hexagonal_window_of_few_cells_runs(self, tmp_path):
        # below 2.5 cells per half width no facet joins two hexagons wholly
        # inside the window, yet each facet with a centre in it counts: both
        # rows score positive surfaces, where an inside-cell estimator scored 0
        text = "family = hexagonal\nhalf_width = 1\ndeltas = 0.5, 0.9\n"
        out = tmp_path / "rows.csv"
        argv = ["bias-sweep", "--reps", "20", "--out", str(out),
                "--config", str(_write_cfg(tmp_path, text))]
        assert cli.main(argv) == 0
        header, *rows = out.read_text().splitlines()
        column = header.split(",").index("mean_ratio")
        assert len(rows) == 2
        assert all(float(row.split(",")[column]) > 0.0 for row in rows)

    def test_voronoi_replicate_without_diagram_refused(self, tmp_path, monkeypatch, capsys):
        # a cloud of fewer than 2 generators is rare at 16 expected, but it
        # stops the run with the cell size and cloud size rather than scoring 0
        monkeypatch.setattr(
            campaigns, "sample_poisson_process", lambda rate, box, key: np.zeros((1, 2))
        )
        text = "family = voronoi\nhalf_width = 2\ndeltas = 0.5\n"
        code = cli.main(["bias-sweep", "--reps", "2", "--config", str(_write_cfg(tmp_path, text))])
        assert code == 2
        err = capsys.readouterr().err
        assert "at cell size 0.5 holds 1 generator(s), fewer than the 2 a diagram needs" in err

    @pytest.mark.parametrize(
        "flag, name",
        [("--out", "rows.csv"), ("--summary", "run.json"), ("--out", "."), ("--raw", "raw.csv")],
    )
    def test_unwritable_output_refused_before_any_replicate(
        self, tmp_path, monkeypatch, capsys, flag, name
    ):
        # the path used to fail only after the whole campaign had run
        monkeypatch.setattr(campaigns, "sample_gaussian_grid", _no_draw)
        path = str(tmp_path / "missing" / name) if name != "." else str(tmp_path)
        assert cli.main(["bias-sweep", "--reps", "2", flag, path]) == 2
        assert f"cannot write output file {path}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_dim_flag_runs_a_3d_lattice(self, tmp_path):
        out = tmp_path / "rows.csv"
        argv = ["bias-sweep", "--dim", "3", "--delta", "0.5", "--reps", "2", "--out", str(out),
                "--config", str(_write_cfg(tmp_path, "half_width = 1\n"))]
        assert cli.main(argv) == 0
        header, row = out.read_text().splitlines()
        target = float(row.split(",")[header.split(",").index("target_bias")])
        assert target == pytest.approx(1.5)

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["not-a-campaign"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("kind", cli.KINDS)
    def test_kind_help_lists_kinds_and_flags(self, kind, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([kind, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name in cli.KINDS + ("--config",) + tuple(flag for flag, *_ in cli._FLAGS):
            assert name in text

    def test_parser_lists_all_kinds(self):
        parser = cli.build_parser()
        text = parser.format_help()
        for kind in ("bias-sweep", "crossing", "clt", "crofton-demo", "volume-check"):
            assert kind in text


def _no_draw(*args, **kwargs):
    raise AssertionError("a replicate ran")


def _write_cfg(tmp_path, text):
    path = tmp_path / "campaign.cfg"
    path.write_text(text)
    return path
