import functools
import hashlib
import json
import math
import os
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
from excursionkit.densities import CovarianceModel, gaussian_surface_density
from excursionkit.estimators import (
    clipped_surface_estimate,
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
# the noise, one partial contraction and the fields, each 2 x 8^2 values of 8 B
_ONE_SMALL_DRAW = 3 * 2 * 8**2 * 8


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
            # [-2, 2]^2 holds at most 16 / (1.5 sqrt(3) 0.5^2) = 24.6 whole
            # hexagons; a 65-node axis at spacing 1/16 across the 4-wide
            # window has rank 17
            ("hexagonal", 24, 17),
            # 1 + 8^2 + 8 * 8 / pi = 85.4 Voronoi cells expected to meet
            # [-2, 2]^2; their generators span the window plus the guard
            # margin 1.5 x 0.5 on each side, 89 nodes of rank 21
            ("voronoi", 86, 21),
        ],
    )
    def test_point_families_priced_by_linear_draw(self, monkeypatch, family, cells, rank):
        price = 8 * cells * (1 + 2 + 3 * (rank + 1) + 16)
        monkeypatch.setattr(campaigns, "_physical_memory", lambda: price)
        # the finest row sets the price; 0.8 = half_width / 2.5 is the
        # coarsest hexagonal cell size the window admits
        cfg = tiny("bias-sweep", family=family, deltas=(0.5, 0.8))
        validate_config(replace(cfg, threads=1))
        with pytest.raises(ConfigError, match=f"{cells} points and rank {rank}"):
            validate_config(replace(cfg, threads=2))

    def test_point_family_rank_only_priced_when_points_fit(self, monkeypatch):
        # 66,189 Voronoi cells expected on the default window at delta 1/16:
        # with 1 MiB of memory their values and points alone are refused
        monkeypatch.setattr(campaigns, "_physical_memory", lambda: 2**20)
        monkeypatch.setattr(campaigns, "_axis_factor", _must_not_run)
        cfg = replace(default_config("bias-sweep"), family="voronoi")
        with pytest.raises(ConfigError, match="66189 points x \\(1 \\+ 2\\)"):
            validate_config(cfg)

    @pytest.mark.parametrize(
        "family, half_width, delta, priced_points",
        [
            ("hexagonal", 2.0, 0.25, 98),  # floor(16 / (1.5 sqrt(3) 0.25^2))
            # 821 whole hexagons, whose axis factors have ranks 21 and 22
            # against the priced grid rank 21
            ("hexagonal", 3.0, 0.125, 886),  # floor(36 / (1.5 sqrt(3) 0.125^2))
            ("voronoi", 2.0, 0.25, 298),  # ceil(1 + 16^2 + 8 * 16 / pi)
        ],
        ids=["hexagonal-98", "hexagonal-886", "voronoi-298"],
    )
    def test_point_price_bounds_the_draw(self, family, half_width, delta, priced_points):
        # the per-point price of the preflight bounds what one draw, its
        # factors included, allocates at every point count drawn
        cfg = validate_config(
            tiny("bias-sweep", family=family, half_width=half_width, deltas=(delta,))
        )
        price, what = campaigns._draw_memory(cfg, 2**40)
        assert what.startswith(f"{priced_points} points")
        per_point = price / priced_points
        window = Box(np.full(2, -half_width), np.full(2, half_width))
        if family == "hexagonal":
            clouds = [hexagonal_honeycomb(delta, window).ref_points_inside]
        else:
            unit_box = Box(np.full(2, -9.5), np.full(2, 9.5))
            clouds = [
                voronoi_honeycomb_2d(
                    0.25 * sample_poisson_process(1.0, unit_box, (cfg.seed, 0, rep, 0)),
                    window,
                    0.375,
                ).ref_points_meeting
                for rep in range(4)
            ]
        for points in clouds:
            tracemalloc.start()
            try:
                sample_gaussian_points(CovarianceModel(1.0), points, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= per_point * points.shape[0], (peak, points.shape[0], what)

    def test_point_counts_bound_the_cells_drawn(self):
        # the hexagonal price bounds the inside cells; the Voronoi price is
        # the mean meeting count of the campaign's clouds
        window = Box(np.full(2, -2.0), np.full(2, 2.0))
        assert hexagonal_honeycomb(0.5, window).n_inside <= 24
        unit_box = Box(np.full(2, -5.5), np.full(2, 5.5))
        meeting = [
            voronoi_honeycomb_2d(
                0.5 * sample_poisson_process(1.0, unit_box, (77, k)), window, 0.75
            ).meeting_index.size
            for k in range(40)
        ]
        se = np.std(meeting, ddof=1) / np.sqrt(len(meeting))
        assert abs(np.mean(meeting) - (1 + 64 + 64 / math.pi)) < 4 * se

    def test_big_config_refused_before_any_draw(self, monkeypatch):
        # a 2048^3 grid needs about 128 GiB for its two fields alone; only
        # its size is computed, not the axis factor
        monkeypatch.setattr(campaigns, "_physical_memory", lambda: 8 * 2**30)
        monkeypatch.setattr(campaigns, "_axis_factor", _must_not_run)
        monkeypatch.setattr(campaigns, "sample_gaussian_grid", _must_not_run)
        cfg = tiny("bias-sweep", d=3, half_width=64.0, deltas=(0.0625,))
        with pytest.raises(ConfigError, match="2048\\^3 grid points"):
            run_campaign(cfg)

    def test_cli_exit_code_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(campaigns, "_physical_memory", lambda: _ONE_SMALL_DRAW)
        argv = ["bias-sweep", "--config", str(_write_cfg(tmp_path, "half_width = 2.0\n")),
                "--delta", "0.5", "--reps", "2", "--threads", "2"]
        assert cli.main(argv) == 2
        assert "physical memory" in capsys.readouterr().err
        assert cli.main(argv[:-2]) == 0


def _must_not_run(*args, **kwargs):
    raise AssertionError("called for a config the preflight should refuse")


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
        # grid kinds draw two replicates per FFT; an odd count keeps the
        # first reps of them, the same values as the next even count
        odd = run_campaign(tiny(kind, reps=5))
        even = run_campaign(tiny(kind, reps=6))
        assert all(row["reps"] == 5 for row in odd.rows)
        assert len(odd.raw) == 5 * len(odd.rows)
        assert odd.raw == [r for r in even.raw if r["replicate"] < 5]

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
        # the process default, and the cap the two-thread pool put on BLAS
        assert prov["blas_threads"] == sampling._blas_threads()
        capped = sampling._blas_control() is not None
        assert prov["blas_threads_in_pool"] == (1 if capped else None)
        assert (prov["blas_threads"] is None) == (not capped)
        one_thread = replace(res.config, threads=1)
        assert campaigns._provenance(one_thread, res.config_hash)["blas_threads_in_pool"] is None
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
    """Pool workers call BLAS single-threaded; the caller's count comes back."""

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

    def test_one_thread_leaves_blas_alone(self, control):
        assert campaigns._parallel(lambda i: sampling._blas_threads(), 3, 1) == [2] * 3

    def test_without_a_control_the_pool_runs_uncapped(self, monkeypatch):
        monkeypatch.setattr(sampling, "_blas_control", lambda: None)
        assert campaigns._parallel(lambda i: i * i, 4, 2) == [0, 1, 4, 9]
        prov = campaigns._provenance(tiny("bias-sweep", threads=2), "0" * 12)
        assert prov["blas_threads"] is None and prov["blas_threads_in_pool"] is None


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
            exact = _facet_expectation(wh.interior_facets, wh.ref_points_inside, wh.window.volume)
            assert abs(row["mean_ratio"] - exact) <= 4.0 * row["stderr_ratio"], (row, exact)
        assert exact == pytest.approx(1.1300, abs=5e-5)  # the inside-only value at delta 0.125

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
                    wh.clipped_facets(), wh.ref_points_meeting, wh.window.volume
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
                    CovarianceModel(cfg.ell), wh.ref_points_inside, (cfg.seed, si, rep)
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
                sizes.append(wh.ref_points_meeting.shape[0])
                values = sample_gaussian_points(
                    CovarianceModel(cfg.ell), wh.ref_points_meeting, (cfg.seed, si, rep, 1)
                )
                expected.append(clipped_surface_estimate(wh, exceedance_indicator(values, cfg.u)))
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
    """

    @pytest.mark.parametrize(
        "kind, overrides, digest",
        [
            ("bias-sweep", dict(deltas=(0.5, 0.25), reps=5), "8f5ac0dee61849a2"),
            (
                "bias-sweep",
                dict(deltas=(0.5, 0.25), reps=5, model="chi-square", k=3, u=2.0),
                "5a122d2168e6d498",
            ),
            (
                "bias-sweep",
                dict(d=3, half_width=1.0, deltas=(0.5, 0.25), reps=3),
                "69645c9188452bd7",
            ),
            ("clt", dict(u=0.3), "3ddd1b966c52a528"),
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
                "247293fb385ad993",
            ),
            (
                "bias-sweep",
                dict(family="hexagonal", deltas=(0.5, 0.25), reps=3, model="chi-square", k=3, u=2.0),
                "18684f05c5d864d9",
            ),
            ("bias-sweep", dict(family="voronoi", deltas=(0.5, 0.25), reps=4), "2279b6fdc8134e61"),
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

    def test_clt_moments_of_a_constant_column_are_nan_without_warning(self):
        # at u = -40 every volume is 1 and every surface 0: the moments are
        # undefined, and no precision-loss warning may reach the run
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_campaign(tiny("clt", u=-40.0))
        for row in res.rows:
            assert row["mean_volume"] == 1.0 and row["mean_surface"] == 0.0
            for name in ("skew_volume", "kurt_volume", "skew_surface", "kurt_surface"):
                assert math.isnan(row[name]), name

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
            ("bias-sweep", "family = voronoi\nguard = -1\n", "guard margin must be nonnegative"),
            ("bias-sweep", "family = hexagonal\nhalf_width = 2\ndeltas = 4.0\n",
             "cell size 4.0 must be below the window side 4.0"),
            # one whole hexagon inside [-1, 1]^2 and no facet between two inside
            # cells: every replicate would score 0
            ("bias-sweep", "family = hexagonal\nhalf_width = 1\ndeltas = 0.5\n",
             "half width 1.0 has no facet between two inside cells at cell size 0.5: use "
             "cells of at most 0.4"),
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
        # 2.5 cells per half width is the fewest that give interior facets (6 here)
        text = "family = hexagonal\nhalf_width = 2.5\ndeltas = 1.0\n"
        out = tmp_path / "rows.csv"
        argv = ["bias-sweep", "--reps", "4", "--out", str(out),
                "--config", str(_write_cfg(tmp_path, text))]
        assert cli.main(argv) == 0
        header, row = out.read_text().splitlines()
        assert float(row.split(",")[header.split(",").index("mean_ratio")]) > 0.0

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
        "flag, name", [("--out", "rows.csv"), ("--summary", "run.json"), ("--out", ".")]
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
