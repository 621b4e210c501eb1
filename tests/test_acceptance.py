"""End-to-end acceptance runs at the pinned desk-scale parameters.

Each test prints and records a single verdict line.  The campaigns use the
fixed base seed 20260823; replicate seeds derive from it deterministically, so
reruns reproduce these numbers bit for bit at any thread count.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import record_criterion

from excursionkit.campaigns import default_config, run_campaign
from excursionkit.crofton import extract_level_polyline_2d, l1_weighted_length, sphere_l1_average
from excursionkit.densities import (
    CovarianceModel,
    beta_d,
    bias_factor,
    gaussian_l1_limit,
    gaussian_surface_density,
)
from excursionkit.estimators import hypercubic_surface_fast, surface_estimate
from excursionkit.sampling import GridSpec, sample_gaussian_grid
from excursionkit.tessellation import hypercubic_honeycomb

SEED = 20260823
THREADS = 4
TARGET_2D = 4.0 / math.pi


def _report(num, name, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    record_criterion(line)
    return ok


@pytest.fixture(scope="module")
def bias_2d():
    cfg = replace(default_config("bias-sweep"), seed=SEED, threads=THREADS)
    return run_campaign(cfg)


def test_criterion_01_bias_constant_2d(bias_2d):
    res = bias_2d
    assert res.wall_clock_s < 180.0
    rows = res.rows
    final = rows[-1]
    assert final["delta"] == 0.0625
    in_band = abs(final["mean_ratio"] / TARGET_2D - 1.0) <= 0.03
    within_se = abs(final["mean_ratio"] - TARGET_2D) <= 3.0 * final["stderr_ratio"]
    monotone = all(
        b["mean_ratio"] >= a["mean_ratio"]
        - 2.0 * math.hypot(a["stderr_ratio"], b["stderr_ratio"])
        for a, b in zip(rows, rows[1:])
    )
    ok = in_band and within_se and monotone
    detail = (
        f"ratio(0.0625)={final['mean_ratio']:.4f}±{final['stderr_ratio']:.4f} "
        f"target={TARGET_2D:.4f} band={in_band} 3se={within_se} monotone={monotone} "
        f"wall={res.wall_clock_s:.0f}s"
    )
    assert _report(1, "lattice bias 4/pi in 2D", ok, detail)


def test_criterion_02_bias_constant_3d():
    cfg = replace(
        default_config("bias-sweep"),
        d=3, half_width=4.0, deltas=(0.125,), reps=100, seed=SEED, threads=THREADS,
    )
    res = run_campaign(cfg)
    assert res.wall_clock_s < 300.0
    ratio = res.rows[0]["mean_ratio"]
    ok = 1.5 * 0.96 <= ratio <= 1.5 * 1.04
    detail = (
        f"ratio(0.125)={ratio:.4f}±{res.rows[0]['stderr_ratio']:.4f} "
        f"band=[1.44,1.56] wall={res.wall_clock_s:.0f}s"
    )
    assert _report(2, "lattice bias 3/2 in 3D", ok, detail)


def test_criterion_03_poisson_voronoi_bias():
    cfg = replace(
        default_config("bias-sweep"),
        family="voronoi", half_width=4.0, deltas=(0.25, 0.125), reps=100,
        seed=SEED, threads=THREADS,
    )
    res = run_campaign(cfg)
    fine = res.rows[-1]
    assert fine["delta"] == 0.125
    lo, hi = 0.95 * TARGET_2D, 1.05 * TARGET_2D
    ok = lo <= fine["mean_ratio"] <= hi
    detail = (
        f"ratio(0.125)={fine['mean_ratio']:.4f}±{fine['stderr_ratio']:.4f} "
        f"band=[{lo:.4f},{hi:.4f}]; facets clipped to the [-4,4]^2 window, "
        f"see README note on window edges"
    )
    assert _report(3, "Poisson-Voronoi bias 4/pi", ok, detail)


def test_criterion_04_corrected_estimator(bias_2d):
    final = bias_2d.rows[-1]
    corrected = final["mean_ratio_corrected"]
    ok = 0.97 <= corrected <= 1.03
    detail = f"corrected(0.0625)={corrected:.4f}±{final['stderr_ratio_corrected']:.4f} band=[0.97,1.03]"
    assert _report(4, "beta_d/2d correction recenters to 1", ok, detail)


def test_criterion_05_volume_unbiasedness():
    cfg = replace(
        default_config("volume-check"),
        levels=(0.0, 1.0), reps=200, seed=SEED, threads=THREADS,
    )
    res = run_campaign(cfg)
    checks = []
    for row in res.rows:
        checks.append(row["abs_error"] <= 3.0 * row["stderr"])
    ok = all(checks)
    detail = "; ".join(
        f"u={row['u']:g}: |{row['mean_volume']:.4f}-{row['target']:.4f}|"
        f"={row['abs_error']:.4f} vs 3se={3 * row['stderr']:.4f}"
        for row in res.rows
    )
    assert _report(5, "volume estimator unbiased", ok, detail)


def test_criterion_06_crossing_rate_from_below():
    cfg = replace(default_config("crossing"), seed=SEED, threads=THREADS)
    res = run_campaign(cfg)
    assert res.wall_clock_s < 60.0
    below_all = all(row["below_limit"] for row in res.rows)
    last = res.rows[-1]
    assert last["q"] == 0.02
    in_band = 0.5 * 0.96 <= last["estimate"] <= 0.5 * 1.04
    ok = below_all and in_band
    detail = (
        f"est(q=0.02)={last['estimate']:.4f}±{last['stderr']:.4f} band=[0.48,0.52] "
        f"below-or-at for all q={below_all} wall={res.wall_clock_s:.1f}s"
    )
    assert _report(6, "crossing rate approaches C* from below", ok, detail)


def test_criterion_07_crofton_demos():
    cfg = replace(default_config("crofton-demo"), n_lines=100_000, reps=20, seed=SEED, threads=THREADS)
    res = run_campaign(cfg)
    checks, parts = [], []
    for row in res.rows:
        rel_ok = row["rel_error"] < 0.01
        se_ok = abs(row["estimate"] - row["truth"]) < 3.0 * row["stderr"]
        checks.append(rel_ok and se_ok)
        parts.append(
            f"{row['shape']}: {row['estimate']:.4f} vs {row['truth']:.4f} "
            f"(rel {row['rel_error']:.4%}, 3se {3 * row['stderr']:.4f})"
        )
    ok = all(checks) and len(res.rows) == 2
    assert _report(7, "random-line measures of circle and square", ok, "; ".join(parts))


def test_criterion_08_sphere_l1_identity():
    start = time.perf_counter()
    worst = max(abs(sphere_l1_average(d) * beta_d(d) - 2.0 * d) for d in range(1, 9))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 1.0
    detail = f"max |avg*beta_d - 2d| = {worst:.2e} over d=1..8 in {elapsed * 1e3:.0f} ms"
    assert _report(8, "sphere average of the l1 norm times beta_d equals 2d", ok, detail)


def test_criterion_09_l1_oracle_consistency():
    model = CovarianceModel(1.0)
    fine = GridSpec(2, 200, 0.02)
    coarse = GridSpec(2, 50, 0.08)
    sigma = fine.window_volume
    err_fine, err_coarse = [], []
    for s in range(50):
        values = sample_gaussian_grid(model, fine, (SEED, 9, s))[0]
        field = values.reshape(fine.shape)
        oracle = l1_weighted_length(extract_level_polyline_2d(values, fine, 0.0)) / sigma
        est_fine = hypercubic_surface_fast(values, fine, 0.0)
        sub = np.ascontiguousarray(field[::4, ::4]).reshape(-1)
        est_coarse = hypercubic_surface_fast(sub, coarse, 0.0)
        err_fine.append(abs(est_fine - oracle))
        err_coarse.append(abs(est_coarse - oracle))
    mean_fine, mean_coarse = np.mean(err_fine), np.mean(err_coarse)
    ok = mean_fine < mean_coarse
    detail = f"mean |est - oracle|: delta=0.02 -> {mean_fine:.5f}, delta=0.08 -> {mean_coarse:.5f}"
    assert _report(9, "lattice estimate approaches the weighted level length", ok, detail)


def test_criterion_10_joint_fluctuation_diagnostics():
    cfg = replace(default_config("clt"), seed=SEED, threads=THREADS)
    res = run_campaign(cfg)
    assert res.wall_clock_s < 900.0
    mid, big = res.rows[-2], res.rows[-1]
    rv = big["var_volume_scaled"] / mid["var_volume_scaled"]
    rs = big["var_surface_scaled"] / mid["var_surface_scaled"]
    stable = 0.75 <= rv <= 1.33 and 0.75 <= rs <= 1.33
    shapes_ok = (
        abs(big["skew_volume"]) < 0.3
        and abs(big["skew_surface"]) < 0.3
        and abs(big["kurt_volume"]) < 0.6
        and abs(big["kurt_surface"]) < 0.6
    )
    ok = stable and shapes_ok
    detail = (
        f"scaled-variance ratios vol={rv:.3f} surf={rs:.3f} in [0.75,1.33]; "
        f"N=160 skew=({big['skew_volume']:+.2f},{big['skew_surface']:+.2f}) "
        f"kurt=({big['kurt_volume']:+.2f},{big['kurt_surface']:+.2f}) "
        f"wall={res.wall_clock_s:.0f}s"
    )
    assert _report(10, "variance scaling and approximate joint normality", ok, detail)


def test_criterion_11_fast_path_exactness():
    rng = np.random.default_rng(SEED)
    mismatches = 0
    trials = 0
    for d in (2, 3):
        for _ in range(50):
            n = int(rng.integers(1, 5))
            delta = float(rng.choice([0.25, 0.5, 1.0]))
            grid = GridSpec(d, n, delta)
            wh = hypercubic_honeycomb(delta, n, d)
            values = rng.standard_normal(grid.n_nodes)
            u = float(rng.standard_normal())
            if hypercubic_surface_fast(values, grid, u) != surface_estimate(wh, values >= u):
                mismatches += 1
            trials += 1
    ok = mismatches == 0 and trials == 100
    detail = f"{trials} random indicators in d=2,3; exact mismatches: {mismatches}"
    assert _report(11, "fast lattice path equals the facet-table estimator", ok, detail)


def test_criterion_12_gaussian_norm_identity():
    worst = 0.0
    for u in np.linspace(-3.0, 3.0, 13):
        for lam in (0.25, 1.0, 4.0):
            for d in range(2, 7):
                lhs = gaussian_l1_limit(u, lam, d)
                rhs = bias_factor(d) * gaussian_surface_density(u, lam, d)
                worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst < 1e-12
    detail = f"max relative gap {worst:.2e} over 195 (u, lambda, d) points"
    assert _report(12, "l1 limit equals bias times surface density", ok, detail)
