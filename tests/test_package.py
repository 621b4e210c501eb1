import ast
import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import excursionkit


def test_every_exported_name_resolves():
    assert len(set(excursionkit.__all__)) == len(excursionkit.__all__)
    for name in excursionkit.__all__:
        assert hasattr(excursionkit, name), name


def test_public_names_imported_from_submodules_are_exported():
    imported = {
        name
        for name, obj in vars(excursionkit).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__.startswith("excursionkit.")
    }
    assert imported  # the package does import from its submodules
    assert sorted(imported - set(excursionkit.__all__)) == []


_UNIT = excursionkit.CovarianceModel(1.0)
_WINDOW = excursionkit.Box(np.full(2, -2.0), np.full(2, 2.0))
_CIRCLE = excursionkit.circle_shape(1.0)
_GRID = excursionkit.GridSpec(2, 4, 0.5)
_SQUARE_SCALE = "length scale must be positive with a finite nonzero square"
_LEVEL = "level must be finite"
_MOMENT = "second spectral moment must be positive and finite"
_POINTS = "sample points must be finite"
_GENERATORS = "generator points must be finite"


def _with(value):
    """Four points, one of them with a coordinate ``value``."""
    return np.array([[0.0, 0.0], [1.0, 0.0], [0.0, value], [1.0, 1.0]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: excursionkit.CovarianceModel(math.nan), _SQUARE_SCALE),
        (lambda: excursionkit.CovarianceModel(math.inf), _SQUARE_SCALE),
        (lambda: excursionkit.CovarianceModel(1e-200), _SQUARE_SCALE),  # its square is 0
        (lambda: excursionkit.GridSpec(2, 4, math.nan), "spacing must be positive and finite"),
        (
            lambda: excursionkit.hexagonal_honeycomb(math.nan, _WINDOW),
            "circumradius must be positive and finite",
        ),
        (
            lambda: excursionkit.crossing_frequency(_UNIT, 0.0, math.nan, 10, 1),
            "distance must be finite",
        ),
        (
            lambda: excursionkit.crossing_frequency(_UNIT, math.nan, 0.5, 10, 1),
            "level must be finite",
        ),
        (
            lambda: excursionkit.crofton_measure_mc(_CIRCLE, 2, 10, math.nan, 1),
            "bounding radius must be positive and finite",
        ),
        (
            lambda: excursionkit.hypercubic_surface_fast(np.zeros(64), _GRID, math.nan),
            _LEVEL,
        ),
        (lambda: excursionkit.exceedance_indicator(np.zeros(4), math.nan), _LEVEL),
        (lambda: excursionkit.chisq_volume_density(math.nan, 3), _LEVEL),
        (lambda: excursionkit.chisq_volume_density(math.inf, 3), _LEVEL),
        (
            lambda: excursionkit.chisq_surface_density(math.nan, 1.0, 2, 3),
            "chi-square level must be positive and finite",
        ),
        (lambda: excursionkit.gaussian_volume_density(math.nan), _LEVEL),
        (lambda: excursionkit.gaussian_surface_density(math.nan, 1.0, 2), _LEVEL),
        (lambda: excursionkit.gaussian_l1_limit(math.nan, 1.0, 2), _LEVEL),
        (lambda: excursionkit.gaussian_surface_density(0.0, math.nan, 2), _MOMENT),
        (lambda: excursionkit.gaussian_surface_density(0.0, math.inf, 2), _MOMENT),
        (
            lambda: excursionkit.sample_poisson_process(math.nan, _WINDOW, 1),
            "rate must be nonnegative and finite",
        ),
        (
            lambda: excursionkit.sample_poisson_process(math.inf, _WINDOW, 1),
            "rate must be nonnegative and finite",
        ),
        (lambda: excursionkit.sample_gaussian_points(_UNIT, _with(math.nan), 1), _POINTS),
        (lambda: excursionkit.sample_gaussian_points(_UNIT, _with(math.inf), 1), _POINTS),
        (lambda: excursionkit.sample_chi_square(_UNIT, 3, _with(math.nan), 1), _POINTS),
        (lambda: excursionkit.covariance_factor(_UNIT, _with(math.nan)), _POINTS),
        (lambda: excursionkit.covariance_factor(_UNIT, _with(math.inf)), _POINTS),
        (lambda: excursionkit.voronoi_honeycomb_2d(_with(math.nan), _WINDOW, 0.5), _GENERATORS),
        (lambda: excursionkit.voronoi_honeycomb_2d(_with(-math.inf), _WINDOW, 0.5), _GENERATORS),
    ],
    ids=[
        "ell-nan", "ell-inf", "ell-square-underflows", "grid-spacing-nan", "hexagon-nan",
        "crossing-distance-nan", "crossing-level-nan", "crofton-radius-nan",
        "surface-fast-level-nan", "indicator-level-nan", "chisq-volume-level-nan",
        "chisq-volume-level-inf", "chisq-surface-level-nan", "gaussian-volume-level-nan",
        "gaussian-surface-level-nan", "l1-limit-level-nan", "spectral-moment-nan",
        "spectral-moment-inf", "poisson-rate-nan", "poisson-rate-inf", "points-nan",
        "points-inf", "chisq-points-nan", "factor-nan", "factor-inf", "generators-nan",
        "generators-inf",
    ],
)
def test_non_finite_inputs_refused(call, message):
    # each is refused by name when it is passed: a nan length scale would
    # draw all-nan fields whose surface estimate reads 0.0, a nan lag or
    # level would give a crossing rate of 0, a nan level flags no node (so
    # a surface estimate of 0.0) or gives a nan density, a non-finite
    # Poisson rate failed inside numpy with a message naming no rate, one
    # nan point coordinate made every value of a point draw nan or of a
    # covariance factor, and a non-finite generator failed inside scipy's
    # cKDTree
    with pytest.raises(ValueError, match=message):
        call()


def test_readme_quick_start_prints_its_commented_ratios():
    # the block runs as printed; like the golden digests, the counts behind
    # its two ratios depend on the BLAS kernel of the grid draw
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    commented = [line.rsplit("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert commented == ["1.4160", "1.1121"]
    assert [f"{float(x):.4f}" for x in out.getvalue().split()] == commented


def _run_python(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports the package from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    )
    return out.stdout


def test_cli_import_loads_no_scipy_subpackage():
    # scipy (even bare: the provenance reads its version file), and the
    # concurrent.futures pool with the logging it loads, are each paid by
    # every CLI call and used by no lattice or hexagonal campaign
    code = "import sys, excursionkit.cli; print(sorted(sys.modules))"
    loaded = ast.literal_eval(_run_python(code))
    assert "excursionkit.campaigns" in loaded
    unwanted = [
        name for name in loaded
        if name.split(".")[0] in ("scipy", "logging") or name.startswith("concurrent.futures")
    ]
    assert unwanted == []


def test_cli_main_imports_nothing_on_lattice_and_hexagonal_sweeps(tmp_path):
    # a module first imported inside cli.main is paid for in the campaign's
    # own time; numpy.random, argparse's locale lookup, the scipy whose
    # version the provenance block reports and a scipy.stats for the clt
    # moments are the easy ones to leave to the first call
    configs = {
        "hypercubic": ("bias-sweep", "half_width = 1\ndeltas = 0.5, 0.25\n", "3"),
        "hexagonal": ("bias-sweep", "family = hexagonal\nhalf_width = 2\ndeltas = 0.5\n", "3"),
        "clt": ("clt", "windows = 8, 16\ndeltas = 0.25\n", "4"),
    }
    calls = []
    for name, (kind, text, reps) in configs.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        out, summary = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        calls.append(
            [kind, "--config", str(path), "--reps", reps, "--threads", "2",
             "--out", str(out), "--summary", str(summary)]
        )
    code = (
        "import contextlib, io, sys\n"
        "import excursionkit.cli as cli\n"
        f"for argv in {calls!r}:\n"
        "    before = set(sys.modules)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "    print(argv[2], sorted(set(sys.modules) - before))\n"
        "print('scipy' in sys.modules)\n"
    )
    lines = _run_python(code).splitlines()
    assert lines == [f"{argv[2]} []" for argv in calls] + ["False"]
    # the provenance reads the version of the scipy that the child never loaded
    for argv in calls:
        summary = json.loads(Path(argv[-1]).read_text())
        assert summary["provenance"]["scipy"] == scipy.__version__
