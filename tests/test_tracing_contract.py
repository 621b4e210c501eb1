"""The names the benchmark's tracer wraps are still called, as often as before.

``perfbench/worker.py --spans`` replaces module globals of
``excursionkit.campaigns`` with timed wrappers and counts the calls per
layer.  A refactor that binds those names differently, or calls them a
different number of times, silently empties or skews the per-layer metrics;
this test runs the tracer once per honeycomb family on a tiny sweep and pins
the counts.  It reads ``perfbench/`` and changes nothing in it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "family, counts",
    [
        # a lattice task counts its fields slab by slab and calls no
        # estimator the tracer wraps, so the lattice reads 0 estimator calls
        ("hypercubic", {"sampling.grid_calls": 1, "estimators.calls": 0}),
        (
            "hexagonal",
            {"sampling.points_calls": 2, "tessellation.build_calls": 1, "estimators.calls": 4},
        ),
        # each point-family replicate calls the traced surface_estimate and
        # exceedance_indicator once
        (
            "voronoi",
            {"sampling.points_calls": 2, "tessellation.build_calls": 2, "estimators.calls": 4},
        ),
    ],
)
def test_traced_call_counts(tmp_path, family, counts):
    config = tmp_path / "campaign.cfg"
    config.write_text(f"family = {family}\nhalf_width = 2\ndeltas = 0.5\n")
    result = tmp_path / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--result", str(result), "--spans", str(tmp_path / "spans.json"),
            "--", "bias-sweep", "--config", str(config), "--reps", "2", "--seed", "3",
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text())
    assert record["exit_code"] == 0
    layers = record["layers"]
    assert {name: layers[name] for name in counts} == counts
