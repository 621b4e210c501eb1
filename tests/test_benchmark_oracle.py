"""The benchmark's oracle describes the estimator the campaigns run.

``perfbench/oracle.py`` gives the exact u = 0 expectation that a gated
workload's mean ratio is checked against.  It reads the honeycomb through the
names ``interior_facets`` and ``ref_points_inside``, which now return the one
window view; this test checks its hexagonal value against the tests' own
given-cells sum over ``weighted_facets``, the view ``surface_estimate``
reads.  It loads ``perfbench/oracle.py`` and changes nothing in it.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from excursionkit.tessellation import Box, hexagonal_honeycomb

from test_campaigns import _facet_expectation

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def oracle():
    path = ROOT / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hexagonal_oracle_is_the_window_view_expectation(oracle):
    # the hexagonal-2d workload: half width 4, cells of circumradius 0.125
    wh = hexagonal_honeycomb(0.125, Box(np.full(2, -4.0), np.full(2, 4.0)))
    exact = _facet_expectation(wh.weighted_facets, wh.ref_points_weighted, wh.window.volume)
    assert oracle.hexagonal(4.0, 0.125) == pytest.approx(exact, rel=0, abs=1e-12)
    assert exact == pytest.approx(1.26220, abs=5e-6)
