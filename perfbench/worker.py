"""Run one excursionkit CLI campaign, or one import probe, in a fresh interpreter.

    python3 perfbench/worker.py --result FILE [--spans FILE] [-- CLI ARGUMENTS]

The first thing the process does is import ``excursionkit.cli`` under a
timer, so every worker is also a set-up sample.  With no CLI arguments that
is all it does.  Otherwise it calls ``excursionkit.cli.main`` once with the
given arguments.  With ``--spans`` the public functions of each layer are
wrapped first (see ``install_tracing``) and the spans are written to that
file when the call ends.

The JSON object written to ``--result`` holds ``import_s``, ``main_s`` and
``main_cpu_s`` (wall and process CPU time of ``cli.main``), ``exit_code``,
``maxrss_kb`` (peak resident set of this process) and, for traced calls,
``layers`` (see ``layer_summary``).  The
excursionkit package is found through PYTHONPATH, which the caller sets.
"""

import time

_T0 = time.perf_counter()
import excursionkit.cli  # noqa: E402  (timed import: the benchmark's set-up metric)

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import namedtuple  # noqa: E402

Span = namedtuple("Span", "id parent name start end thread attrs")


class Tracer:
    """Spans kept in memory: name, start, end, thread and parent span."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        """Return fn recording one span per call; attrs(args, result) adds fields."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # Campaign pool threads start with an empty stack; their parent is
            # the span the main thread is blocked in (campaigns.run).
            parent = (stack or tracer._main_stack or [None])[-1]
            span_id = next(tracer._ids)
            stack.append(span_id)
            result = failed = object()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = attrs(args, result) if attrs and result is not failed else {}
                tracer.spans.append(
                    Span(span_id, parent, name, start, end, threading.get_ident(), info)
                )

        return traced


def _grid_attrs(args, result):
    return {"shape": list(args[1].shape)}


def _points_attrs(args, result):
    points = args[1]
    return {"n": len(points), "key": hashlib.sha1(points.tobytes()).hexdigest()}


def _honeycomb_attrs(args, result):
    return {"cells": int(result.parent.ref_points.shape[0]), "inside": int(result.n_inside)}


def _run_attrs(args, result):
    return {"threads": int(args[0].threads)}


# (module attribute where the name is bound, span name, attribute recorder)
_CAMPAIGN_NAMES = (
    ("sample_gaussian_grid", "sampling.grid", _grid_attrs),
    ("sample_gaussian_points", "sampling.points", _points_attrs),
    ("sample_poisson_process", "sampling.poisson", None),
    ("hexagonal_honeycomb", "tessellation.build", _honeycomb_attrs),
    ("voronoi_honeycomb_2d", "tessellation.build", _honeycomb_attrs),
    ("hypercubic_surface_fast", "estimators.surface", None),
    ("surface_estimate", "estimators.surface", None),
    ("exceedance_indicator", "estimators.indicator", None),
)


def install_tracing(tracer):
    """Wrap each layer's public functions on the names the callers look up."""
    from excursionkit import campaigns, cli
    from excursionkit.campaigns import McCampaignResult
    from excursionkit.sampling import GridSpec

    for attr, span, attrs in _CAMPAIGN_NAMES:
        setattr(campaigns, attr, tracer.wrap(span, getattr(campaigns, attr), attrs))
    cli.run_campaign = tracer.wrap("campaigns.run", cli.run_campaign, _run_attrs)
    cli.config_from_args = tracer.wrap("cli.parse", cli.config_from_args)
    GridSpec.nodes = tracer.wrap("sampling.grid_nodes", GridSpec.nodes)
    McCampaignResult.write_csv = tracer.wrap("cli.output", McCampaignResult.write_csv)
    McCampaignResult.write_json = tracer.wrap("cli.output", McCampaignResult.write_json)


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_summary(spans):
    """Per-layer metrics of one traced cli.main call (seconds, counts, shares)."""
    dur = lambda s: s.end - s.start  # noqa: E731
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    total = lambda name: sum(dur(s) for s in by_name.get(name, []))  # noqa: E731

    (run,) = by_name["campaigns.run"]
    run_s = dur(run)
    threads = run.attrs["threads"]
    children = [s for s in spans if s.parent == run.id]
    children_s = _union_length((s.start, s.end) for s in children)
    capacity = threads * run_s

    grid = sorted(by_name.get("sampling.grid", []), key=lambda s: s.start)
    first_by_shape = {}
    for s in grid:
        first_by_shape.setdefault(tuple(s.attrs["shape"]), s)
    torus = [math.prod(2 * n for n in s.attrs["shape"]) for s in grid]
    points = by_name.get("sampling.points", [])
    builds = by_name.get("tessellation.build", [])
    cells = sum(s.attrs["cells"] for s in builds)
    inside = sum(s.attrs["inside"] for s in builds)
    estimators = by_name.get("estimators.surface", []) + by_name.get("estimators.indicator", [])
    sampling_s = sum(total(n) for n in ("sampling.grid", "sampling.points", "sampling.poisson"))

    out = {
        "cli.main_s": total("cli.main"),
        "cli.parse_s": total("cli.parse"),
        "cli.output_s": total("cli.output"),
        "campaigns.run_s": run_s,
        "campaigns.children_s": children_s,
        "campaigns.self_s": run_s - children_s,
        "campaigns.busy_frac": sum(dur(s) for s in children) / capacity,
        "campaigns.threads": threads,
        "sampling.s": sampling_s,
        "sampling.grid_s": total("sampling.grid"),
        "sampling.grid_calls": len(grid),
        "sampling.grid_p50_s": statistics.median(dur(s) for s in grid) if grid else 0.0,
        "sampling.grid_first_s": sum(dur(s) for s in first_by_shape.values()),
        "sampling.grid_nodes_s": total("sampling.grid_nodes"),
        # computed from the torus shape (padding 2x per axis), not measured
        "sampling.grid_torus_points": sum(torus),
        "sampling.grid_fft_gflop": sum(5.0 * m * math.log2(m) for m in torus) / 1e9,
        # noise (2 x 8 B), spectral product (16 B) and inverse FFT (16 B) per torus point
        "sampling.grid_bytes": 48 * sum(torus),
        "sampling.points_s": total("sampling.points"),
        "sampling.points_calls": len(points),
        "sampling.points_n_mean": (
            statistics.fmean(s.attrs["n"] for s in points) if points else 0.0
        ),
        # computed: Cholesky n^3/3 plus the n^2 triangular product
        "sampling.points_gflop": sum(s.attrs["n"] ** 3 / 3 + s.attrs["n"] ** 2 for s in points) / 1e9,
        "sampling.points_reuse_ratio": (
            1.0 - len({s.attrs["key"] for s in points}) / len(points) if points else 0.0
        ),
        "sampling.poisson_s": total("sampling.poisson"),
        "tessellation.build_s": total("tessellation.build"),
        "tessellation.build_calls": len(builds),
        "tessellation.cells_built": cells,
        "tessellation.us_per_cell": 1e6 * total("tessellation.build") / cells if cells else 0.0,
        "tessellation.inside_frac": inside / cells if cells else 0.0,
        "estimators.s": total("estimators.surface") + total("estimators.indicator"),
        "estimators.surface_s": total("estimators.surface"),
        "estimators.indicator_s": total("estimators.indicator"),
        "estimators.calls": len(estimators),
    }
    # shares of the campaign's thread time, comparable across thread counts
    for seconds_key in _SHARED_TIMES:
        out[seconds_key[: -len("_s")] + "_frac"] = out[seconds_key] / capacity
    return out


_SHARED_TIMES = (
    "sampling.grid_s",
    "sampling.grid_first_s",
    "sampling.grid_nodes_s",
    "sampling.points_s",
    "sampling.poisson_s",
    "tessellation.build_s",
    "estimators.surface_s",
    "estimators.indicator_s",
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, help="JSON file for the measurements")
    parser.add_argument("--spans", help="trace the call and write its spans to this file")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    record = {"import_s": IMPORT_S}
    if cli_args:
        tracer = Tracer() if args.spans else None
        main_fn = excursionkit.cli.main
        if tracer:
            install_tracing(tracer)
            main_fn = tracer.wrap("cli.main", main_fn)
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            exit_code = main_fn(cli_args)
        except SystemExit as exc:  # argparse rejects bad usage by exiting
            exit_code = exc.code if isinstance(exc.code, int) else 1
        record["main_s"] = time.perf_counter() - start
        record["main_cpu_s"] = time.process_time() - cpu_start
        record["exit_code"] = exit_code
        if tracer:
            with open(args.spans, "w") as fh:
                json.dump([s._asdict() for s in tracer.spans], fh)
            if exit_code == 0:
                record["layers"] = layer_summary(tracer.spans)
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
