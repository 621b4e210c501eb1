"""Campaign benchmark for excursionkit: bias sweeps run through the CLI.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload lattice-2d --seed 1 --seconds 24 --trace 0

Each call is a fresh ``python3 perfbench/worker.py`` process that imports
``excursionkit.cli`` and calls ``cli.main`` once with ``bias-sweep --config
FILE --seed S --threads T --out CSV --summary JSON``, exactly as a user runs a
campaign.  Call k of a run passes ``--seed 1000 * seed + k``.  Calls repeat
until ``--seconds`` have passed.  With ``--trace 1`` every other call is
traced (see worker.py) and the run reports per-layer metrics; otherwise it
reports the end-to-end metrics.  The metric names and units come from
BENCHMARK.json.  Every call's output is checked, and the pooled finest-cell
ratio is compared with its exact conditional expectation (oracle.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Files of the run go to
``.perfbench-out/<workload>-seed<seed>-trace<t>/``.  See README.md for the
workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench-out"
SETUP_PROBES = 1          # import-only processes per run, besides one import per call
VORONOI_ORACLE_CLOUDS = 3
VORONOI_GUARD = 1.5       # the campaign's default guard margin, in cell units
Z_TAIL = 6.334e-5         # oracle check: two-sided tail of 4 normal standard errors
RUN_DEADLINE_S = 165.0    # no call starts that could end after this, so a run ends within 180 s


@dataclass(frozen=True)
class Workload:
    family: str
    d: int
    half_width: float
    deltas: tuple
    reps: int
    threads: int

    def config_text(self) -> str:
        return "".join(
            f"{key} = {value}\n"
            for key, value in (
                ("family", self.family),
                ("d", self.d),
                ("model", "gaussian"),
                ("u", 0.0),
                ("ell", 1.0),
                ("half_width", self.half_width),
                ("deltas", ", ".join(str(x) for x in self.deltas)),
                ("reps", self.reps),
            )
        )


# Replicate counts give calls of about 2 s (6 s on voronoi-2d, whose minimum
# is 2 replicates) on a 2-core machine, so a 24-second run makes 4 to 7 calls.  Why each workload exists: README.md.
WORKLOADS = {
    "lattice-2d": Workload("hypercubic", 2, 8.0, (0.5, 0.25, 0.125, 0.0625), reps=60, threads=1),
    "lattice-3d": Workload("hypercubic", 3, 4.0, (0.125,), reps=14, threads=2),
    "voronoi-2d": Workload("voronoi", 2, 4.0, (0.25, 0.125), reps=2, threads=1),
    "hexagonal-2d": Workload("hexagonal", 2, 4.0, (0.25, 0.125), reps=12, threads=1),
}

_CSV_COLUMNS = ("delta", "mean_ratio", "stderr_ratio", "reps", "config_hash")


class OutputError(ValueError):
    """A campaign call whose output files are missing or inconsistent."""


def check_output(csv_path: str, summary_path: str, workload: Workload) -> list:
    """Parse and validate one call's CSV; return its rows, coarsest cell first."""
    try:
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(summary_path) as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        raise OutputError(f"unreadable output: {exc}") from exc
    if not rows or any(col not in rows[0] for col in _CSV_COLUMNS):
        raise OutputError(f"CSV lacks one of the columns {_CSV_COLUMNS}")
    parsed = []
    for row in rows:
        try:
            parsed.append({k: float(row[k]) for k in ("delta", "mean_ratio", "stderr_ratio", "reps")})
        except ValueError as exc:
            raise OutputError(f"non-numeric CSV field: {exc}") from exc
        parsed[-1]["config_hash"] = row["config_hash"]
    if [r["delta"] for r in parsed] != sorted(workload.deltas, reverse=True):
        raise OutputError(f"rows cover deltas {[r['delta'] for r in parsed]}")
    for r in parsed:
        if r["reps"] != workload.reps:
            raise OutputError(f"row reports {r['reps']} replicates, expected {workload.reps}")
        if not (math.isfinite(r["mean_ratio"]) and r["mean_ratio"] > 0):
            raise OutputError(f"mean_ratio {r['mean_ratio']} is not a positive number")
        if not (math.isfinite(r["stderr_ratio"]) and r["stderr_ratio"] > 0):
            raise OutputError(f"stderr_ratio {r['stderr_ratio']} is not a positive number")
        if r["config_hash"] != summary.get("config_hash"):
            raise OutputError("CSV and JSON summary disagree on config_hash")
    return parsed


def oracle_check(finest_rows: list, expected: float, expected_se: float) -> dict:
    """Pool the finest-cell rows of a run's calls and compare their mean with E.

    The per-replicate variance is pooled from the calls' standard errors and
    the spread of their means, so it has k * reps - 1 degrees of freedom.  The
    limit on |z| is the Student-t quantile with the tail of 4 normal standard
    errors: about 4.0 for hundreds of replicates, wider when a run holds few
    (voronoi-2d), so a few replicates do not make false alarms.
    """
    from scipy import stats

    k = len(finest_rows)
    if k == 0:
        return {"mean": math.nan, "se": math.nan, "se_call": math.nan, "z": math.nan,
                "limit": math.nan, "dof": 0, "ok": False}
    n = finest_rows[0]["reps"]
    means = [r["mean_ratio"] for r in finest_rows]
    mean = statistics.fmean(means)
    within = sum(r["stderr_ratio"] ** 2 * n * (n - 1) for r in finest_rows)
    between = n * sum((m - mean) ** 2 for m in means)
    dof = int(k * n - 1)
    var_rep = (within + between) / dof
    se = math.sqrt(var_rep / (k * n))
    z = (mean - expected) / math.hypot(se, expected_se)
    limit = float(stats.t.isf(Z_TAIL / 2, dof))
    return {"mean": mean, "se": se, "se_call": math.sqrt(var_rep / n), "z": z,
            "limit": limit, "dof": dof, "ok": abs(z) <= limit}


def expected_ratio(workload: Workload, seed: int) -> tuple:
    """(E, standard error of E) for the finest cell of the workload."""
    import oracle

    delta = min(workload.deltas)
    if workload.family == "hypercubic":
        return oracle.lattice(workload.d, workload.half_width, delta), 0.0
    if workload.family == "hexagonal":
        return oracle.hexagonal(workload.half_width, delta), 0.0
    return oracle.voronoi(workload.half_width, delta, VORONOI_GUARD, seed, VORONOI_ORACLE_CLOUDS)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_worker(src: str, call_dir: str, cli_args: list | None = None, traced: bool = False,
               timeout: float = RUN_DEADLINE_S) -> dict:
    """Start one worker process, wait for it, and return its result record."""
    os.makedirs(call_dir, exist_ok=True)
    result = os.path.join(call_dir, "result.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--result", result]
    if traced:
        argv += ["--spans", os.path.join(call_dir, "spans.json")]
    if cli_args:
        argv += ["--"] + cli_args
    env = dict(os.environ, PYTHONPATH=src)
    with open(os.path.join(call_dir, "log.txt"), "w") as log:
        try:
            proc = subprocess.run(argv, env=env, stdout=log, stderr=log, timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            return {"error": f"worker exceeded {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"worker exited with {proc.returncode}"}
    with open(result) as fh:
        return json.load(fh)


def run_call(src: str, run_dir: str, workload: Workload, cli_seed: int, traced: bool,
             timeout: float) -> dict:
    """One campaign call: the worker's record plus the output check."""
    call_dir = os.path.join(run_dir, f"call-{cli_seed}")
    os.makedirs(call_dir, exist_ok=True)
    config = os.path.join(call_dir, "campaign.cfg")
    out_csv = os.path.join(call_dir, "rows.csv")
    summary = os.path.join(call_dir, "summary.json")
    with open(config, "w") as fh:
        fh.write(workload.config_text())
    cli_args = [
        "bias-sweep", "--config", config, "--seed", str(cli_seed),
        "--threads", str(workload.threads), "--out", out_csv, "--summary", summary,
    ]
    rec = run_worker(src, call_dir, cli_args, traced, timeout)
    rec.update(cli_seed=cli_seed, traced=traced)
    if "error" not in rec and rec["exit_code"] != 0:
        rec["error"] = f"cli.main returned {rec['exit_code']}"
    if "error" not in rec:
        try:
            rec["rows"] = check_output(out_csv, summary, workload)
            rec["csv_sha256"] = _sha256(out_csv)
        except OutputError as exc:
            rec["error"] = str(exc)
    rec["ok"] = "error" not in rec
    return rec


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process (Linux only)."""
    counts = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return counts
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[os.path.basename(path)] = fn()
                break
    return counts


def provenance(root: str, workload: Workload, seed: int, config_hash: str | None) -> dict:
    import excursionkit
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = {}
    for mod in (numpy, scipy):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[mod.__name__] = f"{info.get('name')} {info.get('version')}"
    return {
        "git_commit": commit,
        "excursionkit": excursionkit.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "campaign_threads": workload.threads,
        "seed": seed,
        "config_hash": config_hash,
    }


def unit_of(name: str) -> str:
    """Unit of a metric, read from its name's suffix."""
    for suffix, unit in (("_mb", "MB"), ("_gflop", "GFLOP"), ("_bytes", "B"),
                         ("us_per_cell", "us"), ("_frac", "fraction"), ("_ratio", "fraction"),
                         ("_s", "s"), (".s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def summarize(calls: list, probes: list, oracle: dict) -> dict:
    """End-to-end metrics of a run (untraced calls) and per-layer medians (traced calls)."""
    plain = [c for c in calls if not c["traced"] and "main_s" in c]
    timed = [c for c in plain if c["ok"]] or plain
    campaign_s = _median(c["main_s"] for c in timed)
    failed = sum(not c["ok"] for c in calls)
    metrics = {
        "setup_s": _median(p["import_s"] for p in probes + calls if "import_s" in p),
        "campaign_s": campaign_s,
        "campaign_cpu_s": _median(c["main_cpu_s"] for c in timed),
        "time_to_1pct_s": campaign_s * (oracle["se_call"] / (0.01 * oracle["mean"])) ** 2,
        "peak_rss_mb": _median(c["maxrss_kb"] / 1024.0 for c in timed),
        "failed_frac": failed / len(calls),
    }
    layers = [c["layers"] for c in calls if c["traced"] and "layers" in c]
    for key in layers[0] if layers else ():
        metrics[key] = _median(l[key] for l in layers)
    traced_s = [c["main_s"] for c in calls if c["traced"] and c["ok"]]
    if traced_s and timed:
        metrics["trace_overhead_frac"] = _median(traced_s) / campaign_s - 1.0
    return metrics


def _check_checkout(root: str) -> str:
    src = os.path.join(root, "src")
    for needed in (os.path.join(src, "excursionkit", "cli.py"), os.path.join(root, "BENCHMARK.json")):
        if not os.path.isfile(needed):
            raise SystemExit(f"perfbench: {needed} not found; run from the root of a checkout")
    return src


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    run_start = time.perf_counter()
    root = os.getcwd()
    src = _check_checkout(root)
    sys.path.insert(0, src)
    import excursionkit

    if not os.path.realpath(excursionkit.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: excursionkit imported from {excursionkit.__file__}, not {src}")
    from excursionkit import beta_d

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workload = workloads[args.workload]
    run_dir = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    # set-up, outside the measured window: the oracle and the import probes
    expected, expected_se = expected_ratio(workload, args.seed)
    probes = [run_worker(src, os.path.join(run_dir, f"probe-{i}")) for i in range(SETUP_PROBES)]

    calls, k = [], 0
    window_start = time.perf_counter()
    while True:
        since_start = time.perf_counter() - run_start
        longest = max((c.get("main_s", 0.0) + c.get("import_s", 0.0) for c in calls), default=0.0)
        if calls and since_start + 1.5 * longest > RUN_DEADLINE_S:
            break
        traced = bool(args.trace) and k % 2 == 1
        calls.append(run_call(src, run_dir, workload, 1000 * args.seed + k, traced,
                              RUN_DEADLINE_S - since_start))
        k += 1
        enough_kinds = not args.trace or k >= 2
        if enough_kinds and time.perf_counter() - window_start >= args.seconds:
            break

    oracle = oracle_check([c["rows"][-1] for c in calls if c["ok"]], expected, expected_se)
    metrics = summarize(calls, probes, oracle)
    failed = sum(not c["ok"] for c in calls)
    first_ok = next((c for c in calls if c["ok"]), None)
    config_hash = first_ok["rows"][0]["config_hash"] if first_ok else None
    prov = provenance(root, workload, args.seed, config_hash)
    target = 2.0 * workload.d / beta_d(workload.d)

    print(f"workload {args.workload}: {workload.family} d={workload.d} half_width={workload.half_width} "
          f"deltas={workload.deltas} reps={workload.reps} threads={workload.threads}")
    print(f"calls: {len(calls)} ({sum(not c['traced'] for c in calls)} untraced), cli seeds "
          f"{calls[0]['cli_seed']}..{calls[-1]['cli_seed']}; failed {failed} of {len(calls)}")
    for c in calls:
        if not c["ok"]:
            print(f"  call seed {c['cli_seed']} failed: {c['error']}")
    print("metrics (medians over calls):")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit_of(name)}")
    print(f"oracle: E={expected:.5f} (se {expected_se:.5f}) pooled mean={oracle['mean']:.5f} "
          f"se={oracle['se']:.5f} oracle_z={oracle['z']:+.3f} "
          f"{'PASS' if oracle['ok'] else 'FAIL'} (|z| <= {oracle['limit']:.3f}, "
          f"{oracle['dof']} degrees of freedom)")
    print(f"gap of E to 2d/beta_d={target:.5f}: {expected / target - 1.0:+.4f}")
    print(f"csv sha256 of call seed {first_ok['cli_seed'] if first_ok else '-'}: "
          f"{first_ok['csv_sha256'] if first_ok else '-'}")
    print("provenance: " + json.dumps(prov, sort_keys=True))

    with open(os.path.join(run_dir, "run.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "metrics": metrics, "oracle": oracle,
                   "expected": expected, "expected_se": expected_se, "provenance": prov,
                   "calls": calls, "probes": probes}, fh, indent=1)

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": failed == 0 and oracle["ok"],
        "attempted": len(calls),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
