"""Command line front end for the Monte Carlo campaigns.

Exit codes: 0 on success, 2 for configuration problems (among them a
campaign whose draws would not fit in physical memory).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .campaigns import (
    KINDS,
    CampaignConfig,
    ConfigError,
    apply_config_file,
    default_config,
    run_campaign,
)

_KIND_HELP = {
    "bias-sweep": "surface-estimate ratios over shrinking honeycomb cells",
    "crossing": "rescaled two-point crossing rates over shrinking lags",
    "clt": "scaled variance and shape diagnostics over growing windows",
    "crofton-demo": "random-line boundary measures of analytic shapes",
    "volume-check": "lattice volume estimates against the analytic density",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excursionkit",
        description="Monte Carlo studies of excursion-set volume and surface estimators.",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="CAMPAIGN")
    for kind in KINDS:
        p = sub.add_parser(kind, help=_KIND_HELP[kind])
        p.add_argument("--config", metavar="FILE", help="key=value configuration file")
        p.add_argument("--dim", type=int, metavar="D", help="ambient dimension")
        p.add_argument(
            "--delta",
            type=float,
            metavar="DELTA",
            help="single cell size (replaces the default sweep)",
        )
        p.add_argument("--reps", type=int, metavar="R", help="replicates per sweep value")
        p.add_argument("--seed", type=int, metavar="SEED", help="base seed")
        p.add_argument("--threads", type=int, metavar="N", help="worker threads")
        p.add_argument("--out", metavar="CSV", help="write summary rows to this CSV file")
        p.add_argument("--summary", metavar="JSON", help="write config + rows as JSON")
    return parser


def config_from_args(args: argparse.Namespace) -> CampaignConfig:
    """Merge defaults, the config file and the flags; ``run_campaign`` validates."""
    cfg = default_config(args.kind)
    if args.config:
        cfg = apply_config_file(cfg, args.config)
    overrides = {}
    if args.dim is not None:
        overrides["d"] = args.dim
    if args.delta is not None:
        overrides["deltas"] = (args.delta,)
    if args.reps is not None:
        overrides["reps"] = args.reps
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.out is not None:
        overrides["out"] = args.out
    if args.summary is not None:
        overrides["summary"] = args.summary
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def _print_rows(rows, stream) -> None:
    if not rows:
        print("(no rows)", file=stream)
        return
    names = list(rows[0].keys())
    table = [names] + [
        [
            format(row[k], ".6g") if isinstance(row[k], float) else str(row[k])
            for k in names
        ]
        for row in rows
    ]
    widths = [max(len(r[j]) for r in table) for j in range(len(names))]
    for r in table:
        print("  ".join(cell.rjust(w) for cell, w in zip(r, widths)), file=stream)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        result = run_campaign(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if cfg.out:
        result.write_csv(cfg.out)
    if cfg.summary:
        result.write_json(cfg.summary)
    _print_rows(result.rows, sys.stdout)
    print(
        f"# {cfg.kind}: {len(result.rows)} rows, hash {result.config_hash}, "
        f"{result.wall_clock_s:.2f}s",
        file=sys.stdout,
    )
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
