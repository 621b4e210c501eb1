"""Command line front end for the Monte Carlo campaigns.

Exit codes: 0 on success, 2 for configuration problems (among them a
campaign whose draws would not fit in physical memory).
"""

from __future__ import annotations

import argparse
# argparse's messages go through gettext, whose language lookup imports
# locale on the first parse; imported here, it is paid with the CLI import
# and not inside the campaign call
import locale  # noqa: F401
import os
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

# (flag, config field, type, metavar, help); on a tuple field a flag sets one entry
_FLAGS = (
    ("--dim", "d", int, "D", "ambient dimension"),
    ("--delta", "deltas", float, "DELTA", "single cell size (replaces the default sweep)"),
    ("--reps", "reps", int, "R", "replicates per sweep value"),
    ("--seed", "seed", int, "SEED", "base seed"),
    ("--threads", "threads", int, "N", "worker threads"),
    ("--out", "out", str, "CSV", "write summary rows to this CSV file"),
    ("--summary", "summary", str, "JSON", "write config + rows as JSON"),
    ("--raw", "raw", str, "CSV", "write every replicate's raw row to this CSV file"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excursionkit",
        description="Monte Carlo studies of excursion-set volume and surface estimators.",
        # keeps the one-line-per-kind layout of the CAMPAIGN help
        formatter_class=argparse.RawTextHelpFormatter,
    )
    parser.add_argument(
        "kind",
        metavar="CAMPAIGN",
        choices=KINDS,
        help="\n".join(f"{kind:<13} {_KIND_HELP[kind]}" for kind in KINDS),
    )
    parser.add_argument("--config", metavar="FILE", help="key=value configuration file")
    for flag, key, kind_of, metavar, text in _FLAGS:
        parser.add_argument(flag, dest=key, type=kind_of, metavar=metavar, help=text)
    return parser


def config_from_args(args: argparse.Namespace) -> CampaignConfig:
    """Merge defaults, the config file and the flags; ``run_campaign`` validates."""
    cfg = default_config(args.kind)
    if args.config:
        cfg = apply_config_file(cfg, args.config)
    overrides = {}
    for _, key, _, _, _ in _FLAGS:
        value = getattr(args, key)
        if value is not None:
            overrides[key] = (value,) if isinstance(getattr(cfg, key), tuple) else value
    return replace(cfg, **overrides)


def _print_rows(rows, stream) -> None:
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
        for path in filter(None, (cfg.out, cfg.summary, cfg.raw)):
            # checked before any replicate runs, so that no result is lost to a bad path
            folder = os.path.dirname(os.path.abspath(path))
            writable = os.access(path if os.path.exists(path) else folder, os.W_OK)
            if os.path.isdir(path) or not os.path.isdir(folder) or not writable:
                raise ConfigError(f"cannot write output file {path}: not a writable path")
        result = run_campaign(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if cfg.out:
        result.write_csv(cfg.out)
    if cfg.summary:
        result.write_json(cfg.summary)
    if cfg.raw:
        with open(cfg.raw, "w", newline="") as fh:
            fh.write(result.raw_csv_text())
    _print_rows(result.rows, sys.stdout)
    print(
        f"# {cfg.kind}: {len(result.rows)} rows, hash {result.config_hash}, "
        f"{result.wall_clock_s:.2f}s",
        file=sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
