"""Command line entry point.

Subcommands:

    tractvar run --manifest m.json --out outdir [--degrees] [--clamp-tbcd]
                 [--rate 145] [--plots] [--parallelism N]
    tractvar compare a.tv.csv b.tv.csv [--json report.json]
    tractvar anatomy --manifest m.json --out outdir

Verbosity is controlled by the TRACTVAR_LOG environment variable
(error, warn, info, or debug; default warn).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .compare import compare_tvs, format_table
from .errors import ConfigError, DataError
from .ingest import TARGET_RATE_HZ
from .pipeline import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    RunConfig,
    _realpath,
    run_anatomy_only,
    run_pipeline,
)
from .tvcsv import open_atomic

logger = logging.getLogger(__name__)

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "warning": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging() -> None:
    name = os.environ.get("TRACTVAR_LOG", "warn").strip().lower()
    level = _LOG_LEVELS.get(name, logging.WARNING)
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tractvar",
        description="Relative tract variables from pellet trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="process a manifest end to end")
    run.add_argument("--manifest", required=True, type=Path)
    run.add_argument("--out", required=True, type=Path)
    run.add_argument("--degrees", action="store_true",
                     help="serialize constriction locations in degrees")
    run.add_argument("--clamp-tbcd", action="store_true",
                     help="clamp negative tongue-body clearances to zero")
    run.add_argument("--rate", type=float, default=TARGET_RATE_HZ,
                     help="output sample rate in Hz (default 145)")
    run.add_argument("--plots", action="store_true",
                     help="also write SVG figures")
    run.add_argument("--parallelism", type=int, default=1,
                     help="worker processes for utterances (default 1)")

    cmp_p = sub.add_parser("compare", help="correlate two TV files")
    cmp_p.add_argument("file_a", type=Path)
    cmp_p.add_argument("file_b", type=Path)
    cmp_p.add_argument("--json", type=Path, default=None,
                       help="also write the report as JSON")

    anat = sub.add_parser("anatomy", help="derive anatomy only")
    anat.add_argument("--manifest", required=True, type=Path)
    anat.add_argument("--out", required=True, type=Path)

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = RunConfig(
        manifest_path=args.manifest,
        output_dir=args.out,
        degrees=args.degrees,
        clamp_tbcd=args.clamp_tbcd,
        target_rate=args.rate,
        plots=args.plots,
        parallelism=args.parallelism,
    )
    return run_pipeline(config)


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.json is not None:
        dirs: dict[str, str] = {}
        target = _realpath(args.json, dirs)
        for path in (args.file_a, args.file_b):
            if _realpath(path, dirs) == target:
                logger.error("output %s would overwrite input %s", args.json, path)
                return EXIT_CONFIG
    report = compare_tvs(args.file_a, args.file_b)
    print(format_table(report))
    if args.json is not None:
        with open_atomic(args.json) as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return run_anatomy_only(args.manifest, args.out)
    except ConfigError as exc:
        logger.error("%s", exc)
        return EXIT_CONFIG
    except OSError as exc:
        logger.error("%s", exc)
        return EXIT_CONFIG
    except DataError as exc:
        logger.error("%s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
