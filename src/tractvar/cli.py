"""Command line entry point.

Subcommands:

    tractvar run --manifest m.json --out outdir [--degrees] [--clamp-tbcd]
                 [--rate 145] [--plots] [--parallelism N]
    tractvar compare a.tv.csv b.tv.csv [--json report.json]
    tractvar anatomy --manifest m.json --out outdir

Verbosity is controlled by the TRACTVAR_LOG environment variable
(error, warn, info, or debug; default warn; any other name is warned
about and means warn).  A usage error is logged as one line and exits
1, like any other configuration error.  `main` may be called many times
in one process; the argument parser is built once.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
    EXIT_OK,
    RunConfig,
    exit_code,
    output_clash,
    run_anatomy_only,
    run_pipeline,
)
from .tvcsv import open_atomic

# Named outright: under `python -m tractvar.cli` this module is __main__.
logger = logging.getLogger("tractvar.cli")

LOG_FORMAT = "%(levelname)s %(name)s: %(message)s"

# C0 controls and DEL, each replaced by its `repr` escape (a newline by \n).
_ESCAPES = {c: repr(chr(c))[1:-1] for c in (*range(0x20), 0x7F)}

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "warning": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class _OneLineFormatter(logging.Formatter):
    """Escapes control characters, so that a record naming a path with a
    newline in it still takes one line."""

    def formatMessage(self, record: logging.LogRecord) -> str:
        return super().formatMessage(record).translate(_ESCAPES)


def _setup_logging() -> None:
    """Set the root level from TRACTVAR_LOG, on every call.  A stderr
    handler is added only to a root logger without one, so that a second
    call adds no duplicate and an embedding program's handlers stay.  An
    unknown non-empty name means warn, and is logged as a warning."""
    value = os.environ.get("TRACTVAR_LOG", "warn")
    name = value.strip().lower()
    root = logging.getLogger()
    root.setLevel(_LOG_LEVELS.get(name, logging.WARNING))
    if not root.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(_OneLineFormatter(LOG_FORMAT))
        root.addHandler(handler)
    if name and name not in _LOG_LEVELS:
        logger.warning(
            "TRACTVAR_LOG=%r is not one of %s; using warn", value, ", ".join(_LOG_LEVELS)
        )


class _Parser(argparse.ArgumentParser):
    """Reports a usage error by raising ArgumentError, so that `main` logs
    it as one line and returns EXIT_CONFIG instead of exiting with 2."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one argument tree of this process; parsing leaves it unchanged."""
    parser = _Parser(
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
        clash = output_clash([args.file_a, args.file_b], [(args.json, "compare")])
        if clash is not None:
            logger.error("%s", clash)
            return EXIT_CONFIG
    report = compare_tvs(args.file_a, args.file_b)
    if args.json is not None:
        text = json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True) + "\n"
        with open_atomic(args.json) as fh:
            fh.write(text)
    print(format_table(report))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return run_anatomy_only(args.manifest, args.out)
    except (argparse.ArgumentError, ConfigError, OSError, DataError) as exc:
        logger.error("%s", exc)
        return exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
