"""Batch processing: manifest in, per-utterance TV files out.

`run` and `anatomy` share one setup phase, in the calling process: it
loads the manifest, has `output_clash` check that no planned output
lands on an input or on another output, and derives and writes every
speaker's anatomy.  Then, for `run`, each utterance is a pure function
of its own input file plus its speaker's anatomy.  With parallelism 1
the utterances run one after another in the calling thread; above 1 the
run forks one pool of worker processes, at most one per utterance, hands
each worker the list of (anatomy, utterance) jobs once, and sends it
only job indices.  Results are byte-identical at any parallelism level.

Each speaker and each utterance ends in one outcome: an exit code and
one line that names the item once.  Only the calling process logs, so
the lines come in manifest order at any parallelism level; workers
return their outcomes and never log.
"""

from __future__ import annotations

import logging
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from .anatomy import SpeakerAnatomy, build_speaker_anatomy
from .errors import ConfigError, DataError, DegenerateAngle, ParseError
from .ingest import (
    SpeakerSpec,
    TARGET_RATE_HZ,
    load_manifest,
    parse_pellet_file,
    parse_trace_file,
    resample,
)
from .plots import anatomy_svg, tv_svg
from .tract_variables import compute_trajectory
from .tvcsv import write_anatomy_json, write_atomic, write_tv_csv

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2

# Configuration and I/O trouble outranks bad data in the exit code.
_SEVERITY = {EXIT_OK: 0, EXIT_DATA: 1, EXIT_CONFIG: 2}


@dataclass(frozen=True)
class RunConfig:
    """Options for one batch run."""

    manifest_path: Path
    output_dir: Path
    degrees: bool = False
    clamp_tbcd: bool = False
    target_rate: float = TARGET_RATE_HZ
    plots: bool = False
    parallelism: int = 1

    def __post_init__(self) -> None:
        # A subnormal rate is positive and finite, but its grid step 1/rate
        # overflows to inf.
        rate = self.target_rate
        if not (math.isfinite(rate) and rate > 0.0 and math.isfinite(1.0 / rate)):
            raise ConfigError(
                f"rate must be a positive finite number with a finite reciprocal, "
                f"got {rate}"
            )
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {self.parallelism}")


def exit_code(exc: Exception) -> int:
    """The exit code an error forces: EXIT_DATA for bad data, else EXIT_CONFIG."""
    return EXIT_DATA if isinstance(exc, DataError) else EXIT_CONFIG


def _anatomy_outputs(spec: SpeakerSpec, output_dir: Path) -> list[Path]:
    """Where one speaker's anatomy JSON and SVG go."""
    return [output_dir / f"{spec.speaker_id}.anatomy.{ext}" for ext in ("json", "svg")]


def _utterance_outputs(utterance_path: Path, output_dir: Path) -> list[Path]:
    """Where one utterance's TV CSV and SVG go."""
    return [output_dir / f"{utterance_path.stem}.{ext}" for ext in ("tv.csv", "tvs.svg")]


def output_clash(inputs: list[Path], outputs: list[tuple[Path, str]]) -> str | None:
    """Why the planned outputs cannot all be written, or None.  Each output
    is paired with the item it is written for ("speaker jw11"), and may
    resolve neither to an input nor to the file of an earlier output."""
    # Reversed, so that the first input to name a file is the one reported.
    claimed = {os.path.realpath(path): f"input {path}" for path in reversed(inputs)}
    for path, item in outputs:
        real = os.path.realpath(path)
        if real in claimed:
            return f"output {path} would overwrite {claimed[real]}"
        claimed[real] = f"the output of {item}"
    return None


def _set_up(
    manifest_path: Path, output_dir: Path, svg: bool, utterances: bool
) -> tuple[int, list[tuple[SpeakerAnatomy, Path]]] | None:
    """Load the manifest, check its planned outputs against its inputs
    (manifest, traces, utterances) and each other, then derive and write
    every speaker's anatomy (JSON, and SVG if asked).

    Returns the exit code the speakers force and the (anatomy, utterance)
    jobs of every speaker whose anatomy was written.  A refused manifest
    is logged and gives None, before anything is written.
    """
    try:
        speakers = load_manifest(manifest_path)
    except (OSError, ConfigError) as exc:
        logger.error("cannot load manifest: %s", exc)
        return None
    inputs = [manifest_path]
    outputs: list[tuple[Path, str]] = []
    for spec in speakers:
        inputs += [spec.palate_path, spec.posterior_wall_path, *spec.utterance_paths]
        for output in _anatomy_outputs(spec, output_dir)[: 2 if svg else 1]:
            outputs.append((output, f"speaker {spec.speaker_id}"))
        for path in spec.utterance_paths if utterances else ():
            for output in _utterance_outputs(path, output_dir)[: 2 if svg else 1]:
                outputs.append((output, f"utterance {path}"))
    clash = output_clash(inputs, outputs)
    if clash is not None:
        logger.error("%s", clash)
        return None
    output_dir.mkdir(parents=True, exist_ok=True)

    codes = [EXIT_OK]
    jobs: list[tuple[SpeakerAnatomy, Path]] = []
    for spec in speakers:
        json_path, svg_path = _anatomy_outputs(spec, output_dir)
        try:
            palate = parse_trace_file(spec.palate_path, "palate")
            wall = parse_trace_file(spec.posterior_wall_path, "wall")
            anat = build_speaker_anatomy(
                spec.speaker_id, palate, wall, spec.sex, thickness_mm=spec.thickness_mm
            )
            write_anatomy_json(anat, json_path)
            if svg:
                write_atomic(svg_path, [anatomy_svg(anat)])
        except (OSError, DataError) as exc:
            logger.error("speaker %s: %s", spec.speaker_id, exc)
            codes.append(exit_code(exc))
            continue
        jobs += [(anat, path) for path in spec.utterance_paths]
    return max(codes, key=_SEVERITY.__getitem__), jobs


def _process_utterance(anat: SpeakerAnatomy, path: Path, config: RunConfig) -> str:
    """Process one utterance and return its info line."""
    trajectory, report = parse_pellet_file(path)
    uniform = resample(trajectory, config.target_rate, report)
    del trajectory  # the full-rate take need not outlive its resampling
    tvs = compute_trajectory(uniform, anat, clamp_tbcd=config.clamp_tbcd)
    out_csv, out_svg = _utterance_outputs(path, config.output_dir)
    write_tv_csv(tvs, out_csv, degrees=config.degrees)
    if config.plots:
        write_atomic(out_svg, [tv_svg(tvs)])
    return (
        f"{anat.speaker_id}/{path.stem}: {report.frames_read} frames in, "
        f"{len(tvs)} out, {report.frames_mistracked} mistracked, "
        f"{report.pellets_interpolated} pellets interpolated"
    )


def _attempt_utterance(
    anat: SpeakerAnatomy, path: Path, config: RunConfig
) -> tuple[int, str]:
    """Process one utterance.  Returns EXIT_OK with its info line, or the
    code that names what went wrong with its one error line."""
    try:
        return EXIT_OK, _process_utterance(anat, path, config)
    except DegenerateAngle as exc:
        return EXIT_DATA, f"utterance {path}: frame {exc.frame} (t = {exc.t!r} s): {exc}"
    except (OSError, DataError) as exc:
        if isinstance(exc, ParseError):
            # The message starts with the path, and the line and column.
            line = f"utterance {exc}"
        elif isinstance(exc, OSError) and exc.filename == str(path):
            line = f"utterance {path}: {exc.strerror}"
        else:
            line = f"utterance {path}: {exc}"
        return exit_code(exc), line


# A pool worker's jobs and run options, set once by `_init_worker`.
_worker_jobs: tuple[list[tuple[SpeakerAnatomy, Path]], RunConfig] | None = None


def _init_worker(jobs: list[tuple[SpeakerAnatomy, Path]], config: RunConfig) -> None:
    """Keep the run's jobs in this worker."""
    global _worker_jobs
    _worker_jobs = jobs, config


def _run_job(index: int) -> tuple[int, str]:
    jobs, config = _worker_jobs
    return _attempt_utterance(*jobs[index], config)


def _outcomes(
    jobs: list[tuple[SpeakerAnatomy, Path]], config: RunConfig
) -> Iterator[tuple[int, str]]:
    """Yield each job's outcome in job order, as soon as it is known.  A
    worker process that dies ends the run with one last EXIT_CONFIG
    outcome."""
    workers = min(config.parallelism, len(jobs))
    if workers < 2:
        yield from (_attempt_utterance(*job, config) for job in jobs)
        return
    # Imported here so that serial runs never load them.  Forked workers
    # inherit the jobs and the loaded modules; spawned ones unpickle the
    # jobs once each.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    fork = "fork" in multiprocessing.get_all_start_methods()
    try:
        with ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork" if fork else None),
            initializer=_init_worker,
            initargs=(jobs, config),
        ) as pool:
            yield from pool.map(_run_job, range(len(jobs)))
    except BrokenProcessPool as exc:
        yield EXIT_CONFIG, f"run failed: a worker process died ({exc})"


def run_pipeline(config: RunConfig) -> int:
    """Process every speaker and utterance in the manifest.

    Every speaker's anatomy is derived first.  Speaker-level anatomy
    failures skip that speaker's utterances and force a nonzero exit.
    Individual utterance failures are logged and skipped; they only force
    a nonzero exit when every utterance failed.  A worker process that
    dies ends the run with exit 1.
    Exit codes: 0 success, 1 configuration or I/O trouble, 2 bad data.
    """
    setup = _set_up(config.manifest_path, config.output_dir, config.plots, utterances=True)
    if setup is None:
        return EXIT_CONFIG
    speaker_code, jobs = setup
    codes = [speaker_code]
    outcomes = []
    for code, line in _outcomes(jobs, config):
        logger.log(logging.INFO if code == EXIT_OK else logging.ERROR, "%s", line)
        outcomes.append(code)

    # A failed utterance only fails the run through I/O trouble, or when
    # no utterance succeeded at all.
    if EXIT_CONFIG in outcomes:
        codes.append(EXIT_CONFIG)
    if outcomes and EXIT_OK not in outcomes:
        codes.append(EXIT_DATA)
    return max(codes, key=_SEVERITY.__getitem__)


def run_anatomy_only(manifest_path: Path, output_dir: Path) -> int:
    """Derive and write anatomy (JSON plus figure) without utterances."""
    setup = _set_up(manifest_path, output_dir, svg=True, utterances=False)
    return EXIT_CONFIG if setup is None else setup[0]
