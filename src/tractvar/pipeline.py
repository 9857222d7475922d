"""Batch processing: manifest in, per-utterance TV files out.

Utterances are independent of each other.  With parallelism 1 they run
one after another in the calling thread; above 1 the run forks one pool
of worker processes, at most one per utterance.  Every output is a pure
function of its own input file plus the speaker anatomy, which keeps
results byte-identical at any parallelism level.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from .anatomy import SpeakerAnatomy, build_speaker_anatomy
from .errors import ConfigError, DataError, DegenerateAngle
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
from .tvcsv import open_atomic, write_anatomy_json, write_tv_csv

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
        if not (math.isfinite(self.target_rate) and self.target_rate > 0.0):
            raise ConfigError(
                f"rate must be a positive finite number, got {self.target_rate}"
            )
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {self.parallelism}")


def _write_text(path: Path, text: str) -> None:
    with open_atomic(path) as fh:
        fh.write(text)


def _load_speakers(manifest_path: Path) -> list[SpeakerSpec] | None:
    try:
        return load_manifest(manifest_path)
    except (OSError, ConfigError) as exc:
        logger.error("cannot load manifest: %s", exc)
        return None


def _prepare_speaker(
    spec: SpeakerSpec, output_dir: Path, svg: bool
) -> tuple[SpeakerAnatomy | None, int]:
    """Derive and write one speaker's anatomy (JSON, and SVG if asked).

    Returns the anatomy, or None with the exit code its failure forces.
    """
    try:
        palate = parse_trace_file(spec.palate_path, "palate")
        wall = parse_trace_file(spec.posterior_wall_path, "wall")
        anat = build_speaker_anatomy(
            spec.speaker_id,
            palate,
            wall,
            spec.sex,
            thickness_mm=spec.thickness_mm,
        )
    except OSError as exc:
        logger.error("speaker %s: cannot read traces: %s", spec.speaker_id, exc)
        return None, EXIT_CONFIG
    except DataError as exc:
        logger.error("speaker %s: anatomy failed: %s", spec.speaker_id, exc)
        return None, EXIT_DATA
    write_anatomy_json(anat, output_dir / f"{spec.speaker_id}.anatomy.json")
    if svg:
        _write_text(output_dir / f"{spec.speaker_id}.anatomy.svg", anatomy_svg(anat))
    return anat, EXIT_OK


def _process_utterance(
    spec: SpeakerSpec,
    anat: SpeakerAnatomy,
    utterance_path: Path,
    config: RunConfig,
) -> Path:
    trajectory, report = parse_pellet_file(
        utterance_path, speaker_id=spec.speaker_id
    )
    uniform = resample(trajectory, config.target_rate, report)
    tvs = compute_trajectory(uniform, anat, clamp_tbcd=config.clamp_tbcd)
    out_csv = config.output_dir / f"{utterance_path.stem}.tv.csv"
    write_tv_csv(tvs, out_csv, degrees=config.degrees)
    if config.plots:
        _write_text(
            config.output_dir / f"{utterance_path.stem}.tvs.svg",
            tv_svg(tvs, degrees=config.degrees),
        )
    logger.info(
        "%s/%s: %d frames in, %d out, %d mistracked, %d pellets interpolated",
        spec.speaker_id,
        utterance_path.stem,
        report.frames_read,
        len(tvs),
        report.frames_mistracked,
        report.pellets_interpolated,
    )
    return out_csv


def _attempt_utterance(
    spec: SpeakerSpec,
    anat: SpeakerAnatomy,
    utterance_path: Path,
    config: RunConfig,
) -> int:
    """Process one utterance; EXIT_OK on success, else the code that
    names what went wrong."""
    try:
        _process_utterance(spec, anat, utterance_path, config)
    except DegenerateAngle as exc:
        logger.error(
            "utterance %s: frame %s (t = %r s): %s",
            utterance_path, exc.frame, exc.t, exc,
        )
        return EXIT_DATA
    except OSError as exc:
        logger.error("utterance %s: %s", utterance_path, exc)
        return EXIT_CONFIG
    except DataError as exc:
        logger.error("utterance %s: %s", utterance_path, exc)
        return EXIT_DATA
    return EXIT_OK


def _utterance_jobs(
    speakers: list[SpeakerSpec], config: RunConfig, codes: list[int]
) -> Iterator[tuple[SpeakerSpec, SpeakerAnatomy, Path]]:
    """Yield (spec, anatomy, path) for each utterance, preparing each
    speaker's anatomy when its turn comes and appending its exit code to
    `codes`.  A speaker whose anatomy fails yields nothing."""
    for spec in speakers:
        anat, code = _prepare_speaker(spec, config.output_dir, config.plots)
        codes.append(code)
        if anat is not None:
            for path in spec.utterance_paths:
                yield spec, anat, path


def run_pipeline(config: RunConfig) -> int:
    """Process every speaker and utterance in the manifest.

    Speaker-level anatomy failures skip that speaker's utterances and
    force a nonzero exit.  Individual utterance failures are logged and
    skipped; they only force a nonzero exit when every utterance failed.
    A worker process that dies ends the run with exit 1.
    Exit codes: 0 success, 1 configuration or I/O trouble, 2 bad data.
    """
    speakers = _load_speakers(config.manifest_path)
    if speakers is None:
        return EXIT_CONFIG
    config.output_dir.mkdir(parents=True, exist_ok=True)

    codes = [EXIT_OK]
    jobs = _utterance_jobs(speakers, config, codes)
    workers = min(config.parallelism, sum(len(s.utterance_paths) for s in speakers))
    if workers < 2:
        outcomes = [_attempt_utterance(*job, config) for job in jobs]
    else:
        # Imported here so that serial runs never load them.  Forked
        # workers inherit the loaded modules and the logging setup, where
        # spawned ones would import numpy again each.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else None)
        try:
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                pending = [pool.submit(_attempt_utterance, *job, config) for job in jobs]
                outcomes = [future.result() for future in pending]
        except BrokenProcessPool as exc:
            logger.error("run failed: a worker process died (%s)", exc)
            return EXIT_CONFIG

    # A failed utterance only fails the run through I/O trouble, or when
    # no utterance succeeded at all.
    if EXIT_CONFIG in outcomes:
        codes.append(EXIT_CONFIG)
    if outcomes and EXIT_OK not in outcomes:
        codes.append(EXIT_DATA)
    return max(codes, key=_SEVERITY.__getitem__)


def run_anatomy_only(manifest_path: Path, output_dir: Path) -> int:
    """Derive and write anatomy (JSON plus figure) without utterances."""
    speakers = _load_speakers(manifest_path)
    if speakers is None:
        return EXIT_CONFIG
    output_dir.mkdir(parents=True, exist_ok=True)
    codes = [EXIT_OK]
    codes.extend(_prepare_speaker(spec, output_dir, svg=True)[1] for spec in speakers)
    return max(codes, key=_SEVERITY.__getitem__)
