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
import os
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


def _write_text(path: Path, text: str) -> None:
    with open_atomic(path) as fh:
        fh.write(text)


def _anatomy_outputs(spec: SpeakerSpec, output_dir: Path) -> list[Path]:
    """Where one speaker's anatomy JSON and SVG go."""
    return [output_dir / f"{spec.speaker_id}.anatomy.{ext}" for ext in ("json", "svg")]


def _utterance_outputs(utterance_path: Path, output_dir: Path) -> list[Path]:
    """Where one utterance's TV CSV and SVG go."""
    return [output_dir / f"{utterance_path.stem}.{ext}" for ext in ("tv.csv", "tvs.svg")]


def _realpath(path: Path, dirs: dict[str, str]) -> str:
    """`os.path.realpath(path)`, resolving each parent directory once."""
    head, name = os.path.split(path)
    if head not in dirs:
        dirs[head] = os.path.realpath(head)
    real = os.path.join(dirs[head], name)
    return os.path.realpath(real) if os.path.islink(real) else real


def _load_speakers(
    manifest_path: Path, output_dir: Path, svg: bool, utterances: bool
) -> list[SpeakerSpec] | None:
    """Load the manifest, or log why not and return None.  Before anything
    is written, a manifest is refused when a planned output resolves to
    one of its inputs: the manifest, a trace or an utterance."""
    try:
        speakers = load_manifest(manifest_path)
    except (OSError, ConfigError) as exc:
        logger.error("cannot load manifest: %s", exc)
        return None
    dirs: dict[str, str] = {}
    inputs = {_realpath(manifest_path, dirs): manifest_path}
    outputs: list[Path] = []
    for spec in speakers:
        for path in (spec.palate_path, spec.posterior_wall_path, *spec.utterance_paths):
            inputs.setdefault(_realpath(path, dirs), path)
        outputs += _anatomy_outputs(spec, output_dir)[: 2 if svg else 1]
        for path in spec.utterance_paths if utterances else ():
            outputs += _utterance_outputs(path, output_dir)[: 2 if svg else 1]
    for output in outputs:
        clobbered = inputs.get(_realpath(output, dirs))
        if clobbered is not None:
            logger.error("output %s would overwrite input %s", output, clobbered)
            return None
    return speakers


def _prepare_speaker(
    spec: SpeakerSpec, output_dir: Path, svg: bool
) -> tuple[SpeakerAnatomy | None, int]:
    """Derive and write one speaker's anatomy (JSON, and SVG if asked).

    Returns the anatomy, or None with the exit code its failure forces.
    """
    try:
        palate = parse_trace_file(spec.palate_path, "palate")
        wall = parse_trace_file(spec.posterior_wall_path, "wall")
    except OSError as exc:
        logger.error("speaker %s: cannot read traces: %s", spec.speaker_id, exc)
        return None, EXIT_CONFIG
    except DataError as exc:
        logger.error("speaker %s: anatomy failed: %s", spec.speaker_id, exc)
        return None, EXIT_DATA
    try:
        anat = build_speaker_anatomy(
            spec.speaker_id, palate, wall, spec.sex, thickness_mm=spec.thickness_mm
        )
    except DataError as exc:
        # The message already names the speaker.
        logger.error("%s", exc)
        return None, EXIT_DATA
    json_path, svg_path = _anatomy_outputs(spec, output_dir)
    write_anatomy_json(anat, json_path)
    if svg:
        _write_text(svg_path, anatomy_svg(anat))
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
    out_csv, out_svg = _utterance_outputs(utterance_path, config.output_dir)
    write_tv_csv(tvs, out_csv, degrees=config.degrees)
    if config.plots:
        _write_text(out_svg, tv_svg(tvs, degrees=config.degrees))
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
    speakers = _load_speakers(
        config.manifest_path, config.output_dir, config.plots, utterances=True
    )
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
    speakers = _load_speakers(manifest_path, output_dir, svg=True, utterances=False)
    if speakers is None:
        return EXIT_CONFIG
    output_dir.mkdir(parents=True, exist_ok=True)
    codes = [EXIT_OK]
    codes.extend(_prepare_speaker(spec, output_dir, svg=True)[1] for spec in speakers)
    return max(codes, key=_SEVERITY.__getitem__)
