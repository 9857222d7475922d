"""File ingestion: pellet trajectories, anatomical traces, manifests.

Pellet files are CSV with the exact header

    t,ULx,ULy,LLx,LLy,T1x,T1y,T2x,T2y,T3x,T3y,T4x,T4y,MNIx,MNIy,MNMx,MNMy

where t is seconds and the coordinates are millimeters.  Mistracked
pellets are encoded by sentinel coordinates of magnitude >= 9.9e5; such a
pellet is carried through as invalid, never interpolated away silently.

Trace files are two-column CSV (header `x,y`).  Palate traces are kept
anterior-to-posterior (descending x) and pharyngeal walls superior-to-
inferior (descending y); files stored the other way around are reversed
on load with a logged warning.

A speaker manifest is a JSON object (or a list of them) with keys
`speaker_id`, `sex` ("F" or "M"), optional `thickness_mm`, `palate`,
`posterior_wall`, and `utterances`; the path values are resolved
relative to the manifest file.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np

from .anatomy import Sex
from .errors import (
    ConfigError,
    DataError,
    DegenerateTrace,
    InsufficientData,
    ParseError,
)
from .geometry import Point2D, Polyline
from .tract_variables import PELLET_NAMES, PelletFrame
from .tvcsv import csv_rows, load_plain_table, parse_float

logger = logging.getLogger(__name__)

# Coordinate magnitude at or above which a pellet sample counts as
# mistracked.
SENTINEL_MAGNITUDE = 9.9e5

# Default output rate (samples per second) for resampling.
TARGET_RATE_HZ = 145.0

# Most samples a resampled grid may have: over 19 hours at 145 Hz, and
# about 2 GB of working arrays.  It is checked before anything is sized
# from the grid, so that a huge rate cannot ask for an impossible array.
MAX_GRID_SAMPLES = 10_000_000

PELLET_HEADER = (
    "t",
    "ULx", "ULy", "LLx", "LLy",
    "T1x", "T1y", "T2x", "T2y", "T3x", "T3y", "T4x", "T4y",
    "MNIx", "MNIy", "MNMx", "MNMy",
)
_PELLET_HEADER_LINE = ",".join(PELLET_HEADER).encode()

TRACE_HEADER = ("x", "y")


class PelletTrajectory:
    """One utterance's pellet samples, held as columns.

    `t` has shape (n,) and increases strictly.  `xy` has shape (n, 8, 2):
    millimeter coordinates of each pellet in PELLET_NAMES order.  `valid`
    has shape (n, 8); positions where it is False must not be read.
    `frames` presents the same samples as PelletFrame objects; it is
    built on first use and cached.  Treat the arrays as read-only.
    """

    __slots__ = ("speaker_id", "utterance_id", "t", "xy", "valid", "native_rate", "_frames")

    def __init__(
        self,
        speaker_id: str,
        utterance_id: str,
        t: np.ndarray,
        xy: np.ndarray,
        valid: np.ndarray,
        native_rate: float,
    ) -> None:
        if native_rate <= 0.0 or not math.isfinite(native_rate):
            raise ValueError(f"native rate must be positive, got {native_rate}")
        backwards = np.flatnonzero(t[1:] <= t[:-1])
        if len(backwards):
            raise ValueError(
                f"timestamps not strictly increasing at frame {backwards[0] + 1}"
            )
        self.speaker_id = speaker_id
        self.utterance_id = utterance_id
        self.t = t
        self.xy = xy
        self.valid = valid
        self.native_rate = native_rate
        self._frames = None

    def __len__(self) -> int:
        return len(self.t)

    @property
    def frames(self) -> tuple[PelletFrame, ...]:
        if self._frames is None:
            self._frames = tuple(
                PelletFrame(
                    t,
                    *(Point2D(x, y) for x, y in pellets),
                    valid=frozenset(compress(PELLET_NAMES, flags)),
                )
                for t, pellets, flags in zip(
                    self.t.tolist(), self.xy.tolist(), self.valid.tolist()
                )
            )
        return self._frames


@dataclass
class IngestReport:
    """Bookkeeping for one ingested utterance."""

    frames_read: int = 0
    frames_mistracked: int = 0
    pellets_interpolated: int = 0


def _pellet_header_problem(header: list[str]) -> str:
    missing = set(PELLET_HEADER) - {h.strip() for h in header}
    detail = f"missing columns {sorted(missing)}" if missing else "bad column order"
    return f"header does not match the pellet schema ({detail})"


def _read_pellet_cells(path: Path) -> np.ndarray:
    """Read a pellet file cell by cell with `csv` and `float`.

    The reference that the fast path of `parse_pellet_file` must agree
    with, the only reader of legal but irregular files (blank lines,
    quoted or padded cells), and the one that raises every SchemaError
    and ParseError: for a bad header, or for the first bad cell in file
    order (a row of the wrong width, a cell that is not a finite number,
    or a time that does not increase).  Text that is not UTF-8 raises
    ParseError too.
    """
    rows: list[list[float]] = []
    prev_t = None
    for line_no, row in csv_rows(path, PELLET_HEADER, _pellet_header_problem):
        t = parse_float(row[0], path, line_no, "t")
        if prev_t is not None and t <= prev_t:
            raise ParseError(
                f"timestamp {t!r} does not increase past {prev_t!r}", path, line_no, "t"
            )
        prev_t = t
        rows.append(
            [t, *(parse_float(token, path, line_no, column)
                  for column, token in zip(PELLET_HEADER[1:], row[1:]))]
        )
    return np.array(rows, dtype=np.float64).reshape(-1, len(PELLET_HEADER))


def parse_pellet_file(
    path: str | Path, *, speaker_id: str = ""
) -> tuple[PelletTrajectory, IngestReport]:
    """Read one utterance's pellet CSV.

    Returns the trajectory, whose utterance id is the file stem, plus an
    ingest report.  Raises SchemaError for
    a bad header and ParseError for malformed rows, non-finite values,
    non-monotone time, fewer than two rows, a time span too short for a
    finite sample rate, or text that is not UTF-8.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        table = load_plain_table(fh.read(), _PELLET_HEADER_LINE, len(PELLET_HEADER))
    # Whatever the fast path cannot take, or takes but finds bad, is read
    # cell by cell, which raises for the first bad cell in file order.
    if (
        table is None
        or not np.isfinite(table).all()
        or (table[1:, 0] <= table[:-1, 0]).any()
    ):
        table = _read_pellet_cells(path)
    n = len(table)
    if n < 2:
        raise ParseError(f"need at least 2 rows, got {n}", path)
    t = table[:, 0]
    xy = table[:, 1:].reshape(n, len(PELLET_NAMES), 2)
    valid = (np.abs(xy) < SENTINEL_MAGNITUDE).all(axis=2)
    report = IngestReport(
        frames_read=n,
        frames_mistracked=int(np.count_nonzero(~valid.all(axis=1))),
    )
    span = float(t[-1]) - float(t[0])
    native_rate = (n - 1) / span
    if not math.isfinite(native_rate):
        raise ParseError(
            f"{n - 1} interval(s) over {span!r} s give no finite sample rate", path
        )
    trajectory = PelletTrajectory(speaker_id, path.stem, t, xy, valid, native_rate)
    return trajectory, report


def parse_trace_file(path: str | Path, kind: str) -> Polyline:
    """Read an anatomical trace (kind "palate" or "wall").

    Normalizes orientation (palates descend in x, walls in y), collapses
    exactly repeated consecutive points with a warning, and raises
    DegenerateTrace when fewer than two distinct points remain or a
    segment is out of floating-point range.
    """
    if kind not in ("palate", "wall"):
        raise ValueError(f"kind must be 'palate' or 'wall', got {kind!r}")
    path = Path(path)
    points: list[Point2D] = []
    dropped = 0
    for line_no, (x, y) in csv_rows(
        path, TRACE_HEADER, lambda _: "trace header must be 'x,y'"
    ):
        p = Point2D(parse_float(x, path, line_no, "x"), parse_float(y, path, line_no, "y"))
        if points and points[-1] == p:
            dropped += 1
            continue
        points.append(p)
    if dropped:
        logger.warning("%s: collapsed %d repeated consecutive point(s)", path, dropped)
    if len(points) < 2:
        raise DegenerateTrace(f"{path}: fewer than 2 distinct points")
    if kind == "palate":
        ascending = points[0].x < points[-1].x
        axis = "x"
    else:
        ascending = points[0].y < points[-1].y
        axis = "y"
    if ascending:
        points.reverse()
        logger.warning(
            "%s: %s trace was ordered by ascending %s; reversed on load",
            path,
            kind,
            axis,
        )
    try:
        return Polyline(points)
    except DegenerateTrace as exc:
        raise DegenerateTrace(f"{path}: {exc}") from None


def resample(
    trajectory: PelletTrajectory,
    target_rate: float = TARGET_RATE_HZ,
    report: IngestReport | None = None,
) -> PelletTrajectory:
    """Resample a trajectory onto a uniform grid at `target_rate`.

    The grid starts exactly at the first input timestamp and steps by
    1/rate computed fresh per sample (no cumulative drift).  Each pellet
    coordinate is interpolated linearly between its temporally adjacent
    valid samples; an output sample whose enclosing raw interval touches
    an invalid input sample is flagged invalid for that pellet.  Grid
    points that coincide with input timestamps reproduce the input values
    exactly.

    When `report` is given, its `pellets_interpolated` counter grows by
    the number of pellet samples that were synthesized between input
    timestamps (exact grid hits do not count).

    Raises InsufficientData when the trajectory has fewer than two frames
    or some pellet has fewer than two valid samples, and DataError when
    the grid would have more than MAX_GRID_SAMPLES samples.
    """
    if target_rate <= 0.0 or not math.isfinite(target_rate):
        raise ValueError(f"target rate must be positive, got {target_rate}")
    times = trajectory.t
    n = len(times)
    if n < 2:
        raise InsufficientData(f"need at least 2 frames to resample, got {n}")
    span = float(times[-1] - times[0])
    # Intervals in the grid before flooring, as a float: a huge rate makes
    # it inf, which `math.floor` cannot take.
    intervals = span * target_rate + 1e-9
    if intervals >= MAX_GRID_SAMPLES:
        raise DataError(
            f"resampling {span:g} s at {target_rate:g} Hz "
            f"needs a grid of {intervals + 1.0:.4g} samples, more than the "
            f"limit of {MAX_GRID_SAMPLES:,}"
        )
    count = int(math.floor(intervals)) + 1
    steps = np.arange(count, dtype=np.float64)
    grid = times[0] + steps / target_rate

    # Locate each grid time against the raw input grid once; validity
    # contamination is defined on raw intervals regardless of which
    # samples are valid.
    right = np.searchsorted(times, grid, side="left")
    right = np.clip(right, 0, n - 1)
    exact = times[right] == grid
    left = np.where(exact, right, np.maximum(right - 1, 0))

    valid = trajectory.valid
    xy = np.empty((count, len(PELLET_NAMES), 2))
    for k, name in enumerate(PELLET_NAMES):
        mask = valid[:, k]
        n_valid = int(np.count_nonzero(mask))
        if n_valid < 2:
            raise InsufficientData(
                f"pellet {name} has {n_valid} valid sample(s), cannot interpolate"
            )
        tv = times[mask]
        xy[:, k, 0] = np.interp(grid, tv, trajectory.xy[mask, k, 0])
        xy[:, k, 1] = np.interp(grid, tv, trajectory.xy[mask, k, 1])
    if report is not None:
        report.pellets_interpolated += len(PELLET_NAMES) * int(
            np.count_nonzero(~exact)
        )
    return PelletTrajectory(
        trajectory.speaker_id,
        trajectory.utterance_id,
        grid,
        xy,
        valid[left] & valid[right],
        target_rate,
    )


@dataclass(frozen=True)
class SpeakerSpec:
    """One manifest entry, with paths already resolved."""

    speaker_id: str
    sex: Sex
    thickness_mm: float | None
    palate_path: Path
    posterior_wall_path: Path
    utterance_paths: tuple[Path, ...]


def _speaker_from_mapping(entry: object, base: Path) -> SpeakerSpec:
    if not isinstance(entry, dict):
        raise ConfigError(f"manifest entry must be an object, got {type(entry).__name__}")
    try:
        speaker_id = entry["speaker_id"]
        sex_code = entry["sex"]
        palate = entry["palate"]
        wall = entry["posterior_wall"]
        utterances = entry["utterances"]
    except KeyError as exc:
        raise ConfigError(f"manifest entry is missing key {exc}") from exc
    if not isinstance(speaker_id, str) or not speaker_id:
        raise ConfigError("speaker_id must be a non-empty string")
    # Outputs are named after the id, so it must be one plain file name.
    if speaker_id in (".", "..") or any(c in speaker_id for c in "/\\\0"):
        raise ConfigError(
            f"speaker_id {speaker_id!r} must be a plain file name: no '/', "
            f"'\\' or NUL, and not '.' or '..'"
        )
    try:
        sex = Sex(sex_code)
    except ValueError:
        raise ConfigError(
            f"speaker {speaker_id}: sex must be 'F' or 'M', got {sex_code!r}"
        ) from None
    thickness = entry.get("thickness_mm")
    if thickness is not None:
        # bool is an int subclass, and JSON admits NaN and overflowing
        # literals; none of them is a thickness.
        if (
            isinstance(thickness, bool)
            or not isinstance(thickness, (int, float))
            or not 0.0 < thickness <= sys.float_info.max
        ):
            raise ConfigError(
                f"speaker {speaker_id}: thickness_mm must be a positive finite "
                f"number, got {thickness!r}"
            )
        thickness = float(thickness)
    if not isinstance(utterances, list):
        raise ConfigError(f"speaker {speaker_id}: utterances must be a list of paths")

    def path_of(key: str, value: object) -> Path:
        if not isinstance(value, str) or not value:
            raise ConfigError(
                f"speaker {speaker_id}: {key} must be a non-empty path string, "
                f"got {value!r}"
            )
        return base / value

    return SpeakerSpec(
        speaker_id=speaker_id,
        sex=sex,
        thickness_mm=thickness,
        palate_path=path_of("palate", palate),
        posterior_wall_path=path_of("posterior_wall", wall),
        utterance_paths=tuple(
            path_of(f"utterances[{k}]", u) for k, u in enumerate(utterances)
        ),
    )


def _reject_duplicates(path: Path, speakers: list[SpeakerSpec]) -> None:
    """Outputs are named by speaker id and by utterance file stem, flat in
    one directory, so each must be unique across the manifest."""
    speaker_ids: set[str] = set()
    stems: dict[str, Path] = {}
    for spec in speakers:
        if spec.speaker_id in speaker_ids:
            raise ConfigError(f"{path}: speaker_id {spec.speaker_id!r} is listed twice")
        speaker_ids.add(spec.speaker_id)
        for utterance in spec.utterance_paths:
            if utterance.stem in stems:
                raise ConfigError(
                    f"{path}: utterances {stems[utterance.stem]} and {utterance} "
                    f"share the file stem {utterance.stem!r}, so their outputs "
                    f"would collide"
                )
            stems[utterance.stem] = utterance


def load_manifest(path: str | Path) -> list[SpeakerSpec]:
    """Load a speaker manifest (single object or list of objects).

    Raises ConfigError for malformed entries, for a path field that is
    not a non-empty string, for a speaker id that is not a plain file
    name, and when two speakers share an id or two utterance files share
    a stem, since either would make one output overwrite another.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    base = path.parent
    entries = data if isinstance(data, list) else [data]
    if not entries:
        raise ConfigError(f"{path}: manifest lists no speakers")
    speakers = [_speaker_from_mapping(entry, base) for entry in entries]
    _reject_duplicates(path, speakers)
    return speakers
