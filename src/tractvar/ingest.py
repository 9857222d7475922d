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
    ParseError,
)
from .geometry import Polyline
from .tract_variables import PELLET_NAMES, REQUIRED_PELLETS, PelletFrame
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

PELLET_HEADER = ("t", *(f"{name}{axis}" for name in PELLET_NAMES for axis in "xy"))
_PELLET_HEADER_LINE = ",".join(PELLET_HEADER).encode()

TRACE_HEADER = ("x", "y")


@dataclass(slots=True, eq=False)
class PelletTrajectory:
    """One utterance's pellet samples, held as columns.

    `t` has shape (n,) and increases strictly: `parse_pellet_file` and
    `resample` own that, and the constructor checks nothing.  `xy` has
    shape (n, 6, 2): millimeter coordinates in REQUIRED_PELLETS order.
    `valid` has shape (n, 6); positions where it is False must not be
    read.  `frames` presents the same samples as PelletFrame objects,
    built afresh on each use.  Treat the arrays as read-only.
    """

    utterance_id: str
    t: np.ndarray
    xy: np.ndarray
    valid: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    @property
    def frames(self) -> tuple[PelletFrame, ...]:
        return tuple(
            PelletFrame(
                t,
                *map(tuple, pellets),
                valid=frozenset(compress(REQUIRED_PELLETS, flags)),
            )
            for t, pellets, flags in zip(
                self.t.tolist(), self.xy.tolist(), self.valid.tolist()
            )
        )


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
    quoted or padded cells), and the one that raises every
    ParseError: for a bad header, or for the first bad cell in file
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


def parse_pellet_file(path: str | Path) -> tuple[PelletTrajectory, IngestReport]:
    """Read one utterance's pellet CSV.

    Returns the trajectory, whose utterance id is the file stem, plus an
    ingest report.  All eight pellets count toward `frames_mistracked`,
    but the trajectory keeps views of the six REQUIRED_PELLETS only.
    Raises ParseError for a bad header, for malformed rows, non-finite
    values, non-monotone time, fewer than two rows, a time span too
    short for a finite sample rate, or text that is not UTF-8.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        table = load_plain_table(fh, _PELLET_HEADER_LINE, len(PELLET_HEADER))
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
    # Two comparisons rather than `abs`, which would make a float copy of
    # `xy`; the same test, since every value is finite.
    valid = ((xy < SENTINEL_MAGNITUDE) & (xy > -SENTINEL_MAGNITUDE)).all(axis=2)
    span = float(t[-1]) - float(t[0])
    if not math.isfinite((n - 1) / span):
        raise ParseError(
            f"{n - 1} interval(s) over {span!r} s give no finite sample rate", path
        )
    report = IngestReport(n, int(np.count_nonzero(~valid.all(axis=1))))
    kept = len(REQUIRED_PELLETS)
    return PelletTrajectory(path.stem, t, xy[:, :kept], valid[:, :kept]), report


def parse_trace_file(path: str | Path, kind: str) -> Polyline:
    """Read an anatomical trace (kind "palate" or "wall").

    Normalizes orientation (palates descend in x, walls in y), collapses
    exactly repeated consecutive points with a warning, and raises
    DataError when fewer than two distinct points remain or a
    segment is out of floating-point range.
    """
    if kind not in ("palate", "wall"):
        raise ValueError(f"kind must be 'palate' or 'wall', got {kind!r}")
    path = Path(path)
    points: list[tuple[float, float]] = []
    dropped = 0
    for line_no, (x, y) in csv_rows(
        path, TRACE_HEADER, lambda _: "trace header must be 'x,y'"
    ):
        p = (parse_float(x, path, line_no, "x"), parse_float(y, path, line_no, "y"))
        if points and points[-1] == p:
            dropped += 1
            continue
        points.append(p)
    if dropped:
        logger.warning("%s: collapsed %d repeated consecutive point(s)", path, dropped)
    if len(points) < 2:
        raise DataError(f"{path}: fewer than 2 distinct points")
    column, axis = (0, "x") if kind == "palate" else (1, "y")
    if points[0][column] < points[-1][column]:
        points.reverse()
        logger.warning(
            "%s: %s trace was ordered by ascending %s; reversed on load",
            path,
            kind,
            axis,
        )
    try:
        return Polyline(np.array(points))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def resample(
    trajectory: PelletTrajectory,
    target_rate: float = TARGET_RATE_HZ,
    report: IngestReport | None = None,
) -> PelletTrajectory:
    """Resample a trajectory onto a uniform grid at `target_rate`.

    The grid starts exactly at the first input timestamp and steps by
    1/rate computed fresh per sample (no cumulative drift).  It never
    passes the last input timestamp: a last grid time that rounding puts
    just past it is that timestamp instead.  Each pellet coordinate is
    interpolated linearly between its temporally adjacent valid samples;
    an output sample whose enclosing raw interval touches an invalid
    input sample is flagged invalid for that pellet.  Grid points that
    coincide with input timestamps reproduce the input values exactly.

    When `report` is given, its `pellets_interpolated` counter grows by
    the number of pellet samples that were synthesized between input
    timestamps (exact grid hits do not count).

    Raises DataError when the trajectory has fewer than two frames or a
    pellet has fewer than two valid samples, when the grid would have
    more than MAX_GRID_SAMPLES samples, or when its times would not
    increase (a step below the spacing of doubles at t).
    """
    if target_rate <= 0.0 or not math.isfinite(target_rate):
        raise ValueError(f"target rate must be positive, got {target_rate}")
    times = trajectory.t
    n = len(times)
    if n < 2:
        raise DataError(f"need at least 2 frames to resample, got {n}")
    span = float(times[-1]) - float(times[0])  # inf, not a warning, past the range
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
    grid = times[0] + np.arange(count, dtype=np.float64) / target_rate
    # The guard above can keep a last time that rounds just past the take.
    grid[-1] = min(grid[-1], times[-1])
    # Far from t = 0 a step of 1/rate can be below the spacing of doubles.
    stalled = np.flatnonzero(grid[1:] <= grid[:-1])
    if len(stalled):
        raise DataError(
            f"resampling at {target_rate:g} Hz from t = {float(times[0])!r} s "
            f"gives grid times that do not increase at sample {stalled[0] + 1}"
        )

    # Locate each grid time against the raw input grid once; validity
    # contamination is defined on raw intervals regardless of which
    # samples are valid.
    right = np.searchsorted(times, grid, side="left")
    exact = times[right] == grid
    left = np.where(exact, right, right - 1)

    valid = trajectory.valid
    xy = np.empty((count, len(REQUIRED_PELLETS), 2))
    for k, name in enumerate(REQUIRED_PELLETS):
        mask = valid[:, k]
        n_valid = int(np.count_nonzero(mask))
        if n_valid < 2:
            raise DataError(
                f"pellet {name} has {n_valid} valid sample(s), cannot interpolate"
            )
        tv = times[mask]
        xy[:, k, 0] = np.interp(grid, tv, trajectory.xy[mask, k, 0])
        xy[:, k, 1] = np.interp(grid, tv, trajectory.xy[mask, k, 1])
    if report is not None:
        # Over the file's eight pellets: the count perfbench's trace mode checks.
        report.pellets_interpolated += len(PELLET_NAMES) * int(np.count_nonzero(~exact))
    return PelletTrajectory(trajectory.utterance_id, grid, xy, valid[left] & valid[right])


@dataclass(frozen=True)
class SpeakerSpec:
    """One manifest entry, with paths already resolved."""

    speaker_id: str
    sex: Sex
    thickness_mm: float | None
    palate_path: Path
    posterior_wall_path: Path
    utterance_paths: tuple[Path, ...]


def _can_name_a_file(text: str) -> bool:
    """False for a lone surrogate, as JSON allows, or a control character
    (U+0000-U+001F, U+007F), which would split a log line in two."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return all(" " <= c != "\x7f" for c in text)


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
    if (
        speaker_id in (".", "..")
        or any(c in speaker_id for c in "/\\")
        or not _can_name_a_file(speaker_id)
    ):
        raise ConfigError(
            f"speaker_id {speaker_id!r} must be a plain file name: no '/', "
            f"'\\', control character or lone surrogate, and not '.' or '..'"
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
        if not isinstance(value, str) or not value or not _can_name_a_file(value):
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


def load_manifest(path: str | Path) -> list[SpeakerSpec]:
    """Load a speaker manifest (single object or list of objects).

    Raises ConfigError for malformed entries, for a path field that is
    not a non-empty string that can name a file (no control character
    or lone surrogate), and for a speaker id that is not a plain file name.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except RecursionError:
        raise ConfigError(f"{path}: not valid JSON (nested too deeply)") from None
    base = path.parent
    entries = data if isinstance(data, list) else [data]
    if not entries:
        raise ConfigError(f"{path}: manifest lists no speakers")
    speakers = [_speaker_from_mapping(entry, base) for entry in entries]
    return speakers
