"""Reading and writing tract-variable CSV files and anatomy JSON.

A TV file has the header `t,LA,LP,TBCL,TBCD,TTCL,TTCD,quality`.  Frames
whose quality is not Ok leave their absent variables as empty cells.
Values are written with shortest round-trip repr so files re-read
bit-exactly.  Angles are stored in radians unless a writer is asked for
degrees; readers do not convert.

Every writer here replaces its target atomically: an interrupted or
failed write leaves either the old file or none, never a truncated one.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .anatomy import SpeakerAnatomy
from .errors import ParseError, SchemaError
from .geometry import Polyline
from .tract_variables import QUALITIES, TV_NAMES, TvTrajectory

TV_HEADER = ("t", *TV_NAMES, "quality")
ANGLE_NAMES = frozenset(("TBCL", "TTCL"))


@contextmanager
def open_atomic(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open `path` for writing text through a temporary file beside it.

    The temporary file replaces `path` only when the block completes; if
    the block raises, it is removed and `path` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_tv_csv(
    trajectory: TvTrajectory, path: str | Path, degrees: bool = False
) -> None:
    """Write one utterance's tract variables."""
    columns = trajectory.values.T.tolist()
    if degrees:
        for k, name in enumerate(TV_NAMES):
            if name in ANGLE_NAMES:
                columns[k] = [math.degrees(v) for v in columns[k]]
    labels = [q.value for q in QUALITIES]
    rows = zip(trajectory.t.tolist(), *columns, trajectory.quality.tolist())
    with open_atomic(path, newline="") as fh:
        fh.write(",".join(TV_HEADER) + "\r\n")
        for t, *values, quality in rows:
            cells = [repr(v) if v == v else "" for v in values]
            fh.write(f"{t!r},{','.join(cells)},{labels[quality]}\r\n")


def read_tv_csv(
    path: str | Path,
) -> tuple[np.ndarray, dict[str, list[float | None]], list[str]]:
    """Read a TV file into (times, column values, quality strings).

    No unit conversion happens here; values come back as stored.
    """
    path = Path(path)
    times: list[float] = []
    columns: dict[str, list[float | None]] = {name: [] for name in TV_NAMES}
    quality: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        if tuple(h.strip() for h in header) != TV_HEADER:
            raise SchemaError(f"{path}: header does not match the TV schema")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TV_HEADER):
                raise ParseError(
                    f"expected {len(TV_HEADER)} fields, got {len(row)}", path, line_no
                )
            try:
                times.append(float(row[0]))
            except ValueError as exc:
                raise ParseError(f"bad timestamp {row[0]!r}", path, line_no, "t") from exc
            for k, name in enumerate(TV_NAMES, start=1):
                token = row[k].strip()
                if not token:
                    columns[name].append(None)
                    continue
                try:
                    columns[name].append(float(token))
                except ValueError as exc:
                    raise ParseError(
                        f"bad value {token!r}", path, line_no, name
                    ) from exc
            quality.append(row[7].strip())
    return np.array(times, dtype=np.float64), columns, quality


def _trace_to_list(trace: Polyline) -> list[list[float]]:
    return [[p.x, p.y] for p in trace.points]


def write_anatomy_json(anat: SpeakerAnatomy, path: str | Path) -> None:
    """Write the derived anatomy bundle for one speaker."""
    payload = {
        "speaker_id": anat.speaker_id,
        "sex": anat.sex.value,
        "thickness_mm": anat.thickness_mm,
        "palate": _trace_to_list(anat.palate),
        "posterior_wall": _trace_to_list(anat.posterior_wall),
        "anterior_wall": _trace_to_list(anat.anterior_wall),
        "extended_palate": _trace_to_list(anat.extended_palate),
        "reference_center": [anat.reference_center.x, anat.reference_center.y],
    }
    with open_atomic(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
