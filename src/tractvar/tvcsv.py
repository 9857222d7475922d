"""Reading and writing tract-variable CSV files and anatomy JSON.

A TV file has the header `t,LA,LP,TBCL,TBCD,TTCL,TTCD,quality`; its last
cell spells the frame's quality code as its entry of QUALITY_LABELS.
Frames whose quality is not Ok leave their absent variables empty.
Values are written with shortest round-trip repr so files re-read
bit-exactly.  Angles are stored in radians unless a writer is asked for
degrees; readers do not convert.

`write_atomic` writes every output: an interrupted or failed write leaves
the old file or none, never a truncated one, and its error names the output.
The TV reader rejects a malformed file with a ParseError naming its
line and column.  `csv_rows` and `parse_float` give the TV, pellet and
trace readers one set of file, header, row and cell checks, and
`load_plain_table` gives the TV and pellet readers one fast path.  It
reads an open file in blocks and hands the same handle to `np.loadtxt`,
so a pellet file's bytes are never held whole: parsing one peaks at
about 1.2 to 1.4 times the arrays it returns.
"""

from __future__ import annotations

import csv
import errno
import io
import json
import math
import os
import re
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .anatomy import SpeakerAnatomy
from .errors import ParseError
from .tract_variables import OK, QUALITY_LABELS, TV_NAMES, TvTrajectory

TV_HEADER = ("t", *TV_NAMES, "quality")
ANGLE_NAMES = frozenset(("TBCL", "TTCL"))


def write_atomic(path: str | Path, parts: Iterable[str]) -> None:
    """Write `parts` to `path` as UTF-8 text, with no newline translation,
    through a temporary file beside it that replaces `path` once every
    part is written.  If anything fails, a part included, the temporary
    file is removed and `path` is left as it was.  A path without a final
    name, such as "" or ".", is a directory.  An OSError from creating,
    writing or renaming the file names `path`, never the temporary file.
    """
    path = Path(path)
    if not path.name:
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    name, suffix = path.name, f".{os.getpid()}.tmp"
    if len(os.fsencode(name)) > 64:
        # Cut by what the temporary name adds, so that it fits where this does.
        name = name[: -len(suffix) - 1]
    tmp = path.with_name(f".{name}{suffix}")
    try:
        # Opened outside the cleanup, whose unlink could hide why this failed.
        fh = open(tmp, "w", newline="", encoding="utf-8")
        try:
            with fh:
                fh.writelines(parts)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        # The temporary name is ours; the caller asked for `path`.
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def write_tv_csv(
    trajectory: TvTrajectory, path: str | Path, degrees: bool = False
) -> None:
    """Write one utterance's tract variables."""
    columns = trajectory.values.T.tolist()
    if degrees:
        for k, name in enumerate(TV_NAMES):
            if name in ANGLE_NAMES:
                # Past the float range this gives inf silently, as math.degrees does.
                with np.errstate(over="ignore"):
                    columns[k] = np.degrees(trajectory.values[:, k]).tolist()
    rows = zip(trajectory.t.tolist(), *columns, trajectory.quality.tolist())

    def lines() -> Iterator[str]:
        yield ",".join(TV_HEADER) + "\r\n"
        for t, *values, quality in rows:
            cells = [repr(v) if v == v else "" for v in values]
            yield f"{t!r},{','.join(cells)},{QUALITY_LABELS[quality]}\r\n"

    write_atomic(path, lines())


_TV_HEADER_LINE = ",".join(TV_HEADER).encode()
# `load_plain_table` parses only bodies spelled from these bytes (plus
# the letters a caller adds): digits, signs, points, commas, line ends
# and the `e` of exponents.  On them `np.loadtxt` splits rows and cells
# as `csv` does, or raises, and converts cells with the same
# decimal-to-double routine as `float`.  Elsewhere they differ (loadtxt
# reads `1.5\x1f`, which `float` rejects), so quotes, padding,
# underscores, control characters and non-ASCII text go to the caller's
# per-cell reader.
_PLAIN_BYTES = b"0123456789+-.,e\r\n"
# How much of a body `load_plain_table` holds at once while checking it.
_BLOCK_BYTES = 1 << 16
# A comma before an empty cell.  The lookahead leaves the next comma
# unmatched, so one pass fills a run of empty cells.
_EMPTY_CELL = re.compile(rb",(?=,)")


def csv_rows(
    path: Path, header: tuple[str, ...], bad_header: Callable[[list[str]], str]
) -> Iterator[tuple[int, list[str]]]:
    """Yield `(line, cells)` for each non-blank row after the header of a
    UTF-8 CSV file, where `line` counts CSV records, the header being 1.

    Raises ParseError for an empty file, and for a header that differs
    from `header` after stripping each name, with the message
    `bad_header` gives for its cells.  Raises ParseError for a row whose
    width is not the header's, for bytes that are not UTF-8, and for
    text that `csv` cannot split (such as a cell longer than its field
    size limit), each when the row is read.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise ParseError("empty file", path)
            if tuple(h.strip() for h in first) != header:
                raise ParseError(bad_header(first), path)
            for line, cells in enumerate(reader, start=2):
                if not cells:
                    continue
                if len(cells) != len(header):
                    raise ParseError(
                        f"expected {len(header)} fields, got {len(cells)}", path, line
                    )
                yield line, cells
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason})", path) from None
        except csv.Error as exc:
            raise ParseError(f"malformed CSV ({exc})", path, reader.line_num) from None


def parse_float(token: str, path: Path, line: int, column: str) -> float:
    """Parse one CSV cell as a finite float, or raise ParseError there."""
    try:
        value = float(token)
    except ValueError as exc:
        raise ParseError(
            f"cannot parse {token!r} as a number", path, line, column
        ) from exc
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {token!r}", path, line, column)
    return value


def read_tv_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a TV file into the columns a TvTrajectory holds.

    Returns `t` (n,), `values` (n, 6) in TV_NAMES order with NaN for an
    empty cell, and int8 `quality` codes into QUALITY_LABELS.  No unit
    conversion happens here; values come back as stored, and times are
    not checked against a uniform grid.

    Raises ParseError for a bad header, and with line and column for a
    row without 8 fields, a cell that is not a finite number, an unknown
    quality label, an empty cell in an Ok frame, or text that is not
    UTF-8.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        columns = _parse_regular_tv(fh.read())
    return columns if columns is not None else _read_tv_cells(path)


def load_plain_table(
    fh: BinaryIO, header: bytes, width: int, letters: bytes = b"", converters=None
) -> np.ndarray | None:
    """Parse the rows of a CSV file, open for binary reading at its
    start, with one `np.loadtxt` call.

    The header line and the spelling of the body are checked while
    reading the file in blocks of `_BLOCK_BYTES`; then the handle is
    sought back to just after the header and given to `np.loadtxt`
    itself, so no copy of the body is ever made.

    Returns the (n, width) table, or None, for the caller's per-cell
    reader to read the file, when the first line is not exactly `header`
    (with or without `\r`), the body holds a byte other than the plain
    ones and `letters` or no row (loadtxt warns on empty input), or
    loadtxt rejects it or finds another width.
    """
    if fh.readline(len(header) + 2) not in (header + b"\n", header + b"\r\n"):
        return None
    body = fh.tell()
    allowed = _PLAIN_BYTES + letters
    has_row = False
    while block := fh.read(_BLOCK_BYTES):
        if block.translate(None, allowed):
            return None
        has_row = has_row or bool(block.strip(b"\r\n"))
    if not has_row:
        return None
    fh.seek(body)
    try:
        table = np.loadtxt(
            fh,
            delimiter=",",
            comments=None,
            ndmin=2,
            encoding="ascii",
            converters=converters,
        )
    except ValueError:
        return None
    return table if table.shape[1] == width else None


def _parse_regular_tv(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Parse a TV file with `load_plain_table`, or return None when the
    file is not spelled plainly enough for that to agree with
    `_read_tv_cells`, which then reads it (and raises, if it is bad)."""
    # Empty cells become `nan`, whose letters the labels already allow.
    filled = _EMPTY_CELL.sub(b",nan", data)
    n_empty = (len(filled) - len(data)) // 3
    label_column = len(TV_HEADER) - 1
    table = load_plain_table(
        io.BytesIO(filled),
        _TV_HEADER_LINE,
        len(TV_HEADER),
        letters="".join(QUALITY_LABELS).encode(),
        converters={label_column: QUALITY_LABELS.index},
    )
    if table is None:
        return None
    numbers = table[:, :label_column]
    quality = table[:, label_column].astype(np.int8)
    # Every NaN must be a filled empty cell: no `nan` token, no overflow to
    # inf, and no empty cell in an Ok frame.
    if (
        np.count_nonzero(~np.isfinite(numbers)) != n_empty
        or np.isnan(numbers[quality == OK]).any()
    ):
        return None
    return numbers[:, 0], numbers[:, 1:], quality


def _read_tv_cells(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a TV file cell by cell with `csv` and `float`.

    The reference that `_parse_regular_tv` must agree with, the only
    reader of legal but irregular files (blank lines, quoted or padded
    cells), and the one that raises every ParseError, for the first bad
    cell in file order.
    """
    times: list[float] = []
    values: list[float] = []
    quality: list[int] = []
    rows = csv_rows(path, TV_HEADER, lambda _: "header does not match the TV schema")
    for line_no, row in rows:
        times.append(parse_float(row[0], path, line_no, "t"))
        empty = []
        for name, token in zip(TV_NAMES, row[1:]):
            token = token.strip()
            if token:
                values.append(parse_float(token, path, line_no, name))
            else:
                values.append(math.nan)
                empty.append(name)
        label = row[-1].strip()
        if label not in QUALITY_LABELS:
            raise ParseError(f"unknown quality label {label!r}", path, line_no, "quality")
        if empty and label == QUALITY_LABELS[OK]:
            raise ParseError("empty cell in an Ok frame", path, line_no, empty[0])
        quality.append(QUALITY_LABELS.index(label))
    return (
        np.array(times, dtype=np.float64),
        np.array(values, dtype=np.float64).reshape(-1, len(TV_NAMES)),
        np.array(quality, dtype=np.int8),
    )


def write_anatomy_json(anat: SpeakerAnatomy, path: str | Path) -> None:
    """Write the derived anatomy bundle for one speaker."""
    payload = {
        "speaker_id": anat.speaker_id,
        "sex": anat.sex.value,
        "thickness_mm": anat.thickness_mm,
        "palate": anat.palate.xy.tolist(),
        "posterior_wall": anat.posterior_wall.xy.tolist(),
        "anterior_wall": anat.anterior_wall.xy.tolist(),
        "extended_palate": anat.extended_palate.xy.tolist(),
        "reference_center": list(anat.reference_center),
    }
    write_atomic(path, [json.dumps(payload, indent=2, sort_keys=True), "\n"])
