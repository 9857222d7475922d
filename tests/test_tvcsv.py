"""Tests for the TV CSV codec: the fast reader against the per-cell
reference, the rejections both make, the writer round trip, the row
checks that the TV, pellet and trace readers share, and the degrees
writer against `math.degrees` per value."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from tractvar.errors import ParseError, TractvarError
from tractvar.ingest import PELLET_HEADER, TRACE_HEADER, parse_pellet_file, parse_trace_file
from tractvar.tract_variables import QUALITIES, Quality, TvTrajectory
from tractvar.tvcsv import (
    ANGLE_NAMES,
    TV_HEADER,
    TV_NAMES,
    _parse_regular_tv,
    _read_tv_cells,
    load_plain_table,
    read_tv_csv,
    write_tv_csv,
)

from reference import points

OK = QUALITIES.index(Quality.OK)
MISSING = QUALITIES.index(Quality.MISSING_PELLET)
DEGENERATE = QUALITIES.index(Quality.DEGENERATE_TONGUE)
HEADER = ",".join(TV_HEADER)


def sample_trajectory(n=6):
    """Frames 1 and 4, where present, are not Ok and leave some cells
    empty (lines 3 and 6 of the file)."""
    rng = np.random.default_rng(5)
    values = rng.normal(scale=20.0, size=(n, 6))
    quality = np.full(n, OK, dtype=np.int8)
    quality[1:2] = MISSING
    values[1:2, :2] = math.nan
    quality[4:5] = DEGENERATE
    values[4:5, 2:] = math.nan
    return TvTrajectory(np.arange(n) / 145.0, values, quality)


def outcome(read, path):
    try:
        t, values, quality = read(path)
    except TractvarError as exc:
        return type(exc), str(exc)
    return "ok", t.tobytes(), values.tobytes(), quality.tobytes(), quality.dtype


class TestReadTvCsv:
    def test_writer_output_takes_the_fast_path(self, tmp_path):
        path = tmp_path / "utt.tv.csv"
        trajectory = sample_trajectory()
        write_tv_csv(trajectory, path)
        fast = _parse_regular_tv(path.read_bytes())
        assert fast is not None
        assert outcome(lambda p: fast, path) == outcome(_read_tv_cells, path)
        t, values, quality = read_tv_csv(path)
        assert t.tobytes() == trajectory.t.tobytes()
        assert values.tobytes() == trajectory.values.tobytes()
        assert quality.dtype == np.int8
        assert quality.tolist() == trajectory.quality.tolist()

    def write_with_cells(self, tmp_path, line, **cells):
        path = tmp_path / "utt.tv.csv"
        write_tv_csv(sample_trajectory(), path)
        lines = path.read_text().splitlines()
        fields = lines[line - 1].split(",")
        for column, token in cells.items():
            fields[TV_HEADER.index(column)] = token
        lines[line - 1] = ",".join(fields)
        path.write_text("\r\n".join(lines) + "\r\n")
        return path

    @pytest.mark.parametrize(
        "line, column, token, message",
        [
            (4, "LA", "nan", "non-finite value 'nan'"),
            (5, "TTCD", "-inf", "non-finite value '-inf'"),
            (2, "LP", "1e999", "non-finite value '1e999'"),
            (4, "LA", "", "empty cell in an Ok frame"),
            (7, "TBCD", "", "empty cell in an Ok frame"),
            (4, "quality", "OK", "unknown quality label 'OK'"),
            (6, "quality", "", "unknown quality label ''"),
            (2, "t", "x", "cannot parse 'x' as a number"),
        ],
    )
    def test_bad_cell_is_parse_error_with_line_and_column(
        self, tmp_path, line, column, token, message
    ):
        path = self.write_with_cells(tmp_path, line, **{column: token})
        with pytest.raises(ParseError) as excinfo:
            read_tv_csv(path)
        assert str(excinfo.value) == f"{path}:{line} ({column}): {message}"

    def test_empty_cell_in_a_non_ok_frame_is_nan(self, tmp_path):
        path = self.write_with_cells(tmp_path, 4, LA="", quality="MissingPellet")
        assert _parse_regular_tv(path.read_bytes()) is not None
        _, values, quality = read_tv_csv(path)
        assert math.isnan(values[2, 0])
        assert quality[2] == MISSING

    @pytest.mark.parametrize("row", ["0.0,1,2,3,4,5,6", "0.0,1,2,3,4,5,6,Ok,"])
    def test_row_without_eight_fields(self, tmp_path, row):
        path = tmp_path / "utt.tv.csv"
        path.write_text(f"{HEADER}\r\n{row}\r\n")
        with pytest.raises(ParseError, match=r"utt\.tv\.csv:2: expected 8 fields"):
            read_tv_csv(path)

    def test_bad_header_is_schema_error(self, tmp_path):
        path = tmp_path / "utt.tv.csv"
        path.write_text("t,LA\r\n0.0,1.0\r\n")
        with pytest.raises(ParseError) as excinfo:
            read_tv_csv(path)
        assert str(excinfo.value) == f"{path}: header does not match the TV schema"

    def test_not_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "utt.tv.csv"
        write_tv_csv(sample_trajectory(), path)
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe")
        with pytest.raises(ParseError, match="not UTF-8"):
            read_tv_csv(path)

    @pytest.mark.parametrize(
        "token", ['"' + "x" * 200_000 + '"', "1" * 200_000], ids=["quoted", "digits"]
    )
    def test_cell_over_csv_field_limit_is_parse_error(self, tmp_path, token):
        # The digits pass the fast reader's byte filter and parse to inf,
        # so both cells end in the per-cell reader's `csv.reader`.
        path = self.write_with_cells(tmp_path, 4, LA=token)
        with pytest.raises(ParseError) as excinfo:
            read_tv_csv(path)
        assert str(excinfo.value) == (
            f"{path}:4: malformed CSV (field larger than field limit (131072))"
        )


# Edits that make a TV file irregular or bad.  Each is applied to one
# cell or line of a valid file; together they cover every rule on which
# `np.loadtxt` and `csv` + `float` could disagree.
TOKENS = [
    "", "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999", "-1e999",
    "1e-400", "1_000", "0x10", "1.5E3", "+.5", "-0", "5.", "e5", "--1", "1e",
    "abc", "Ok", "OK", "ok", "MissingPellet", "DegenerateTongue", "0", "1,2",
    '"1.5"', '"Ok"', " 1.5", "1.5 ", "\t1.5", " Ok", "Ok ", "1.5\xa0", "é",
    "\x00", "1\r2", "1.5\x1f",
]
MUTATIONS = st.one_of(
    st.tuples(st.just("token"), st.integers(0, 7), st.sampled_from(TOKENS)),
    st.tuples(st.just("quote"), st.integers(0, 7), st.none()),
    st.tuples(st.just("pad"), st.integers(0, 7), st.sampled_from([" ", "  ", "\t"])),
    st.tuples(st.just("drop"), st.integers(0, 7), st.none()),
    st.tuples(st.just("extra"), st.integers(0, 8), st.sampled_from(["", "1.0", "Ok"])),
    st.tuples(st.just("trailing comma"), st.none(), st.none()),
    st.tuples(st.just("blank line"), st.none(), st.sampled_from(["", " ", ","])),
    st.tuples(st.just("quality"), st.none(), st.sampled_from(QUALITIES)),
)


def mutate(lines, row, edit):
    kind, field, token = edit
    if kind == "blank line":
        lines.insert(row, token)
        return
    fields = lines[row].split(",")
    if kind == "extra":
        fields.insert(min(field, len(fields)), token)
        lines[row] = ",".join(fields)
        return
    field = None if field is None else min(field, len(fields) - 1)
    if kind == "token":
        fields[field] = token
    elif kind == "quote":
        fields[field] = f'"{fields[field]}"'
    elif kind == "pad":
        fields[field] = f"{token}{fields[field]}{token}"
    elif kind == "drop":
        del fields[field]
    elif kind == "trailing comma":
        fields.append("")
    elif kind == "quality":
        fields[-1] = token.value
    lines[row] = ",".join(fields)


@settings(
    max_examples=400,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n=st.integers(1, 7),
    edits=st.lists(st.tuples(st.integers(0, 7), MUTATIONS), max_size=3),
    newline=st.sampled_from(["\r\n", "\n", "\r"]),
    final_newline=st.booleans(),
)
def test_fast_reader_agrees_with_the_per_cell_reference(
    tmp_path, n, edits, newline, final_newline
):
    path = tmp_path / "utt.tv.csv"
    write_tv_csv(sample_trajectory(n), path)
    lines = path.read_text().splitlines()
    for row, edit in edits:
        # Row 0 is the header, so the header gets edited too.
        mutate(lines, min(row, len(lines) - 1), edit)
    text = newline.join(lines) + (newline if final_newline else "")
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(_read_tv_cells, path)
    assert outcome(read_tv_csv, path) == expected
    if not edits and newline != "\r":
        # Only files with bare-CR line ends leave the fast path unedited.
        assert _parse_regular_tv(path.read_bytes()) is not None


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def trajectories(draw):
    n = draw(st.integers(0, 12))
    rate = draw(st.floats(1.0, 2000.0))
    t0 = draw(st.floats(-1e3, 1e3))
    values = np.array(
        draw(st.lists(finite, min_size=6 * n, max_size=6 * n)), dtype=np.float64
    ).reshape(n, 6)
    quality = np.array(
        draw(st.lists(st.sampled_from([OK, MISSING, DEGENERATE]), min_size=n, max_size=n)),
        dtype=np.int8,
    )
    absent = np.array(
        draw(st.lists(st.booleans(), min_size=6 * n, max_size=6 * n)), dtype=bool
    ).reshape(n, 6)
    values[absent & (quality != OK)[:, None]] = math.nan
    t = t0 + np.arange(n) / rate
    return TvTrajectory(t, values, quality)


@settings(
    max_examples=150,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(trajectory=trajectories())
def test_write_then_read_round_trips_bit_exactly(tmp_path, trajectory):
    path = tmp_path / "utt.tv.csv"
    write_tv_csv(trajectory, path)
    t, values, quality = read_tv_csv(path)
    assert t.tobytes() == trajectory.t.tobytes()
    assert values.tobytes() == trajectory.values.tobytes()
    assert quality.dtype == np.int8
    assert quality.tobytes() == trajectory.quality.tobytes()


# Every reader of a CSV data file: a function returning what it read,
# its header, its k-th valid data row, and its messages for a header
# whose first two names are swapped and one whose last name is renamed.
def pellet_columns(path):
    trajectory, report = parse_pellet_file(path)
    return trajectory.t.tobytes(), trajectory.xy.tobytes(), report


PELLET_SCHEMA = "header does not match the pellet schema"
ROW_READERS = {
    "pellet": (
        pellet_columns,
        PELLET_HEADER,
        lambda k: f"{k / 100!r}," + ",".join(f"{k + c}.5" for c in range(16)),
        (f"{PELLET_SCHEMA} (bad column order)",
         f"{PELLET_SCHEMA} (missing columns ['MNMy'])"),
    ),
    "tv": (
        lambda path: tuple(a.tobytes() for a in read_tv_csv(path)),
        TV_HEADER,
        lambda k: f"{k / 145!r},{k}.5,1.5,2.5,3.5,4.5,5.5,Ok",
        ("header does not match the TV schema",) * 2,
    ),
    "trace": (
        lambda path: points(parse_trace_file(path, "palate")),
        TRACE_HEADER,
        lambda k: f"{-10.0 - k!r},{5.0 - k!r}",
        ("trace header must be 'x,y'",) * 2,
    ),
}


@pytest.mark.parametrize(
    "case",
    ["empty", "swapped header", "renamed header", "short row", "long row",
     "blank lines", "short row after blank lines", "not UTF-8",
     "no final newline", "only blank lines"],
)
@pytest.mark.parametrize("reader", ROW_READERS)
def test_every_reader_shares_the_row_checks(tmp_path, reader, case):
    read, header, row, (swapped, renamed) = ROW_READERS[reader]
    width = len(header)
    lines = [",".join(header)] + [row(k) for k in range(3)]
    clean = tmp_path / "clean.csv"
    clean.write_text("\n".join(lines) + "\n")
    path = tmp_path / "data.csv"
    cells = list(header)
    if case == "swapped header":
        cells[:2] = cells[1::-1]
    elif case == "renamed header":
        cells[-1] += "z"
    lines[0] = ",".join(cells)
    if case == "short row":
        lines[2] = lines[2].rsplit(",", 1)[0]
    elif case == "long row":
        lines[2] += ",1.5"
    elif case.endswith("blank lines"):
        lines[2:2] = ["", ""]
        lines.append("")
    if case == "short row after blank lines":
        lines[4] = lines[4].rsplit(",", 1)[0]
    elif case == "only blank lines":
        lines[1:] = ["", ""]
    data = ("\n".join(lines) + "\n").encode()
    if case == "empty":
        data = b""
    elif case == "not UTF-8":
        data = data[:-1] + b"\xff\n"
    elif case == "no final newline":
        data = data[:-1]
    path.write_bytes(data)
    if case == "only blank lines":
        # The fast path declines without asking loadtxt, which would warn
        # (an error here) about empty input, and the file reads as its
        # header alone does.
        with open(path, "rb") as fh:
            assert load_plain_table(fh, lines[0].encode(), width) is None

        def result():
            try:
                return read(path)
            except TractvarError as exc:
                return type(exc), str(exc)

        blank = result()
        path.write_text(lines[0] + "\n")
        assert blank == result()
        return
    expected = {
        "empty": (ParseError, f"{path}: empty file"),
        "swapped header": (ParseError, f"{path}: {swapped}"),
        "renamed header": (ParseError, f"{path}: {renamed}"),
        "short row": (ParseError, f"{path}:3: expected {width} fields, got {width - 1}"),
        "long row": (ParseError, f"{path}:3: expected {width} fields, got {width + 1}"),
        "short row after blank lines": (
            ParseError, f"{path}:5: expected {width} fields, got {width - 1}"
        ),
        "not UTF-8": (ParseError, f"{path}: not UTF-8 text (invalid start byte)"),
    }
    if case in ("blank lines", "no final newline"):
        assert read(path) == read(clean)
        return
    with pytest.raises(TractvarError) as excinfo:
        read(path)
    assert (type(excinfo.value), str(excinfo.value)) == expected[case]


@settings(
    max_examples=150,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(trajectory=trajectories())
@example(
    trajectory=TvTrajectory(
        np.array([0.0, 0.5]),
        np.array([[1.0, 2.0, math.nan, 3.0, -0.0, math.nan], [4.0, 5.0, 1e308, 6.0, 0.5, 7.0]]),
        np.array([MISSING, OK], dtype=np.int8),
    )
)
def test_degrees_writer_converts_each_angle_as_math_degrees(tmp_path, trajectory):
    # The per-value writer, with `math.degrees` on each TBCL and TTCL cell:
    # NaN stays an empty cell and 1e308 overflows to `inf`.
    expected = [HEADER]
    for t, values, quality in zip(
        trajectory.t.tolist(), trajectory.values.tolist(), trajectory.quality.tolist()
    ):
        cells = [t]
        for name, v in zip(TV_NAMES, values):
            cells.append(math.degrees(v) if name in ANGLE_NAMES else v)
        text = ",".join(repr(v) if v == v else "" for v in cells)
        expected.append(f"{text},{QUALITIES[quality].value}")
    path = tmp_path / "utt.tv.csv"
    write_tv_csv(trajectory, path, degrees=True)
    assert path.read_bytes().decode() == "".join(line + "\r\n" for line in expected)
