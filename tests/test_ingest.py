"""Tests for file ingestion: pellet CSVs, traces, resampling, manifests."""

import bisect
import json
import logging
import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tractvar.anatomy import Sex
from tractvar.errors import (
    ConfigError,
    DataError,
    ParseError,
    TractvarError,
)
from tractvar import ingest, tvcsv
from tractvar.ingest import (
    PELLET_HEADER,
    SENTINEL_MAGNITUDE,
    IngestReport,
    PelletTrajectory,
    load_manifest,
    parse_pellet_file,
    parse_trace_file,
    resample,
)
from tractvar.tract_variables import PELLET_NAMES, REQUIRED_PELLETS

from reference import pellet_trajectory, points, write_pellet_file

from helpers import (
    make_frame,
    palate_coords,
    reference_pellets,
    wall_coords,
    wobbled_pellets,
    write_pellet_csv,
    write_take,
    write_trace_csv,
)


def pellet_rows(n, rate=100.0, invalid=None):
    """Rows for write_pellet_csv; `invalid` maps frame index to pellet names."""
    invalid = invalid or {}
    rows = []
    for k in range(n):
        coords = dict(wobbled_pellets(2.0 * math.pi * k / max(n, 1)))
        for name in invalid.get(k, ()):
            coords[name] = (1e6, 1e6)
        rows.append((k / rate, coords))
    return rows


class TestParsePelletFile:
    def test_reads_frames_and_rate(self, tmp_path):
        path = tmp_path / "utt.csv"
        write_pellet_csv(path, pellet_rows(11, rate=200.0))
        traj, report = parse_pellet_file(path)
        assert traj.utterance_id == "utt"
        assert len(traj.frames) == 11
        assert report.frames_read == 11
        assert report.frames_mistracked == 0
        assert traj.frames[3].t == 3 / 200.0

    def test_utterance_id_is_the_file_stem(self, tmp_path):
        path = tmp_path / "tp105.take2.csv"
        write_pellet_csv(path, pellet_rows(3))
        traj, _ = parse_pellet_file(path)
        assert traj.utterance_id == "tp105.take2"

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = ",".join(PELLET_HEADER[:-1])
        path.write_text(header + "\n")
        with pytest.raises(ParseError) as excinfo:
            parse_pellet_file(path)
        assert str(excinfo.value) == (
            f"{path}: header does not match the pellet schema (missing columns ['MNMy'])"
        )

    def test_reordered_columns_are_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        cols = list(PELLET_HEADER)
        cols[1], cols[2] = cols[2], cols[1]
        path.write_text(",".join(cols) + "\n")
        with pytest.raises(ParseError) as excinfo:
            parse_pellet_file(path)
        assert str(excinfo.value) == (
            f"{path}: header does not match the pellet schema (bad column order)"
        )

    def test_empty_file_is_schema_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError) as excinfo:
            parse_pellet_file(path)
        assert str(excinfo.value) == f"{path}: empty file"

    def test_bad_number_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = pellet_rows(3)
        write_pellet_csv(path, rows)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[5] = "oops"
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as excinfo:
            parse_pellet_file(path)
        assert excinfo.value.line == 3
        assert excinfo.value.column == "T1x"
        assert "oops" in str(excinfo.value)

    def test_nonfinite_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_pellet_csv(path, pellet_rows(3))
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[2] = "nan"
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="non-finite"):
            parse_pellet_file(path)

    def test_nonmonotone_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = pellet_rows(4)
        rows[2] = (rows[1][0], rows[2][1])
        write_pellet_csv(path, rows)
        with pytest.raises(ParseError) as excinfo:
            parse_pellet_file(path)
        assert excinfo.value.line == 4
        assert excinfo.value.column == "t"

    @pytest.mark.parametrize(
        "faults, line, column, message",
        [
            # A non-finite cell, found after the parsing pass, outranks an
            # unparseable cell further down, found during it.
            ([(2, 3, "inf"), (4, 5, "oops")], 3, "LLx", "non-finite value 'inf'"),
            ([(2, 0, "1e400"), (3, None, None)], 3, "t", "non-finite value '1e400'"),
            ([(4, 7, "nan"), (2, 9, "oops")], 3, "T3x", "cannot parse 'oops'"),
            # Within a row, the first bad cell in column order wins.
            ([(3, 16, "x"), (3, 2, "-inf")], 4, "ULy", "non-finite value '-inf'"),
            ([(3, 0, "0.0"), (5, 4, "inf")], 4, "t", "does not increase past"),
        ],
    )
    def test_first_bad_cell_in_file_order_wins(
        self, tmp_path, faults, line, column, message
    ):
        # Each fault is (row index after the header, field index, token);
        # a field of None truncates the row.
        path = tmp_path / "bad.csv"
        write_pellet_csv(path, pellet_rows(6))
        lines = path.read_text().splitlines()
        for row, field, token in faults:
            if field is None:
                lines[row] = lines[row].rsplit(",", 1)[0]
                continue
            fields = lines[row].split(",")
            fields[field] = token
            lines[row] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as excinfo:
            parse_pellet_file(path)
        assert (excinfo.value.line, excinfo.value.column) == (line, column)
        assert message in str(excinfo.value)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_pellet_csv(path, pellet_rows(3))
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="17 fields"):
            parse_pellet_file(path)

    def test_fewer_than_two_rows_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        write_pellet_csv(path, pellet_rows(1))
        with pytest.raises(ParseError, match="at least 2"):
            parse_pellet_file(path)

    def test_subnormal_time_span_is_parse_error(self, tmp_path):
        # The span is positive, but its reciprocal overflows to inf.
        path = tmp_path / "utt.csv"
        write_pellet_csv(path, [(t, reference_pellets()) for t in (0.0, 1e-320)])
        with pytest.raises(ParseError) as excinfo:
            parse_pellet_file(path)
        assert str(excinfo.value) == (
            f"{path}: 1 interval(s) over 1e-320 s give no finite sample rate"
        )

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gap.csv"
        write_pellet_csv(path, pellet_rows(3))
        lines = path.read_text().splitlines()
        lines.insert(2, "")
        path.write_text("\n".join(lines) + "\n")
        traj, report = parse_pellet_file(path)
        assert len(traj.frames) == 3
        assert report.frames_read == 3

    @pytest.mark.parametrize("where", ["start", "end"])
    def test_not_utf8_is_parse_error(self, tmp_path, monkeypatch, where):
        # Bad bytes at the start break the exact header, and at the end the
        # byte filter, so both files reach the per-cell reader.  Its text is
        # decoded in 8 KiB chunks, so bad bytes at the end of a long file
        # surface only after the rows before them were read.
        path = tmp_path / "utt.csv"
        write_pellet_csv(path, pellet_rows(200))
        data = path.read_bytes()
        assert len(data) > 4 * 8192
        path.write_bytes(b"\xff" + data if where == "start" else data + b"\xff\xfe")
        calls = []
        read_cells = ingest._read_pellet_cells
        monkeypatch.setattr(
            ingest, "_read_pellet_cells", lambda p: calls.append(p) or read_cells(p)
        )
        with pytest.raises(ParseError, match="not UTF-8"):
            parse_pellet_file(path)
        assert calls == [path]

    @pytest.mark.parametrize("line", [2, 150])
    def test_cell_over_csv_field_limit_is_parse_error(self, tmp_path, line):
        path = tmp_path / "utt.csv"
        write_pellet_csv(path, pellet_rows(200))
        lines = path.read_text().splitlines()
        lines[line - 1] = '"' + "x" * 200_000 + '"'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as excinfo:
            parse_pellet_file(path)
        assert excinfo.value.line == line
        assert str(excinfo.value) == (
            f"{path}:{line}: malformed CSV (field larger than field limit (131072))"
        )

    def test_sentinel_marks_pellet_invalid(self, tmp_path):
        path = tmp_path / "utt.csv"
        write_pellet_csv(path, pellet_rows(5, invalid={2: ("T1",), 3: ("T1", "MNM")}))
        traj, report = parse_pellet_file(path)
        assert report.frames_mistracked == 2
        assert "T1" not in traj.frames[2].valid
        assert "T2" in traj.frames[2].valid
        assert traj.frames[3].valid == frozenset(REQUIRED_PELLETS) - {"T1"}
        assert traj.frames[0].valid == frozenset(REQUIRED_PELLETS)

    @pytest.mark.parametrize("tracked", [0, 1])
    @pytest.mark.parametrize("rate", [80.0, 145.0])
    def test_mandible_pellet_tracked_under_twice_is_dropped(self, tmp_path, tracked, rate):
        # MNM is tracked only in row 2, or never.  It counts as mistracked,
        # but the trajectory has no mandible axis, so the take parses and
        # resamples as if MNM were tracked throughout.
        path = tmp_path / "utt.csv"
        invalid = {k: ("MNM",) for k in range(5) if not (tracked and k == 2)}
        write_pellet_csv(path, pellet_rows(5, rate=80.0, invalid=invalid))
        traj, report = parse_pellet_file(path)
        assert report.frames_mistracked == 5 - tracked
        assert traj.xy.shape == (5, len(REQUIRED_PELLETS), 2)
        assert traj.valid.shape == (5, len(REQUIRED_PELLETS)) and traj.valid.all()
        out = resample(traj, rate)
        assert out.xy.shape == (len(out), len(REQUIRED_PELLETS), 2)
        assert out.valid.shape == (len(out), len(REQUIRED_PELLETS)) and out.valid.all()
        write_pellet_csv(path, pellet_rows(5, rate=80.0))
        tracked_throughout = resample(parse_pellet_file(path)[0], rate)
        assert out.xy.tobytes() == tracked_throughout.xy.tobytes()

    def test_sentinel_threshold_boundary(self, tmp_path):
        # Magnitude exactly at the threshold is mistracked; just below is not.
        path = tmp_path / "utt.csv"
        rows = pellet_rows(3)
        coords = dict(rows[1][1])
        coords["UL"] = (SENTINEL_MAGNITUDE, 0.0)
        coords["LL"] = (SENTINEL_MAGNITUDE - 1.0, 0.0)
        coords["T4"] = (-SENTINEL_MAGNITUDE, 12.0)
        rows[1] = (rows[1][0], coords)
        write_pellet_csv(path, rows)
        traj, _ = parse_pellet_file(path)
        assert "UL" not in traj.frames[1].valid
        assert "LL" in traj.frames[1].valid
        assert "T4" not in traj.frames[1].valid


class TestWritePelletFile:
    def test_round_trip_is_bit_exact(self, tmp_path):
        src = tmp_path / "src.csv"
        write_pellet_csv(src, pellet_rows(20, rate=145.0, invalid={7: ("T2",)}))
        traj, _ = parse_pellet_file(src)
        dst = tmp_path / "dst.csv"
        write_pellet_file(traj, dst)
        back, _ = parse_pellet_file(dst)
        assert len(back.frames) == len(traj.frames)
        for a, b in zip(traj.frames, back.frames):
            assert b.t == a.t
            assert b.valid == a.valid
            for name in REQUIRED_PELLETS:
                if name in a.valid:
                    assert getattr(b, name.lower()) == getattr(a, name.lower())

    def test_invalid_pellets_written_as_sentinel(self, tmp_path):
        frames = (make_frame(0.0), make_frame(0.01, invalid={"T3"}))
        traj = pellet_trajectory(frames)
        path = tmp_path / "out.csv"
        write_pellet_file(traj, path)
        lines = path.read_text().splitlines()
        t3x = PELLET_HEADER.index("T3x")
        assert lines[2].split(",")[t3x] == repr(1e6)
        assert lines[1].split(",")[t3x] != repr(1e6)


# Edits that make a pellet file irregular or bad.  Each is applied to one
# cell or line of a valid file; together they cover every rule on which
# `np.loadtxt` and `csv` + `float` could disagree.
PELLET_TOKENS = [
    "", "nan", "NaN", "-nan", "inf", "-inf", "infinity", "Infinity", "1e999",
    "-1e999", "1e-400", "1_000", "0x10", "1.5E3", "+.5", "-0", "5.", ".", "+",
    "-", "e", "e5", "--1", "1e", "1e5e", "abc", "1,2", '"1.5"', " 1.5", "1.5 ",
    "\t1.5", "1.5\xa0", "\xe9", "\x00", "1\r2", "1.5\x1f", "1.5\x1c", "1.5\x0c",
]
PELLET_MUTATIONS = st.one_of(
    st.tuples(st.just("token"), st.integers(0, 17), st.sampled_from(PELLET_TOKENS)),
    st.tuples(st.just("value"), st.integers(0, 17), st.floats(allow_nan=False)),
    st.tuples(st.just("quote"), st.integers(0, 17), st.none()),
    st.tuples(st.just("pad"), st.integers(0, 17), st.sampled_from([" ", "  ", "\t"])),
    st.tuples(st.just("drop"), st.integers(0, 17), st.none()),
    st.tuples(st.just("extra"), st.integers(0, 18), st.sampled_from(["", "1.0"])),
    st.tuples(st.just("trailing comma"), st.none(), st.none()),
    st.tuples(st.just("trailing comma on every row"), st.none(), st.none()),
    st.tuples(st.just("bare cr"), st.none(), st.none()),
    st.tuples(st.just("blank line"), st.none(), st.sampled_from(["", " ", ","])),
)


def mutate_pellet_lines(lines, row, edit):
    kind, field, token = edit
    if kind == "blank line":
        lines.insert(row, token)
        return
    if kind == "trailing comma on every row":
        lines[1:] = [line + "," for line in lines[1:]]
        return
    if kind == "bare cr":
        lines[row] += "\r"
        return
    fields = lines[row].split(",")
    if kind == "extra":
        fields.insert(min(field, len(fields)), token)
    elif kind == "trailing comma":
        fields.append("")
    else:
        field = min(field, len(fields) - 1)
        if kind == "token":
            fields[field] = token
        elif kind == "value":
            fields[field] = repr(token)
        elif kind == "quote":
            fields[field] = f'"{fields[field]}"'
        elif kind == "pad":
            fields[field] = f"{token}{fields[field]}{token}"
        elif kind == "drop":
            del fields[field]
    lines[row] = ",".join(fields)


def pellet_outcome(path):
    try:
        traj, report = parse_pellet_file(path)
    except TractvarError as exc:
        return type(exc), str(exc)
    return (
        "ok",
        traj.t.tobytes(),
        traj.xy.tobytes(),
        traj.valid.tobytes(),
        report,
    )


class TestPelletFastPath:
    @pytest.mark.parametrize(
        "newline, final_newline, blank_line",
        [
            ("\r\n", True, False),
            ("\n", True, False),
            ("\n", False, True),
            ("\r\n", False, True),
        ],
    )
    def test_plain_file_never_reaches_the_per_cell_reader(
        self, tmp_path, monkeypatch, newline, final_newline, blank_line
    ):
        path = tmp_path / "utt.csv"
        write_pellet_csv(path, pellet_rows(40, invalid={3: ("T2",)}))
        lines = path.read_text().splitlines()
        if blank_line:
            lines.insert(5, "")
        text = newline.join(lines) + (newline if final_newline else "")
        path.write_bytes(text.encode("ascii"))
        expected = pellet_outcome(path)

        def refuse(p):
            raise AssertionError(f"{p} reached the per-cell reader")

        monkeypatch.setattr(ingest, "_read_pellet_cells", refuse)
        assert pellet_outcome(path) == expected
        assert expected[0] == "ok" and expected[-1].frames_read == 40

    def test_holds_a_take_about_once(self, tmp_path):
        # The traced peak of a parse, against the bytes that what it returns
        # keeps alive: the parsed table and the eight-pellet mask behind its
        # views.  A copy of this file's bytes alone is 1.6 times those, and a
        # float temporary the size of the table's pellet columns 0.9 times.
        path = tmp_path / "take.csv"
        write_take(path, 8_000)
        parse_pellet_file(path)  # first-call costs are not the take's
        tracemalloc.start()
        try:
            traj, _ = parse_pellet_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.t.base is traj.xy.base
        assert peak <= 1.5 * (traj.xy.base.nbytes + traj.valid.base.nbytes)

    @pytest.mark.parametrize("token", PELLET_TOKENS)
    def test_each_token_agrees_with_the_per_cell_reference(
        self, tmp_path, monkeypatch, token
    ):
        # Every token alone: in the time column, in a coordinate column, and
        # as the last cell of a file without a final newline, where its last
        # byte is the file's.  A token holding a byte the fast path does not
        # take is read again with that byte first, and then last, in a block.
        path = tmp_path / "utt.csv"
        for row, field, end in ((2, 0, "\r\n"), (2, 5, "\r\n"), (4, 16, "")):
            write_pellet_csv(path, pellet_rows(4))
            lines = path.read_text().splitlines()
            mutate_pellet_lines(lines, row, ("token", field, token))
            data = ("\r\n".join(lines) + end).encode("utf-8")
            path.write_bytes(data)
            with patch.object(ingest, "load_plain_table", return_value=None):
                expected = pellet_outcome(path)
            assert pellet_outcome(path) == expected
            body = data.index(b"\n") + 1
            odd = [k - body for k in range(body, len(data))
                   if data[k] not in tvcsv._PLAIN_BYTES]
            if odd:
                for block in (odd[0], odd[0] + 1):
                    monkeypatch.setattr(tvcsv, "_BLOCK_BYTES", block)
                    assert pellet_outcome(path) == expected
                monkeypatch.undo()

    @settings(
        max_examples=400,
        deadline=None,
        database=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.integers(1, 6),
        mistracked=st.sets(st.integers(0, 5), max_size=2),
        edits=st.lists(st.tuples(st.integers(0, 6), PELLET_MUTATIONS), max_size=3),
        newline=st.sampled_from(["\r\n", "\n", "\r"]),
        final_newline=st.booleans(),
    )
    def test_reader_agrees_with_the_per_cell_reference(
        self, tmp_path, n, mistracked, edits, newline, final_newline
    ):
        path = tmp_path / "utt.csv"
        write_pellet_csv(path, pellet_rows(n, invalid={k: ("T3",) for k in mistracked}))
        lines = path.read_text().splitlines()
        for row, edit in edits:
            # Row 0 is the header, so the header gets edited too.
            mutate_pellet_lines(lines, min(row, len(lines) - 1), edit)
        text = newline.join(lines) + (newline if final_newline else "")
        path.write_bytes(text.encode("utf-8"))
        with patch.object(ingest, "load_plain_table", return_value=None):
            expected = pellet_outcome(path)
        assert pellet_outcome(path) == expected
        if not edits and newline != "\r":
            # Only files with bare-CR line ends leave the fast path unedited.
            with open(path, "rb") as fh:
                table = ingest.load_plain_table(
                    fh, ",".join(PELLET_HEADER).encode(), len(PELLET_HEADER)
                )
            assert table is not None


class TestParseTraceFile:
    def test_cell_over_csv_field_limit_is_parse_error(self, tmp_path):
        path = tmp_path / "pal.csv"
        write_trace_csv(path, palate_coords())
        with open(path, "a") as fh:
            fh.write('"' + "1" * 200_000 + '",0\n')
        line = len(palate_coords()) + 2
        with pytest.raises(ParseError) as excinfo:
            parse_trace_file(path, "palate")
        assert str(excinfo.value) == (
            f"{path}:{line}: malformed CSV (field larger than field limit (131072))"
        )

    def test_palate_loads_in_canonical_order(self, tmp_path):
        path = tmp_path / "pal.csv"
        write_trace_csv(path, palate_coords())
        trace = parse_trace_file(path, "palate")
        xs = [p.x for p in points(trace)]
        assert xs == sorted(xs, reverse=True)

    def test_ascending_palate_reversed_with_warning(self, tmp_path, caplog):
        path = tmp_path / "pal.csv"
        write_trace_csv(path, list(reversed(palate_coords())))
        with caplog.at_level(logging.WARNING, logger="tractvar.ingest"):
            trace = parse_trace_file(path, "palate")
        assert any("reversed" in rec.message for rec in caplog.records)
        expect = parse_trace_file(tmp_path / "pal.csv", "palate")
        assert points(trace) == points(expect)
        assert points(trace)[0].x > points(trace)[-1].x

    def test_ascending_wall_reversed(self, tmp_path, caplog):
        path = tmp_path / "wall.csv"
        write_trace_csv(path, list(reversed(wall_coords())))
        with caplog.at_level(logging.WARNING, logger="tractvar.ingest"):
            trace = parse_trace_file(path, "wall")
        assert points(trace)[0].y > points(trace)[-1].y
        assert any("reversed" in rec.message for rec in caplog.records)

    def test_canonical_wall_untouched(self, tmp_path, caplog):
        path = tmp_path / "wall.csv"
        write_trace_csv(path, wall_coords())
        with caplog.at_level(logging.WARNING, logger="tractvar.ingest"):
            trace = parse_trace_file(path, "wall")
        assert not caplog.records
        assert [(p.x, p.y) for p in points(trace)] == wall_coords()

    def test_duplicate_points_collapsed_with_warning(self, tmp_path, caplog):
        coords = palate_coords()
        doubled = [coords[0], coords[0]] + coords[1:] + [coords[-1]]
        path = tmp_path / "pal.csv"
        write_trace_csv(path, doubled)
        with caplog.at_level(logging.WARNING, logger="tractvar.ingest"):
            trace = parse_trace_file(path, "palate")
        assert len(points(trace)) == len(coords)
        assert any("2 repeated" in rec.message for rec in caplog.records)

    def test_all_identical_points_degenerate(self, tmp_path):
        path = tmp_path / "pal.csv"
        write_trace_csv(path, [(1.0, 2.0)] * 5)
        with pytest.raises(DataError) as excinfo:
            parse_trace_file(path, "palate")
        assert str(excinfo.value) == f"{path}: fewer than 2 distinct points"

    def test_bad_header_is_schema_error(self, tmp_path):
        path = tmp_path / "pal.csv"
        path.write_text("x,y,z\n1,2,3\n")
        with pytest.raises(ParseError) as excinfo:
            parse_trace_file(path, "palate")
        assert str(excinfo.value) == f"{path}: trace header must be 'x,y'"

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "pal.csv"
        path.write_text("x,y\n1.0,2.0\nfoo,3.0\n")
        with pytest.raises(ParseError) as excinfo:
            parse_trace_file(path, "palate")
        assert excinfo.value.line == 3
        assert excinfo.value.column == "x"

    def test_not_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "pal.csv"
        write_trace_csv(path, palate_coords())
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe")
        with pytest.raises(ParseError, match="not UTF-8"):
            parse_trace_file(path, "palate")

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "pal.csv"
        write_trace_csv(path, palate_coords())
        with pytest.raises(ValueError, match="kind"):
            parse_trace_file(path, "velum")


def oracle_validity(raw_times, raw_valid, t):
    """Validity of one resampled point, by direct interval lookup.  A point
    just past the last sample, which the count guard of `resample` admits,
    lies in the last interval."""
    i = min(bisect.bisect_left(raw_times, t), len(raw_times) - 1)
    if raw_times[i] == t:
        return raw_valid[i]
    return raw_valid[i - 1] and raw_valid[i]


class TestResample:
    def make_traj(self, n, rate, invalid=None):
        invalid = invalid or {}
        frames = []
        for k in range(n):
            coords = wobbled_pellets(2.0 * math.pi * k / n)
            frames.append(make_frame(k / rate, coords, invalid=invalid.get(k)))
        return pellet_trajectory(frames)

    def test_grid_count_and_times(self):
        # 81 frames at 80 Hz span exactly 1 s; at 145 Hz that is 146 samples.
        traj = self.make_traj(81, 80.0)
        out = resample(traj, 145.0)
        assert len(out.frames) == 146
        for k, frame in enumerate(out.frames):
            assert frame.t == k / 145.0
        assert out.frames[-1].t <= traj.frames[-1].t

    def test_constant_signal_reproduced_exactly(self):
        coords = reference_pellets()
        frames = tuple(make_frame(k / 80.0, coords) for k in range(41))
        traj = pellet_trajectory(frames)
        out = resample(traj, 145.0)
        for frame in out.frames:
            for name in REQUIRED_PELLETS:
                assert getattr(frame, name.lower()) == coords[name]

    def test_affine_signal_reproduced(self):
        # Linear interpolation is exact for affine signals, so resampling
        # x(t) = a + b t must land on the same line at the new grid.
        a, b = 3.25, -4.5
        base = reference_pellets()
        frames = []
        for k in range(81):
            t = k / 80.0
            coords = {name: (x + a * t, y + b * t) for name, (x, y) in base.items()}
            frames.append(make_frame(t, coords))
        traj = pellet_trajectory(frames)
        out = resample(traj, 145.0)
        for frame in out.frames:
            for name in REQUIRED_PELLETS:
                x0, y0 = base[name]
                x, y = getattr(frame, name.lower())
                assert x == pytest.approx(x0 + a * frame.t, abs=1e-9)
                assert y == pytest.approx(y0 + b * frame.t, abs=1e-9)

    def test_exact_grid_hits_reproduce_input(self):
        # Input already on the 145 Hz grid: output frames must be copies.
        traj = self.make_traj(10, 145.0, invalid={4: {"T2"}})
        out = resample(traj, 145.0)
        assert len(out.frames) == 10
        for raw, new in zip(traj.frames, out.frames):
            assert new.t == raw.t
            assert new.valid == raw.valid
            for name in PELLET_NAMES:
                if name in raw.valid:
                    assert getattr(new, name.lower()) == getattr(raw, name.lower())

    def test_invalid_sample_contaminates_enclosing_intervals(self):
        traj = self.make_traj(81, 80.0, invalid={40: {"T2"}})
        out = resample(traj, 145.0)
        raw_times = [f.t for f in traj.frames]
        raw_valid = ["T2" in f.valid for f in traj.frames]
        flagged = set()
        for k, frame in enumerate(out.frames):
            expect = oracle_validity(raw_times, raw_valid, frame.t)
            assert ("T2" in frame.valid) == expect, f"frame {k} at t={frame.t}"
            if not expect:
                flagged.add(k)
            assert "T3" in frame.valid
        # Raw sample 40 sits at 0.5 s; the touched intervals cover
        # [39/80, 41/80] which contains grid samples 71..74 only.
        assert flagged == {71, 72, 73, 74}

    def test_interpolation_bridges_invalid_sample(self):
        # The invalid sample's coordinates must not leak into neighbors:
        # interpolation runs between the valid samples around the gap.
        rate = 80.0
        base = reference_pellets()
        frames = []
        for k in range(9):
            t = k / rate
            coords = dict(base)
            x0, y0 = base["T2"]
            coords["T2"] = (x0 + t, y0) if k != 4 else (777777.0, 999999.0)
            frames.append(make_frame(t, coords, invalid={"T2"} if k == 4 else None))
        traj = pellet_trajectory(frames)
        out = resample(traj, 160.0)
        x0, _ = base["T2"]
        for frame in out.frames:
            assert abs(frame.t2[0] - (x0 + frame.t)) < 1e-9

    def test_interpolated_counter(self):
        # Grid times k/145 meet input times m/80 only when k is a multiple
        # of 29: six coincidences in [0, 1], so 140 synthesized samples for
        # each of the eight pellets.
        traj = self.make_traj(81, 80.0)
        report = IngestReport()
        resample(traj, 145.0, report=report)
        assert report.pellets_interpolated == 140 * 8

    def test_short_final_interval_truncates_grid(self):
        # Span 0.9999 s at 145 Hz gives floor(144.985) + 1 = 145 samples.
        frames = [make_frame(k / 100.0, reference_pellets()) for k in range(100)]
        frames.append(make_frame(0.9999, reference_pellets()))
        traj = pellet_trajectory(frames)
        out = resample(traj, 145.0)
        assert len(out.frames) == 145
        assert out.frames[-1].t <= 0.9999

    def test_count_guard_against_rounding(self):
        # Span 1/3 at 3 Hz: the float product is just below 1.0 and the
        # epsilon guard must keep the endpoint sample.
        frames = (make_frame(0.0), make_frame(1.0 / 3.0))
        traj = pellet_trajectory(frames)
        out = resample(traj, 3.0)
        assert len(out.frames) == 2
        assert out.frames[1].t == 1.0 / 3.0

    def test_single_frame_insufficient(self):
        traj = pellet_trajectory((make_frame(0.0),), "solo")
        with pytest.raises(DataError) as excinfo:
            resample(traj, 145.0)
        assert str(excinfo.value) == "need at least 2 frames to resample, got 1"

    def test_pellet_with_one_valid_sample_insufficient(self):
        invalid = {k: {"T3"} for k in range(1, 5)}
        traj = self.make_traj(5, 80.0, invalid=invalid)
        with pytest.raises(
            DataError, match=r"^pellet T3 has 1 valid sample\(s\), cannot interpolate$"
        ):
            resample(traj, 145.0)

    @pytest.mark.parametrize(
        "rate, size", [(1e300, "2.487e+300"), (1e308, "inf")], ids=["1e300", "1e308"]
    )
    def test_huge_rate_is_data_error(self, rate, size):
        # 200 frames at 80 Hz span 2.4875 s, so at 1e308 Hz the grid size
        # overflows to inf.  Nothing is allocated: the size is checked as a
        # float first.
        traj = self.make_traj(200, 80.0)
        with pytest.raises(DataError) as excinfo:
            resample(traj, rate)
        assert str(excinfo.value) == (
            f"resampling 2.4875 s at {rate:g} Hz needs a grid of {size} "
            f"samples, more than the limit of 10,000,000"
        )

    def test_grid_size_limit_is_inclusive(self, monkeypatch):
        # 81 frames at 80 Hz span 1 s: 146 samples at 145 Hz.
        traj = self.make_traj(81, 80.0)
        monkeypatch.setattr(ingest, "MAX_GRID_SAMPLES", 146)
        assert len(resample(traj, 145.0)) == 146
        monkeypatch.setattr(ingest, "MAX_GRID_SAMPLES", 145)
        with pytest.raises(DataError, match="needs a grid of 146 samples"):
            resample(traj, 145.0)

    def test_grid_that_stops_increasing_is_data_error(self):
        # Doubles near 5e13 s are 1/128 s apart, more than a 145 Hz step.
        frames = [make_frame(5e13 + k / 100.0) for k in range(30)]
        with pytest.raises(DataError) as excinfo:
            resample(pellet_trajectory(frames), 145.0)
        assert str(excinfo.value) == (
            "resampling at 145 Hz from t = 50000000000000.0 s gives grid times "
            "that do not increase at sample 5"
        )

    def test_bad_target_rate(self):
        traj = self.make_traj(5, 80.0)
        with pytest.raises(ValueError):
            resample(traj, 0.0)
        with pytest.raises(ValueError):
            resample(traj, -10.0)


class TestResampleProperties:
    @staticmethod
    def columns(times, seed):
        """Random coordinates, and validity with every pellet valid in the
        first and last frames, so that each can be interpolated.  They are
        drawn for the eight pellets of a file and cut to the six that a
        trajectory keeps, as the parse does."""
        rng = np.random.default_rng(seed)
        n = len(times)
        kept = len(REQUIRED_PELLETS)
        xy = rng.uniform(-50.0, 50.0, size=(n, len(PELLET_NAMES), 2))[:, :kept]
        valid = (rng.random((n, len(PELLET_NAMES))) < 0.7)[:, :kept]
        valid[[0, -1]] = True
        return PelletTrajectory("u", np.array(times), xy, valid)

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        rate=st.sampled_from([72.5, 100.0, 145.0, 400.0]),
        t0=st.sampled_from([0.0, 0.25, 1.0 / 3.0, 12.5]),
        steps=st.lists(st.integers(1, 4), min_size=1, max_size=30),
        between=st.lists(st.booleans(), min_size=31, max_size=31),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_grid_hits_reproduce_input_bits(self, rate, t0, steps, between, seed):
        # Input times on the output grid, computed as `resample` computes
        # it, some with an off-grid time inserted before them.
        marks = np.cumsum([0, *steps]).tolist()
        times = [t0]
        for j, insert in zip(marks[1:], between):
            if insert:
                times.append(t0 + (j - 0.5) / rate)
            times.append(t0 + j / rate)
        traj = self.columns(times, seed)
        out = resample(traj, rate)
        hits = np.flatnonzero(np.isin(out.t, traj.t))
        assert set(marks) <= set(hits.tolist())
        raw = np.searchsorted(traj.t, out.t[hits])
        assert (out.valid[hits] == traj.valid[raw]).all()
        ok = traj.valid[raw]
        assert (out.xy[hits][ok].view(np.int64) == traj.xy[raw][ok].view(np.int64)).all()

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        gaps=st.lists(st.floats(0.001, 0.05), min_size=1, max_size=40),
        t0=st.floats(0.0, 10.0),
        rate=st.floats(20.0, 500.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_invalid_exactly_when_interval_touches_invalid(self, gaps, t0, rate, seed):
        traj = self.columns((t0 + np.cumsum([0.0, *gaps])).tolist(), seed)
        out = resample(traj, rate)
        raw_times = traj.t.tolist()
        for k in range(len(REQUIRED_PELLETS)):
            raw_valid = traj.valid[:, k].tolist()
            expect = [oracle_validity(raw_times, raw_valid, t) for t in out.t.tolist()]
            assert out.valid[:, k].tolist() == expect


class TestLoadManifest:
    def write(self, tmp_path, payload, name="manifest.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def entry(self, **overrides):
        entry = {
            "speaker_id": "jw11",
            "sex": "F",
            "palate": "traces/pal.csv",
            "posterior_wall": "traces/wall.csv",
            "utterances": ["utt/tp105.csv", "utt/tp106.csv"],
        }
        entry.update(overrides)
        return entry

    def test_single_object(self, tmp_path):
        path = self.write(tmp_path, self.entry())
        specs = load_manifest(path)
        assert len(specs) == 1
        spec = specs[0]
        assert spec.speaker_id == "jw11"
        assert spec.sex is Sex.FEMALE
        assert spec.thickness_mm is None
        assert spec.palate_path == tmp_path / "traces/pal.csv"
        assert spec.posterior_wall_path == tmp_path / "traces/wall.csv"
        assert spec.utterance_paths == (
            tmp_path / "utt/tp105.csv",
            tmp_path / "utt/tp106.csv",
        )

    def test_list_of_speakers(self, tmp_path):
        payload = [
            self.entry(),
            self.entry(speaker_id="jw12", sex="M", utterances=["utt/tp205.csv"]),
        ]
        specs = load_manifest(self.write(tmp_path, payload))
        assert [s.speaker_id for s in specs] == ["jw11", "jw12"]
        assert specs[1].sex is Sex.MALE

    def test_thickness_override(self, tmp_path):
        specs = load_manifest(self.write(tmp_path, self.entry(thickness_mm=6.1)))
        assert specs[0].thickness_mm == 6.1

    def test_missing_key(self, tmp_path):
        entry = self.entry()
        del entry["posterior_wall"]
        with pytest.raises(ConfigError, match="posterior_wall"):
            load_manifest(self.write(tmp_path, entry))

    def test_bad_sex(self, tmp_path):
        with pytest.raises(ConfigError, match="sex"):
            load_manifest(self.write(tmp_path, self.entry(sex="X")))

    def test_bad_thickness(self, tmp_path):
        for bad in (0, -2.5, "thin"):
            with pytest.raises(ConfigError, match="thickness"):
                load_manifest(self.write(tmp_path, self.entry(thickness_mm=bad)))

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "1e400", "true", "1" + "0" * 400],
        ids=["nan", "infinity", "overflow", "bool", "huge-int"],
    )
    def test_non_finite_or_boolean_thickness(self, tmp_path, literal):
        path = tmp_path / "manifest.json"
        text = json.dumps(self.entry(thickness_mm=0.5)).replace("0.5", literal)
        path.write_text(text)
        with pytest.raises(ConfigError, match="thickness_mm must be a positive finite"):
            load_manifest(path)

    def test_repeated_names_are_left_to_the_writer(self, tmp_path):
        # Only the writer knows which outputs a name leads to, so a shared
        # speaker id, a repeated utterance and a shared stem all load.
        payload = [
            self.entry(utterances=["a/utt00.csv", "a/utt00.csv"]),
            self.entry(utterances=["b/utt00.csv"]),
        ]
        specs = load_manifest(self.write(tmp_path, payload))
        assert [s.speaker_id for s in specs] == ["jw11", "jw11"]
        assert [[p.stem for p in s.utterance_paths] for s in specs] == [
            ["utt00", "utt00"], ["utt00"]
        ]

    @pytest.mark.parametrize(
        "speaker_id",
        ["../evil", "a/b", "/abs", "a\\b", "a\0b", ".", "..", "\ud800", "\udc80",
         "a\nb", "u\r.csv", "\t"],
    )
    def test_speaker_id_must_be_a_plain_file_name(self, tmp_path, speaker_id):
        with pytest.raises(ConfigError, match="must be a plain file name"):
            load_manifest(self.write(tmp_path, self.entry(speaker_id=speaker_id)))

    def test_speaker_id_with_dots_inside_is_accepted(self, tmp_path):
        specs = load_manifest(self.write(tmp_path, self.entry(speaker_id="jw11..v2")))
        assert specs[0].speaker_id == "jw11..v2"

    def test_empty_speaker_id(self, tmp_path):
        with pytest.raises(ConfigError, match="speaker_id"):
            load_manifest(self.write(tmp_path, self.entry(speaker_id="")))

    def test_utterances_not_a_list(self, tmp_path):
        with pytest.raises(ConfigError, match="utterances"):
            load_manifest(self.write(tmp_path, self.entry(utterances="utt.csv")))

    def test_empty_list(self, tmp_path):
        with pytest.raises(ConfigError, match="no speakers"):
            load_manifest(self.write(tmp_path, []))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_manifest(path)

    def test_not_utf8_is_config_error(self, tmp_path):
        path = self.write(tmp_path, self.entry())
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_manifest(path)

    def test_non_object_entry(self, tmp_path):
        with pytest.raises(ConfigError, match="object"):
            load_manifest(self.write(tmp_path, ["jw11"]))
