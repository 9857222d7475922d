"""End-to-end command line tests over the synthetic speaker fixture."""

import json
import logging
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tractvar import pipeline
from tractvar.cli import main
from tractvar.compare import ComparisonReport, compare_tvs, ppmc
from tractvar.errors import DataError, TimebaseMismatch
from tractvar.tract_variables import TvTrajectory
from tractvar.tvcsv import TV_HEADER, open_atomic, write_tv_csv

from helpers import (
    ANGLE_TOL,
    DISTANCE_TOL,
    EXPECTED_TV,
    on_arc,
    palate_coords,
    read_tv_columns,
    reference_pellets,
    wall_coords,
    write_pellet_csv,
    write_speaker_fixture,
    write_trace_csv,
)


def run_cli(*args):
    return main([str(a) for a in args])


def write_manifest(root, entry):
    path = root / "manifest.json"
    path.write_text(json.dumps(entry))
    return path


def penetration_fixture(root):
    """Speaker whose tongue-body circle pokes 5 mm past the palate."""
    root.mkdir(parents=True, exist_ok=True)
    write_trace_csv(root / "palate.csv", palate_coords())
    write_trace_csv(root / "wall.csv", wall_coords())
    coords = dict(reference_pellets())
    cx, cy = on_arc(20.25, radius=25.0)
    coords["T2"] = (cx + 15.0, cy)
    coords["T3"] = (cx, cy - 15.0)
    coords["T4"] = (cx - 15.0, cy)
    rows = [(k / 145.0, coords) for k in range(5)]
    write_pellet_csv(root / "utt.csv", rows)
    return write_manifest(
        root,
        {
            "speaker_id": "pen",
            "sex": "F",
            "palate": "palate.csv",
            "posterior_wall": "wall.csv",
            "utterances": ["utt.csv"],
        },
    )


class TestRun:
    def test_end_to_end_constant_fixture(self, tmp_path):
        manifest = write_speaker_fixture(tmp_path / "data")
        out = tmp_path / "out"
        rc = run_cli("run", "--manifest", manifest, "--out", out)
        assert rc == 0
        assert (out / "synth.anatomy.json").exists()
        times, columns, quality = read_tv_columns(out / "utt00.tv.csv")
        assert len(times) == 30
        assert all(q == "Ok" for q in quality)
        for k, t in enumerate(times):
            assert t == k / 145.0
        for name in ("LA", "LP", "TBCD", "TTCD"):
            for v in columns[name]:
                assert v == pytest.approx(EXPECTED_TV[name], abs=DISTANCE_TOL)
        for name in ("TBCL", "TTCL"):
            for v in columns[name]:
                assert v == pytest.approx(EXPECTED_TV[name], abs=ANGLE_TOL)

    def test_creates_nested_output_dir(self, tmp_path):
        manifest = write_speaker_fixture(tmp_path / "data")
        out = tmp_path / "a" / "b" / "out"
        assert run_cli("run", "--manifest", manifest, "--out", out) == 0
        assert (out / "utt00.tv.csv").exists()

    def test_degrees_flag(self, tmp_path):
        manifest = write_speaker_fixture(tmp_path / "data")
        out = tmp_path / "out"
        rc = run_cli("run", "--manifest", manifest, "--out", out, "--degrees")
        assert rc == 0
        _, columns, _ = read_tv_columns(out / "utt00.tv.csv")
        for v in columns["TBCL"]:
            assert v == pytest.approx(33.75, abs=math.degrees(ANGLE_TOL))
        for v in columns["TTCL"]:
            assert v == pytest.approx(10.0, abs=math.degrees(ANGLE_TOL))
        # Distances are untouched by the unit switch.
        for v in columns["TBCD"]:
            assert v == pytest.approx(EXPECTED_TV["TBCD"], abs=DISTANCE_TOL)

    def test_penetration_signed_then_clamped(self, tmp_path):
        manifest = penetration_fixture(tmp_path / "data")
        out_signed = tmp_path / "signed"
        assert run_cli("run", "--manifest", manifest, "--out", out_signed) == 0
        _, columns, _ = read_tv_columns(out_signed / "utt.tv.csv")
        for v in columns["TBCD"]:
            assert v == pytest.approx(-5.0, abs=DISTANCE_TOL)

        out_clamped = tmp_path / "clamped"
        rc = run_cli(
            "run", "--manifest", manifest, "--out", out_clamped, "--clamp-tbcd"
        )
        assert rc == 0
        _, columns, _ = read_tv_columns(out_clamped / "utt.tv.csv")
        for v in columns["TBCD"]:
            assert v == 0.0
        for v in columns["TBCL"]:
            assert v == pytest.approx(math.radians(20.25), abs=ANGLE_TOL)

    def test_rate_flag(self, tmp_path):
        manifest = write_speaker_fixture(tmp_path / "data")
        out = tmp_path / "out"
        rc = run_cli("run", "--manifest", manifest, "--out", out, "--rate", 72.5)
        assert rc == 0
        times, _, _ = read_tv_columns(out / "utt00.tv.csv")
        assert len(times) == 15
        for k, t in enumerate(times):
            assert t == k / 72.5

    def test_plots_flag(self, tmp_path):
        manifest = write_speaker_fixture(tmp_path / "data")
        out = tmp_path / "out"
        rc = run_cli("run", "--manifest", manifest, "--out", out, "--plots")
        assert rc == 0
        anatomy = (out / "synth.anatomy.svg").read_text()
        assert anatomy.count("<polyline") == 4
        assert anatomy.count('class="reference-center"') == 1
        tvs = (out / "utt00.tvs.svg").read_text()
        assert tvs.count('<g class="panel"') == 6
        assert tvs.count('<polyline class="series"') == 6

    def test_no_plots_by_default(self, tmp_path):
        manifest = write_speaker_fixture(tmp_path / "data")
        out = tmp_path / "out"
        assert run_cli("run", "--manifest", manifest, "--out", out) == 0
        assert not (out / "synth.anatomy.svg").exists()
        assert not (out / "utt00.tvs.svg").exists()

    def test_missing_manifest_is_config_error(self, tmp_path):
        rc = run_cli(
            "run", "--manifest", tmp_path / "nope.json", "--out", tmp_path / "out"
        )
        assert rc == 1

    def test_missing_palate_file_is_config_error(self, tmp_path):
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root)
        (root / "palate.csv").unlink()
        rc = run_cli("run", "--manifest", manifest, "--out", tmp_path / "out")
        assert rc == 1

    def test_straight_palate_is_data_error(self, tmp_path):
        # A perfectly straight palate admits no reference circle.
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root)
        coords = [(-20.0 - 5.0 * k, 15.0 - 1.0 * k) for k in range(6)]
        write_trace_csv(root / "palate.csv", coords)
        rc = run_cli("run", "--manifest", manifest, "--out", tmp_path / "out")
        assert rc == 2

    def test_bad_parallelism_is_config_error(self, tmp_path):
        manifest = write_speaker_fixture(tmp_path / "data")
        rc = run_cli(
            "run", "--manifest", manifest, "--out", tmp_path / "out",
            "--parallelism", 0,
        )
        assert rc == 1

    def test_partial_utterance_failure_still_succeeds(self, tmp_path):
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root, n_utterances=2)
        (root / "utt01.csv").write_text("t,broken\n")
        out = tmp_path / "out"
        rc = run_cli("run", "--manifest", manifest, "--out", out)
        assert rc == 0
        assert (out / "utt00.tv.csv").exists()
        assert not (out / "utt01.tv.csv").exists()

    def test_all_utterances_failed_is_data_error(self, tmp_path):
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root, n_utterances=1)
        (root / "utt00.csv").write_text("t,broken\n")
        rc = run_cli("run", "--manifest", manifest, "--out", tmp_path / "out")
        assert rc == 2

    def test_non_utf8_utterance_is_data_error(self, tmp_path, caplog):
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root)
        with open(root / "utt00.csv", "ab") as fh:
            fh.write(b"\xff\xfe")
        rc = run_cli("run", "--manifest", manifest, "--out", tmp_path / "out")
        assert rc == 2
        assert any("not UTF-8" in r.getMessage() for r in caplog.records)

    def test_non_utf8_manifest_is_config_error(self, tmp_path, caplog):
        manifest = write_speaker_fixture(tmp_path / "data")
        with open(manifest, "ab") as fh:
            fh.write(b"\xff\xfe")
        rc = run_cli("run", "--manifest", manifest, "--out", tmp_path / "out")
        assert rc == 1
        assert any("not UTF-8" in r.getMessage() for r in caplog.records)

    def test_missing_utterance_file_is_config_error(self, tmp_path):
        # I/O trouble wins over data trouble in the exit code.
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root, n_utterances=2)
        (root / "utt01.csv").unlink()
        rc = run_cli("run", "--manifest", manifest, "--out", tmp_path / "out")
        assert rc == 1

    def test_parallel_matches_serial(self, tmp_path):
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root, n_utterances=3, constant=False)
        out1 = tmp_path / "serial"
        out8 = tmp_path / "parallel"
        assert run_cli("run", "--manifest", manifest, "--out", out1) == 0
        assert run_cli(
            "run", "--manifest", manifest, "--out", out8, "--parallelism", 8
        ) == 0
        for u in range(3):
            name = f"utt{u:02d}.tv.csv"
            assert (out1 / name).read_bytes() == (out8 / name).read_bytes()


class TestRunRejectsBadConfig:
    @staticmethod
    def assert_one_line_error(caplog, needle):
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert needle in errors[0] and "\n" not in errors[0]

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_rate(self, tmp_path, caplog, rate):
        manifest = write_speaker_fixture(tmp_path / "data")
        rc = run_cli(
            "run", "--manifest", manifest, "--out", tmp_path / "out", "--rate", rate
        )
        assert rc == 1
        self.assert_one_line_error(caplog, "rate must be a positive finite number")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("literal", ["NaN", "1e400", "true"])
    def test_non_finite_or_boolean_thickness(self, tmp_path, caplog, literal):
        manifest = write_speaker_fixture(tmp_path / "data")
        entry = json.loads(manifest.read_text())
        entry["thickness_mm"] = 0.5
        manifest.write_text(json.dumps(entry).replace("0.5", literal))
        for command in ("run", "anatomy"):
            caplog.clear()
            rc = run_cli(command, "--manifest", manifest, "--out", tmp_path / command)
            assert rc == 1
            self.assert_one_line_error(caplog, "thickness_mm")

    def test_shared_utterance_stem(self, tmp_path, caplog):
        # Two speakers that both list utt00.csv would write one utt00.tv.csv.
        root = tmp_path / "data"
        write_speaker_fixture(root / "a", n_frames=30, speaker_id="a")
        write_speaker_fixture(root / "b", n_frames=50, speaker_id="b")
        entries = [
            {
                "speaker_id": s,
                "sex": "F",
                "palate": f"{s}/palate.csv",
                "posterior_wall": f"{s}/wall.csv",
                "utterances": [f"{s}/utt00.csv"],
            }
            for s in ("a", "b")
        ]
        manifest = write_manifest(root, entries)
        out = tmp_path / "out"
        assert run_cli("run", "--manifest", manifest, "--out", out) == 1
        self.assert_one_line_error(caplog, "share the file stem 'utt00'")
        assert not (out / "utt00.tv.csv").exists()


class TestExecutor:
    @staticmethod
    def two_speaker_manifest(root):
        """Two speakers over one fixture, two utterances each."""
        write_speaker_fixture(root, n_utterances=4, constant=False)
        return write_manifest(
            root,
            [
                {
                    "speaker_id": s,
                    "sex": "F",
                    "palate": "palate.csv",
                    "posterior_wall": "wall.csv",
                    "utterances": [f"utt{u:02d}.csv" for u in utts],
                }
                for s, utts in (("a", (0, 1)), ("b", (2, 3)))
            ],
        )

    def test_serial_in_caller_thread_parallel_in_one_pool(self, tmp_path, monkeypatch):
        threads = []
        real_compute = pipeline.compute_trajectory

        def spy(*args, **kwargs):
            threads.append(threading.get_ident())
            return real_compute(*args, **kwargs)

        pools = []

        class CountingPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pipeline, "compute_trajectory", spy)
        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", CountingPool)
        manifest = self.two_speaker_manifest(tmp_path / "data")

        assert run_cli("run", "--manifest", manifest, "--out", tmp_path / "p1") == 0
        assert threads == [threading.get_ident()] * 4
        assert pools == []

        threads.clear()
        assert run_cli(
            "run", "--manifest", manifest, "--out", tmp_path / "p2",
            "--parallelism", 2,
        ) == 0
        assert len(threads) == 4 and threading.get_ident() not in threads
        assert len(pools) == 1
        for u in range(4):
            name = f"utt{u:02d}.tv.csv"
            assert (tmp_path / "p1" / name).read_bytes() == (tmp_path / "p2" / name).read_bytes()


class TestAtomicOutputs:
    def test_failed_write_leaves_no_file(self, tmp_path):
        target = tmp_path / "utt.tv.csv"
        with pytest.raises(RuntimeError):
            with open_atomic(target) as fh:
                fh.write("t,LA\n0.0,")
                raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_file(self, tmp_path):
        target = tmp_path / "utt.tv.csv"
        target.write_text("previous\n")
        # A quality code with no label fails the writer on its last row,
        # after the earlier rows went out.
        n = 2000
        tvs = TvTrajectory.from_columns(
            "s",
            np.arange(n) / 145.0,
            np.ones((n, 6)),
            np.array([0] * (n - 1) + [99], dtype=np.int8),
            145.0,
        )
        with pytest.raises(IndexError):
            write_tv_csv(tvs, target)
        assert target.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [target]


class TestCompare:
    def make_tv_files(self, tmp_path, n_utterances=2):
        manifest = write_speaker_fixture(
            tmp_path / "data", n_utterances=n_utterances, constant=False
        )
        out = tmp_path / "out"
        assert run_cli("run", "--manifest", manifest, "--out", out) == 0
        return [out / f"utt{u:02d}.tv.csv" for u in range(n_utterances)]

    def test_self_compare_is_unity(self, tmp_path, capsys):
        a, _ = self.make_tv_files(tmp_path)
        rc = run_cli("compare", a, a)
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert "LA" in lines[0] and "Average" in lines[0]
        assert lines[1].split() == ["1.0000"] * 7
        assert lines[2] == "frames compared: 30"

    def test_cross_compare_and_json(self, tmp_path, capsys):
        a, b = self.make_tv_files(tmp_path)
        report_path = tmp_path / "report.json"
        rc = run_cli("compare", a, b, "--json", report_path)
        assert rc == 0
        payload = json.loads(report_path.read_text())
        assert payload["n_frames_compared"] == 30
        scores = payload["scores"]
        assert set(scores) == {"LA", "LP", "TBCL", "TBCD", "TTCL", "TTCD"}
        for v in scores.values():
            assert -1.0 <= v <= 1.0
        mean = sum(scores.values()) / 6.0
        assert payload["average"] == pytest.approx(mean, abs=1e-12)

    def test_frame_count_mismatch_is_data_error(self, tmp_path):
        root = tmp_path
        short = write_speaker_fixture(
            root / "short", n_frames=20, constant=False, speaker_id="a"
        )
        long = write_speaker_fixture(
            root / "long", n_frames=30, constant=False, speaker_id="b"
        )
        out_a = root / "out_a"
        out_b = root / "out_b"
        assert run_cli("run", "--manifest", short, "--out", out_a) == 0
        assert run_cli("run", "--manifest", long, "--out", out_b) == 0
        rc = run_cli("compare", out_a / "utt00.tv.csv", out_b / "utt00.tv.csv")
        assert rc == 2

    def test_missing_file_is_config_error(self, tmp_path):
        a, _ = self.make_tv_files(tmp_path)
        assert run_cli("compare", a, tmp_path / "nope.csv") == 1

    @pytest.mark.parametrize(
        "column, token, message",
        [
            ("LA", "nan", "non-finite value 'nan'"),
            ("LA", "", "empty cell in an Ok frame"),
            ("quality", "OK", "unknown quality label 'OK'"),
        ],
    )
    def test_bad_cell_is_data_error_not_a_score(
        self, tmp_path, caplog, capsys, column, token, message
    ):
        # Each of these once gave a score (LA = -1.0, or one frame fewer
        # compared) and exit 0.
        a, b = self.make_tv_files(tmp_path)
        lines = b.read_text().splitlines()
        fields = lines[4].split(",")
        fields[TV_HEADER.index(column)] = token
        lines[4] = ",".join(fields)
        b.write_text("\r\n".join(lines) + "\r\n")
        assert run_cli("compare", a, b) == 2
        assert capsys.readouterr().out == ""
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"{b}:5 ({column}): {message}"]

    def test_non_utf8_file_is_data_error(self, tmp_path):
        a, b = self.make_tv_files(tmp_path)
        with open(b, "ab") as fh:
            fh.write(b"\xff\xfe")
        assert run_cli("compare", a, b) == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_ppmc_rejects_non_finite_samples(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            ppmc([1.0, bad, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="non-finite"):
            ppmc([1.0, 2.0, 3.0], [1.0, 2.0, bad])

    def test_timebase_mismatch_message(self, tmp_path):
        a, b = tmp_path / "a.tv.csv", tmp_path / "b.tv.csv"
        for path, last in ((a, 2 / 145), (b, 0.5)):
            rows = [",".join(TV_HEADER)] + [
                f"{t!r},{k},{k},{k},{k},{k},{k},Ok"
                for k, t in enumerate([0.0, 1 / 145, last])
            ]
            path.write_text("\n".join(rows) + "\n")
        with pytest.raises(TimebaseMismatch) as excinfo:
            compare_tvs(a, b)
        assert str(excinfo.value) == (
            "timestamps disagree at frame 2: 0.013793103448275862 vs 0.5"
        )

    def test_failed_json_write_keeps_previous_report(self, tmp_path, monkeypatch):
        a, b = self.make_tv_files(tmp_path)
        report = tmp_path / "reports" / "report.json"
        report.parent.mkdir()
        assert run_cli("compare", a, b, "--json", report) == 0
        before = report.read_bytes()
        # A report that cannot be serialised fails json.dump part-way.
        monkeypatch.setattr(
            ComparisonReport, "to_json_dict", lambda self: {"average": object()}
        )
        with pytest.raises(TypeError):
            run_cli("compare", a, a, "--json", report)
        assert report.read_bytes() == before
        assert list(report.parent.iterdir()) == [report]

    def test_constant_series_is_data_error(self, tmp_path):
        manifest = write_speaker_fixture(tmp_path / "data")
        out = tmp_path / "out"
        assert run_cli("run", "--manifest", manifest, "--out", out) == 0
        rc = run_cli("compare", out / "utt00.tv.csv", out / "utt00.tv.csv")
        assert rc == 2


class TestAnatomySubcommand:
    def test_writes_json_and_svg(self, tmp_path):
        manifest = write_speaker_fixture(tmp_path / "data")
        out = tmp_path / "anat"
        rc = run_cli("anatomy", "--manifest", manifest, "--out", out)
        assert rc == 0
        payload = json.loads((out / "synth.anatomy.json").read_text())
        assert payload["speaker_id"] == "synth"
        assert payload["sex"] == "F"
        assert payload["thickness_mm"] == 5.8
        for x, _ in payload["anterior_wall"]:
            assert x == -80.0 + 5.8
        assert len(payload["extended_palate"]) > len(payload["palate"])
        cx, cy = payload["reference_center"]
        assert cx == pytest.approx(-30.0, abs=1e-3)
        assert cy == pytest.approx(-5.0, abs=1e-3)
        assert (out / "synth.anatomy.svg").exists()

    def test_missing_manifest_is_config_error(self, tmp_path):
        rc = run_cli(
            "anatomy", "--manifest", tmp_path / "nope.json", "--out", tmp_path / "o"
        )
        assert rc == 1

    def test_bad_trace_is_data_error(self, tmp_path):
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root)
        write_trace_csv(root / "palate.csv", [(-20.0 - k, 15.0 - k) for k in range(5)])
        rc = run_cli("anatomy", "--manifest", manifest, "--out", tmp_path / "o")
        assert rc == 2


class TestArgParsing:
    def test_no_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
