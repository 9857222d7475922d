"""End-to-end command line tests over the synthetic speaker fixture."""

import concurrent.futures
import json
import logging
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import tractvar
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
    synthetic_anatomy,
    wall_coords,
    write_pellet_csv,
    write_speaker_fixture,
    write_trace_csv,
)


def run_cli(*args):
    return main([str(a) for a in args])


def run_python(*argv, **env):
    """Run a fresh interpreter that can import this package."""
    src = str(Path(tractvar.__file__).parent.parent)
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def run_cli_process(*args, **env):
    """Run the command line in a fresh interpreter; returns the exit code
    and the lines it wrote to stderr."""
    proc = run_python("-m", "tractvar.cli", *args, **{"TRACTVAR_LOG": "warn", **env})
    return proc.returncode, proc.stderr.splitlines()


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

    def test_info_line_counts_interpolated_pellets(self, tmp_path, caplog):
        # 30 frames at 145 Hz span 0.2 s: 21 samples at 100 Hz, of which
        # only t = 0 and t = 0.2 fall on input times, so 19 samples of
        # each of the 8 pellets are interpolated.
        manifest = write_speaker_fixture(tmp_path / "data")
        caplog.set_level(logging.INFO, logger="tractvar")
        rc = run_cli("run", "--manifest", manifest, "--out", tmp_path / "out",
                     "--rate", 100)
        assert rc == 0
        lines = [r.getMessage() for r in caplog.records if r.name == "tractvar.pipeline"]
        assert lines == [
            "synth/utt00: 30 frames in, 21 out, 0 mistracked, 152 pellets interpolated"
        ]

    @pytest.mark.parametrize(
        "rate, size", [("1e300", "2.062e+300"), ("1e308", "inf")], ids=["1e300", "1e308"]
    )
    def test_huge_rate_is_data_error(self, tmp_path, caplog, rate, size):
        # 300 frames at 145 Hz span 2.06 s, so at 1e308 Hz the grid size
        # overflows to inf; no grid is allocated either way.
        manifest = write_speaker_fixture(tmp_path / "data", n_frames=300)
        out = tmp_path / "out"
        assert run_cli("run", "--manifest", manifest, "--out", out, "--rate", rate) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "\n" not in errors[0]
        assert f"needs a grid of {size} samples, more than the limit" in errors[0]
        assert not (out / "utt00.tv.csv").exists()

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

    def test_subnormal_pellet_time_span_is_data_error(self, tmp_path, caplog):
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root)
        write_pellet_csv(
            root / "utt00.csv", [(t, reference_pellets()) for t in (0.0, 1e-320)]
        )
        rc = run_cli("run", "--manifest", manifest, "--out", tmp_path / "out")
        assert rc == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [
            f"utterance {root / 'utt00.csv'}: {root / 'utt00.csv'}: "
            f"1 interval(s) over 1e-320 s give no finite sample rate"
        ]

    @pytest.mark.parametrize(
        "palate, message",
        [
            # A straight palate admits no reference circle.
            (
                [(-20.0 - 5.0 * k, 15.0 - k) for k in range(6)],
                "cannot fit a circle through collinear points",
            ),
            # The soft-palate line through two points meets the wall, so
            # only the reference circle lacks points.
            (
                [(-10.0, 15.0), (-40.0, 10.0)],
                "palate trace has 2 points; a reference circle needs at least 3",
            ),
        ],
        ids=["straight", "two-point"],
    )
    @pytest.mark.parametrize("command", ["run", "anatomy"])
    def test_anatomy_error_names_the_speaker_once(
        self, tmp_path, caplog, command, palate, message
    ):
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root)
        write_trace_csv(root / "palate.csv", palate)
        assert run_cli(command, "--manifest", manifest, "--out", tmp_path / "out") == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"speaker synth: {message}"]

    def test_trace_error_keeps_the_speaker_prefix(self, tmp_path, caplog):
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root)
        (root / "palate.csv").write_text("x,y\n1.0,2.0\nfoo,3.0\n")
        assert run_cli("run", "--manifest", manifest, "--out", tmp_path / "out") == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [
            f"speaker synth: anatomy failed: {root / 'palate.csv'}:3 (x): "
            f"cannot parse 'foo' as a number"
        ]

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

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_degenerate_angle_names_frame_and_time(self, tmp_path, parallelism):
        # T1 on the reference center in frame 3 of utt01 leaves TTCL
        # undefined; utt00 still succeeds, so the run exits 0.
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root, n_utterances=2)
        center = synthetic_anatomy().reference_center
        rows = [(k / 145.0, reference_pellets()) for k in range(10)]
        rows[3] = (3 / 145.0, {**reference_pellets(), "T1": (center.x, center.y)})
        write_pellet_csv(root / "utt01.csv", rows)
        rc, lines = run_cli_process(
            "run", "--manifest", manifest, "--out", tmp_path / "out",
            "--parallelism", parallelism,
        )
        assert rc == 0
        assert lines == [
            f"ERROR tractvar.pipeline: utterance {root / 'utt01.csv'}: "
            f"frame 3 (t = {3 / 145.0!r} s): "
            f"point ({center.x!r}, {center.y!r}) coincides with the reference center"
        ]

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

    # 5e-324 is finite, but its reciprocal, the grid step, is not.
    @pytest.mark.parametrize("rate", ["nan", "inf", "5e-324"])
    def test_non_finite_rate(self, tmp_path, caplog, rate):
        manifest = write_speaker_fixture(tmp_path / "data")
        rc = run_cli(
            "run", "--manifest", manifest, "--out", tmp_path / "out", "--rate", rate
        )
        assert rc == 1
        self.assert_one_line_error(
            caplog,
            "rate must be a positive finite number with a finite reciprocal, "
            f"got {float(rate)}",
        )
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

    def test_speaker_id_cannot_leave_the_output_dir(self, tmp_path, caplog):
        manifest = write_speaker_fixture(tmp_path / "data", speaker_id="../evil")
        out = tmp_path / "data" / "out"
        for command in ("run", "anatomy"):
            caplog.clear()
            assert run_cli(command, "--manifest", manifest, "--out", out) == 1
            self.assert_one_line_error(caplog, "must be a plain file name")
        assert list(tmp_path.glob("**/*.anatomy.json")) == []

    @pytest.mark.parametrize(
        "extra, alias",
        [([], False), (["--parallelism", "2"], False), (["--plots"], False), ([], True)],
        ids=["p1", "p2", "plots", "out-through-symlink"],
    )
    def test_output_cannot_overwrite_an_input(self, tmp_path, caplog, extra, alias):
        # Utterance u.csv writes u.tv.csv, which the manifest lists as an
        # input too; --out is the directory that holds both, or a symlink
        # to it.
        root = tmp_path / "data"
        out = tmp_path / "alias" if alias else root
        manifest = write_speaker_fixture(root, n_utterances=2)
        (root / "utt00.csv").rename(root / "u.csv")
        (root / "utt01.csv").rename(root / "u.tv.csv")
        entry = json.loads(manifest.read_text())
        entry["utterances"] = ["u.csv", "u.tv.csv"]
        manifest.write_text(json.dumps(entry))
        if alias:
            out.symlink_to(root, target_is_directory=True)
        before = {p: p.read_bytes() for p in root.iterdir()}
        assert run_cli("run", "--manifest", manifest, "--out", out, *extra) == 1
        self.assert_one_line_error(
            caplog, f"output {out / 'u.tv.csv'} would overwrite input {root / 'u.tv.csv'}"
        )
        assert {p: p.read_bytes() for p in root.iterdir()} == before

    @pytest.mark.parametrize("command", ["run", "anatomy"])
    def test_output_cannot_overwrite_the_manifest(self, tmp_path, caplog, command):
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root).rename(root / "synth.anatomy.json")
        before = manifest.read_bytes()
        assert run_cli(command, "--manifest", manifest, "--out", root) == 1
        self.assert_one_line_error(
            caplog, f"output {manifest} would overwrite input {manifest}"
        )
        assert manifest.read_bytes() == before

    def test_svg_output_cannot_overwrite_a_trace(self, tmp_path, caplog):
        # The wall trace sits where --plots, and the anatomy subcommand,
        # write the speaker's anatomy SVG; the JSON path resolves to the
        # palate trace through a symlink.
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root)
        (root / "wall.csv").rename(root / "synth.anatomy.svg")
        entry = json.loads(manifest.read_text())
        entry["posterior_wall"] = "synth.anatomy.svg"
        manifest.write_text(json.dumps(entry))
        wall = (root / "synth.anatomy.svg").read_bytes()
        assert run_cli("run", "--manifest", manifest, "--out", root) == 0
        assert (root / "synth.anatomy.svg").read_bytes() == wall
        before = {p: p.read_bytes() for p in root.iterdir()}
        for command, extra in (("run", ["--plots"]), ("anatomy", [])):
            caplog.clear()
            assert run_cli(command, "--manifest", manifest, "--out", root, *extra) == 1
            self.assert_one_line_error(
                caplog,
                f"output {root / 'synth.anatomy.svg'} would overwrite input "
                f"{root / 'synth.anatomy.svg'}",
            )
        out = tmp_path / "out"
        out.mkdir()
        (out / "synth.anatomy.json").symlink_to(root / "palate.csv")
        caplog.clear()
        assert run_cli("anatomy", "--manifest", manifest, "--out", out) == 1
        self.assert_one_line_error(
            caplog,
            f"output {out / 'synth.anatomy.json'} would overwrite input "
            f"{root / 'palate.csv'}",
        )
        assert {p: p.read_bytes() for p in root.iterdir()} == before

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


class RecordingPool(concurrent.futures.ProcessPoolExecutor):
    """The real process pool, recording each construction."""

    built: list[dict] = []

    def __init__(self, max_workers=None, mp_context=None, **kwargs):
        self.built.append({"max_workers": max_workers, "context": mp_context})
        super().__init__(max_workers, mp_context, **kwargs)


class InlinePool(concurrent.futures.Executor):
    """Records its size and runs each task at once in the calling
    process, so that no worker is ever started."""

    built: list[int] = []

    def __init__(self, max_workers=None, mp_context=None):
        self.built.append(max_workers)

    def submit(self, fn, /, *args, **kwargs):
        future = concurrent.futures.Future()
        future.set_result(fn(*args, **kwargs))
        return future


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

    @pytest.fixture
    def pools(self, monkeypatch):
        """Record every pool built, process or thread; return the list
        of process pools."""
        threads = []

        class RecordingThreads(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                threads.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(RecordingPool, "built", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingThreads)
        yield RecordingPool.built
        assert threads == []

    @staticmethod
    def spy_on_workers(monkeypatch, log):
        """Make each compute_trajectory call append its process and thread
        to `log`, a file, so that calls in worker processes are seen."""
        real_compute = pipeline.compute_trajectory

        def spy(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {threading.get_ident()}\n")
            return real_compute(*args, **kwargs)

        monkeypatch.setattr(pipeline, "compute_trajectory", spy)

    def test_serial_in_caller_thread_parallel_in_one_pool(
        self, tmp_path, monkeypatch, pools
    ):
        log = tmp_path / "calls.txt"
        self.spy_on_workers(monkeypatch, log)
        manifest = self.two_speaker_manifest(tmp_path / "data")

        assert run_cli("run", "--manifest", manifest, "--out", tmp_path / "p1") == 0
        here = f"{os.getpid()} {threading.get_ident()}"
        assert log.read_text().splitlines() == [here] * 4
        assert pools == []

        log.unlink()
        assert run_cli(
            "run", "--manifest", manifest, "--out", tmp_path / "p2",
            "--parallelism", 2,
        ) == 0
        pids = [int(line.split()[0]) for line in log.read_text().splitlines()]
        assert len(pids) == 4 and os.getpid() not in pids
        assert len(pools) == 1 and pools[0]["max_workers"] == 2
        assert pools[0]["context"].get_start_method() == "fork"
        for u in range(4):
            name = f"utt{u:02d}.tv.csv"
            assert (tmp_path / "p1" / name).read_bytes() == (tmp_path / "p2" / name).read_bytes()

    def test_workers_capped_at_utterance_count(self, tmp_path, pools):
        manifest = self.two_speaker_manifest(tmp_path / "data")
        out = tmp_path / "p8"
        assert run_cli("run", "--manifest", manifest, "--out", out, "--parallelism", 8) == 0
        assert [pool["max_workers"] for pool in pools] == [4]
        assert len(list(out.glob("*.tv.csv"))) == 4

    def test_huge_parallelism_is_capped_before_the_pool_is_built(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(InlinePool, "built", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        manifest = self.two_speaker_manifest(tmp_path / "data")
        out = tmp_path / "out"
        assert run_cli(
            "run", "--manifest", manifest, "--out", out, "--parallelism", 10**6
        ) == 0
        assert InlinePool.built == [4]
        assert len(list(out.glob("*.tv.csv"))) == 4

    def test_single_utterance_starts_no_pool(self, tmp_path, pools):
        manifest = write_speaker_fixture(tmp_path / "data")
        out = tmp_path / "out"
        assert run_cli("run", "--manifest", manifest, "--out", out, "--parallelism", 2) == 0
        assert pools == []
        assert (out / "utt00.tv.csv").exists()

    def test_dead_worker_is_one_line_and_exit_1(self, tmp_path, monkeypatch, caplog):
        # The patch is made before the pool forks, so workers inherit it.
        real_process = pipeline._process_utterance

        def dies_on_utt02(spec, anat, path, config):
            if path.stem == "utt02":
                os._exit(3)
            return real_process(spec, anat, path, config)

        monkeypatch.setattr(pipeline, "_process_utterance", dies_on_utt02)
        manifest = self.two_speaker_manifest(tmp_path / "data")
        assert run_cli(
            "run", "--manifest", manifest, "--out", tmp_path / "out",
            "--parallelism", 2,
        ) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and "\n" not in errors[0]
        assert errors[0].startswith("run failed: a worker process died (")
        assert all(r.exc_info is None for r in caplog.records)

    def test_info_lines_equal_at_p1_and_p2(self, tmp_path):
        manifest = self.two_speaker_manifest(tmp_path / "data")
        lines = {}
        for n in (1, 2):
            rc, lines[n] = run_cli_process(
                "run", "--manifest", manifest, "--out", tmp_path / f"p{n}",
                "--parallelism", n, TRACTVAR_LOG="info",
            )
            assert rc == 0
        assert sorted(lines[2]) == sorted(lines[1])
        stems = sorted(
            line.split(":")[1].strip() for line in lines[1]
            if line.startswith("INFO tractvar.pipeline:")
        )
        assert stems == ["a/utt00", "a/utt01", "b/utt02", "b/utt03"]

    def test_serial_run_never_imports_multiprocessing(self, tmp_path):
        manifest = self.two_speaker_manifest(tmp_path / "data")
        script = (
            "import sys\n"
            "from tractvar.cli import main\n"
            f"assert main(['run', '--manifest', {str(manifest)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith(('multiprocessing', 'concurrent'))))\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert len(list((tmp_path / "out").glob("*.tv.csv"))) == 4


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
        tvs = TvTrajectory(
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

    @pytest.mark.parametrize("target", ["a", "b", "symlink to a"])
    def test_json_cannot_overwrite_an_input(self, tmp_path, caplog, capsys, target):
        a, b = self.make_tv_files(tmp_path)
        report = {"a": a, "b": b, "symlink to a": tmp_path / "report.json"}[target]
        if target == "symlink to a":
            report.symlink_to(a)
        clobbered = b if target == "b" else a
        before = {p: p.read_bytes() for p in (a, b)}
        assert run_cli("compare", a, b, "--json", report) == 1
        assert capsys.readouterr().out == ""
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"output {report} would overwrite input {clobbered}"]
        assert {p: p.read_bytes() for p in (a, b)} == before

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
