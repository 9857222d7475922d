"""End-to-end command line tests over the synthetic speaker fixture."""

import argparse
import concurrent.futures
import errno
import functools
import json
import logging
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tractvar
from tractvar import cli, pipeline
from tractvar.anatomy import SpeakerAnatomy
from tractvar.cli import main
from tractvar.compare import ComparisonReport, compare_tvs, format_table, ppmc
from tractvar.errors import DataError
from tractvar.tract_variables import TvTrajectory
from tractvar.tvcsv import TV_HEADER, read_tv_csv, write_atomic, write_tv_csv

from helpers import (
    ANGLE_TOL,
    DISTANCE_TOL,
    EXPECTED_TV,
    on_arc,
    palate_coords,
    read_tv_columns,
    reference_pellets,
    synthetic_anatomy,
    translation_bound,
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

    def test_degrees_changes_only_the_tv_csv(self, tmp_path):
        # Each TV panel is scaled to its own range and has no value
        # labels, so no drawn point depends on the angle unit.
        manifest = write_speaker_fixture(tmp_path / "data", constant=False)
        outs = []
        for flags in ([], ["--degrees"]):
            out = tmp_path / f"out{len(flags)}"
            rc = run_cli("run", "--manifest", manifest, "--out", out, "--plots", *flags)
            assert rc == 0
            outs.append(out)
        plain, degrees = outs
        tv_csv = "utt00.tv.csv"
        assert (degrees / tv_csv).read_bytes() != (plain / tv_csv).read_bytes()
        for name in ("utt00.tvs.svg", "synth.anatomy.json", "synth.anatomy.svg"):
            assert (degrees / name).read_bytes() == (plain / name).read_bytes()

    def test_untracked_mandible_pellet_changes_no_tv(self, tmp_path, caplog):
        # The mandible pellets are carried through but not required: MNM at
        # the 1e6 sentinel in every row gives the TV CSV of the tracked take.
        manifest = write_speaker_fixture(tmp_path / "data", constant=False)
        take = tmp_path / "data" / "utt00.csv"
        tracked = tmp_path / "tracked"
        assert run_cli("run", "--manifest", manifest, "--out", tracked) == 0
        header, *rows = take.read_text().splitlines()
        columns = [header.split(",").index(name) for name in ("MNMx", "MNMy")]
        lines = [header]
        for row in rows:
            cells = row.split(",")
            for k in columns:
                cells[k] = "1000000.0"
            lines.append(",".join(cells))
        take.write_text("\n".join(lines) + "\n")
        untracked = tmp_path / "untracked"
        assert run_cli("run", "--manifest", manifest, "--out", untracked) == 0
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
        tv_csv = "utt00.tv.csv"
        assert (untracked / tv_csv).read_bytes() == (tracked / tv_csv).read_bytes()

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
            f"utterance {root / 'utt00.csv'}: "
            f"1 interval(s) over 1e-320 s give no finite sample rate"
        ]

    def test_pellet_time_span_past_the_float_range_is_data_error(self, tmp_path, caplog):
        # t[-1] - t[0] overflows to inf: one error line, not a NumPy warning.
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root)
        write_pellet_csv(
            root / "utt00.csv", [(t, reference_pellets()) for t in (-1e308, 1e308)]
        )
        rc = run_cli("run", "--manifest", manifest, "--out", tmp_path / "out")
        assert rc == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [
            f"utterance {root / 'utt00.csv'}: resampling inf s at 145 Hz needs a grid "
            f"of inf samples, more than the limit of 10,000,000"
        ]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda lines: [lines[0].replace("ULx", "ULX")] + lines[1:],
                ": header does not match the pellet schema (missing columns ['ULx'])",
            ),
            (
                # The first pellet cell of the second data row.
                lambda lines: lines[:2]
                + [re.sub(",[^,]*", ",oops", lines[2], count=1)]
                + lines[3:],
                ":3 (ULx): cannot parse 'oops' as a number",
            ),
        ],
        ids=["header", "cell"],
    )
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_parse_error_names_the_file_once(self, tmp_path, edit, message, parallelism):
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root, n_utterances=2)
        path = root / "utt01.csv"
        path.write_text("".join(line + "\n" for line in edit(path.read_text().splitlines())))
        rc, lines = run_cli_process(
            "run", "--manifest", manifest, "--out", tmp_path / "out",
            "--parallelism", parallelism,
        )
        assert rc == 0
        assert lines == [f"ERROR tractvar.pipeline: utterance {path}{message}"]

    @pytest.mark.parametrize(
        "edit, rc, message",
        [
            (Path.unlink, 1, ": No such file or directory"),
            (
                # T1 mistracked in every frame leaves nothing to interpolate.
                lambda path: write_pellet_csv(path, [
                    (k / 145.0, {**reference_pellets(), "T1": (1e6, 1e6)})
                    for k in range(10)
                ]),
                0,
                ": pellet T1 has 0 valid sample(s), cannot interpolate",
            ),
        ],
        ids=["deleted", "T1-mistracked"],
    )
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_utterance_error_names_the_file_once(
        self, tmp_path, edit, rc, message, parallelism
    ):
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root, n_utterances=2)
        path = root / "utt01.csv"
        edit(path)
        assert run_cli_process(
            "run", "--manifest", manifest, "--out", tmp_path / "out",
            "--parallelism", parallelism,
        ) == (rc, [f"ERROR tractvar.pipeline: utterance {path}{message}"])

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_stalled_grid_fails_its_utterance_alone(self, tmp_path, parallelism):
        # Doubles near 5e13 s are 1/128 s apart, more than a 145 Hz step,
        # so the grid times stop increasing; 100 Hz input times do not.
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root, n_utterances=2)
        path = root / "utt00.csv"
        rows = [(5e13 + k / 100.0, reference_pellets()) for k in range(30)]
        write_pellet_csv(path, rows)
        out = tmp_path / "out"
        assert run_cli_process(
            "run", "--manifest", manifest, "--out", out, "--parallelism", parallelism,
        ) == (0, [
            f"ERROR tractvar.pipeline: utterance {path}: resampling at 145 Hz from "
            f"t = 50000000000000.0 s gives grid times that do not increase at sample 5"
        ])
        written = sorted(p.name for p in out.iterdir())
        assert written == ["synth.anatomy.json", "utt01.tv.csv"]

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

    @pytest.mark.parametrize("command", ["run", "anatomy"])
    def test_unwritable_anatomy_output_fails_its_speaker_alone(
        self, tmp_path, caplog, command
    ):
        manifest = TestExecutor.two_speaker_manifest(tmp_path / "data")
        out = tmp_path / "out"
        (out / "a.anatomy.json").mkdir(parents=True)
        assert run_cli(command, "--manifest", manifest, "--out", out) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [f"speaker a: [Errno 21] Is a directory: '{out / 'a.anatomy.json'}'"]
        written = ["b.anatomy.json", "b.anatomy.svg"]
        if command == "run":
            written = ["b.anatomy.json", "utt02.tv.csv", "utt03.tv.csv"]
        assert sorted(p.name for p in out.iterdir()) == ["a.anatomy.json", *written]
        assert list((out / "a.anatomy.json").iterdir()) == []

    def test_trace_error_keeps_the_speaker_prefix(self, tmp_path, caplog):
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root)
        (root / "palate.csv").write_text("x,y\n1.0,2.0\nfoo,3.0\n")
        assert run_cli("run", "--manifest", manifest, "--out", tmp_path / "out") == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [
            f"speaker synth: {root / 'palate.csv'}:3 (x): "
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
        cx, cy = synthetic_anatomy().reference_center
        rows = [(k / 145.0, reference_pellets()) for k in range(10)]
        rows[3] = (3 / 145.0, {**reference_pellets(), "T1": (cx, cy)})
        write_pellet_csv(root / "utt01.csv", rows)
        rc, lines = run_cli_process(
            "run", "--manifest", manifest, "--out", tmp_path / "out",
            "--parallelism", parallelism,
        )
        assert rc == 0
        assert lines == [
            f"ERROR tractvar.pipeline: utterance {root / 'utt01.csv'}: "
            f"frame 3 (t = {3 / 145.0!r} s): "
            f"point ({cx!r}, {cy!r}) coincides with the reference center"
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

    def test_palate_line_missing_the_wall_is_data_error(self, tmp_path, caplog, capsys):
        # A wall that ends 30 mm up: the soft-palate line passes below it.
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root)
        write_trace_csv(root / "wall.csv", [(x, y) for x, y in wall_coords() if y >= 30])
        assert run_cli("run", "--manifest", manifest, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().out == ""
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [
            "speaker synth: ray from (-44.7916, 26.7208) along (-0.277376, -0.127872) "
            "never meets the trace"
        ]


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

    @pytest.mark.parametrize("value", [None, {}, {"path": "utt00.csv"}, 0, 1.5,
                                       True, [], ["palate.csv"], "", "a\u0000b",
                                       "\ud800", "\udc80.csv", "a\nb", "u\r.csv",
                                       "\t"])
    @pytest.mark.parametrize("key", ["palate", "posterior_wall", "utterances[1]"])
    def test_path_fields_must_be_strings(self, tmp_path, caplog, key, value):
        manifest = write_speaker_fixture(tmp_path / "data", n_utterances=2)
        entry = json.loads(manifest.read_text())
        if key == "utterances[1]":
            entry["utterances"][1] = value
        else:
            entry[key] = value
        manifest.write_text(json.dumps(entry))
        for command in ("run", "anatomy"):
            caplog.clear()
            rc = run_cli(command, "--manifest", manifest, "--out", tmp_path / command)
            assert rc == 1
            errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
            assert errors == [
                f"cannot load manifest: speaker synth: {key} must be a non-empty "
                f"path string, got {value!r}"
            ]
        assert not (tmp_path / "run").exists() and not (tmp_path / "anatomy").exists()

    # A lone surrogate can be escaped in JSON, but no file can be named
    # after it: U+D800 cannot be encoded at all, and U+DC80 encodes as a
    # file name but not as the UTF-8 text of the anatomy figure.
    @pytest.mark.parametrize("speaker_id", ["\ud800", "\udc80"])
    @pytest.mark.parametrize("command", ["run", "anatomy"])
    def test_speaker_id_with_a_lone_surrogate(self, tmp_path, command, speaker_id):
        manifest = write_speaker_fixture(tmp_path / "data", speaker_id=speaker_id)
        assert run_cli_process(
            command, "--manifest", manifest, "--out", tmp_path / "out"
        ) == (1, [
            f"ERROR tractvar.pipeline: cannot load manifest: speaker_id "
            f"{speaker_id!r} must be a plain file name: no '/', '\\', control "
            f"character or lone surrogate, and not '.' or '..'"
        ])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "anatomy"])
    def test_deeply_nested_manifest(self, tmp_path, command):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[" * 100_000)
        assert run_cli_process(
            command, "--manifest", manifest, "--out", tmp_path / "out"
        ) == (1, [
            f"ERROR tractvar.pipeline: cannot load manifest: {manifest}: "
            f"not valid JSON (nested too deeply)"
        ])
        assert not (tmp_path / "out").exists()

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

    @staticmethod
    def shared_stem_manifest(root):
        """Speakers a and b, each listing its own utt00.csv."""
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
        return write_manifest(root, entries)

    def test_shared_utterance_stem(self, tmp_path):
        # Two speakers that both list utt00.csv would write one utt00.tv.csv.
        root = tmp_path / "data"
        manifest = self.shared_stem_manifest(root)
        out = tmp_path / "out"
        assert run_cli_process("run", "--manifest", manifest, "--out", out) == (1, [
            f"ERROR tractvar.pipeline: output {out / 'utt00.tv.csv'} would "
            f"overwrite the output of utterance {root / 'a' / 'utt00.csv'}"
        ])
        assert not out.exists()

    def test_utterance_listed_twice(self, tmp_path):
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root, n_utterances=2)
        entry = json.loads(manifest.read_text())
        entry["utterances"] = ["utt00.csv", "utt01.csv", "utt00.csv"]
        manifest.write_text(json.dumps(entry))
        out = tmp_path / "out"
        assert run_cli_process("run", "--manifest", manifest, "--out", out) == (1, [
            f"ERROR tractvar.pipeline: output {out / 'utt00.tv.csv'} would "
            f"overwrite the output of utterance {root / 'utt00.csv'}"
        ])
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "anatomy"])
    def test_speaker_listed_twice(self, tmp_path, command):
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root, n_utterances=2)
        entry = json.loads(manifest.read_text())
        entries = [{**entry, "utterances": [u]} for u in entry["utterances"]]
        manifest.write_text(json.dumps(entries))
        out = tmp_path / "out"
        assert run_cli_process(command, "--manifest", manifest, "--out", out) == (1, [
            f"ERROR tractvar.pipeline: output {out / 'synth.anatomy.json'} would "
            f"overwrite the output of speaker synth"
        ])
        assert not out.exists()


class RecordingPool(concurrent.futures.ProcessPoolExecutor):
    """The real process pool, recording each construction."""

    built: list[dict] = []

    def __init__(self, max_workers=None, mp_context=None, **kwargs):
        self.built.append({"max_workers": max_workers, "context": mp_context})
        super().__init__(max_workers, mp_context, **kwargs)


class InlinePool(concurrent.futures.Executor):
    """Records its size and runs its initializer and each task at once in
    the calling process, so that no worker is ever started."""

    built: list[int] = []

    def __init__(self, max_workers=None, mp_context=None, initializer=None, initargs=()):
        self.built.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

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
        # The initializer runs here; the worker state it sets is undone.
        monkeypatch.setattr(pipeline, "_worker_jobs", None)
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

        def dies_on_utt02(anat, path, config):
            if path.stem == "utt02":
                os._exit(3)
            return real_process(anat, path, config)

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
        assert lines[2] == lines[1]
        stems = [
            line.split(":")[1].strip() for line in lines[1]
            if line.startswith("INFO tractvar.pipeline:")
        ]
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

    @staticmethod
    def assert_same_outputs(a, b):
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_forked_pool_pickles_no_anatomy(self, tmp_path, monkeypatch):
        # Forked workers inherit the jobs; only indices and outcomes
        # cross the process boundary.
        def refuse(self, protocol):
            raise pickle.PicklingError("a SpeakerAnatomy was pickled")

        monkeypatch.setattr(SpeakerAnatomy, "__reduce_ex__", refuse)
        manifest = self.two_speaker_manifest(tmp_path / "data")
        for n in (1, 2):
            assert run_cli(
                "run", "--manifest", manifest, "--out", tmp_path / f"p{n}",
                "--plots", "--parallelism", n,
            ) == 0
        self.assert_same_outputs(tmp_path / "p1", tmp_path / "p2")

    def test_spawned_workers_log_like_forked_ones(self, tmp_path):
        manifest = self.two_speaker_manifest(tmp_path / "data")
        bad = tmp_path / "data" / "utt03.csv"
        bad.write_text(bad.read_text().replace("ULx", "ULX", 1))
        # Runs the command line where the platform offers only `spawn`,
        # and prints the start methods that the run asked for.
        spawn_only = (
            "import multiprocessing, sys\n"
            "from tractvar.cli import main\n"
            "get_context, asked = multiprocessing.get_context, []\n"
            "multiprocessing.get_all_start_methods = lambda: ['spawn']\n"
            "multiprocessing.get_context = lambda method=None: (\n"
            "    asked.append(method) or get_context(method or 'spawn'))\n"
            "rc = main(sys.argv[1:])\n"
            "print(asked)\n"
            "sys.exit(rc)\n"
        )
        procs = {
            n: run_python(
                *(["-m", "tractvar.cli"] if n == 1 else ["-c", spawn_only]),
                "run", "--manifest", manifest, "--out", tmp_path / f"p{n}",
                "--parallelism", n, TRACTVAR_LOG="info",
            )
            for n in (1, 2)
        }
        assert [procs[n].returncode for n in (1, 2)] == [0, 0]
        assert procs[2].stdout.strip() == "[None]"
        assert procs[2].stderr == procs[1].stderr
        lines = procs[1].stderr.splitlines()
        assert len(lines) == 4
        assert lines[3] == (
            f"ERROR tractvar.pipeline: utterance {bad}: "
            f"header does not match the pellet schema (missing columns ['ULx'])"
        )
        self.assert_same_outputs(tmp_path / "p1", tmp_path / "p2")


class TestAtomicOutputs:
    @staticmethod
    def parts(exc):
        yield "t,LA\n0.0,"
        raise exc

    def test_failed_write_leaves_no_file(self, tmp_path):
        target = tmp_path / "utt.tv.csv"
        with pytest.raises(RuntimeError):
            write_atomic(target, self.parts(RuntimeError("interrupted")))
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_write_keeps_previous_file(self, tmp_path):
        target = tmp_path / "utt.tv.csv"
        target.write_text("previous\n")
        with pytest.raises(KeyboardInterrupt):
            write_atomic(target, self.parts(KeyboardInterrupt()))
        assert target.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_write_names_the_output(self, tmp_path):
        # A disk that fills mid-write: the error names the output, and the
        # temporary file is gone.
        target = tmp_path / "utt.tv.csv"
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        with pytest.raises(OSError) as info:
            write_atomic(target, self.parts(full))
        assert (info.value.errno, info.value.filename) == (errno.ENOSPC, str(target))
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_file(self, tmp_path):
        target = tmp_path / "utt.tv.csv"
        target.write_text("previous\n")
        # A quality code with no label fails the writer on its last row,
        # after the earlier rows went out.
        n = 2000
        tvs = TvTrajectory(
            np.arange(n) / 145.0,
            np.ones((n, 6)),
            np.array([0] * (n - 1) + [99], dtype=np.int8),
        )
        with pytest.raises(IndexError):
            write_tv_csv(tvs, target)
        assert target.read_text() == "previous\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_longest_legal_name(self, tmp_path):
        # The temporary name must fit in the directory whenever the
        # target's name does.
        name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
        target = tmp_path / ("x" * (name_max - len(".anatomy.json")) + ".anatomy.json")
        write_atomic(target, ["{}", "\n"])
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "{}\n"


class TestOutputClash:
    def test_shared_utterance_stem_rejected(self, tmp_path):
        # a/utt00.csv and b/utt00.csv both write out/utt00.tv.csv; the first
        # utterance to plan that file keeps it.
        a, b = tmp_path / "a" / "utt00.csv", tmp_path / "b" / "utt00.csv"
        out = tmp_path / "out" / "utt00.tv.csv"
        outputs = [(out, f"utterance {a}"), (out, f"utterance {b}")]
        assert pipeline.output_clash([a, b], outputs) == (
            f"output {out} would overwrite the output of utterance {a}"
        )
        assert pipeline.output_clash([a, b], outputs[:1]) is None


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

    def test_json_report_does_not_carry_over(self, tmp_path, capsys):
        a, b = self.make_tv_files(tmp_path)
        reports = tmp_path / "reports"
        reports.mkdir()
        assert run_cli("compare", a, b, "--json", reports / "r.json") == 0
        (reports / "r.json").unlink()
        assert run_cli("compare", a, b) == 0
        assert list(reports.iterdir()) == []

    def test_json_report_bytes(self, tmp_path, capsys):
        a, b = self.make_tv_files(tmp_path)
        report = tmp_path / "r.json"
        assert run_cli("compare", a, b, "--json", report) == 0
        got = compare_tvs(a, b)
        fields = {
            "scores": got.scores,
            "average": got.average,
            "n_frames_compared": got.n_frames_compared,
        }
        expected = json.dumps(fields, indent=2, sort_keys=True)
        assert report.read_bytes() == (expected + "\n").encode()
        # The table is printed as it is without --json.
        assert capsys.readouterr().out == format_table(compare_tvs(a, b)) + "\n"

    def test_frame_count_mismatch_is_data_error(self, tmp_path, caplog, capsys):
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
        assert capsys.readouterr().out == ""
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == ["frame counts differ: 20 vs 30"]

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

    def test_ppmc_rejects_unequal_lengths(self):
        with pytest.raises(DataError, match="^series lengths differ: 3 vs 2$"):
            ppmc([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_ppmc_rejects_a_scalar(self):
        with pytest.raises(
            DataError, match=r"^series must be 1-D, got shapes \(\) and \(2,\)$"
        ):
            ppmc(1.0, [1.0, 2.0])

    def test_ppmc_names_both_shapes(self):
        with pytest.raises(
            DataError, match=r"^series must be 1-D, got shapes \(1, 2\) and \(2,\)$"
        ):
            ppmc([[1.0, 2.0]], [1.0, 2.0])

    @pytest.mark.parametrize("series, detail", [
        ([[1.0], [1.0, 2.0]], r"setting an array element with a sequence\."),
        ("ab", r"could not convert string to float: 'ab'\)$"),
    ], ids=["ragged", "string"])
    def test_ppmc_rejects_what_is_not_a_series_of_numbers(self, series, detail):
        with pytest.raises(
            DataError, match=rf"^series must be 1-D sequences of numbers \({detail}"
        ):
            ppmc(series, [1.0, 2.0])

    @pytest.mark.parametrize("series, shape", [([], r"\(0,\)"), ([1.0], r"\(1,\)")])
    def test_ppmc_needs_two_samples(self, series, shape):
        with pytest.raises(DataError, match=f"^need at least 2 samples, got {shape}$"):
            ppmc(series, series)

    def test_timebase_mismatch_message(self, tmp_path):
        a, b = tmp_path / "a.tv.csv", tmp_path / "b.tv.csv"
        for path, last in ((a, 2 / 145), (b, 0.5)):
            rows = [",".join(TV_HEADER)] + [
                f"{t!r},{k},{k},{k},{k},{k},{k},Ok"
                for k, t in enumerate([0.0, 1 / 145, last])
            ]
            path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError) as excinfo:
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

    @pytest.mark.parametrize("target", ["", "."])
    def test_json_to_a_directory_is_config_error(
        self, tmp_path, monkeypatch, caplog, capsys, target
    ):
        a, b = self.make_tv_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert run_cli("compare", a, b, "--json", target) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == ["[Errno 21] Is a directory: '.'"]
        assert sorted(tmp_path.iterdir()) == before

    def test_failed_json_write_keeps_previous_report(self, tmp_path, monkeypatch):
        a, b = self.make_tv_files(tmp_path)
        report = tmp_path / "reports" / "report.json"
        report.parent.mkdir()
        assert run_cli("compare", a, b, "--json", report) == 0
        before = report.read_bytes()
        # A report that cannot be serialised fails before anything is written.
        monkeypatch.setattr(
            cli, "compare_tvs", lambda a, b: ComparisonReport({}, object(), 0)
        )
        with pytest.raises(TypeError):
            run_cli("compare", a, a, "--json", report)
        assert report.read_bytes() == before
        assert list(report.parent.iterdir()) == [report]

    def test_json_in_a_missing_directory_names_the_report(self, tmp_path):
        # The temporary file beside the report cannot be made; the message
        # names the report, not that temporary file.
        a, b = self.make_tv_files(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        report = tmp_path / "nodir" / "x.json"
        proc = run_python(
            "-m", "tractvar.cli", "compare", a, b, "--json", report, TRACTVAR_LOG="warn"
        )
        assert (proc.returncode, proc.stdout, proc.stderr.splitlines()) == (1, "", [
            f"ERROR tractvar.cli: [Errno 2] No such file or directory: '{report}'"
        ])
        assert sorted(tmp_path.rglob("*")) == before

    def test_json_onto_a_directory_names_the_report(self, tmp_path):
        # os.replace fails; the message names the report, not the
        # temporary file, and that file is gone.
        a, _ = self.make_tv_files(tmp_path)
        report = tmp_path / "reports"
        report.mkdir()
        proc = run_python(
            "-m", "tractvar.cli", "compare", a, a, "--json", report, TRACTVAR_LOG="warn"
        )
        assert (proc.returncode, proc.stdout, proc.stderr.splitlines()) == (1, "", [
            f"ERROR tractvar.cli: [Errno 21] Is a directory: '{report}'"
        ])
        assert sorted(tmp_path.iterdir()) == [tmp_path / "data", tmp_path / "out", report]
        assert list(report.iterdir()) == []

    def test_timestamps_past_the_float_range_disagree(self, tmp_path, caplog, capsys):
        # Their difference overflows to inf: one error line, not a warning.
        a, b = tmp_path / "a.tv.csv", tmp_path / "b.tv.csv"
        for path, t0 in ((a, -1e308), (b, 1e308)):
            rows = [f"{t!r},1,2,3,4,5,{k},Ok" for k, t in enumerate((t0, 1.0))]
            path.write_text("\n".join([",".join(TV_HEADER), *rows]) + "\n")
        assert run_cli("compare", a, b) == 2
        assert capsys.readouterr().out == ""
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == ["timestamps disagree at frame 0: -1e+308 vs 1e+308"]

    @pytest.mark.parametrize("exponent", ["e200", "e-200"])
    def test_self_compare_is_unity_at_extreme_magnitudes(
        self, tmp_path, caplog, capsys, exponent
    ):
        # Centred sums of raw values would overflow (LA reads -1.0000) or
        # vanish; nothing may be logged, and no NumPy warning raised.
        path = tmp_path / "a.tv.csv"
        rows = [f"{k / 145!r}" + f",{k}{exponent}" * 6 + ",Ok" for k in range(1, 6)]
        path.write_text("\n".join([",".join(TV_HEADER), *rows]) + "\n")
        assert run_cli("compare", path, path) == 0
        assert capsys.readouterr().out.splitlines()[1].split() == ["1.0000"] * 7
        assert caplog.records == []

    def test_ppmc_of_tiny_series(self):
        assert ppmc([1e-200, 2e-200, 3e-200], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_ppmc_is_exact_under_power_of_two_scaling(self):
        rng = np.random.default_rng(7)
        x = rng.normal(3.0, 1.0, 50)
        y = x + rng.normal(0.0, 1.0, 50)
        r = ppmc(x, y)
        assert 0.5 < r < 0.9
        assert [k for k in range(-1000, 1001) if ppmc(np.ldexp(x, k), y) != r] == []

    @pytest.mark.parametrize("n_ok", [0, 1])
    def test_too_few_ok_frames_is_data_error(self, tmp_path, caplog, capsys, n_ok):
        a, b = tmp_path / "a.tv.csv", tmp_path / "b.tv.csv"
        for path in (a, b):
            rows = [",".join(TV_HEADER)] + [
                f"{k / 145!r},{k},{k},{k},{k},{k},{k},"
                + ("Ok" if k < n_ok else "DegenerateTongue")
                for k in range(4)
            ]
            path.write_text("\n".join(rows) + "\n")
        assert run_cli("compare", a, b) == 2
        assert capsys.readouterr().out == ""
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == [
            f"only {n_ok} frame(s) are Ok in both files; need at least 2"
        ]

    def test_constant_series_is_data_error(self, tmp_path, caplog, capsys):
        manifest = write_speaker_fixture(tmp_path / "data")
        out = tmp_path / "out"
        assert run_cli("run", "--manifest", manifest, "--out", out) == 0
        rc = run_cli("compare", out / "utt00.tv.csv", out / "utt00.tv.csv")
        assert rc == 2
        assert capsys.readouterr().out == ""
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == ["LA: correlation undefined for a constant series"]


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

    def test_shared_utterance_stems_are_accepted(self, tmp_path, caplog):
        # `anatomy` writes no TV files, so utterances may share a stem.
        manifest = TestRunRejectsBadConfig.shared_stem_manifest(tmp_path / "data")
        out = tmp_path / "anat"
        assert run_cli("anatomy", "--manifest", manifest, "--out", out) == 0
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
        assert sorted(p.name for p in out.iterdir()) == [
            "a.anatomy.json", "a.anatomy.svg", "b.anatomy.json", "b.anatomy.svg"
        ]
        for s in ("a", "b"):
            assert json.loads((out / f"{s}.anatomy.json").read_text())["speaker_id"] == s

    @pytest.mark.parametrize("speaker_id", ["a&b", "<x>"])
    def test_figure_title_is_escaped(self, tmp_path, speaker_id):
        manifest = write_speaker_fixture(tmp_path / "data", speaker_id=speaker_id)
        out = tmp_path / "anat"
        assert run_cli("anatomy", "--manifest", manifest, "--out", out) == 0
        svg = ElementTree.parse(out / f"{speaker_id}.anatomy.svg").getroot()
        title = svg.find("{http://www.w3.org/2000/svg}title")
        assert title.text == f"speaker {speaker_id} anatomy"

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


def scaled(coords, factor):
    return [(x * factor, y * factor) for x, y in coords]


class TestOutOfRangeTraces:
    """Traces whose arithmetic leaves the float range are bad data, with
    one error line, no numpy warning and numbers at %g size."""

    def run_anatomy(self, tmp_path, caplog, palate=None, wall=None, thickness=None):
        root = tmp_path / "data"
        manifest = write_speaker_fixture(root)
        if palate is not None:
            write_trace_csv(root / "palate.csv", palate)
        if wall is not None:
            write_trace_csv(root / "wall.csv", wall)
        if thickness is not None:
            entry = json.loads(manifest.read_text())
            manifest.write_text(json.dumps({**entry, "thickness_mm": thickness}))
        rc = run_cli("anatomy", "--manifest", manifest, "--out", tmp_path / "out")
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        return rc, errors, root

    def test_huge_traces(self, tmp_path, caplog):
        palate = scaled(palate_coords(), 1e200)
        rc, errors, root = self.run_anatomy(
            tmp_path, caplog, palate=palate, wall=scaled(wall_coords(), 1e200)
        )
        (x0, y0), (x1, y1) = palate[:2]
        assert (rc, errors) == (2, [
            f"speaker synth: {root / 'palate.csv'}: segment 0 from "
            f"({x0:g}, {y0:g}) to ({x1:g}, {y1:g}) is too long or too short for "
            f"floating-point arithmetic"
        ])

    def test_tiny_segment(self, tmp_path, caplog):
        palate = [(0.0, 0.0), (1e-170, 0.0)] + palate_coords()
        rc, errors, root = self.run_anatomy(tmp_path, caplog, palate=palate)
        assert (rc, errors) == (2, [
            f"speaker synth: {root / 'palate.csv'}: segment 0 from "
            f"(0, 0) to (1e-170, 0) is too long or too short for floating-point "
            f"arithmetic"
        ])

    def test_huge_palate_point_overflows_the_circle_fit(self, tmp_path, caplog):
        palate = [(1e120, 10.0)] + palate_coords()
        rc, errors, _ = self.run_anatomy(tmp_path, caplog, palate=palate)
        assert (rc, errors) == (
            2, ["speaker synth: circle-fit moments overflow; coordinates are too large"]
        )

    def test_far_reference_center_prints_at_g_size(self, tmp_path, caplog):
        palate = [(1e60, 10.0)] + palate_coords()
        rc, errors, _ = self.run_anatomy(tmp_path, caplog, palate=palate)
        assert rc == 2 and len(errors) == 1
        assert errors[0].startswith("speaker synth: palatal reference center (5e+59, ")

    def test_long_palate_extension(self, tmp_path, caplog):
        # A 39 m extension, which would be sampled at 1 mm steps.
        rc, errors, _ = self.run_anatomy(
            tmp_path, caplog, palate=scaled(palate_coords(), 1e3),
            wall=scaled(wall_coords(), 1e3),
        )
        assert rc == 2 and len(errors) == 1
        assert errors[0].startswith(
            "speaker synth: palate extension to the anterior wall is 38763.2 mm long"
        )
        assert errors[0].endswith("more than 1000 mm; traces look inconsistent")

    def test_extension_samples_round_together(self, tmp_path, caplog):
        # Near x = 1e16 the float spacing is 2 mm, so the first 1 mm
        # sample of the extension rounds onto the palate's last point.
        x = 1e16
        palate = [(x + 30.0, -10.0), (x + 20.0, 6.0), (x + 10.0, 10.0), (x, 10.0)]
        wall = [(x - 66.0, 30.0), (x - 66.0, -40.0)]
        rc, errors, _ = self.run_anatomy(tmp_path, caplog, palate=palate, wall=wall)
        assert (rc, errors) == (
            2, ["speaker synth: extended palate: zero-length segment at index 3"]
        )

    @pytest.mark.parametrize(
        "thickness, message",
        [
            # A wall at x = 1e308 shifted past the float range.
            (1e308, "non-finite coordinates (inf, 40.0)"),
            # Wall points 3e-14 mm apart rounded into one.
            (1e6, "zero-length segment at index 0"),
        ],
    )
    def test_huge_thickness(self, tmp_path, caplog, thickness, message):
        if thickness == 1e308:
            wall = [(1e308, y) for _, y in wall_coords()]
        else:
            wall = wall_coords()
            wall.insert(1, (wall[0][0] + 3e-14, wall[0][1]))
        rc, errors, _ = self.run_anatomy(tmp_path, caplog, wall=wall, thickness=thickness)
        assert (rc, errors) == (
            2, [f"speaker synth: anterior wall {thickness:g} mm forward: {message}"]
        )


class TestOneLineLogs:
    """A path holding a newline is logged with the newline escaped, so
    that each record stays one line of stderr."""

    @staticmethod
    def fixture(tmp_path):
        root = tmp_path / "d\nx"
        manifest = write_speaker_fixture(root)
        return root, manifest, str(root).replace("\n", "\\n")

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_missing_utterance(self, tmp_path, parallelism):
        root, manifest, shown = self.fixture(tmp_path)
        entry = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**entry, "utterances": ["missing.csv"]}))
        proc = run_python(
            "-m", "tractvar.cli", "run", "--manifest", manifest,
            "--out", tmp_path / "out", "--parallelism", parallelism,
        )
        assert (proc.returncode, proc.stderr) == (1, (
            f"ERROR tractvar.pipeline: utterance {shown}/missing.csv: "
            f"No such file or directory\n"
        ))

    def test_refused_output(self, tmp_path):
        # The palate file has the name of the speaker's anatomy output, and
        # --out is the directory that holds it.
        root, manifest, shown = self.fixture(tmp_path)
        (root / "palate.csv").rename(root / "synth.anatomy.json")
        entry = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**entry, "palate": "synth.anatomy.json"}))
        proc = run_python("-m", "tractvar.cli", "anatomy", "--manifest", manifest,
                          "--out", root)
        assert (proc.returncode, proc.stderr) == (1, (
            f"ERROR tractvar.pipeline: output {shown}/synth.anatomy.json "
            f"would overwrite input {shown}/synth.anatomy.json\n"
        ))

    def test_trace_warning(self, tmp_path):
        root, manifest, shown = self.fixture(tmp_path)
        write_trace_csv(root / "palate.csv", palate_coords()[::-1])
        proc = run_python("-m", "tractvar.cli", "anatomy", "--manifest", manifest,
                          "--out", tmp_path / "out")
        assert (proc.returncode, proc.stderr) == (0, (
            f"WARNING tractvar.ingest: {shown}/palate.csv: palate trace was "
            f"ordered by ascending x; reversed on load\n"
        ))

    def test_each_call_reads_the_log_level(self, tmp_path):
        # Two calls of `main` in one interpreter, at `error` and then at
        # `warn`: the second call prints its warning, once.
        root, manifest, shown = self.fixture(tmp_path)
        write_trace_csv(root / "palate.csv", palate_coords()[::-1])
        script = (
            "import os, sys\n"
            "from tractvar.cli import main\n"
            "for level, out in zip(('error', 'warn'), sys.argv[2:]):\n"
            "    os.environ['TRACTVAR_LOG'] = level\n"
            "    assert main(['anatomy', '--manifest', sys.argv[1], '--out', out]) == 0\n"
        )
        proc = run_python("-c", script, manifest, tmp_path / "a", tmp_path / "b")
        assert (proc.returncode, proc.stderr) == (0, (
            f"WARNING tractvar.ingest: {shown}/palate.csv: palate trace was "
            f"ordered by ascending x; reversed on load\n"
        ))


class TestLogLevel:
    @pytest.mark.parametrize("value", ["verbose", "2"])
    def test_unknown_name_is_warned_about_and_means_warn(self, tmp_path, value):
        manifest = write_speaker_fixture(tmp_path / "data")
        code, stderr = run_cli_process(
            "anatomy", "--manifest", manifest, "--out", tmp_path / "out", TRACTVAR_LOG=value
        )
        assert (code, stderr) == (0, [
            f"WARNING tractvar.cli: TRACTVAR_LOG={value!r} is not one of "
            f"error, warn, warning, info, debug; using warn"
        ])

    @pytest.mark.parametrize("value", ["", " Error "])
    def test_empty_or_known_name_is_not_warned_about(self, tmp_path, value):
        manifest = write_speaker_fixture(tmp_path / "data")
        code, stderr = run_cli_process(
            "anatomy", "--manifest", manifest, "--out", tmp_path / "out", TRACTVAR_LOG=value
        )
        assert (code, stderr) == (0, [])


class TestArgParsing:
    def test_no_subcommand_exits(self):
        assert main([]) == 1

    def test_unknown_subcommand_exits(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["run", "--manifest", "m.json", "--out", "o", "--parallelism", "x"],
                "argument --parallelism: invalid int value: 'x'",
            ),
            (["run", "--out", "o"], "the following arguments are required: --manifest"),
            (["compare", "a.tv.csv"], "the following arguments are required: file_b"),
            (
                ["anatomy", "--manifest", "m.json", "--out", "o", "--frobnicate"],
                "unrecognized arguments: --frobnicate",
            ),
        ],
        ids=["invalid-int", "missing-option", "missing-positional", "unknown-flag"],
    )
    def test_usage_error_is_one_line_and_exit_1(self, caplog, capsys, argv, message):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "")
        assert [(r.levelname, r.name, r.getMessage()) for r in caplog.records] == [
            ("ERROR", "tractvar.cli", message)
        ]

    def test_help_prints_usage_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tractvar run")

    @pytest.mark.parametrize(
        "value, line",
        [
            ("0", "ERROR tractvar.cli: parallelism must be >= 1, got 0"),
            ("x", "ERROR tractvar.cli: argument --parallelism: invalid int value: 'x'"),
        ],
    )
    def test_module_run_logs_as_tractvar_cli(self, tmp_path, value, line):
        manifest = write_speaker_fixture(tmp_path / "data")
        rc, lines = run_cli_process(
            "run", "--manifest", manifest, "--out", tmp_path / "out",
            "--parallelism", value,
        )
        assert (rc, lines) == (1, [line])


class TestSharedParser:
    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        cli._build_parser.cache_clear()
        manifest = write_speaker_fixture(tmp_path / "data")
        for k in range(3):
            assert run_cli("anatomy", "--manifest", manifest, "--out", tmp_path / f"o{k}") == 0
            assert run_cli("run", "--parallelism", "x") == 1
        # The program's parser and one per subcommand.
        assert len(built) == 4

    def test_run_flags_do_not_carry_over(self, tmp_path):
        manifest = write_speaker_fixture(tmp_path / "data")
        deg, rad = tmp_path / "deg", tmp_path / "rad"
        assert run_cli("run", "--manifest", manifest, "--out", deg, "--degrees") == 0
        assert run_cli("run", "--manifest", manifest, "--out", rad) == 0
        _, degrees, _ = read_tv_columns(deg / "utt00.tv.csv")
        _, radians, _ = read_tv_columns(rad / "utt00.tv.csv")
        for v in radians["TBCL"]:
            assert v == pytest.approx(math.radians(33.75), abs=ANGLE_TOL)
        assert radians["TBCL"] == pytest.approx([math.radians(v) for v in degrees["TBCL"]])


def _lines(change):
    """Edit: apply `change` to the file's list of lines."""
    return lambda text: "".join(line + "\n" for line in change(text.splitlines()))


def _numbers(columns, change):
    """Edit: replace every number v in the data columns that `columns(k,
    timed)` picks with `change(v)`; a pellet file (timed) keeps its time
    in column 0."""
    def edit(lines):
        timed = bool(lines) and lines[0].startswith("t,")
        out = lines[:1]
        for line in lines[1:]:
            cells = line.split(",")
            for k, cell in enumerate(cells):
                try:
                    if columns(k, timed):
                        cells[k] = change(float(cell))
                except ValueError:
                    pass
            out.append(",".join(cells))
        return out
    return _lines(edit)


def _scale_coords(factor):
    return _numbers(lambda k, timed: k > 0 or not timed, lambda v: repr(v * factor))


def _scale_times(factor):
    return _numbers(lambda k, timed: k == 0 and timed, lambda v: repr(v * factor))


def _translate_coords(dx, dy):
    """Edit: move every point by (dx, dy).  A trace file holds x, y; a
    pellet file t, then x, y for each pellet."""
    move_x = _numbers(lambda k, timed: k % 2 == timed, lambda v: repr(v + dx))
    move_y = _numbers(lambda k, timed: k > 0 and k % 2 != timed, lambda v: repr(v + dy))
    return lambda text: move_y(move_x(text))


# Each edit maps a file's text to new text, to bytes, or to None (delete).
FILE_EDITS = {
    "empty": lambda text: "",
    "not-utf8": lambda text: text.encode(errors="surrogateescape") + b"\xff\xfe\n",
    "delete": lambda text: None,
    "header-only": _lines(lambda lines: lines[:1]),
    "two-rows": _lines(lambda lines: lines[:3]),
    "repeat-last-row": _lines(lambda lines: lines + lines[-1:]),
    "extra-cell": _lines(lambda lines: lines[:1] + [f"{x},0" for x in lines[1:2]] + lines[2:]),
    "straight": _lines(
        lambda lines: lines[:1] + [f"{-20.0 - 5.0 * k!r},{15.0 - k!r}" for k in range(6)]
    ),
    "huge-first-point": _lines(lambda lines: lines[:1] + ["1e120,10.0"] + lines[1:]),
    "nan-cell": _numbers(lambda k, timed: k == 1, lambda v: "nan"),
    "coords-1e200": _scale_coords(1e200),
    "coords-1e120": _scale_coords(1e120),
    "coords-1e3": _scale_coords(1e3),
    "coords-1e-200": _scale_coords(1e-200),
    "coords-sentinel": _numbers(lambda k, timed: k > 0 and timed, lambda v: "9.9e5"),
    "times-1e300": _scale_times(1e300),
    "times-1e-320": _scale_times(1e-320),
}
MANIFEST_VALUES = [
    None, 0, -1.0, 1e6, 1e308, "", "..", "a/b", "M", [], {}, "nope.csv",
    "palate.csv", "utt00.csv", ["utt00.csv", "utt00.csv"], ["palate.csv"],
    {"path": "palate.csv"}, [None], [{}], [0], [""], [["utt00.csv"]],
    "a\u0000b", "\ud800", "\udc80.csv", ["\ud800.csv"], "a\nb", "u\r.csv", "\t",
]

# What a byte edit swaps in: tokens that float(), csv, UTF-8 and JSON each
# treat their own way.
BYTE_TOKENS = [b"nan", b"1e999", b"\xff", b"\x00", b"\xef\xbb\xbf", b'"', b'"0"', b"1_0"]


@dataclass(frozen=True)
class ByteEdit:
    """Edit: one mutation of a file's bytes, at the offset, line or cell
    that `i` and `j` pick modulo the file's own sizes."""

    kind: str
    i: int
    j: int
    token: bytes

    def __call__(self, data: bytes) -> bytes:
        k = self.i % (len(data) + 1)
        if self.kind == "truncate":
            return data[:k]
        if self.kind == "flip":
            if not data:
                return data
            k %= len(data)
            return data[:k] + bytes([data[k] ^ (1 << self.j % 8)]) + data[k + 1 :]
        if self.kind == "token":
            return data[:k] + self.token + data[k + self.j % 4 :]
        lines = data.split(b"\n")
        i, j = self.i % len(lines), self.j % len(lines)
        if self.kind == "swap lines":
            lines[i], lines[j] = lines[j], lines[i]
        elif self.kind == "duplicate line":
            lines.insert(i, lines[i])
        else:  # "cell"
            cells = lines[i].split(b",")
            cells[self.j % len(cells)] = self.token
            lines[i] = b",".join(cells)
        return b"\n".join(lines)


BYTE_EDITS = st.builds(
    ByteEdit,
    kind=st.sampled_from(["truncate", "flip", "token", "swap lines", "duplicate line", "cell"]),
    i=st.integers(0, 1 << 16),
    j=st.integers(0, 63),
    token=st.sampled_from(BYTE_TOKENS),
)


class TestCliContract:
    """Whatever the arguments and files, `main` returns 0, 1 or 2 without
    raising, logs only one-line `LEVEL name: message` records, and leaves
    no temporary file and no truncated output.  A `run` of a corpus with
    one input edited byte by byte keeps its outputs apart: an edited
    pellet file leaves the other utterance's TV file as a clean run
    writes it, and on exit 0 every speaker has its anatomy and every
    utterance its TV file or one ERROR line."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("corpus")
        write_speaker_fixture(root / "data", n_utterances=2, constant=False)
        (root / "tv").mkdir()
        assert run_cli("run", "--manifest", root / "data" / "manifest.json",
                       "--out", root / "tv") == 0
        for name, utterance in (("a", "utt00"), ("b", "utt01")):
            (root / "tv" / f"{utterance}.tv.csv").rename(root / "tv" / f"{name}.tv.csv")
        (root / "tv" / "synth.anatomy.json").unlink()
        return root

    @pytest.fixture(scope="class")
    def clean_tv(self, corpus, tmp_path_factory):
        """utt01's TV file bytes from a `run` of the unedited corpus with
        the given flags."""
        @functools.cache
        def run(flags):
            out = tmp_path_factory.mktemp("clean")
            manifest = corpus / "data" / "manifest.json"
            argv = ["run", "--manifest", str(manifest), "--out", str(out)]
            assert main(argv + [token for flag in flags for token in flag]) == 0
            return (out / "utt01.tv.csv").read_bytes()
        return run

    @staticmethod
    def edit_files(work, edits):
        for target, edit in edits:
            path = work / target
            if not path.exists():
                continue
            if isinstance(edit, ByteEdit):
                path.write_bytes(edit(path.read_bytes()))
                continue
            text = path.read_text(errors="surrogateescape")
            if isinstance(edit, tuple):
                # A manifest key set to a value, or (None, value) for the
                # whole manifest.
                key, value = edit
                try:
                    entry = json.loads(text)
                except ValueError:
                    continue
                if key is None:
                    path.write_text(json.dumps(value))
                elif isinstance(entry, dict):
                    path.write_text(json.dumps({**entry, key: value}))
                continue
            text = FILE_EDITS[edit](text)
            if text is None:
                path.unlink()
            elif isinstance(text, bytes):
                path.write_bytes(text)
            else:
                path.write_text(text, errors="surrogateescape")

    @staticmethod
    def argv_for(work, command, flags, out, report):
        manifest = str(work / "data" / "manifest.json")
        outs = {
            "out": work / "out",
            "data": work / "data",
            "a file": work / "data" / "manifest.json",
            "under a file": work / "data" / "palate.csv" / "out",
        }
        if command == "compare":
            a, b = str(work / "tv" / "a.tv.csv"), str(work / "tv" / "b.tv.csv")
            argv = ["compare", a, b]
            if report is not None:
                argv += ["--json", str({"report": work / "report.json", "a": a,
                                        "missing dir": work / "no" / "r.json",
                                        "a dir": work / "tv"}[report])]
            return argv
        argv = [command, "--manifest", manifest, "--out", str(outs[out])]
        if command == "run":
            for flag in flags:
                argv += flag
        return argv

    @settings(
        max_examples=200,
        deadline=None,
        database=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        command=st.sampled_from(["run", "run", "anatomy", "compare"]),
        flags=st.lists(
            st.one_of(
                st.sampled_from([["--degrees"], ["--clamp-tbcd"], ["--plots"]]),
                st.tuples(st.just("--rate"), st.sampled_from(
                    ["145.0", "72.5", "0.0", "-1.0", "nan", "5e-324", "1e300", "x", ""]
                )).map(list),
                st.tuples(st.just("--parallelism"), st.sampled_from(
                    ["1", "2", "0", "-1", "x", ""]
                )).map(list),
            ),
            max_size=3,
        ),
        out=st.sampled_from(["out", "out", "out", "data", "a file", "under a file"]),
        report=st.sampled_from([None, "report", "a", "missing dir", "a dir"]),
        edits=st.lists(
            st.one_of(
                st.tuples(
                    st.sampled_from(["data/palate.csv", "data/wall.csv",
                                     "data/utt00.csv", "data/manifest.json",
                                     "tv/b.tv.csv"]),
                    st.sampled_from(sorted(FILE_EDITS)),
                ),
                st.tuples(
                    st.sampled_from(["data/palate.csv", "data/wall.csv",
                                     "data/utt00.csv", "data/manifest.json"]),
                    BYTE_EDITS,
                ),
                st.tuples(
                    st.just("data/manifest.json"),
                    st.tuples(
                        st.sampled_from([None, "speaker_id", "sex", "thickness_mm",
                                         "palate", "posterior_wall", "utterances"]),
                        st.sampled_from(MANIFEST_VALUES),
                    ),
                ),
            ),
            max_size=2,
        ),
        token_edits=st.lists(
            st.tuples(
                st.sampled_from(["drop", "insert", "replace"]),
                st.integers(0, 12),
                st.sampled_from(["--frobnicate", "-x", "--", "run", "compare",
                                 "--json", "--out", "--manifest", "--degrees", ""]),
            ),
            max_size=1,
        ),
    )
    def test_exit_code_log_lines_and_outputs(
        self, corpus, tmp_path, monkeypatch, caplog, capsys,
        command, flags, out, report, edits, token_edits,
    ):
        with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
            work = Path(scratch)
            # Relative paths from mutated tokens land in the scratch directory.
            monkeypatch.chdir(work)
            for name in ("data", "tv"):
                shutil.copytree(corpus / name, work / name)
            self.edit_files(work, edits)
            argv = self.argv_for(work, command, flags, out, report)
            for op, k, token in token_edits:
                k %= len(argv) + 1
                if op == "insert":
                    argv.insert(k, token)
                elif k < len(argv):
                    if op == "drop":
                        del argv[k]
                    else:
                        argv[k] = token
            self.run_main(work, argv, caplog, capsys)

    def test_byte_edits_keep_run_outputs_apart(
        self, corpus, clean_tv, tmp_path, monkeypatch, caplog, capsys
    ):
        exits = Counter()

        @settings(max_examples=150, deadline=None, database=None, derandomize=True)
        @given(
            target=st.sampled_from(["data/utt00.csv", "data/utt00.csv", "data/palate.csv",
                                    "data/wall.csv", "data/manifest.json"]),
            edits=st.lists(BYTE_EDITS, min_size=1, max_size=2),
            flags=st.sampled_from([(), (), (), (), (), (("--degrees",), ("--clamp-tbcd",)),
                                   (("--rate", "72.5"), ("--plots",)),
                                   (("--parallelism", "2"),)]),
        )
        def case(target, edits, flags):
            with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
                work = Path(scratch)
                monkeypatch.chdir(work)
                shutil.copytree(corpus / "data", work / "data")
                self.edit_files(work, [(target, edit) for edit in edits])
                rc = self.run_main(work, self.argv_for(work, "run", flags, "out", None),
                                   caplog, capsys)
                if target == "data/utt00.csv":
                    assert (work / "out" / "utt01.tv.csv").read_bytes() == clean_tv(flags)
                if rc == 0:
                    # One failed utterance still exits 0.
                    self.check_planned_outputs(work, caplog.records)
                exits[rc] += 1

        case()
        counts = ", ".join(f"{exits[rc]} exit {rc}" for rc in sorted(exits))
        print(f"BYTE EDITS: PASS ({exits.total()} cases: {counts})")

    @staticmethod
    def run_main(work, argv, caplog, capsys):
        """Run `main` and check the contract; returns its exit code."""
        before = {p: p.stat().st_mtime_ns for p in work.rglob("*") if p.is_file()}
        caplog.clear()
        capsys.readouterr()

        rc = main(argv)

        assert rc in (0, 1, 2)
        assert capsys.readouterr().err == ""
        for r in caplog.records:
            line = f"{r.levelname} {r.name}: {r.getMessage()}"
            assert re.fullmatch(r"(DEBUG|INFO|WARNING|ERROR) tractvar(\.\w+)+: [^\n]+", line)
        written = [p for p in work.rglob("*") if p.is_file()
                   and before.get(p) != p.stat().st_mtime_ns]
        assert [p for p in written if p.name.endswith(".tmp")] == []
        for path in written:
            if path.name.endswith(".tv.csv"):
                read_tv_csv(path)
            elif path.suffix == ".json":
                json.loads(path.read_text())
            elif path.suffix == ".svg":
                assert path.read_text().endswith("</svg>")
        return rc

    @staticmethod
    def check_planned_outputs(work, records):
        """Every speaker of the manifest has its anatomy JSON in `out`, and
        every utterance its TV file or exactly one ERROR line naming it."""
        data = work / "data"
        entries = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
        errors = [r.getMessage() for r in records if r.levelno == logging.ERROR]
        for entry in entries if isinstance(entries, list) else [entries]:
            assert (work / "out" / f"{entry['speaker_id']}.anatomy.json").is_file()
            for name in entry["utterances"]:
                if not (work / "out" / f"{Path(name).stem}.tv.csv").is_file():
                    named = [e for e in errors if e.startswith(f"utterance {data / name}:")]
                    assert len(named) == 1, (name, errors)


class TestTranslatedSession:
    """The TVs are relative measures, through the whole command line: a
    corpus moved by (dx, dy) moves LP by dx and leaves the other TVs as
    they are up to rounding, and its anatomy moves by (dx, dy)."""

    def test_run_outputs_move_with_the_session(self, tmp_path):
        dx, dy = 123.4, -56.7
        bound = translation_bound(dx, dy)
        outs = []
        for name, edit in (("base", None), ("moved", _translate_coords(dx, dy))):
            root = tmp_path / name
            manifest = write_speaker_fixture(root, n_utterances=2, constant=False)
            if edit is not None:
                for path in root.glob("*.csv"):
                    path.write_text(edit(path.read_text()))
            assert run_cli("run", "--manifest", manifest, "--out", root / "out") == 0
            outs.append(root / "out")
        base, moved = outs

        for stem in ("utt00", "utt01"):
            t0, v0, q0 = read_tv_csv(base / f"{stem}.tv.csv")
            t1, v1, q1 = read_tv_csv(moved / f"{stem}.tv.csv")
            assert t1.tobytes() == t0.tobytes()
            assert q1.tolist() == q0.tolist()
            np.testing.assert_array_equal(v1[:, 1], v0[:, 1] + dx)
            others = [0, 2, 3, 4, 5]
            assert np.abs(v1[:, others] - v0[:, others]).max() <= bound

        a0 = json.loads((base / "synth.anatomy.json").read_text())
        a1 = json.loads((moved / "synth.anatomy.json").read_text())
        assert a1.keys() == a0.keys()
        for key in a0:
            if key in ("palate", "posterior_wall", "anterior_wall",
                       "extended_palate", "reference_center"):
                p0 = np.array(a0[key])
                p1 = np.array(a1[key])
                assert p1.shape == p0.shape
                assert np.abs(p1 - p0 - (dx, dy)).max() <= bound
            else:
                assert a1[key] == a0[key]
