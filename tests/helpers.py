"""Synthetic speaker fixture with analytically known tract variables.

The palate is a circular arc of radius 35 mm about (-30, -5), traced at
0.5 degree steps from 40 degrees (anterior) down to -25 degrees, and the
posterior pharyngeal wall is vertical at x = -80.  Pellets are placed on
rays from the arc center so every tract variable has a closed form:

* the tongue-body circle has radius 15 and its center sits 3.6 mm from
  the arc center along the 33.75 degree direction (a chord midpoint of
  the sampled arc, so the discretized closest-point direction matches
  the analytic one), giving TBCD = 35 - 3.6 - 15 and TBCL = 33.75 deg;
* T1 sits on the 10 degree ray at radius 30, giving TTCD = 5 and
  TTCL = 10 deg;
* the lip pellets are 3 mm apart in x and 4 in y, giving LA = 5 and
  LP = -1.5.

Chord sagitta at 0.5 degree spacing perturbs the distances by at most
35 * (1 - cos(0.25 deg)) ~ 3.3e-4 mm, well inside the 5e-3 tolerance the
tests use.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from tractvar.anatomy import Sex, build_speaker_anatomy
from tractvar.geometry import Polyline
from tractvar.tract_variables import (
    PELLET_NAMES,
    QUALITY_LABELS,
    REQUIRED_PELLETS,
    TV_NAMES,
    PelletFrame,
)
from tractvar.tvcsv import read_tv_csv

from reference import Point2D, points, polyline

PALATE_CENTER = (-30.0, -5.0)
PALATE_RADIUS = 35.0
ARC_START_DEG = 40.0
ARC_END_DEG = -25.0
ARC_STEP_DEG = 0.5
WALL_X = -80.0

TB_DIR_DEG = 33.75
TB_OFFSET_MM = 3.6
TB_RADIUS_MM = 15.0
T1_DIR_DEG = 10.0
T1_RADIUS_MM = 30.0

EXPECTED_TV = {
    "LA": 5.0,
    "LP": -1.5,
    "TBCL": math.radians(TB_DIR_DEG),
    "TBCD": PALATE_RADIUS - TB_OFFSET_MM - TB_RADIUS_MM,
    "TTCL": math.radians(T1_DIR_DEG),
    "TTCD": PALATE_RADIUS - T1_RADIUS_MM,
}

DISTANCE_TOL = 5e-3
ANGLE_TOL = 1e-3


def translation_bound(dx: float, dy: float) -> float:
    """How far a value derived from the fixture may move when the whole
    session frame moves by (dx, dy).

    Rounding the moved coordinates errs by an ulp of the largest
    magnitude in play, which grows with the shift; the 100 mm term is
    the extent of the fixture itself.
    """
    return 64 * np.finfo(np.float64).eps * (max(abs(dx), abs(dy)) + 100.0)


def brute_points_to_polyline(
    xs: np.ndarray, ys: np.ndarray, trace: Polyline
) -> float:
    """Smallest distance from any of the sample points to the trace.

    Independent route: plain clamped-projection math per segment over
    the whole sample cloud, no shared code with the library query.
    """
    best = np.full(xs.shape, np.inf)
    pts = points(trace)
    for i in range(len(pts) - 1):
        ax, ay = pts[i].x, pts[i].y
        dx, dy = pts[i + 1].x - ax, pts[i + 1].y - ay
        len2 = dx * dx + dy * dy
        t = np.clip(((xs - ax) * dx + (ys - ay) * dy) / len2, 0.0, 1.0)
        d2 = (xs - (ax + t * dx)) ** 2 + (ys - (ay + t * dy)) ** 2
        best = np.minimum(best, d2)
    return float(np.sqrt(best.min()))


def on_arc(deg: float, radius: float = PALATE_RADIUS) -> tuple[float, float]:
    """Point at `radius` from the arc center along the `deg` direction
    (degrees from +y, positive toward +x)."""
    rad = math.radians(deg)
    return (
        PALATE_CENTER[0] + radius * math.sin(rad),
        PALATE_CENTER[1] + radius * math.cos(rad),
    )


def palate_coords(step_deg: float = ARC_STEP_DEG) -> list[tuple[float, float]]:
    n = round((ARC_START_DEG - ARC_END_DEG) / step_deg)
    return [on_arc(ARC_START_DEG - k * step_deg) for k in range(n + 1)]


def wall_coords() -> list[tuple[float, float]]:
    return [(WALL_X, float(y)) for y in range(40, -41, -5)]


def reference_pellets() -> dict[str, tuple[float, float]]:
    cx, cy = on_arc(TB_DIR_DEG, radius=TB_OFFSET_MM)
    return {
        "UL": (-1.5, 13.0),
        "LL": (1.5, 9.0),
        "T1": on_arc(T1_DIR_DEG, radius=T1_RADIUS_MM),
        "T2": (cx + TB_RADIUS_MM, cy),
        "T3": (cx, cy - TB_RADIUS_MM),
        "T4": (cx - TB_RADIUS_MM, cy),
        "MNI": (-20.0, -15.0),
        "MNM": (-35.0, -12.0),
    }


def synthetic_anatomy(step_deg: float = ARC_STEP_DEG):
    palate = polyline(Point2D(x, y) for x, y in palate_coords(step_deg))
    wall = polyline(Point2D(x, y) for x, y in wall_coords())
    return build_speaker_anatomy("synth", palate, wall, Sex.FEMALE)


def make_frame(
    t: float,
    pellets: dict[str, tuple[float, float]] | None = None,
    invalid: set[str] | None = None,
) -> PelletFrame:
    coords = reference_pellets() if pellets is None else pellets
    valid = set(REQUIRED_PELLETS) - (invalid or set())
    kwargs = {name.lower(): Point2D(*coords[name]) for name in REQUIRED_PELLETS}
    return PelletFrame(t=t, valid=frozenset(valid), **kwargs)


def write_trace_csv(path: Path, coords: list[tuple[float, float]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in coords:
            writer.writerow([repr(x), repr(y)])


def write_pellet_csv(
    path: Path,
    rows: list[tuple[float, dict[str, tuple[float, float]]]],
) -> None:
    header = ["t"]
    for name in PELLET_NAMES:
        header.extend([f"{name}x", f"{name}y"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, coords in rows:
            row = [repr(t)]
            for name in PELLET_NAMES:
                x, y = coords[name]
                row.extend([repr(x), repr(y)])
            writer.writerow(row)


def wobbled_pellets(phase: float, amp: float = 0.8) -> dict[str, tuple[float, float]]:
    """Reference placement with a smooth, valid perturbation.

    Every tract variable ends up non-constant over a cycle, so the
    correlation of two such series is always defined.
    """
    coords = dict(reference_pellets())
    dx = amp * math.sin(phase)
    dy = amp * math.cos(phase)
    for name in ("T1", "T2", "T3", "T4"):
        x, y = coords[name]
        coords[name] = (x + dx, y + dy)
    x, y = coords["LL"]
    coords["LL"] = (x, y - 0.5 * amp * math.sin(phase))
    x, y = coords["UL"]
    coords["UL"] = (x + 0.3 * amp * math.sin(phase + 1.0), y)
    return coords


def write_take(path: Path, n_frames: int, rate: float = 400.0) -> None:
    """Write a plain pellet file (no quoting, padding or sentinel) of
    `n_frames` wobbled samples at `rate` Hz, one wobble a second."""
    write_pellet_csv(
        path,
        [(k / rate, wobbled_pellets(2.0 * math.pi * k / rate)) for k in range(n_frames)],
    )


def write_speaker_fixture(
    root: Path,
    n_frames: int = 30,
    n_utterances: int = 1,
    rate: float = 145.0,
    constant: bool = True,
    speaker_id: str = "synth",
) -> Path:
    """Write trace files, pellet CSVs, and a manifest; returns the manifest path."""
    root.mkdir(parents=True, exist_ok=True)
    write_trace_csv(root / "palate.csv", palate_coords())
    write_trace_csv(root / "wall.csv", wall_coords())
    utterances = []
    for u in range(n_utterances):
        rows = []
        for k in range(n_frames):
            t = k / rate
            if constant:
                coords = reference_pellets()
            else:
                coords = wobbled_pellets(2.0 * math.pi * (k / n_frames + u / 7.0))
            rows.append((t, coords))
        name = f"utt{u:02d}.csv"
        write_pellet_csv(root / name, rows)
        utterances.append(name)
    manifest = {
        "speaker_id": speaker_id,
        "sex": "F",
        "palate": "palate.csv",
        "posterior_wall": "wall.csv",
        "utterances": utterances,
    }
    manifest_path = root / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2))
    return manifest_path


def read_tv_columns(path):
    """`read_tv_csv` unpacked into times, a list per variable (NaN for an
    empty cell) and the quality labels."""
    t, values, quality = read_tv_csv(path)
    columns = dict(zip(TV_NAMES, values.T.tolist()))
    return t, columns, [QUALITY_LABELS[q] for q in quality]
