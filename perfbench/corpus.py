"""Seeded synthetic XRMB-style corpora for the benchmark.

Every speaker's palate is a noiseless circular arc and every posterior
pharyngeal wall a straight sampled line, so the derived anatomy has a
closed form the oracle can rebuild.  Pellet tracks are smooth sums of
sinusoids placed relative to that anatomy; the dirty workload adds
sentinel bursts, collinear tongue stretches and tongue-body circles that
cut into the palate.

The corpus is written with this module's own CSV writer, never with the
program's.  Utterance stems carry the speaker id, so they are unique
across speakers.  The amount of work (speakers, rows, bursts, stretches)
is fixed per workload; the seed only moves values and positions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

PELLETS = ("UL", "LL", "T1", "T2", "T3", "T4", "MNI", "MNM")
PELLET_HEADER = "t," + ",".join(f"{p}{axis}" for p in PELLETS for axis in "xy")
SENTINEL = 1e6
OUTPUT_RATE = 145
DEFAULT_THICKNESS = {"F": 5.8, "M": 5.6}

_WORKLOAD_INDEX = {"long_takes": 1, "many_speakers": 2, "dirty_tracking": 3, "tiny": 4}


@dataclass(frozen=True)
class WorkloadSpec:
    """Fixed shape of one workload; the seed fills in the values."""

    name: str
    n_speakers: int
    utterances_per_speaker: int
    duration_s: float
    input_rate: int
    palate_points: int
    wall_step_mm: float
    wall_points_below: int
    velum_gap_mm: float
    compare_pairs: int
    override_every: int = 0
    mistrack_bursts: int = 0
    burst_rows: int = 0
    collinear_stretches: int = 0
    stretch_rows: int = 0
    penetration_dips: int = 0
    dip_rows: int = 0
    run_flags: tuple[str, ...] = ()

    @property
    def rows(self) -> int:
        return round(self.duration_s * self.input_rate) + 1

    @property
    def frames(self) -> int:
        """Output frames per utterance: floor(span * rate) + 1, exactly."""
        span = Fraction(self.rows - 1, self.input_rate)
        return math.floor(span * OUTPUT_RATE) + 1


WORKLOADS = {
    "long_takes": WorkloadSpec(
        name="long_takes", n_speakers=1, utterances_per_speaker=2,
        duration_s=20, input_rate=400, palate_points=145, wall_step_mm=2.5,
        wall_points_below=17, velum_gap_mm=12.4, compare_pairs=8,
    ),
    "many_speakers": WorkloadSpec(
        name="many_speakers", n_speakers=40, utterances_per_speaker=2,
        duration_s=1, input_rate=145, palate_points=34, wall_step_mm=5.0,
        wall_points_below=10, velum_gap_mm=12.4, compare_pairs=120, override_every=4,
    ),
    "dirty_tracking": WorkloadSpec(
        name="dirty_tracking", n_speakers=3, utterances_per_speaker=2,
        duration_s=10, input_rate=100, palate_points=109, wall_step_mm=2.5,
        wall_points_below=17, velum_gap_mm=12.4, compare_pairs=14,
        mistrack_bursts=12, burst_rows=6, collinear_stretches=6,
        stretch_rows=25, penetration_dips=4, dip_rows=20,
        run_flags=("--degrees", "--clamp-tbcd"),
    ),
    # Small corpus for the self-test: every feature of dirty_tracking on
    # two speakers with one thickness override.
    "tiny": WorkloadSpec(
        name="tiny", n_speakers=2, utterances_per_speaker=2,
        duration_s=2, input_rate=100, palate_points=34, wall_step_mm=5.0,
        wall_points_below=10, velum_gap_mm=12.4, compare_pairs=2, override_every=2,
        mistrack_bursts=2, burst_rows=3, collinear_stretches=2,
        stretch_rows=10, penetration_dips=1, dip_rows=10,
        run_flags=("--degrees", "--clamp-tbcd"),
    ),
}


@dataclass
class Speaker:
    """One generated speaker: anatomy parameters and utterance stems."""

    speaker_id: str
    sex: str
    thickness_mm: float | None
    center: tuple[float, float]
    radius: float
    arc_deg: np.ndarray
    wall_x0: float
    wall_slope: float
    wall_y: np.ndarray
    stems: list[str] = field(default_factory=list)

    @property
    def thickness(self) -> float:
        if self.thickness_mm is None:
            return DEFAULT_THICKNESS[self.sex]
        return self.thickness_mm

    def palate(self) -> np.ndarray:
        rad = np.radians(self.arc_deg)
        cx, cy = self.center
        return np.column_stack(
            (cx + self.radius * np.sin(rad), cy + self.radius * np.cos(rad))
        )

    def posterior_wall(self) -> np.ndarray:
        return np.column_stack((self.wall_x0 + self.wall_slope * self.wall_y, self.wall_y))


@dataclass
class Utterance:
    """Pellet samples as written: `xy` has shape (rows, 8, 2)."""

    stem: str
    t: np.ndarray
    xy: np.ndarray
    valid: np.ndarray


@dataclass
class Corpus:
    spec: WorkloadSpec
    root: Path
    manifest: Path
    speakers: list[Speaker]
    utterances: dict[str, Utterance]
    pairs: list[tuple[str, str]]


def _smooth(rng: np.random.Generator, t: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """A smooth random signal spanning roughly [lo, hi]."""
    out = np.zeros_like(t)
    for _ in range(3):
        freq = rng.uniform(0.3, 3.0)
        out += np.sin(2.0 * np.pi * freq * t + rng.uniform(0.0, 2.0 * np.pi))
    return lo + (hi - lo) * (out / 6.0 + 0.5)


def _make_speaker(rng: np.random.Generator, spec: WorkloadSpec, index: int) -> Speaker:
    sex = "F" if index % 2 == 0 else "M"
    thickness = None
    if spec.override_every and index % spec.override_every == spec.override_every - 1:
        thickness = round(float(rng.uniform(5.0, 7.0)), 1)
    center = (-30.0 + rng.uniform(-3.0, 3.0), -5.0 + rng.uniform(-3.0, 3.0))
    radius = 35.0 + rng.uniform(-3.0, 3.0)
    arc = np.linspace(40.0, -25.0 + rng.uniform(-2.0, 2.0), spec.palate_points)
    speaker = Speaker(
        speaker_id=f"{sex.lower()}{index:02d}",
        sex=sex,
        thickness_mm=thickness,
        center=center,
        radius=radius,
        arc_deg=arc,
        wall_x0=0.0,
        wall_slope=rng.uniform(-0.08, 0.08),
        wall_y=np.empty(0),
    )
    # The soft-palate line meets the anterior wall about `velum_gap_mm`
    # past the palate end (never a whole number of millimetres, so the
    # velum step count has no rounding tie).  The wall is sampled from
    # 25 mm above that junction to a fixed number of points below it,
    # so the extended palate has the same length for every seed.
    pal = speaker.palate()
    d = pal[-1] - pal[-2]
    d /= np.hypot(*d)
    junction = pal[-1] + (spec.velum_gap_mm + rng.uniform(-0.2, 0.2)) * d
    above = int(25.0 / spec.wall_step_mm)
    offsets = above - 0.5 - np.arange(above + spec.wall_points_below)
    speaker.wall_y = junction[1] + spec.wall_step_mm * offsets
    speaker.wall_x0 = float(
        junction[0] - speaker.thickness - speaker.wall_slope * junction[1]
    )
    return speaker


def _make_utterance(
    rng: np.random.Generator, spec: WorkloadSpec, speaker: Speaker, stem: str
) -> Utterance:
    n = spec.rows
    t = np.arange(n) / float(spec.input_rate)
    cx, cy = speaker.center
    xy = np.empty((n, len(PELLETS), 2))

    # Tongue body: a circle whose center sits `rho` from the palate
    # center along `theta`, with `gap` mm left to the palate arc.
    rho = _smooth(rng, t, 6.0, 11.0)
    theta = np.radians(_smooth(rng, t, 0.0, 35.0))
    gap = _smooth(rng, t, 1.5, 9.0)
    for k in range(spec.penetration_dips):
        start = _slot_start(rng, n, spec.penetration_dips, k, spec.dip_rows)
        gap[start:start + spec.dip_rows] = -1.5 + 0.05 * np.arange(spec.dip_rows)
    tbx = cx + rho * np.sin(theta)
    tby = cy + rho * np.cos(theta)
    tb_r = speaker.radius - rho - gap
    for j, offset in ((3, 28.0), (4, -2.0), (5, -32.0)):
        phi = theta + np.radians(offset + _smooth(rng, t, -3.0, 3.0))
        xy[:, j, 0] = tbx + tb_r * np.sin(phi)
        xy[:, j, 1] = tby + tb_r * np.cos(phi)

    # Tongue tip on a ray from the palate center, 1-12 mm below the arc.
    tip = np.radians(_smooth(rng, t, 18.0, 36.0))
    tip_r = speaker.radius - _smooth(rng, t, 1.0, 12.0)
    xy[:, 2, 0] = cx + tip_r * np.sin(tip)
    xy[:, 2, 1] = cy + tip_r * np.cos(tip)

    xy[:, 0, 0] = _smooth(rng, t, 4.0, 10.0)
    xy[:, 0, 1] = _smooth(rng, t, 8.0, 12.0)
    xy[:, 1, 0] = xy[:, 0, 0] + _smooth(rng, t, -2.0, 1.0)
    xy[:, 1, 1] = xy[:, 0, 1] - _smooth(rng, t, 0.5, 16.0)
    xy[:, 6, 0] = _smooth(rng, t, -3.0, 1.0)
    xy[:, 6, 1] = _smooth(rng, t, -22.0, -12.0)
    xy[:, 7, 0] = _smooth(rng, t, -30.0, -24.0)
    xy[:, 7, 1] = _smooth(rng, t, -26.0, -18.0)

    # XRMB reports positions to 0.01 mm.
    xy = np.round(xy, 2)

    # Collinear stretches: T3 at the exact midpoint of T2 and T4 (a
    # property linear interpolation keeps).
    for k in range(spec.collinear_stretches):
        start = _slot_start(rng, n, spec.collinear_stretches, k, spec.stretch_rows)
        rows = slice(start, start + spec.stretch_rows)
        xy[rows, 4] = (xy[rows, 3] + xy[rows, 5]) / 2.0

    valid = np.ones((n, len(PELLETS)), dtype=bool)
    for k in range(spec.mistrack_bursts):
        start = _slot_start(rng, n, spec.mistrack_bursts, k, spec.burst_rows)
        lost = rng.choice(len(PELLETS), size=int(rng.integers(1, 3)), replace=False)
        for j in lost:
            valid[start:start + spec.burst_rows, j] = False
    xy[~valid] = SENTINEL
    return Utterance(stem=stem, t=t, xy=xy, valid=valid)


def _slot_start(rng: np.random.Generator, n: int, count: int, k: int, length: int) -> int:
    """Start row of event k of `count`, one event per equal slot.

    Events keep 5 rows clear of both ends and of each other, so their
    number and sizes never depend on the seed.
    """
    slot = (n - 10) // count
    lo = 5 + k * slot
    return int(rng.integers(lo, lo + slot - length - 5 + 1))


def _write_rows(path: Path, header: str, rows: list[list[float]]) -> None:
    lines = [header]
    lines.extend(",".join(map(repr, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_utterance(path: Path, utt: Utterance) -> None:
    flat = np.column_stack((utt.t, utt.xy.reshape(len(utt.t), -1)))
    _write_rows(path, PELLET_HEADER, flat.tolist())


def generate(name: str, seed: int, root: Path) -> Corpus:
    """Write workload `name` for `seed` under `root`; return its plan."""
    spec = WORKLOADS[name]
    rng = np.random.default_rng([seed, _WORKLOAD_INDEX[name]])
    (root / "traces").mkdir(parents=True, exist_ok=True)
    (root / "utt").mkdir(parents=True, exist_ok=True)
    speakers = []
    utterances: dict[str, Utterance] = {}
    entries = []
    for i in range(spec.n_speakers):
        spk = _make_speaker(rng, spec, i)
        _write_rows(root / "traces" / f"{spk.speaker_id}.pal.csv", "x,y", spk.palate().tolist())
        _write_rows(
            root / "traces" / f"{spk.speaker_id}.pha.csv", "x,y", spk.posterior_wall().tolist()
        )
        for u in range(spec.utterances_per_speaker):
            stem = f"{spk.speaker_id}_u{u:02d}"
            utt = _make_utterance(rng, spec, spk, stem)
            write_utterance(root / "utt" / f"{stem}.csv", utt)
            utterances[stem] = utt
            spk.stems.append(stem)
        entry = {
            "speaker_id": spk.speaker_id,
            "sex": spk.sex,
            "palate": f"traces/{spk.speaker_id}.pal.csv",
            "posterior_wall": f"traces/{spk.speaker_id}.pha.csv",
            "utterances": [f"utt/{s}.csv" for s in spk.stems],
        }
        if spk.thickness_mm is not None:
            entry["thickness_mm"] = spk.thickness_mm
        entries.append(entry)
        speakers.append(spk)
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")

    # Every utterance has the same length, so any two make a valid pair;
    # with several speakers each pair joins two of them.  The list cycles
    # through the corpus until it holds `compare_pairs` entries.
    stems = [s for spk in speakers for s in spk.stems]
    step = spec.utterances_per_speaker if spec.n_speakers > 1 else 1
    pairs = [
        (stems[k % len(stems)], stems[(k + step) % len(stems)])
        for k in range(spec.compare_pairs)
    ]
    return Corpus(spec, root, manifest, speakers, utterances, pairs)
