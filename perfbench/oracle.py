"""Independent oracle for the benchmark's outputs.

Nothing here imports the program.  Anatomy is rebuilt from the analytic
construction the generator used (straight walls, arc palates), pellet
tracks are resampled with plain `np.interp`, and each frame's tract
variables come from a brute-force clamped projection onto every segment
of the extended palate, a determinant circumcircle and `atan2`.  Compare
scores are recomputed with `numpy.corrcoef`.

Tolerances: anatomy coordinates ANATOMY_TOL mm; tract variables VALUE_TOL
(mm or rad, times 180/pi for degrees); timestamps TIME_TOL s; compare
scores SCORE_TOL.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from corpus import OUTPUT_RATE, Corpus, Speaker, Utterance

ANATOMY_TOL = 1e-7
VALUE_TOL = 1e-9
TIME_TOL = 1e-9
SCORE_TOL = 1e-9

# Specification constants: the palate extension samples the soft-palate
# line at steps of at most 1 mm, and a tongue posture whose twice
# triangle area is below 1e-6 mm^2 counts as collinear.
VELUM_STEP_MM = 1.0
COLLINEAR_TWICE_AREA = 1e-6

TV_NAMES = ("LA", "LP", "TBCL", "TBCD", "TTCL", "TTCD")
REQUIRED = (0, 1, 2, 3, 4, 5)  # UL LL T1 T2 T3 T4; the mandible is optional


@dataclass
class Anatomy:
    anterior_wall: np.ndarray
    junction: np.ndarray
    junction_index: int
    extended: np.ndarray
    center: np.ndarray


@dataclass
class Expected:
    """Oracle result for one utterance."""

    t: np.ndarray
    values: np.ndarray  # (frames, 6), NaN where absent, angles in rad
    quality: np.ndarray  # (frames,) of "Ok" / "DegenerateTongue" / "MissingPellet"
    mistracked: int
    interpolated: int
    polyline_queries: int


def expected_anatomy(spk: Speaker) -> Anatomy:
    palate = spk.palate()
    wall = spk.posterior_wall()
    anterior = wall + np.array([spk.thickness, 0.0])
    # Soft-palate line through the last two palate points, meeting the
    # anterior wall x = x0 + thickness + slope * y.
    last = palate[-1]
    d = palate[-1] - palate[-2]
    a = spk.wall_x0 + spk.thickness
    s = (a + spk.wall_slope * last[1] - last[0]) / (d[0] - spk.wall_slope * d[1])
    junction = last + s * d
    gap = math.hypot(*(junction - last))
    steps = max(1, math.ceil(gap / VELUM_STEP_MM))
    frac = np.arange(1, steps)[:, None] / steps
    velum = last + frac * (junction - last)
    below = anterior[anterior[:, 1] < junction[1] - 1e-9]
    extended = np.vstack((palate, velum, junction, below))
    return Anatomy(
        anterior_wall=anterior,
        junction=junction,
        junction_index=len(palate) + steps - 1,
        extended=extended,
        center=np.array(spk.center),
    )


def check_anatomy_json(path: Path, spk: Speaker, anat: Anatomy) -> list[str]:
    data = json.loads(path.read_text(encoding="utf-8"))
    errors = []
    if data["speaker_id"] != spk.speaker_id or data["sex"] != spk.sex:
        errors.append(f"{path.name}: wrong speaker or sex")
    if abs(data["thickness_mm"] - spk.thickness) > ANATOMY_TOL:
        errors.append(f"{path.name}: thickness {data['thickness_mm']} != {spk.thickness}")
    for key, want in (
        ("anterior_wall", anat.anterior_wall),
        ("extended_palate", anat.extended),
        ("reference_center", anat.center),
    ):
        got = np.asarray(data[key], dtype=np.float64)
        if got.shape != want.shape:
            errors.append(f"{path.name}: {key} shape {got.shape} != {want.shape}")
        elif np.max(np.abs(got - want)) > ANATOMY_TOL:
            errors.append(f"{path.name}: {key} off by {np.max(np.abs(got - want)):.3e}")
    ext = np.asarray(data["extended_palate"], dtype=np.float64)
    if len(ext) > anat.junction_index and (
        np.max(np.abs(ext[anat.junction_index] - anat.junction)) > ANATOMY_TOL
    ):
        errors.append(f"{path.name}: junction {ext[anat.junction_index]} != {anat.junction}")
    return errors


def _resample(utt: Utterance, rate: float, frames: int):
    t = utt.t
    grid = t[0] + np.arange(frames) / rate
    right = np.clip(np.searchsorted(t, grid, side="left"), 0, len(t) - 1)
    exact = t[right] == grid
    left = np.where(exact, right, np.maximum(right - 1, 0))
    xy = np.empty((frames, utt.xy.shape[1], 2))
    for j in range(utt.xy.shape[1]):
        ok = utt.valid[:, j]
        xy[:, j, 0] = np.interp(grid, t[ok], utt.xy[ok, j, 0])
        xy[:, j, 1] = np.interp(grid, t[ok], utt.xy[ok, j, 1])
    valid = utt.valid[left] & utt.valid[right]
    return grid, xy, valid, int(np.count_nonzero(~exact)) * utt.xy.shape[1]


def nearest_on_polyline(points: np.ndarray, poly: np.ndarray, chunk: int = 2048):
    """Brute force over every segment: (distance, closest point) per point."""
    a = poly[:-1]
    d = poly[1:] - a
    len2 = np.einsum("ij,ij->i", d, d)
    dist = np.empty(len(points))
    closest = np.empty((len(points), 2))
    for lo in range(0, len(points), chunk):
        p = points[lo:lo + chunk, None, :]
        t = np.clip(np.einsum("nsk,sk->ns", p - a, d) / len2, 0.0, 1.0)
        c = a + t[..., None] * d
        e2 = np.einsum("nsk,nsk->ns", p - c, p - c)
        k = np.argmin(e2, axis=1)
        rows = np.arange(len(k))
        dist[lo:lo + chunk] = np.sqrt(e2[rows, k])
        closest[lo:lo + chunk] = c[rows, k]
    return dist, closest


def _angle(center: np.ndarray, p: np.ndarray) -> np.ndarray:
    ang = np.arctan2(p[:, 0] - center[0], p[:, 1] - center[1])
    return np.where(ang <= -np.pi, np.pi, ang)


def expected_tvs(utt: Utterance, anat: Anatomy, frames: int, clamp_tbcd: bool) -> Expected:
    grid, xy, valid, interpolated = _resample(utt, float(OUTPUT_RATE), frames)
    n = len(grid)
    out = np.full((n, 6), np.nan)
    ul, ll, t1, t2, t3, t4 = (xy[:, j] for j in range(6))

    lp_ok = valid[:, 0]
    out[lp_ok, 1] = ul[lp_ok, 0]
    la_ok = valid[:, 0] & valid[:, 1]
    out[la_ok, 0] = np.hypot(*(ul[la_ok] - ll[la_ok]).T)

    tb_ok = valid[:, 3] & valid[:, 4] & valid[:, 5]
    # Twice the signed area of (T2, T3, T4), as a determinant.
    det = (
        t2[:, 0] * (t3[:, 1] - t4[:, 1])
        + t3[:, 0] * (t4[:, 1] - t2[:, 1])
        + t4[:, 0] * (t2[:, 1] - t3[:, 1])
    )
    flat = tb_ok & (np.abs(det) < COLLINEAR_TWICE_AREA)
    round_ = tb_ok & ~flat

    idx = np.flatnonzero(round_)
    if len(idx):
        a, b, c = t2[idx], t3[idx], t4[idx]
        sa, sb, sc = (np.einsum("ij,ij->i", q, q) for q in (a, b, c))
        dd = 2.0 * det[idx]
        cx = (sa * (b[:, 1] - c[:, 1]) + sb * (c[:, 1] - a[:, 1]) + sc * (a[:, 1] - b[:, 1])) / dd
        cy = (sa * (c[:, 0] - b[:, 0]) + sb * (a[:, 0] - c[:, 0]) + sc * (b[:, 0] - a[:, 0])) / dd
        center = np.column_stack((cx, cy))
        radius = np.hypot(*(a - center).T)
        dist, closest = nearest_on_polyline(center, anat.extended)
        tbcd = dist - radius
        if clamp_tbcd:
            tbcd = np.maximum(tbcd, 0.0)
        on_circle = center + (closest - center) * (radius / dist)[:, None]
        out[idx, 3] = tbcd
        out[idx, 2] = _angle(anat.center, on_circle)

    idx = np.flatnonzero(flat)
    if len(idx):
        cands = np.stack((t2[idx], t3[idx], t4[idx]), axis=1)
        dist, _ = nearest_on_polyline(cands.reshape(-1, 2), anat.extended)
        best = np.argmin(dist.reshape(-1, 3), axis=1)
        rows = np.arange(len(idx))
        out[idx, 3] = dist.reshape(-1, 3)[rows, best]
        out[idx, 2] = _angle(anat.center, cands[rows, best])

    tt_ok = valid[:, 2]
    dist, _ = nearest_on_polyline(t1[tt_ok], anat.extended)
    out[tt_ok, 5] = dist
    out[tt_ok, 4] = _angle(anat.center, t1[tt_ok])

    quality = np.where(flat, "DegenerateTongue", "Ok").astype(object)
    quality[~valid[:, list(REQUIRED)].all(axis=1)] = "MissingPellet"
    queries = int(np.count_nonzero(round_) + 3 * np.count_nonzero(flat) + np.count_nonzero(tt_ok))
    return Expected(
        t=grid,
        values=out,
        quality=quality,
        mistracked=int(np.count_nonzero(~utt.valid.all(axis=1))),
        interpolated=interpolated,
        polyline_queries=queries,
    )


def read_tv_file(path: Path):
    """(t, values with NaN for empty cells, quality) from a TV CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "t," + ",".join(TV_NAMES) + ",quality":
        raise ValueError(f"{path.name}: unexpected header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    t = np.array([float(r[0]) for r in rows])
    values = np.array([[float(v) if v else math.nan for v in r[1:7]] for r in rows])
    quality = np.array([r[7] for r in rows], dtype=object)
    return t, values.reshape(len(rows), 6), quality


def check_tv_file(path: Path, want: Expected, degrees: bool) -> list[str]:
    t, got, quality = read_tv_file(path)
    name = path.name
    if len(t) != len(want.t):
        return [f"{name}: {len(t)} frames, expected {len(want.t)}"]
    errors = []
    if np.max(np.abs(t - want.t)) > TIME_TOL:
        errors.append(f"{name}: timestamps off the {OUTPUT_RATE} Hz grid")
    bad_q = np.flatnonzero(quality != want.quality)
    if len(bad_q):
        errors.append(f"{name}: quality differs at {len(bad_q)} frames, first {bad_q[0]}")
    expect = want.values.copy()
    tol = np.full(6, VALUE_TOL)
    if degrees:
        expect[:, [2, 4]] = np.degrees(expect[:, [2, 4]])
        tol[[2, 4]] *= 180.0 / math.pi
    if not np.array_equal(np.isnan(got), np.isnan(expect)):
        errors.append(f"{name}: empty cells differ from the validity mask")
    else:
        diff = np.abs(np.nan_to_num(got) - np.nan_to_num(expect))
        for k in np.flatnonzero((diff > tol).any(axis=0)):
            errors.append(f"{name}: {TV_NAMES[k]} off by {diff[:, k].max():.3e}")
    half_turn = 180.0 if degrees else math.pi
    angles = got[:, [2, 4]]
    angles = angles[~np.isnan(angles)]
    if np.any(angles <= -half_turn) or np.any(angles > half_turn):
        errors.append(f"{name}: angle outside (-{half_turn}, {half_turn}]")
    return errors


def expected_scores(a: Path, b: Path) -> dict:
    _, va, qa = read_tv_file(a)
    _, vb, qb = read_tv_file(b)
    both = (qa == "Ok") & (qb == "Ok")
    scores = {
        name: float(np.corrcoef(va[both, k], vb[both, k])[0, 1])
        for k, name in enumerate(TV_NAMES)
    }
    return {"scores": scores, "average": sum(scores.values()) / 6, "n": int(both.sum())}


def check_compare_json(path: Path, a: Path, b: Path) -> list[str]:
    got = json.loads(path.read_text(encoding="utf-8"))
    want = expected_scores(a, b)
    errors = []
    if got["n_frames_compared"] != want["n"]:
        errors.append(f"{path.name}: compared {got['n_frames_compared']} frames, expected {want['n']}")
    for name in TV_NAMES:
        if abs(got["scores"][name] - want["scores"][name]) > SCORE_TOL:
            errors.append(f"{path.name}: {name} score {got['scores'][name]} != {want['scores'][name]}")
    if abs(got["average"] - want["average"]) > SCORE_TOL:
        errors.append(f"{path.name}: average {got['average']} != {want['average']}")
    return errors


@dataclass
class CorpusCheck:
    """Outcome of checking one set of outputs against the oracle."""

    errors: list[str]
    quality: Counter
    rows: int
    mistracked: int
    interpolated: int
    segment_tests: int


def check_outputs(
    corpus: Corpus, anatomy_dir: Path, run_dir: Path, compare_dir: Path
) -> CorpusCheck:
    """Check anatomy JSON, every TV file and every compare report."""
    spec = corpus.spec
    degrees = "--degrees" in spec.run_flags
    clamp = "--clamp-tbcd" in spec.run_flags
    errors: list[str] = []
    quality: Counter = Counter()
    rows = mistracked = interpolated = segment_tests = 0
    for spk in corpus.speakers:
        anat = expected_anatomy(spk)
        name = f"{spk.speaker_id}.anatomy.json"
        errors += check_anatomy_json(anatomy_dir / name, spk, anat)
        if (run_dir / name).read_bytes() != (anatomy_dir / name).read_bytes():
            errors.append(f"{name}: `run` and `anatomy` wrote different bytes")
        for stem in spk.stems:
            utt = corpus.utterances[stem]
            want = expected_tvs(utt, anat, spec.frames, clamp)
            errors += check_tv_file(run_dir / f"{stem}.tv.csv", want, degrees)
            quality.update(want.quality)
            rows += len(utt.t)
            mistracked += want.mistracked
            interpolated += want.interpolated
            segment_tests += want.polyline_queries * (len(anat.extended) - 1)
    for k, (a, b) in enumerate(corpus.pairs):
        errors += check_compare_json(
            compare_dir / f"pair{k:02d}.json", run_dir / f"{a}.tv.csv", run_dir / f"{b}.tv.csv"
        )
    return CorpusCheck(errors, quality, rows, mistracked, interpolated, segment_tests)
