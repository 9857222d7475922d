"""Acceptance gate: nine checks, one test and one PASS line each.

Each test states its tolerance inline.  Checks 2 and 3 drive the geometry
kernels against brute-force oracles at scale; 4 and 5 pin the anatomy
and the end-to-end pipeline to analytically known values; 6 and 7 pin
resampling and correlation arithmetic; 8 and 9 cover determinism under
parallelism and the single-threaded throughput budget.  A last check
pins the paper's contribution: a pharyngeal constriction that only the
extended palate measures.
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from tractvar.anatomy import build_speaker_anatomy, Sex
from tractvar.cli import main
from tractvar.compare import compare_tvs, format_table, ppmc
from tractvar.geometry import circle_polyline_contacts
from tractvar.ingest import PelletTrajectory, resample
from tractvar.tract_variables import PELLET_NAMES, compute_trajectory
from tractvar.tvcsv import TV_NAMES, write_tv_csv

from helpers import (
    ANGLE_TOL,
    ARC_END_DEG,
    ARC_START_DEG,
    ARC_STEP_DEG,
    DISTANCE_TOL,
    EXPECTED_TV,
    PALATE_CENTER,
    PALATE_RADIUS,
    TB_RADIUS_MM,
    brute_points_to_polyline,
    make_frame,
    on_arc,
    read_tv_columns,
    reference_pellets,
    synthetic_anatomy,
    wall_coords,
    wobbled_pellets,
    write_pellet_csv,
    write_speaker_fixture,
)
from reference import (
    Point2D,
    circumcircle,
    coords,
    fitted_circle,
    pellet_trajectory,
    points,
    polyline,
    tv_trajectory,
)


def tv_file_from_frames(path, n=40, negate=None):
    """Write a TV file computed over wobbled pellet frames."""
    anat = synthetic_anatomy()
    frames = [
        make_frame(k / 145.0, wobbled_pellets(2.0 * math.pi * k / n))
        for k in range(n)
    ]
    tvs = compute_trajectory(pellet_trajectory(frames), anat)
    if negate is not None:
        flipped = tuple(
            dataclasses.replace(f, **{negate: -getattr(f, negate)})
            for f in tvs.frames
        )
        tvs = tv_trajectory(flipped)
    write_tv_csv(tvs, path)
    return path


def test_criterion_1_desk_scale_substitute(tmp_path):
    # Corpus-scale model scores need training data far beyond a unit
    # build, so the check at this scale is the comparison contract
    # itself: six named correlations plus their mean, fixed column order.
    a = tv_file_from_frames(tmp_path / "a.tv.csv")
    report = compare_tvs(a, a)
    assert tuple(report.scores) == TV_NAMES
    assert report.average == pytest.approx(
        sum(report.scores.values()) / 6.0, abs=1e-15
    )
    header = format_table(report).splitlines()[0].split()
    assert header == list(TV_NAMES) + ["Average"]
    print("CRITERION 1: PASS (score table carries LA..TTCD plus Average; "
          "corpus-scale model training is out of scope)")


def test_criterion_2_clearance_against_brute_oracle():
    # 1000 random circle/polyline pairs with positive clearance; oracle
    # is 1e5 circle-boundary samples against exact segment distances;
    # agreement within 1e-3 mm and under 60 s total.
    rng = np.random.default_rng(20260815)
    n_samples = 100_000
    theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
    unit_x = np.cos(theta)
    unit_y = np.sin(theta)

    start = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 1000:
        n_pts = int(rng.integers(4, 13))
        steps = rng.uniform(-15.0, 15.0, size=(n_pts, 2))
        pts = np.cumsum(steps, axis=0) + rng.uniform(-40.0, 40.0, size=2)
        if np.min(np.hypot(*np.diff(pts, axis=0).T)) < 0.5:
            continue
        poly = polyline(Point2D(float(x), float(y)) for x, y in pts)
        cx, cy = rng.uniform(-70.0, 70.0, size=2)
        radius = float(rng.uniform(0.5, 20.0))
        # Independent prefilter: exact center-to-polyline distance via
        # the clamped-projection formula, no library code involved.
        center_dist = brute_points_to_polyline(
            np.array([cx]), np.array([cy]), poly
        )
        if center_dist <= radius + 0.05:
            continue
        _, got, _, _, _, _ = circle_polyline_contacts(
            np.array([cx]), np.array([cy]), radius, poly
        )
        oracle = brute_points_to_polyline(
            cx + radius * unit_x, cy + radius * unit_y, poly
        )
        worst = max(worst, abs(float(got[0]) - radius - oracle))
        checked += 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-3, f"worst clearance error {worst} mm"
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f} s"
    print(f"CRITERION 2: PASS (1000 pairs, max |clearance error| = "
          f"{worst:.2e} mm <= 1e-3, {elapsed:.1f} s < 60 s)")


def test_criterion_3_circle_fit_recovery():
    # 1000 noiseless fits at 8-64 points recover center and radius to
    # 1e-9 relative; a 3-point fit equals the circumcircle to the same.
    rng = np.random.default_rng(7)
    worst_fit = 0.0
    for _ in range(1000):
        cx, cy = rng.uniform(-100.0, 100.0, size=2)
        radius = float(rng.uniform(0.5, 80.0))
        n = int(rng.integers(8, 65))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
        pts = [
            Point2D(cx + radius * math.cos(a), cy + radius * math.sin(a))
            for a in angles
        ]
        fitted = fitted_circle(coords(pts))
        scale = max(1.0, radius)
        err = max(
            math.hypot(fitted.center.x - cx, fitted.center.y - cy),
            abs(fitted.radius - radius),
        ) / scale
        worst_fit = max(worst_fit, err)
    assert worst_fit <= 1e-9, f"worst relative fit error {worst_fit}"

    worst_tri = 0.0
    for _ in range(1000):
        cx, cy = rng.uniform(-50.0, 50.0, size=2)
        radius = float(rng.uniform(1.0, 40.0))
        a0 = float(rng.uniform(0.0, 2.0 * np.pi))
        a1 = a0 + float(rng.uniform(0.4, 2.4))
        a2 = a1 + float(rng.uniform(0.4, 2.4))
        pts = [
            Point2D(cx + radius * math.cos(a), cy + radius * math.sin(a))
            for a in (a0, a1, a2)
        ]
        direct = circumcircle(pts[0], pts[1], pts[2])
        fitted = fitted_circle(coords(pts))
        scale = max(1.0, direct.radius)
        err = max(
            math.hypot(
                fitted.center.x - direct.center.x,
                fitted.center.y - direct.center.y,
            ),
            abs(fitted.radius - direct.radius),
        ) / scale
        worst_tri = max(worst_tri, err)
    assert worst_tri <= 1e-9, f"worst 3-point disagreement {worst_tri}"
    print(f"CRITERION 3: PASS (1000 fits, max relative error = "
          f"{worst_fit:.2e}; 1000 triads, fit vs circumcircle = "
          f"{worst_tri:.2e}; both <= 1e-9)")


def test_criterion_4_anatomy_construction():
    # Vertical wall at x=-80 for a female speaker sits at exactly -74.2
    # after the shift; a palate ending (-20,15),(-25,14) meets it at
    # (-74.2, 4.16) within 1e-9 mm; the anatomy invariants all hold.
    palate = polyline(
        [Point2D(-15.0, 15.5), Point2D(-20.0, 15.0), Point2D(-25.0, 14.0)]
    )
    wall = polyline(Point2D(x, y) for x, y in wall_coords())
    anat = build_speaker_anatomy("worked", palate, wall, Sex.FEMALE)

    for p in points(anat.anterior_wall):
        assert p.x == -74.2
    junction = next(
        p for p in points(anat.extended_palate) if abs(p.x - (-74.2)) <= 1e-9
    )
    assert abs(junction.x - (-74.2)) <= 1e-9
    assert abs(junction.y - 4.16) <= 1e-9

    for bundle in (anat, synthetic_anatomy()):
        n_post = len(points(bundle.posterior_wall))
        assert len(points(bundle.anterior_wall)) == n_post
        for a, p in zip(points(bundle.anterior_wall), points(bundle.posterior_wall)):
            assert a.x == p.x + bundle.thickness_mm
            assert a.y == p.y
        n_pal = len(points(bundle.palate))
        assert points(bundle.extended_palate)[:n_pal] == points(bundle.palate)
        retained = [
            w
            for w in points(bundle.anterior_wall)
            if any(w == q for q in points(bundle.extended_palate))
        ]
        assert retained
        lowest = min(retained, key=lambda p: p.y)
        assert points(bundle.extended_palate)[-1] == lowest
        assert bundle.reference_center[1] < min(p.y for p in points(bundle.palate))
    print("CRITERION 4: PASS (anterior wall x = -74.2 exactly; junction "
          "(-74.2, 4.16) within 1e-9 mm; anatomy invariants hold)")


def test_criterion_5_end_to_end_synthetic_tvs(tmp_path):
    # The constructed speaker runs through the full command line and all
    # six variables land within 5e-3 mm / 1e-3 rad of their closed forms.
    manifest = write_speaker_fixture(tmp_path / "data")
    out = tmp_path / "out"
    rc = main(["run", "--manifest", str(manifest), "--out", str(out)])
    assert rc == 0
    _, columns, quality = read_tv_columns(out / "utt00.tv.csv")
    assert quality and all(q == "Ok" for q in quality)
    worst = {}
    for name in TV_NAMES:
        tol = ANGLE_TOL if name in ("TBCL", "TTCL") else DISTANCE_TOL
        errs = [abs(v - EXPECTED_TV[name]) for v in columns[name]]
        worst[name] = max(errs)
        assert worst[name] <= tol, f"{name} off by {worst[name]}"
    detail = ", ".join(f"{n} {worst[n]:.1e}" for n in TV_NAMES)
    print(f"CRITERION 5: PASS (full CLI; worst abs errors: {detail}; "
          f"tol 5e-3 mm / 1e-3 rad)")


def test_criterion_6_resampling_exactness_and_drift():
    # Affine signals come back affine at 145 Hz (<= 1e-9 mm), constant
    # signals bit-exactly, and 1e5 grid timestamps stay within 1e-9 s of
    # the exact rational grid.
    base = reference_pellets()
    a, b = 3.25, -4.5
    frames = []
    for k in range(81):
        t = k / 80.0
        coords = {n: (x + a * t, y + b * t) for n, (x, y) in base.items()}
        frames.append(make_frame(t, coords))
    traj = pellet_trajectory(frames)
    out = resample(traj, 145.0)
    assert len(out.frames) == 146
    worst_affine = 0.0
    for frame in out.frames:
        for name in PELLET_NAMES:
            x0, y0 = base[name]
            x, y = getattr(frame, name.lower())
            worst_affine = max(
                worst_affine,
                abs(x - (x0 + a * frame.t)),
                abs(y - (y0 + b * frame.t)),
            )
    assert worst_affine <= 1e-9

    const_frames = tuple(make_frame(k / 80.0, base) for k in range(41))
    const_out = resample(pellet_trajectory(const_frames), 145.0)
    for frame in const_out.frames:
        for name in PELLET_NAMES:
            assert getattr(frame, name.lower()) == base[name]

    # Two frames spanning 1e5 output samples: the grid must not drift.
    span_frames = (make_frame(0.0, base), make_frame(100_000 / 145.0, base))
    long_out = resample(pellet_trajectory(span_frames), 145.0)
    assert len(long_out.frames) == 100_001
    times = np.array([f.t for f in long_out.frames], dtype=np.float64)
    exact = np.arange(100_001, dtype=np.longdouble) / np.longdouble(145)
    drift = float(np.max(np.abs(times.astype(np.longdouble) - exact)))
    assert drift <= 1e-9, f"grid drift {drift} s"
    for k in (0, 1, 144, 99_999, 100_000):
        gap = abs(Fraction(times[k]) - Fraction(k, 145))
        assert gap <= Fraction(1, 10**9)
    print(f"CRITERION 6: PASS (affine error {worst_affine:.1e} <= 1e-9 mm; "
          f"constants bit-exact; drift over 1e5 samples {drift:.1e} <= 1e-9 s)")


def test_criterion_7_correlation_arithmetic(tmp_path):
    a = tv_file_from_frames(tmp_path / "a.tv.csv")
    report = compare_tvs(a, a)
    assert all(v == 1.0 for v in report.scores.values())
    assert report.average == 1.0

    b = tv_file_from_frames(tmp_path / "b.tv.csv", negate="ttcd")
    flipped = compare_tvs(a, b)
    assert flipped.scores["TTCD"] == -1.0
    for name in ("LA", "LP", "TBCL", "TBCD", "TTCL"):
        assert flipped.scores[name] == 1.0

    # Hand fixture: sums are cov 149, variances 5 and 7205.
    got = ppmc([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 100.0])
    expect = 149.0 / math.sqrt(36025.0)
    assert abs(got - expect) <= 1e-9
    print(f"CRITERION 7: PASS (self = six 1.0 scores; negated TTCD = -1.0; "
          f"hand fixture |{got:.12f} - 149/sqrt(36025)| <= 1e-9)")


def test_criterion_8_parallelism_determinism(tmp_path):
    manifest = write_speaker_fixture(
        tmp_path / "data", n_utterances=10, constant=False
    )
    out1 = tmp_path / "p1"
    out8 = tmp_path / "p8"
    rc1 = main(["run", "--manifest", str(manifest), "--out", str(out1),
                "--parallelism", "1"])
    rc8 = main(["run", "--manifest", str(manifest), "--out", str(out8),
                "--parallelism", "8"])
    assert rc1 == 0 and rc8 == 0
    names = [f"utt{u:02d}.tv.csv" for u in range(10)] + ["synth.anatomy.json"]
    for name in names:
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes(), name
    print("CRITERION 8: PASS (10 utterances byte-identical at "
          "--parallelism 1 vs 8)")


def resample_polyline(poly, n):
    xs = np.array([p.x for p in points(poly)])
    ys = np.array([p.y for p in points(poly)])
    s = np.concatenate([[0.0], np.cumsum(np.hypot(np.diff(xs), np.diff(ys)))])
    stations = np.linspace(0.0, float(s[-1]), n)
    return polyline(
        Point2D(float(x), float(y))
        for x, y in zip(np.interp(stations, s, xs), np.interp(stations, s, ys))
    )


def test_criterion_9_throughput_budget():
    # 87,000 frames (ten minutes at 145 Hz) against a 200-point extended
    # palate must finish the TV computation in under 5 s on one thread.
    anat = synthetic_anatomy()
    anat = dataclasses.replace(
        anat, extended_palate=resample_polyline(anat.extended_palate, 200)
    )
    assert len(points(anat.extended_palate)) == 200

    n = 87_000
    t = np.arange(n) / 145.0
    phase = 2.0 * np.pi * 1.3 * t
    dx = 0.8 * np.sin(phase)
    dy = 0.8 * np.cos(phase)
    base = reference_pellets()
    moving = ("T1", "T2", "T3", "T4")
    xy = np.empty((n, len(PELLET_NAMES), 2))
    for k, name in enumerate(PELLET_NAMES):
        x0, y0 = base[name]
        if name in moving:
            xy[:, k, 0] = x0 + dx
            xy[:, k, 1] = y0 + dy
        else:
            xy[:, k] = (x0, y0)
    valid = np.ones((n, len(PELLET_NAMES)), dtype=bool)
    traj = PelletTrajectory("u", t, xy, valid)

    start = time.perf_counter()
    tvs = compute_trajectory(traj, anat)
    elapsed = time.perf_counter() - start
    assert len(tvs.frames) == n
    assert all(f.quality.value == "Ok" for f in tvs.frames)
    assert elapsed < 5.0, f"TV computation took {elapsed:.2f} s"
    print(f"CRITERION 9: PASS (87,000 frames x 200-point boundary in "
          f"{elapsed:.2f} s < 5 s, single-threaded)")


# The fixture's anterior pharyngeal wall: the posterior wall at x = -80
# moved 5.8 mm forward (criterion 4).
ANTERIOR_X = -74.2

# Gaps (mm) to the anterior wall at each height of the pharyngeal frames.
PHARYNX_GAPS = (1.0, 2.0, 4.0, 8.0)


def pharyngeal_sweep(gap=2.0):
    """Tongue-body centers sweeping from a velar constriction to a
    pharyngeal one, with the closed-form TBCD and TBCL of each.

    The contact runs back along the palate arc (centers on chord-midpoint
    rays, as in helpers), then down the soft-palate line (centers on its
    normal), each `gap` mm away.  Below the junction it runs down the
    anterior wall, where the gap steps through PHARYNX_GAPS at each of
    three heights.  Returns center x, center y, TBCD, TBCL and the mask
    of pharyngeal frames, as arrays.
    """
    rows = []  # center x, center y, TBCD, contact x, contact y, pharyngeal
    offset = PALATE_RADIUS - gap - TB_RADIUS_MM
    chord_gap = PALATE_RADIUS * math.cos(math.radians(ARC_STEP_DEG / 2)) - offset
    for k in range(59, 130, 5):
        deg = ARC_START_DEG - ARC_STEP_DEG * (k + 0.5)
        rows.append((*on_arc(deg, offset), chord_gap - TB_RADIUS_MM,
                     *on_arc(deg, offset + TB_RADIUS_MM), False))
    # The soft-palate line continues the last palate chord.
    (ex, ey), (px, py) = on_arc(ARC_END_DEG), on_arc(ARC_END_DEG + ARC_STEP_DEG)
    ux, uy = ex - px, ey - py
    norm = math.hypot(ux, uy)
    ux, uy = ux / norm, uy / norm
    for along in range(2, 21, 3):
        qx, qy = ex + along * ux, ey + along * uy
        rows.append((qx - (gap + TB_RADIUS_MM) * uy, qy + (gap + TB_RADIUS_MM) * ux,
                     gap, qx - gap * uy, qy + gap * ux, False))
    for y in (-10.0, -20.0, -30.0):
        for g in PHARYNX_GAPS:
            rows.append((ANTERIOR_X + g + TB_RADIUS_MM, y, g, ANTERIOR_X + g, y, True))
    cx, cy, tbcd, ox, oy, pharyngeal = (np.array(col) for col in zip(*rows))
    tbcl = np.arctan2(ox - PALATE_CENTER[0], oy - PALATE_CENTER[1])
    return cx, cy, tbcd, tbcl, pharyngeal


def test_pharyngeal_constriction_needs_the_extension(tmp_path):
    # The sweep runs through the full command line.  TBCD and TBCL land
    # within 5e-3 mm / 1e-3 rad of their closed forms on every frame.
    # TBCL falls at every step through both seams of the extension: no
    # stall, reversal or wrap.  It cannot be continuous in the strict
    # sense at the junction, where the soft-palate line and the wall meet
    # at 114.75 degrees seen from the tract: no circle clear of both
    # touches the corner, so the contact jumps from one to the other
    # where the center crosses their bisector.  The palate-only baseline
    # misses every pharyngeal gap by more than 10 mm, and it shrinks as
    # the gap opens, so the check measures the extension and nothing else.
    cx, cy, tbcd, tbcl, pharyngeal = pharyngeal_sweep()
    manifest = write_speaker_fixture(tmp_path / "data")
    rows = []
    for k, (x, y) in enumerate(zip(cx.tolist(), cy.tolist())):
        coords = reference_pellets()
        coords["T2"] = (x + TB_RADIUS_MM, y)
        coords["T3"] = (x, y - TB_RADIUS_MM)
        coords["T4"] = (x - TB_RADIUS_MM, y)
        rows.append((k / 145.0, coords))
    write_pellet_csv(tmp_path / "data" / "utt00.csv", rows)
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 0
    _, columns, quality = read_tv_columns(out / "utt00.tv.csv")
    assert quality == ["Ok"] * len(cx)
    worst_d = float(np.max(np.abs(np.array(columns["TBCD"]) - tbcd)))
    worst_l = float(np.max(np.abs(np.array(columns["TBCL"]) - tbcl)))
    assert worst_d <= DISTANCE_TOL, f"TBCD off by {worst_d}"
    assert worst_l <= ANGLE_TOL, f"TBCL off by {worst_l}"
    steps = np.diff(columns["TBCL"])
    assert (steps < 0.0).all(), f"TBCL does not fall at step {np.argmax(steps >= 0)}"

    _, center_dist, _, _, _, _ = circle_polyline_contacts(
        cx[pharyngeal], cy[pharyngeal], TB_RADIUS_MM, synthetic_anatomy().palate
    )
    baseline = center_dist - TB_RADIUS_MM
    miss = float(np.min(baseline - tbcd[pharyngeal]))
    assert miss > 10.0, f"palate-only TBCD within {miss} mm of the gap"
    by_height = baseline.reshape(-1, len(PHARYNX_GAPS))
    assert (np.diff(by_height, axis=1) < 0.0).all(), "palate-only TBCD rises with the gap"
    print(f"PHARYNGEAL CONSTRICTION: PASS (full CLI, {len(cx)} frames, "
          f"{int(pharyngeal.sum())} below the junction; worst TBCD {worst_d:.1e} mm, "
          f"TBCL {worst_l:.1e} rad; TBCL falls at every step; palate-only "
          f"TBCD misses every pharyngeal gap by >= {miss:.1f} mm > 10 and "
          f"shrinks as it opens)")
