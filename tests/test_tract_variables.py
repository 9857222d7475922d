"""Per-frame tract variables against the analytic synthetic speaker."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    ANGLE_TOL,
    DISTANCE_TOL,
    EXPECTED_TV,
    PALATE_CENTER,
    TB_RADIUS_MM,
    make_frame,
    on_arc,
    palate_coords,
    reference_pellets,
    synthetic_anatomy,
    translation_bound,
    wall_coords,
    wobbled_pellets,
)
from reference import (
    angle_from_reference,
    compute_frame,
    compute_la,
    compute_lp,
    compute_tongue_body_tvs,
    compute_tongue_tip_tvs,
    fallback_tongue_body_tvs,
    pellet_trajectory,
    point_polyline_clearance,
    polyline,
    tongue_body_circle,
)
from tractvar.anatomy import Sex, build_speaker_anatomy
from tractvar.errors import DataError, DegenerateAngle
from tractvar.geometry import Point2D, Polyline
from tractvar.ingest import PelletTrajectory
from tractvar.tract_variables import (
    PELLET_NAMES,
    Quality,
    compute_trajectory,
)


@pytest.fixture(scope="module")
def anatomy():
    return synthetic_anatomy()


class TestLips:
    def test_la_is_pellet_distance(self):
        frame = make_frame(0.0)
        assert compute_la(frame) == EXPECTED_TV["LA"]

    def test_lp_is_upper_lip_x(self):
        frame = make_frame(0.0)
        assert compute_lp(frame) == EXPECTED_TV["LP"]

    def test_lp_sign_preserved(self):
        coords = dict(reference_pellets())
        coords["UL"] = (2.25, 13.0)
        assert compute_lp(make_frame(0.0, coords)) == 2.25


class TestTongueBodyCircle:
    def test_matches_construction(self):
        frame = make_frame(0.0)
        circle = tongue_body_circle(frame)
        assert circle.radius == pytest.approx(TB_RADIUS_MM, rel=1e-12)

    def test_collinear_raises(self):
        coords = dict(reference_pellets())
        coords["T2"] = (-20.0, 10.0)
        coords["T3"] = (-25.0, 10.0)
        coords["T4"] = (-30.0, 10.0)
        with pytest.raises(
            DataError, match=r"^points are collinear within tolerance \(twice area = "
        ):
            tongue_body_circle(make_frame(0.0, coords))


class TestTongueBodyTvs:
    def test_analytic_values(self, anatomy):
        tbcd, tbcl = compute_tongue_body_tvs(make_frame(0.0), anatomy)
        assert tbcd == pytest.approx(EXPECTED_TV["TBCD"], abs=DISTANCE_TOL)
        assert tbcl == pytest.approx(EXPECTED_TV["TBCL"], abs=ANGLE_TOL)

    def test_penetration_signed_by_default(self, anatomy):
        # Tongue-body circle centered 25 mm out along the 20.25 degree
        # ray (a chord midpoint of the sampled arc, so discretization
        # cannot tilt the contact direction) with radius 15 reaches 5 mm
        # past the palate arc.
        coords = dict(reference_pellets())
        cx, cy = on_arc(20.25, radius=25.0)
        coords["T2"] = (cx + 15.0, cy)
        coords["T3"] = (cx, cy - 15.0)
        coords["T4"] = (cx - 15.0, cy)
        frame = make_frame(0.0, coords)
        tbcd, tbcl = compute_tongue_body_tvs(frame, anatomy)
        assert tbcd == pytest.approx(-5.0, abs=DISTANCE_TOL)
        assert tbcl == pytest.approx(math.radians(20.25), abs=ANGLE_TOL)

    def test_penetration_clamped_on_request(self, anatomy):
        coords = dict(reference_pellets())
        cx, cy = on_arc(20.25, radius=25.0)
        coords["T2"] = (cx + 15.0, cy)
        coords["T3"] = (cx, cy - 15.0)
        coords["T4"] = (cx - 15.0, cy)
        frame = make_frame(0.0, coords)
        tbcd, _ = compute_tongue_body_tvs(frame, anatomy, clamp_tbcd=True)
        assert tbcd == 0.0

    def test_fallback_matches_pellet_scan(self, anatomy):
        coords = dict(reference_pellets())
        coords["T2"] = (-20.0, 10.0)
        coords["T3"] = (-25.0, 10.0)
        coords["T4"] = (-30.0, 10.0)
        frame = make_frame(0.0, coords)
        tbcd, tbcl = fallback_tongue_body_tvs(frame, anatomy)
        # Independent route: scan the three pellets directly.
        scans = {
            name: point_polyline_clearance(
                Point2D(*coords[name]), anatomy.extended_palate
            ).distance
            for name in ("T2", "T3", "T4")
        }
        assert tbcd == min(scans.values())
        assert scans["T2"] == tbcd
        want_angle = math.atan2(
            coords["T2"][0] - anatomy.reference_center[0],
            coords["T2"][1] - anatomy.reference_center[1],
        )
        assert tbcl == pytest.approx(want_angle, abs=1e-9)


class TestTongueTipTvs:
    def test_analytic_values(self, anatomy):
        ttcd, ttcl = compute_tongue_tip_tvs(make_frame(0.0), anatomy)
        assert ttcd == pytest.approx(EXPECTED_TV["TTCD"], abs=DISTANCE_TOL)
        assert ttcl == pytest.approx(EXPECTED_TV["TTCL"], abs=ANGLE_TOL)

    def test_ttcd_never_negative(self, anatomy):
        for k in range(40):
            frame = make_frame(0.0, wobbled_pellets(0.31 * k, amp=2.0))
            ttcd, _ = compute_tongue_tip_tvs(frame, anatomy)
            assert ttcd >= 0.0


class TestComputeFrame:
    def test_clean_frame_is_ok(self, anatomy):
        tv = compute_frame(make_frame(0.125), anatomy)
        assert tv.quality is Quality.OK
        assert tv.t == 0.125
        assert tv.la == pytest.approx(EXPECTED_TV["LA"], abs=DISTANCE_TOL)
        assert tv.lp == pytest.approx(EXPECTED_TV["LP"], abs=DISTANCE_TOL)
        assert tv.tbcd == pytest.approx(EXPECTED_TV["TBCD"], abs=DISTANCE_TOL)
        assert tv.tbcl == pytest.approx(EXPECTED_TV["TBCL"], abs=ANGLE_TOL)
        assert tv.ttcd == pytest.approx(EXPECTED_TV["TTCD"], abs=DISTANCE_TOL)
        assert tv.ttcl == pytest.approx(EXPECTED_TV["TTCL"], abs=ANGLE_TOL)

    def test_ok_means_all_present(self, anatomy):
        for k in range(25):
            tv = compute_frame(make_frame(0.0, wobbled_pellets(0.25 * k)), anatomy)
            assert tv.quality is Quality.OK
            for value in (tv.la, tv.lp, tv.tbcl, tv.tbcd, tv.ttcl, tv.ttcd):
                assert value is not None

    def test_invalid_upper_lip(self, anatomy):
        tv = compute_frame(make_frame(0.0, invalid={"UL"}), anatomy)
        assert tv.quality is Quality.MISSING_PELLET
        assert tv.la is None and tv.lp is None
        assert tv.tbcd is not None and tv.ttcd is not None

    def test_invalid_lower_lip_keeps_lp(self, anatomy):
        tv = compute_frame(make_frame(0.0, invalid={"LL"}), anatomy)
        assert tv.quality is Quality.MISSING_PELLET
        assert tv.la is None
        assert tv.lp == EXPECTED_TV["LP"]

    def test_invalid_tongue_tip(self, anatomy):
        tv = compute_frame(make_frame(0.0, invalid={"T1"}), anatomy)
        assert tv.quality is Quality.MISSING_PELLET
        assert tv.ttcd is None and tv.ttcl is None
        assert tv.tbcd is not None

    def test_invalid_tongue_body_pellet(self, anatomy):
        tv = compute_frame(make_frame(0.0, invalid={"T3"}), anatomy)
        assert tv.quality is Quality.MISSING_PELLET
        assert tv.tbcd is None and tv.tbcl is None
        assert tv.la is not None and tv.ttcd is not None

    def test_mandible_pellets_not_required(self, anatomy):
        tv = compute_frame(make_frame(0.0, invalid={"MNI", "MNM"}), anatomy)
        assert tv.quality is Quality.OK
        for value in (tv.la, tv.lp, tv.tbcl, tv.tbcd, tv.ttcl, tv.ttcd):
            assert value is not None

    def test_degenerate_tongue_flagged(self, anatomy):
        coords = dict(reference_pellets())
        coords["T2"] = (-20.0, 10.0)
        coords["T3"] = (-25.0, 10.0)
        coords["T4"] = (-30.0, 10.0)
        tv = compute_frame(make_frame(0.0, coords), anatomy)
        assert tv.quality is Quality.DEGENERATE_TONGUE
        assert tv.tbcd is not None and tv.tbcl is not None

    def test_missing_pellet_outranks_degenerate(self, anatomy):
        coords = dict(reference_pellets())
        coords["T2"] = (-20.0, 10.0)
        coords["T3"] = (-25.0, 10.0)
        coords["T4"] = (-30.0, 10.0)
        tv = compute_frame(make_frame(0.0, coords, invalid={"UL"}), anatomy)
        assert tv.quality is Quality.MISSING_PELLET


class TestTrajectory:
    def _pellet_trajectory(self, n, rate=145.0):
        frames = tuple(
            make_frame(k / rate, wobbled_pellets(0.17 * k)) for k in range(n)
        )
        return pellet_trajectory(frames, utterance_id="u0")

    def test_maps_frames_one_to_one(self, anatomy):
        traj = self._pellet_trajectory(24)
        tvs = compute_trajectory(traj, anatomy)
        assert len(tvs.frames) == 24
        assert [f.t for f in tvs.frames] == [f.t for f in traj.frames]

    def test_empty_trajectory(self, anatomy):
        empty = pellet_trajectory((), utterance_id="u0")
        tvs = compute_trajectory(empty, anatomy)
        assert tvs.frames == ()

    def test_order_independent_bit_exact(self, anatomy):
        traj = self._pellet_trajectory(31)
        forward = compute_trajectory(traj, anatomy).frames
        backward = [compute_frame(f, anatomy) for f in reversed(traj.frames)]
        assert list(forward) == list(reversed(backward))

    def test_pellet_positions_never_read_when_invalid(self, anatomy):
        # An invalid pellet may carry sentinel coordinates; the result for
        # the remaining variables must match a frame where that pellet
        # holds plausible data.
        coords_a = dict(reference_pellets())
        coords_a["T1"] = (990000.0, 990000.0)
        tv_a = compute_frame(make_frame(0.0, coords_a, invalid={"T1"}), anatomy)
        tv_b = compute_frame(make_frame(0.0, invalid={"T1"}), anatomy)
        assert tv_a.la == tv_b.la
        assert tv_a.tbcd == tv_b.tbcd
        assert tv_a.tbcl == tv_b.tbcl


def trajectory_of(frames):
    return pellet_trajectory(frames)


def assert_matches_scalar(traj, anat, clamp_tbcd=False):
    """The batched frames equal the scalar reference's, bit for bit (repr
    tells every double apart, including -0.0 from 0.0)."""
    batched = compute_trajectory(traj, anat, clamp_tbcd=clamp_tbcd).frames
    scalar = [compute_frame(f, anat, clamp_tbcd) for f in traj.frames]
    assert [repr(f) for f in batched] == [repr(f) for f in scalar]
    return batched


def collinear_tongue(coords, slope=0.0):
    coords = dict(coords)
    for k, name in enumerate(("T2", "T3", "T4")):
        x = -20.0 - 5.0 * k
        coords[name] = (x, 10.0 + slope * x)
    return coords


def penetrating_tongue(coords):
    coords = dict(coords)
    cx, cy = on_arc(20.25, radius=25.0)
    coords["T2"] = (cx + 15.0, cy)
    coords["T3"] = (cx, cy - 15.0)
    coords["T4"] = (cx - 15.0, cy)
    return coords


class TestBatchedMatchesScalar:
    def test_criterion_5_fixture(self, anatomy):
        # Enough varied postures that a one-ulp difference, such as
        # np.hypot against math.hypot, shows on some of them.
        frames = [make_frame(k / 145.0) for k in range(30)]
        frames += [
            make_frame((30 + k) / 145.0, wobbled_pellets(0.2 * k, amp=0.5 + k % 7 / 3.0))
            for k in range(1500)
        ]
        assert_matches_scalar(trajectory_of(frames), anatomy)

    def test_random_postures(self, anatomy):
        # Tongue shapes that vary frame to frame, so the circle radius and
        # contact angle take many values.
        rng = np.random.default_rng(5)
        frames = []
        for k in range(2000):
            coords = dict(reference_pellets())
            for name in ("T1", "T2", "T3", "T4"):
                x, y = coords[name]
                coords[name] = (x + rng.uniform(-6.0, 6.0), y + rng.uniform(-6.0, 6.0))
            frames.append(make_frame(k / 145.0, coords))
        assert_matches_scalar(trajectory_of(frames), anatomy)

    def test_collinear_tie_keeps_first_pellet(self, anatomy):
        # T2, T3 and T4 all sit exactly 10 mm below a flat palate.
        flat = dataclasses.replace(
            anatomy,
            extended_palate=polyline([Point2D(10.0, 20.0), Point2D(-70.0, 20.0)]),
        )
        coords = collinear_tongue(reference_pellets())
        batched = assert_matches_scalar(trajectory_of([make_frame(0.0, coords)]), flat)
        t2 = Point2D(*coords["T2"])
        assert batched[0].tbcd == 10.0
        center = Point2D(*flat.reference_center)
        assert batched[0].tbcl == angle_from_reference(center, t2)

    @pytest.mark.parametrize("clamp", [False, True])
    def test_dirty_mix(self, anatomy, clamp):
        frames = []
        for k in range(120):
            coords = wobbled_pellets(0.37 * k, amp=1.5)
            invalid = set()
            if k % 7 == 3:
                invalid = {PELLET_NAMES[k % len(PELLET_NAMES)]}
                for name in invalid:
                    coords[name] = (1e6, 1e6)
            if k % 11 == 5:
                invalid |= {"T2", "UL"}
            if k % 5 == 1:
                coords = collinear_tongue(coords, slope=0.01 * (k % 3))
            elif k % 5 == 2:
                coords = penetrating_tongue(coords)
            frames.append(make_frame(k / 145.0, coords, invalid=invalid))
        batched = assert_matches_scalar(trajectory_of(frames), anatomy, clamp)
        qualities = {f.quality for f in batched}
        assert qualities == set(Quality)
        tbcds = [f.tbcd for f in batched if f.tbcd is not None]
        assert (min(tbcds) == 0.0) if clamp else (min(tbcds) < 0.0)

    def test_failing_frame_raises_the_scalar_error(self, anatomy):
        coords = dict(reference_pellets())
        coords["T1"] = anatomy.reference_center
        frames = [make_frame(k / 145.0) for k in range(5)]
        frames[3] = make_frame(3 / 145.0, coords)
        with pytest.raises(DegenerateAngle) as scalar:
            compute_frame(frames[3], anatomy)
        with pytest.raises(DegenerateAngle) as batched:
            compute_trajectory(trajectory_of(frames), anatomy)
        assert str(batched.value) == str(scalar.value)


# A flat palate 10 mm above the reference center, and tongue postures
# built to fail each check `compute_trajectory` makes before it measures
# an angle.  The checks run in this order within a frame.
ON_TRACE = "trace passes through the circle center; boundary point undefined"
ON_CENTER = "point (-20.0, 10.0) coincides with the reference center"


def flat_anatomy(anatomy):
    return dataclasses.replace(
        anatomy,
        extended_palate=polyline([Point2D(10.0, 20.0), Point2D(-70.0, 20.0)]),
        reference_center=(-20.0, 10.0),
    )


def degenerate_coords(*faults):
    coords = dict(reference_pellets())
    if "on_trace" in faults:
        # Circle of radius 5 about (-20, 20), a point of the palate.
        coords.update(T2=(-15.0, 20.0), T3=(-20.0, 15.0), T4=(-25.0, 20.0))
    if "contact" in faults:
        # Circle of radius 5 about (-20, 5): it meets the palate's nearest
        # point (-20, 20) along the ray through the center (-20, 10).
        coords.update(T2=(-15.0, 5.0), T3=(-20.0, 0.0), T4=(-25.0, 5.0))
    if "fallback" in faults:
        # Collinear and equally far from the palate, so T2 is picked.
        coords.update(T2=(-20.0, 10.0), T3=(-25.0, 10.0), T4=(-30.0, 10.0))
    if "tip" in faults:
        coords["T1"] = (-20.0, 10.0)
    return coords


def assert_same_error(frames, anat):
    """compute_trajectory raises what the reference raises first, frame by
    frame; returns the message."""
    with pytest.raises(DegenerateAngle) as scalar:
        for frame in frames:
            compute_frame(frame, anat)
    with pytest.raises(DegenerateAngle) as batched:
        compute_trajectory(trajectory_of(frames), anat)
    assert type(batched.value) is type(scalar.value)
    assert str(batched.value) == str(scalar.value)
    return str(scalar.value)


class TestDegenerateAngle:
    @pytest.mark.parametrize(
        "faults, message",
        [
            (("on_trace",), ON_TRACE),
            (("contact",), ON_CENTER),
            (("fallback",), ON_CENTER),
            (("tip",), ON_CENTER),
            (("on_trace", "tip"), ON_TRACE),
        ],
        ids=["circle-center-on-palate", "contact-on-center", "fallback-on-center",
             "t1-on-center", "two-checks-in-one-frame"],
    )
    def test_each_check_raises_the_reference_error(self, anatomy, faults, message):
        frame = make_frame(3 / 145.0, degenerate_coords(*faults))
        # Each posture reaches the check it is named after: a tongue-body
        # circle exists exactly when the fallback is not named.
        if "fallback" in faults:
            with pytest.raises(
                DataError, match=r"^points are collinear within tolerance \(twice area = "
            ):
                tongue_body_circle(frame)
        else:
            tongue_body_circle(frame)
        frames = [make_frame(k / 145.0) for k in range(3)] + [frame]
        assert assert_same_error(frames, flat_anatomy(anatomy)) == message

    def test_earliest_frame_wins_over_check_order(self, anatomy):
        # Frame 2 fails only the last check and frame 4 the first one.
        frames = [make_frame(k / 145.0) for k in range(6)]
        frames[2] = make_frame(2 / 145.0, degenerate_coords("tip"))
        frames[4] = make_frame(4 / 145.0, degenerate_coords("on_trace"))
        assert assert_same_error(frames, flat_anatomy(anatomy)) == ON_CENTER

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        postures=st.lists(
            st.sets(st.sampled_from(["on_trace", "contact", "fallback", "tip"]), max_size=2),
            min_size=1,
            max_size=8,
        )
    )
    def test_mixed_runs_match_the_reference(self, anatomy, postures):
        anat = flat_anatomy(anatomy)
        frames = [
            # Of two tongue postures, `degenerate_coords` keeps the later.
            make_frame(k / 145.0, degenerate_coords(*faults))
            for k, faults in enumerate(postures)
        ]
        if any(postures):
            assert_same_error(frames, anat)
        else:
            assert_matches_scalar(trajectory_of(frames), anat)


class TestDegenerateAngleLocation:
    def test_names_the_earliest_bad_frame(self, anatomy):
        frames = [make_frame(k / 145.0) for k in range(6)]
        frames[2] = make_frame(2 / 145.0, degenerate_coords("tip"))
        frames[4] = make_frame(4 / 145.0, degenerate_coords("on_trace"))
        with pytest.raises(DegenerateAngle) as excinfo:
            compute_trajectory(trajectory_of(frames), flat_anatomy(anatomy))
        assert (excinfo.value.frame, excinfo.value.t) == (2, 2 / 145.0)
        assert type(excinfo.value.t) is float

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        postures=st.lists(
            st.sets(st.sampled_from(["on_trace", "contact", "fallback", "tip"]), max_size=2),
            min_size=1,
            max_size=8,
        ).filter(any)
    )
    def test_frame_is_the_first_posture_that_fails(self, anatomy, postures):
        # Every non-empty posture fails some check (TestDegenerateAngle).
        frames = [
            make_frame(0.5 + k / 145.0, degenerate_coords(*faults))
            for k, faults in enumerate(postures)
        ]
        first = next(k for k, faults in enumerate(postures) if faults)
        with pytest.raises(DegenerateAngle) as excinfo:
            compute_trajectory(trajectory_of(frames), flat_anatomy(anatomy))
        assert excinfo.value.frame == first
        assert excinfo.value.t == 0.5 + first / 145.0


coordinate = st.floats(-60.0, 20.0, allow_nan=False)
pellet_frames = st.lists(
    st.tuples(
        st.lists(st.tuples(coordinate, coordinate), min_size=8, max_size=8),
        st.sets(st.sampled_from(PELLET_NAMES), max_size=3),
        st.sampled_from(["free", "collinear", "penetrating"]),
    ),
    min_size=1,
    max_size=40,
)


class TestBatchedProperties:
    @staticmethod
    def build(rows):
        frames = []
        for k, (points, invalid, shape) in enumerate(rows):
            coords = dict(zip(PELLET_NAMES, points))
            if shape == "collinear":
                coords = collinear_tongue(coords, slope=points[0][0] / 100.0)
            elif shape == "penetrating":
                coords = penetrating_tongue(coords)
            frames.append(make_frame(k / 145.0, coords, invalid=invalid))
        return trajectory_of(frames)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(rows=pellet_frames, clamp=st.booleans())
    def test_batched_equals_scalar(self, anatomy, rows, clamp):
        assert_matches_scalar(self.build(rows), anatomy, clamp)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(rows=pellet_frames)
    def test_angles_half_open(self, anatomy, rows):
        tvs = compute_trajectory(self.build(rows), anatomy)
        for frame in tvs.frames:
            for angle in (frame.tbcl, frame.ttcl):
                assert angle is None or -math.pi < angle <= math.pi


def session_trajectory(n=240, seed=11):
    """Wobbled postures with +-0.5 mm noise on the tongue pellets, plus
    invalid pellets, collinear tongues and penetrating circles, so that
    every quality and both tongue-body routes occur."""
    rng = np.random.default_rng(seed)
    frames = []
    for k in range(n):
        coords = wobbled_pellets(0.29 * k, amp=1.2)
        for name in ("T1", "T2", "T3", "T4"):
            x, y = coords[name]
            coords[name] = (x + rng.uniform(-0.5, 0.5), y + rng.uniform(-0.5, 0.5))
        invalid = {PELLET_NAMES[k % len(PELLET_NAMES)]} if k % 7 == 3 else set()
        if k % 5 == 1:
            coords = collinear_tongue(coords, slope=0.01 * (k % 3))
        elif k % 5 == 2:
            coords = penetrating_tongue(coords)
        frames.append(make_frame(k / 145.0, coords, invalid=invalid))
    return trajectory_of(frames)


def shifted_anatomy(dx, dy):
    """The synthetic speaker with palate and wall moved by (dx, dy)."""
    palate = Polyline(np.array(palate_coords()) + (dx, dy))
    wall = Polyline(np.array(wall_coords()) + (dx, dy))
    return build_speaker_anatomy("synth", palate, wall, Sex.FEMALE)


class TestSessionFrameInvariance:
    """The six TVs are relative measures: moving the whole session frame
    moves LP with it and leaves the rest unchanged up to rounding."""

    @pytest.fixture(scope="class")
    def session(self, anatomy):
        traj = session_trajectory()
        tvs = compute_trajectory(traj, anatomy)
        assert set(tvs.quality.tolist()) == {0, 1, 2}
        return traj, tvs

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(
        dx=st.floats(-1e4, 1e4, allow_subnormal=False),
        dy=st.floats(-1e4, 1e4, allow_subnormal=False),
    )
    def test_translation(self, anatomy, session, dx, dy):
        traj, base = session
        moved = shifted_anatomy(dx, dy)
        shifted = compute_trajectory(
            PelletTrajectory(traj.utterance_id, traj.t, traj.xy + (dx, dy), traj.valid),
            moved,
        )
        assert len(moved.extended_palate) == len(anatomy.extended_palate)
        assert shifted.quality.tolist() == base.quality.tolist()
        np.testing.assert_array_equal(shifted.values[:, 1], base.values[:, 1] + dx)
        bound = translation_bound(dx, dy)
        others = [0, 2, 3, 4, 5]
        np.testing.assert_array_equal(
            np.isnan(shifted.values[:, others]), np.isnan(base.values[:, others])
        )
        error = np.nan_to_num(np.abs(shifted.values[:, others] - base.values[:, others]))
        assert error.max() <= bound

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(s=st.floats(0.5, 10.0))
    @example(s=0.5)
    @example(s=2.0)
    @example(s=10.0)
    def test_uniform_scale(self, anatomy, session, s):
        """Scaling the palate, the wall, the pellets and the thickness by s
        scales LA, LP, TBCD and TTCD by s and leaves TBCL, TTCL and every
        frame's quality as they are.

        Four thresholds are absolute, not relative to s, so the session
        stays far from each of them, here given at s = 1:
        * `TOL_COLLINEAR` (1e-6 mm^2): the collinear tongues have a twice
          area of exactly zero, and the others of at least 416 mm^2;
        * `MIN_ANGLE_RADIUS` (1e-9 mm): no angle is read within 10 mm of
          the reference center;
        * `extend_palate`'s 1e-9 mm: the junction is 32 mm from the last
          palate point and 1.8 mm below the nearest anterior-wall point;
        * `VELUM_STEP_MM`: it gives the extension 159, 207 and 466 points
          at s = 0.5, 2 and 10, but sampling a straight line more finely
          does not move the nearest point on it.
        """
        traj, base = session
        scaled_anatomy = build_speaker_anatomy(
            "synth",
            Polyline(np.array(palate_coords()) * s),
            Polyline(np.array(wall_coords()) * s),
            Sex.FEMALE,
            thickness_mm=anatomy.thickness_mm * s,
        )
        scaled = compute_trajectory(
            PelletTrajectory(traj.utterance_id, traj.t, traj.xy * s, traj.valid),
            scaled_anatomy,
        )
        assert scaled.quality.tolist() == base.quality.tolist()
        np.testing.assert_array_equal(scaled.values[:, 1], base.values[:, 1] * s)
        np.testing.assert_array_equal(np.isnan(scaled.values), np.isnan(base.values))
        # Rounding errs by an ulp of the fixture's scaled extent, 100 s mm,
        # and an angle's error is that over its radius, at least 10 s mm.
        bound = 64 * np.finfo(np.float64).eps * 100.0 * s
        distances = [0, 3, 5]
        error = np.abs(scaled.values[:, distances] - base.values[:, distances] * s)
        assert np.nanmax(error) <= bound
        angles = [2, 4]
        error = np.abs(scaled.values[:, angles] - base.values[:, angles])
        assert np.nanmax(error) <= bound / (10.0 * s)

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_any_subset_of_frames(self, anatomy, session, data):
        traj, full = session
        rows = np.array(
            sorted(data.draw(st.sets(st.integers(0, len(traj) - 1)))), dtype=np.intp
        )
        part = compute_trajectory(
            PelletTrajectory(traj.utterance_id, traj.t[rows], traj.xy[rows], traj.valid[rows]),
            anatomy,
        )
        assert part.t.tobytes() == full.t[rows].tobytes()
        assert part.values.tobytes() == full.values[rows].tobytes()
        assert part.quality.tobytes() == full.quality[rows].tobytes()
