"""The per-frame tract-variable engine, kept as the reference for tests.

`tractvar.tract_variables.compute_trajectory` computes whole columns at
once.  The functions here compute one `PelletFrame` at a time with
scalar IEEE operations in the same order, so the batched engine must
match them bit for bit, raising the same `DegenerateAngle` wherever
they raise one.  `nearest` is the point-at-a-time twin of
`Polyline.nearest_many`, and `circle_polyline_clearance` the scalar
twin of `circle_polyline_contacts`.  The helpers at the end build
trajectories from frames and write pellet files, which only tests need.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable

import numpy as np

from tractvar.anatomy import SpeakerAnatomy
from tractvar.errors import CollinearPoints, DegenerateAngle
from tractvar.geometry import (
    MIN_ANGLE_RADIUS,
    TOL_COLLINEAR,
    Circle,
    Point2D,
    Polyline,
    distance,
)
from tractvar.ingest import PELLET_HEADER, PelletTrajectory
from tractvar.tract_variables import (
    PELLET_NAMES,
    QUALITIES,
    REQUIRED_PELLETS,
    TV_NAMES,
    PelletFrame,
    Quality,
    TractVariableFrame,
    TvTrajectory,
)

# Value written back out for invalid pellets.
SENTINEL_OUT = 1e6


@dataclass(frozen=True, slots=True)
class ClearanceResult:
    """Outcome of a minimum-distance query against a trace.

    `distance` is signed for circle queries (negative means the trace
    penetrates the circle) and non-negative for point queries.  The two
    closest points identify where the minimum is attained: one on the
    trace, one on the query object.
    """

    distance: float
    closest_trace_point: Point2D
    closest_object_point: Point2D
    segment_index: int


@lru_cache(maxsize=16)
def _segments(trace: Polyline) -> tuple[np.ndarray, ...]:
    """The per-segment arrays `Polyline` precomputes, built the same way."""
    xs = np.array([p.x for p in trace.points], dtype=np.float64)
    ys = np.array([p.y for p in trace.points], dtype=np.float64)
    ax = xs[:-1]
    ay = ys[:-1]
    dx = np.diff(xs)
    dy = np.diff(ys)
    inv_len2 = 1.0 / (dx * dx + dy * dy)
    return ax, ay, dx, dy, dx * inv_len2, dy * inv_len2, (ax * dx + ay * dy) * inv_len2


def nearest(trace: Polyline, px: float, py: float) -> tuple[int, float, float, float]:
    """Nearest point on the chain to (px, py).

    Returns (segment index, squared distance, closest x, closest y).
    Ties resolve to the lowest segment index.
    """
    ax, ay, dx, dy, ux, uy, c0 = _segments(trace)
    t = px * ux + py * uy - c0
    np.clip(t, 0.0, 1.0, out=t)
    cx = ax + t * dx
    cy = ay + t * dy
    ex = px - cx
    ey = py - cy
    d2 = ex * ex + ey * ey
    i = int(np.argmin(d2))
    return i, float(d2[i]), float(cx[i]), float(cy[i])


def point_segment_distance(
    p: Point2D, a: Point2D, b: Point2D
) -> tuple[float, Point2D]:
    """Distance from `p` to segment `ab`, with the attaining point.

    Raises ValueError when the segment has zero length.
    """
    dx = b.x - a.x
    dy = b.y - a.y
    len2 = dx * dx + dy * dy
    if len2 == 0.0:
        raise ValueError("zero-length segment")
    t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / len2
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    cx = a.x + t * dx
    cy = a.y + t * dy
    return math.hypot(p.x - cx, p.y - cy), Point2D(cx, cy)


def point_polyline_clearance(p: Point2D, trace: Polyline) -> ClearanceResult:
    """Minimum distance from a point to a trace.

    The result's `closest_object_point` is `p` itself; `distance` is
    always >= 0.  Ties between segments resolve to the lowest index.
    """
    i, d2, cx, cy = nearest(trace, p.x, p.y)
    return ClearanceResult(
        distance=math.sqrt(d2),
        closest_trace_point=Point2D(cx, cy),
        closest_object_point=p,
        segment_index=i,
    )


def circle_polyline_clearance(circle: Circle, trace: Polyline) -> ClearanceResult:
    """Signed clearance between a circle and a trace, point at a time.

    Positive clearance is the gap between the circle boundary and the
    trace; negative means the trace comes closer to the center than the
    radius (penetration).  The attaining circle point lies on the ray
    from the center through the closest trace point.
    """
    c = circle.center
    i, d2, cx, cy = nearest(trace, c.x, c.y)
    center_dist = math.sqrt(d2)
    if center_dist < MIN_ANGLE_RADIUS:
        raise DegenerateAngle(
            "trace passes through the circle center; boundary point undefined"
        )
    scale = circle.radius / center_dist
    on_circle = Point2D(c.x + (cx - c.x) * scale, c.y + (cy - c.y) * scale)
    return ClearanceResult(
        distance=center_dist - circle.radius,
        closest_trace_point=Point2D(cx, cy),
        closest_object_point=on_circle,
        segment_index=i,
    )


def circumcircle(a: Point2D, b: Point2D, c: Point2D) -> Circle:
    """The unique circle through three non-collinear points.

    Raises CollinearPoints when twice the triangle area falls below
    TOL_COLLINEAR.
    """
    abx = b.x - a.x
    aby = b.y - a.y
    acx = c.x - a.x
    acy = c.y - a.y
    cross2 = abx * acy - aby * acx
    if abs(cross2) < TOL_COLLINEAR:
        raise CollinearPoints(
            f"points are collinear within tolerance (twice area = {abs(cross2):.3e})"
        )
    ab2 = abx * abx + aby * aby
    ac2 = acx * acx + acy * acy
    inv = 0.5 / cross2
    ux = (acy * ab2 - aby * ac2) * inv
    uy = (abx * ac2 - acx * ab2) * inv
    center = Point2D(a.x + ux, a.y + uy)
    return Circle(center, math.hypot(ux, uy))


def angle_from_reference(center: Point2D, p: Point2D) -> float:
    """Angle of `p` about `center`, zero along +y, positive toward +x.

    Returned in radians on (-pi, pi].  Raises DegenerateAngle when `p`
    sits on the center within 1e-9 mm.
    """
    dx = p.x - center.x
    dy = p.y - center.y
    if math.hypot(dx, dy) < MIN_ANGLE_RADIUS:
        raise DegenerateAngle(
            f"point ({p.x}, {p.y}) coincides with the reference center"
        )
    ang = math.atan2(dx, dy)
    if ang <= -math.pi:
        return math.pi
    return ang


def compute_la(frame: PelletFrame) -> float:
    """Lip aperture: Euclidean distance between the lip pellets."""
    return distance(frame.ul, frame.ll)


def compute_lp(frame: PelletFrame) -> float:
    """Lip protrusion: upper-lip x, sign preserved (origin at the incisor)."""
    return frame.ul.x


def tongue_body_circle(frame: PelletFrame) -> Circle:
    """Circle through the three rear tongue pellets (T2, T3, T4).

    Raises CollinearPoints when the posture is flat within tolerance.
    """
    return circumcircle(frame.t2, frame.t3, frame.t4)


def compute_tongue_body_tvs(
    frame: PelletFrame, anat: SpeakerAnatomy, clamp_tbcd: bool = False
) -> tuple[float, float]:
    """(TBCD, TBCL) via the tongue-body circle.

    TBCD is the signed clearance between the circle and the extended
    palate; TBCL the angle of the attaining circle point about the
    palatal reference center.  Propagates CollinearPoints for degenerate
    postures; use `fallback_tongue_body_tvs` in that case.
    """
    circle = tongue_body_circle(frame)
    res = circle_polyline_clearance(circle, anat.extended_palate)
    tbcd = res.distance
    if clamp_tbcd and tbcd < 0.0:
        tbcd = 0.0
    tbcl = angle_from_reference(anat.reference_center, res.closest_object_point)
    return tbcd, tbcl


def fallback_tongue_body_tvs(
    frame: PelletFrame, anat: SpeakerAnatomy
) -> tuple[float, float]:
    """(TBCD, TBCL) for a collinear tongue posture.

    With no circle available, the clearance degenerates to the smallest
    pellet-to-trace distance over T2, T3, T4, and the location to the
    angle of the attaining pellet.
    """
    best = None
    best_pellet = None
    for name in ("T2", "T3", "T4"):
        p = frame.pellet(name)
        res = point_polyline_clearance(p, anat.extended_palate)
        if best is None or res.distance < best:
            best = res.distance
            best_pellet = p
    assert best is not None and best_pellet is not None
    return best, angle_from_reference(anat.reference_center, best_pellet)


def compute_tongue_tip_tvs(
    frame: PelletFrame, anat: SpeakerAnatomy
) -> tuple[float, float]:
    """(TTCD, TTCL): T1 clearance to the extended palate and its angle."""
    res = point_polyline_clearance(frame.t1, anat.extended_palate)
    ttcl = angle_from_reference(anat.reference_center, frame.t1)
    return res.distance, ttcl


def compute_frame(
    frame: PelletFrame, anat: SpeakerAnatomy, clamp_tbcd: bool = False
) -> TractVariableFrame:
    """All six tract variables for one pellet frame.

    Each variable is computed when its pellets are valid and left absent
    otherwise.  Quality is MISSING_PELLET when any required pellet is
    invalid, DEGENERATE_TONGUE when the collinear fallback was engaged,
    OK otherwise.
    """
    valid = frame.valid
    la = lp = tbcl = tbcd = ttcl = ttcd = None
    degenerate = False

    if "UL" in valid:
        lp = compute_lp(frame)
        if "LL" in valid:
            la = compute_la(frame)

    if "T2" in valid and "T3" in valid and "T4" in valid:
        try:
            tbcd, tbcl = compute_tongue_body_tvs(frame, anat, clamp_tbcd)
        except CollinearPoints:
            degenerate = True
            tbcd, tbcl = fallback_tongue_body_tvs(frame, anat)

    if "T1" in valid:
        ttcd, ttcl = compute_tongue_tip_tvs(frame, anat)

    if any(name not in valid for name in REQUIRED_PELLETS):
        quality = Quality.MISSING_PELLET
    elif degenerate:
        quality = Quality.DEGENERATE_TONGUE
    else:
        quality = Quality.OK

    return TractVariableFrame(
        t=frame.t,
        la=la,
        lp=lp,
        tbcl=tbcl,
        tbcd=tbcd,
        ttcl=ttcl,
        ttcd=ttcd,
        quality=quality,
    )


def pellet_trajectory(
    frames: Iterable[PelletFrame], utterance_id: str = "u"
) -> PelletTrajectory:
    """A PelletTrajectory holding the given frames."""
    frames = tuple(frames)
    n = len(frames)
    t = np.array([f.t for f in frames], dtype=np.float64)
    xy = np.array(
        [
            (p.x, p.y)
            for f in frames
            for p in (f.ul, f.ll, f.t1, f.t2, f.t3, f.t4, f.mni, f.mnm)
        ],
        dtype=np.float64,
    ).reshape(n, len(PELLET_NAMES), 2)
    valid = np.array(
        [name in f.valid for f in frames for name in PELLET_NAMES], dtype=bool
    ).reshape(n, len(PELLET_NAMES))
    return PelletTrajectory(utterance_id, t, xy, valid)


def tv_trajectory(frames: Iterable[TractVariableFrame]) -> TvTrajectory:
    """A TvTrajectory holding the given frames."""
    frames = tuple(frames)
    t = np.array([f.t for f in frames], dtype=np.float64)
    values = np.array(
        [
            math.nan if v is None else v
            for f in frames
            for v in (f.la, f.lp, f.tbcl, f.tbcd, f.ttcl, f.ttcd)
        ],
        dtype=np.float64,
    ).reshape(len(frames), len(TV_NAMES))
    quality = np.array([QUALITIES.index(f.quality) for f in frames], dtype=np.int8)
    return TvTrajectory(t, values, quality)


def write_pellet_file(trajectory: PelletTrajectory, path: str | Path) -> None:
    """Write a trajectory back to pellet CSV.

    Valid pellet coordinates round-trip bit-exactly (shortest repr);
    invalid pellets are written as the 1e6 sentinel so the flag survives.
    """
    n = len(trajectory)
    cells = np.where(trajectory.valid[:, :, None], trajectory.xy, SENTINEL_OUT)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PELLET_HEADER)
        for t, row in zip(trajectory.t.tolist(), cells.reshape(n, -1).tolist()):
            writer.writerow([repr(t), *map(repr, row)])
