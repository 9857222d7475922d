"""The per-frame tract-variable engine, kept as the reference for tests.

`tractvar.tract_variables.compute_trajectory` computes whole columns at
once.  The functions here compute one `PelletFrame` at a time with
scalar IEEE operations in the same order, so the batched engine must
match them bit for bit, raising the same `DegenerateAngle` wherever
they raise one.  A `PelletFrame` is a plain record of (x, y) pairs and
a `valid` set of names; `compute_frame` wraps each pair in `Point2D`,
the named pair every scalar function here reads.  `nearest` is the
point-at-a-time twin of `Polyline.nearest_many`, `extend_line` the
segment-at-a-time twin of the array ray cast `extend_line_to_polyline`
(same floats, same errors), `circle_polyline_clearance` the scalar twin
of `circle_polyline_contacts`, and `spread_twice_area` the eigensolver
twin of `fit_circle`'s collinearity measure.  `points` and `polyline`
turn a trace's array into `Point2D`s and back.

The library keeps no circle object: `fit_circle` returns only its
center, and `SpeakerAnatomy.reference_center` is that center, both as
`(x, y)` pairs.  `Circle` here holds `circumcircle`'s result, the
tongue-body circle, and `fitted_circle`'s, which rebuilds a fit's radius
with the operations `fit_circle` uses to check it.  The helpers after
them build trajectories from frames and write pellet files, which only
tests need; `tv_trajectory` codes each frame's `Quality` by its index
in `QUALITY_LABELS`.  Last come `anatomy_svg` and `tv_svg`, the figures
drawn one point at a time in Python floats, which `tractvar.plots` must
match byte for byte while it computes whole pixel columns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from tractvar.anatomy import SpeakerAnatomy
from tractvar.errors import DataError, DegenerateAngle
from tractvar.geometry import (
    MIN_ANGLE_RADIUS,
    TOL_COLLINEAR,
    Polyline,
    fit_circle,
)
from tractvar.ingest import PELLET_HEADER, PelletTrajectory
from tractvar.plots import _ANATOMY_SIZE, _MARGIN, _TRACE_STYLES, _TV_SIZE
from tractvar.tract_variables import (
    PELLET_NAMES,
    QUALITY_LABELS,
    REQUIRED_PELLETS,
    TV_NAMES,
    PelletFrame,
    Quality,
    TractVariableFrame,
    TvTrajectory,
)

# Value written back out for invalid pellets.
SENTINEL_OUT = 1e6


class Point2D(NamedTuple):
    """A position in the midsagittal plane, in millimeters, as an (x, y)
    pair whose fields have names."""

    x: float
    y: float


class CollinearPoints(DataError):
    """Three points too flat for `circumcircle`: the tongue-body posture
    for which `compute_frame` takes the fallback."""


@dataclass(frozen=True, slots=True)
class Circle:
    """A circle given by center and radius."""

    center: Point2D
    radius: float


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


def distance(p: Point2D, q: Point2D) -> float:
    """Euclidean distance between two points."""
    return math.hypot(p.x - q.x, p.y - q.y)


def coords(pts: Iterable[Point2D]) -> np.ndarray:
    """The points as the (n, 2) array of (x, y) rows that `Polyline` and
    `fit_circle` take."""
    return np.array([(p.x, p.y) for p in pts], dtype=np.float64).reshape(-1, 2)


def polyline(pts: Iterable[Point2D]) -> Polyline:
    """The trace through the points, in order."""
    return Polyline(coords(pts))


def points(trace: Polyline) -> tuple[Point2D, ...]:
    """The trace's points, rebuilt as `Point2D`s from its `.xy`."""
    return tuple(Point2D(x, y) for x, y in trace.xy.tolist())


@lru_cache(maxsize=16)
def _segments(trace: Polyline) -> tuple[np.ndarray, ...]:
    """The per-segment arrays `Polyline` precomputes, built the same way."""
    xs, ys = trace.xy.T.copy()
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


def extend_line(
    a: tuple[float, float], b: tuple[float, float], wall: Polyline
) -> tuple[float, float]:
    """`geometry.extend_line_to_polyline` one segment at a time, in
    Python floats: the first crossing of the ray from `b` away from `a`.

    Raises DataError when the ray misses, ValueError when a == b, with
    the library's messages.
    """
    (ax, ay), (bx, by) = a, b
    dx = bx - ax
    dy = by - ay
    dlen = math.hypot(dx, dy)
    if dlen == 0.0:
        raise ValueError("ray direction undefined: a and b coincide")
    best_t = math.inf
    pts = wall.xy.tolist()
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        sx = x2 - x1
        sy = y2 - y1
        denom = dx * sy - dy * sx
        if abs(denom) <= 1e-12 * dlen * math.hypot(sx, sy):
            continue
        rx = x1 - bx
        ry = y1 - by
        t = (rx * sy - ry * sx) / denom
        u = (rx * dy - ry * dx) / denom
        if t < -1e-9 or u < -1e-9 or u > 1.0 + 1e-9:
            continue
        if t < best_t:
            best_t = t
    if best_t == math.inf:
        raise DataError(
            f"ray from ({bx:g}, {by:g}) along ({dx:g}, {dy:g}) "
            f"never meets the trace"
        )
    t = max(best_t, 0.0)
    return bx + t * dx, by + t * dy


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


def fitted_circle(xy: np.ndarray) -> Circle:
    """`fit_circle`'s circle: its center, with the radius
    sqrt(mean |p_i - c|^2) computed as `fit_circle` computes r^2."""
    cx, cy = fit_circle(xy)
    xs, ys = np.asarray(xy, dtype=np.float64).T.copy()
    r2 = float(np.mean((xs - cx) ** 2 + (ys - cy) ** 2))
    return Circle(Point2D(cx, cy), math.sqrt(r2))


def spread_twice_area(xs: np.ndarray, ys: np.ndarray) -> float:
    """`geometry._spread_twice_area` with the principal axis and its
    normal taken from `np.linalg.eigh` of the 2x2 scatter matrix."""
    u = xs - xs.mean()
    v = ys - ys.mean()
    scatter = np.array(
        [[np.dot(u, u), np.dot(u, v)], [np.dot(u, v), np.dot(v, v)]]
    )
    _, vecs = np.linalg.eigh(scatter)
    main = vecs[:, 1]
    perp = vecs[:, 0]
    along = u * main[0] + v * main[1]
    dev = u * perp[0] + v * perp[1]
    extent = float(along.max() - along.min())
    return extent * float(np.abs(dev).max())


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
    tbcl = angle_from_reference(
        Point2D(*anat.reference_center), res.closest_object_point
    )
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
    for p in (frame.t2, frame.t3, frame.t4):
        res = point_polyline_clearance(p, anat.extended_palate)
        if best is None or res.distance < best:
            best = res.distance
            best_pellet = p
    assert best is not None and best_pellet is not None
    return best, angle_from_reference(Point2D(*anat.reference_center), best_pellet)


def compute_tongue_tip_tvs(
    frame: PelletFrame, anat: SpeakerAnatomy
) -> tuple[float, float]:
    """(TTCD, TTCL): T1 clearance to the extended palate and its angle."""
    res = point_polyline_clearance(frame.t1, anat.extended_palate)
    ttcl = angle_from_reference(Point2D(*anat.reference_center), frame.t1)
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
    frame = PelletFrame(
        frame.t,
        *(Point2D(*getattr(frame, name.lower())) for name in REQUIRED_PELLETS),
        valid=frame.valid,
    )
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
            for p in (f.ul, f.ll, f.t1, f.t2, f.t3, f.t4)
        ],
        dtype=np.float64,
    ).reshape(n, len(REQUIRED_PELLETS), 2)
    valid = np.array(
        [name in f.valid for f in frames for name in REQUIRED_PELLETS], dtype=bool
    ).reshape(n, len(REQUIRED_PELLETS))
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
    quality = np.array([QUALITY_LABELS.index(f.quality.value) for f in frames], dtype=np.int8)
    return TvTrajectory(t, values, quality)


def write_pellet_file(trajectory: PelletTrajectory, path: str | Path) -> None:
    """Write a trajectory back to pellet CSV.

    Valid pellet coordinates round-trip bit-exactly (shortest repr);
    invalid pellets are written as the 1e6 sentinel so the flag survives,
    and so are the mandible pellets, which a trajectory does not hold.
    """
    n = len(trajectory)
    cells = np.full((n, len(PELLET_NAMES), 2), SENTINEL_OUT)
    cells[:, : len(REQUIRED_PELLETS)][trajectory.valid] = trajectory.xy[trajectory.valid]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PELLET_HEADER)
        for t, row in zip(trajectory.t.tolist(), cells.reshape(n, -1).tolist()):
            writer.writerow([repr(t), *map(repr, row)])


def _polyline_svg(cls: str, color: str, dash: str, pts: list[tuple[float, float]]) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
    dash_attr = f' stroke-dasharray="{dash}"' if dash != "none" else ""
    return (
        f'<polyline class="{cls}" fill="none" stroke="{color}" '
        f'stroke-width="1.5"{dash_attr} points="{coords}"/>'
    )


def anatomy_svg(anat: SpeakerAnatomy) -> str:
    """`plots.anatomy_svg` one point at a time, in Python floats."""
    palate = anat.palate.xy.tolist()
    extension = anat.extended_palate.xy[len(palate) - 1 :].tolist()
    anterior = anat.anterior_wall.xy.tolist()
    posterior = anat.posterior_wall.xy.tolist()
    center = anat.reference_center

    everything = palate + extension + anterior + posterior + [center]
    xs = [p[0] for p in everything]
    ys = [p[1] for p in everything]
    x0 = min(xs)
    y0 = min(ys)
    w, h = _ANATOMY_SIZE
    span_x = max(xs) - x0 or 1.0
    span_y = max(ys) - y0 or 1.0
    scale = min((w - 2 * _MARGIN) / span_x, (h - 2 * _MARGIN) / span_y)

    def to_px(p: tuple[float, float]) -> tuple[float, float]:
        # +y is superior anatomically but down in SVG, so flip.
        return (
            _MARGIN + (p[0] - x0) * scale,
            h - _MARGIN - (p[1] - y0) * scale,
        )

    traces = [palate, extension, anterior, posterior]
    title = anat.speaker_id.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<title>speaker {title} anatomy</title>',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for (cls, color, dash), pts in zip(_TRACE_STYLES, traces):
        parts.append(_polyline_svg(cls, color, dash, [to_px(p) for p in pts]))
    cx, cy = to_px(center)
    parts.append(
        f'<circle class="reference-center" cx="{cx:.2f}" cy="{cy:.2f}" r="4" '
        f'fill="#e08214" stroke="black" stroke-width="0.8"/>'
    )
    legend_y = 20
    for i, (cls, color, _) in enumerate(_TRACE_STYLES):
        parts.append(
            f'<text x="{w - 170}" y="{legend_y + 16 * i}" font-size="12" '
            f'fill="{color}" font-family="sans-serif">{cls}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def tv_svg(trajectory: TvTrajectory) -> str:
    """`plots.tv_svg` one frame at a time, in Python floats: each run of
    present values is gathered point by point and closed at a NaN."""
    w, panel_h = _TV_SIZE
    n_panels = len(TV_NAMES)
    h = panel_h * n_panels
    times = trajectory.t.tolist()
    if times:
        t0 = times[0]
        t1 = times[-1]
    else:
        t0, t1 = 0.0, 1.0
    span_t = (t1 - t0) or 1.0
    pad = 8.0
    label_w = 70.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for idx, name in enumerate(TV_NAMES):
        values = trajectory.values[:, idx].tolist()
        present = [v for v in values if v == v]
        lo = min(present) if present else 0.0
        hi = max(present) if present else 1.0
        if hi == lo:
            lo -= 0.5
            hi += 0.5
        top = idx * panel_h
        y_of = lambda v: top + panel_h - pad - (v - lo) / (hi - lo) * (panel_h - 2 * pad)
        x_of = lambda t: label_w + (t - t0) / span_t * (w - label_w - pad)
        parts.append(f'<g class="panel" id="panel-{name}">')
        parts.append(
            f'<line x1="{label_w}" y1="{top + panel_h - pad:.2f}" x2="{w - pad}" '
            f'y2="{top + panel_h - pad:.2f}" stroke="#999" stroke-width="0.8"/>'
        )
        parts.append(
            f'<line x1="{label_w}" y1="{top + pad:.2f}" x2="{label_w}" '
            f'y2="{top + panel_h - pad:.2f}" stroke="#999" stroke-width="0.8"/>'
        )
        parts.append(
            f'<text x="8" y="{top + panel_h / 2:.2f}" font-size="13" '
            f'font-family="sans-serif">{name}</text>'
        )
        run: list[tuple[float, float]] = []
        runs: list[list[tuple[float, float]]] = []
        for t, v in zip(times, values):
            if v != v:
                if run:
                    runs.append(run)
                    run = []
                continue
            run.append((x_of(t), y_of(v)))
        if run:
            runs.append(run)
        for run in runs:
            if len(run) == 1:
                x, y = run[0]
                parts.append(
                    f'<circle class="series" cx="{x:.2f}" cy="{y:.2f}" r="1.5" '
                    f'fill="#1f4e79"/>'
                )
            else:
                parts.append(_polyline_svg("series", "#1f4e79", "none", run))
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)
