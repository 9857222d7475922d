"""Per-frame tract variables from pellet positions and speaker anatomy.

Six variables are produced per frame:

* LA, lip aperture: distance between the upper and lower lip pellets.
* LP, lip protrusion: horizontal position of the upper lip pellet.
* TBCD / TBCL, tongue-body constriction degree and location: minimum
  clearance between the circle through the three rear tongue pellets and
  the extended palate, and the angle of the attaining circle point about
  the palatal reference center.
* TTCD / TTCL, tongue-tip constriction degree and location: minimum
  distance from the front tongue pellet to the extended palate, and its
  angle about the same center.

Degrees are in millimeters, locations in radians.  Frames with invalid
pellets or a degenerate (collinear) tongue posture are flagged through
`Quality`; a flagged variable is absent (None), never a silent zero.

`compute_trajectory` works on whole columns at once.  The per-frame
functions (`compute_frame` and the helpers it calls) are the reference it
must match bit for bit: both use the same IEEE operations in the same
order, and `math.hypot` and `math.atan2` run per element because their
NumPy counterparts may differ in the last bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .anatomy import SpeakerAnatomy
from .errors import CollinearPoints
from .geometry import (
    MIN_ANGLE_RADIUS,
    TOL_COLLINEAR,
    Circle,
    Point2D,
    angle_from_reference,
    circle_polyline_clearance,
    circumcircle,
    distance,
    point_polyline_clearance,
)

if TYPE_CHECKING:
    from .ingest import PelletTrajectory

# Canonical pellet order: lips, tongue front-to-back, mandible.
PELLET_NAMES = ("UL", "LL", "T1", "T2", "T3", "T4", "MNI", "MNM")

# Pellets that feed at least one tract variable.  The mandible pellets
# ride along in the data but are not consumed here.
REQUIRED_PELLETS = ("UL", "LL", "T1", "T2", "T3", "T4")

_ALL_VALID = frozenset(PELLET_NAMES)

# Pellet axis indices of `PelletTrajectory.xy` and `.valid`.
_UL, _LL, _T1, _T2, _T3, _T4 = (PELLET_NAMES.index(n) for n in REQUIRED_PELLETS)
_REQUIRED = [_UL, _LL, _T1, _T2, _T3, _T4]

# Tract variables in file-column order, which is also the column order
# of `TvTrajectory.values`.
TV_NAMES = ("LA", "LP", "TBCL", "TBCD", "TTCL", "TTCD")
_LA, _LP, _TBCL, _TBCD, _TTCL, _TTCD = range(len(TV_NAMES))


class Quality(enum.Enum):
    """Per-frame data quality flag, serialized by value."""

    OK = "Ok"
    DEGENERATE_TONGUE = "DegenerateTongue"
    MISSING_PELLET = "MissingPellet"


# `TvTrajectory.quality` stores indices into this tuple.
QUALITIES = tuple(Quality)
_QUALITY_CODE = {q: k for k, q in enumerate(QUALITIES)}


@dataclass(frozen=True, slots=True)
class PelletFrame:
    """One time sample of the eight tracked pellets.

    `valid` holds the names of pellets whose positions can be trusted;
    positions of invalid pellets must not be read.
    """

    t: float
    ul: Point2D
    ll: Point2D
    t1: Point2D
    t2: Point2D
    t3: Point2D
    t4: Point2D
    mni: Point2D
    mnm: Point2D
    valid: frozenset[str] = _ALL_VALID

    def pellet(self, name: str) -> Point2D:
        return getattr(self, name.lower())

    def is_valid(self, name: str) -> bool:
        return name in self.valid


@dataclass(frozen=True, slots=True)
class TractVariableFrame:
    """Six tract variables for one time sample.

    Absent variables (pellet invalid for that variable) are None and the
    quality flag says why.
    """

    t: float
    la: float | None
    lp: float | None
    tbcl: float | None
    tbcd: float | None
    ttcl: float | None
    ttcd: float | None
    quality: Quality


@dataclass(frozen=True)
class TvOptions:
    """Knobs for the per-frame computation.

    `clamp_tbcd` clamps negative tongue-body clearances (trace inside the
    circle) to zero; by default the signed value is kept because the
    penetration depth carries articulatory information.
    """

    clamp_tbcd: bool = False


_DEFAULT_OPTIONS = TvOptions()


class TvTrajectory:
    """A uniformly sampled tract-variable series, held as columns.

    `t` has shape (n,).  `values` has shape (n, 6), columns in TV_NAMES
    order, with NaN for an absent variable (computed values are always
    finite).  `quality` has shape (n,) and holds indices into QUALITIES.
    `frames` presents the same data as TractVariableFrame objects; it is
    built on first use and cached.  Treat the arrays as read-only.
    """

    __slots__ = ("speaker_id", "t", "values", "quality", "sample_rate", "_frames")

    def __init__(
        self,
        speaker_id: str,
        frames: Iterable[TractVariableFrame] = (),
        sample_rate: float = 145.0,
    ) -> None:
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
        quality = np.array([_QUALITY_CODE[f.quality] for f in frames], dtype=np.int8)
        self._set(speaker_id, t, values, quality, sample_rate)
        self._frames = frames

    @classmethod
    def from_columns(
        cls,
        speaker_id: str,
        t: np.ndarray,
        values: np.ndarray,
        quality: np.ndarray,
        sample_rate: float,
    ) -> TvTrajectory:
        self = cls.__new__(cls)
        self._set(speaker_id, t, values, quality, sample_rate)
        return self

    def _set(self, speaker_id, t, values, quality, sample_rate) -> None:
        if sample_rate <= 0.0:
            raise ValueError(f"sample rate must be positive, got {sample_rate}")
        if len(t):
            grid = t[0] + np.arange(len(t)) * (1.0 / sample_rate)
            off = np.flatnonzero(np.abs(t - grid) > 1e-6)
            if len(off):
                k = int(off[0])
                raise ValueError(
                    f"frame {k} at t={float(t[k])!r} is off the uniform "
                    f"{sample_rate} Hz grid"
                )
        self.speaker_id = speaker_id
        self.t = t
        self.values = values
        self.quality = quality
        self.sample_rate = sample_rate
        self._frames = None

    def __len__(self) -> int:
        return len(self.t)

    @property
    def frames(self) -> tuple[TractVariableFrame, ...]:
        if self._frames is None:
            self._frames = tuple(
                TractVariableFrame(
                    ti,
                    *(None if v != v else v for v in row),
                    quality=QUALITIES[q],
                )
                for ti, row, q in zip(
                    self.t.tolist(), self.values.tolist(), self.quality.tolist()
                )
            )
        return self._frames


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
    frame: PelletFrame,
    anat: SpeakerAnatomy,
    options: TvOptions = _DEFAULT_OPTIONS,
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
    if options.clamp_tbcd and tbcd < 0.0:
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
    frame: PelletFrame,
    anat: SpeakerAnatomy,
    options: TvOptions = _DEFAULT_OPTIONS,
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
            tbcd, tbcl = compute_tongue_body_tvs(frame, anat, options)
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


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`math.hypot` per element (np.hypot can differ by one ulp)."""
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()), np.float64, len(x))


def _angles(
    center: Point2D, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`angle_from_reference` per element, plus the mask of points where
    it raises DegenerateAngle."""
    dx = x - center.x
    dy = y - center.y
    angle = np.fromiter(
        map(math.atan2, dx.tolist(), dy.tolist()), np.float64, len(dx)
    )
    angle[angle <= -math.pi] = math.pi
    return angle, _hypot(dx, dy) < MIN_ANGLE_RADIUS


def compute_trajectory(
    trajectory: PelletTrajectory,
    anat: SpeakerAnatomy,
    options: TvOptions = _DEFAULT_OPTIONS,
) -> TvTrajectory:
    """Tract variables for every frame of a pellet trajectory.

    A pure map: frame i of the output depends only on frame i of the
    input and the anatomy, so results are identical no matter how the
    work is ordered or parallelized.  Every value equals what
    `compute_frame` gives for that frame, bit for bit, and a frame on
    which `compute_frame` raises makes this raise the same error.
    """
    xy = trajectory.xy
    valid = trajectory.valid
    n = len(trajectory.t)
    palate = anat.extended_palate
    center = anat.reference_center
    values = np.full((n, len(TV_NAMES)), np.nan)
    raises = np.zeros(n, dtype=bool)

    rows = np.flatnonzero(valid[:, _UL])
    values[rows, _LP] = xy[rows, _UL, 0]
    rows = np.flatnonzero(valid[:, _UL] & valid[:, _LL])
    lips = xy[rows, _UL] - xy[rows, _LL]
    values[rows, _LA] = _hypot(lips[:, 0], lips[:, 1])

    # Tongue body: the circle through T2, T3, T4, as in `circumcircle`.
    body = np.flatnonzero(valid[:, _T2] & valid[:, _T3] & valid[:, _T4])
    a = xy[body, _T2]
    ab = xy[body, _T3] - a
    ac = xy[body, _T4] - a
    cross2 = ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]
    has_circle = np.abs(cross2) >= TOL_COLLINEAR
    rows = body[has_circle]
    flat = body[~has_circle]
    a, ab, ac, cross2 = a[has_circle], ab[has_circle], ac[has_circle], cross2[has_circle]
    abx, aby, acx, acy = ab[:, 0], ab[:, 1], ac[:, 0], ac[:, 1]
    ab2 = abx * abx + aby * aby
    ac2 = acx * acx + acy * acy
    inv = 0.5 / cross2
    ux = (acy * ab2 - aby * ac2) * inv
    uy = (abx * ac2 - acx * ab2) * inv
    cx = a[:, 0] + ux
    cy = a[:, 1] + uy
    radius = _hypot(ux, uy)
    # Its clearance and contact point, as in `circle_polyline_clearance`.
    _, d2, px, py = palate.nearest_many(cx, cy)
    center_dist = np.sqrt(d2)
    raises[rows] |= center_dist < MIN_ANGLE_RADIUS
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = radius / center_dist
        contact_x = cx + (px - cx) * scale
        contact_y = cy + (py - cy) * scale
    tbcd = center_dist - radius
    if options.clamp_tbcd:
        tbcd[tbcd < 0.0] = 0.0
    values[rows, _TBCD] = tbcd
    values[rows, _TBCL], bad = _angles(center, contact_x, contact_y)
    raises[rows] |= bad

    # Collinear tongue body: the nearest of T2, T3, T4 to the palate,
    # the first on ties, as in `fallback_tongue_body_tvs`.
    tongue = xy[flat, _T2 : _T4 + 1]
    dist = np.empty((3, len(flat)))
    for k in range(3):
        dist[k] = np.sqrt(palate.nearest_many(tongue[:, k, 0], tongue[:, k, 1])[1])
    best = np.argmin(dist, axis=0)
    pick = np.arange(len(flat))
    values[flat, _TBCD] = dist[best, pick]
    values[flat, _TBCL], bad = _angles(
        center, tongue[pick, best, 0], tongue[pick, best, 1]
    )
    raises[flat] |= bad

    rows = np.flatnonzero(valid[:, _T1])
    tx = xy[rows, _T1, 0]
    ty = xy[rows, _T1, 1]
    values[rows, _TTCD] = np.sqrt(palate.nearest_many(tx, ty)[1])
    values[rows, _TTCL], bad = _angles(center, tx, ty)
    raises[rows] |= bad

    if raises.any():
        # Let the reference raise its own error for the first such frame.
        compute_frame(trajectory.frames[int(np.argmax(raises))], anat, options)

    quality = np.full(n, _QUALITY_CODE[Quality.OK], dtype=np.int8)
    quality[flat] = _QUALITY_CODE[Quality.DEGENERATE_TONGUE]
    quality[~valid[:, _REQUIRED].all(axis=1)] = _QUALITY_CODE[Quality.MISSING_PELLET]
    return TvTrajectory.from_columns(
        trajectory.speaker_id, trajectory.t, values, quality, trajectory.native_rate
    )
