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

Degrees are in millimeters, locations in radians.  A frame with invalid
pellets or a collinear tongue is flagged by its int8 quality code, an
index into QUALITY_LABELS; a variable it lacks is NaN, never a silent
zero.  `Quality` and the frame records only type the `.frames` views,
which no part of the program reads.

`compute_trajectory` is the engine: it works on whole columns at once.
The test suite keeps a per-frame engine (`compute_frame` in
`tests/reference.py`) that it must match bit for bit, values and errors
alike: both use the same IEEE operations in the same order, and
`math.hypot` and `math.atan2` run per element here because their NumPy
counterparts may differ in the last bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .anatomy import SpeakerAnatomy
from .errors import DegenerateAngle
from .geometry import (
    CENTER_ON_TRACE,
    MIN_ANGLE_RADIUS,
    TOL_COLLINEAR,
    circle_polyline_contacts,
    hypot_each,
)

if TYPE_CHECKING:
    from .ingest import PelletTrajectory

# Canonical pellet order: lips, tongue front-to-back, mandible.
PELLET_NAMES = ("UL", "LL", "T1", "T2", "T3", "T4", "MNI", "MNM")

# Pellets that feed at least one tract variable.  The mandible pellets
# ride along in the data but are not consumed here.
REQUIRED_PELLETS = ("UL", "LL", "T1", "T2", "T3", "T4")

# Pellet axis indices of `PelletTrajectory.xy` and `.valid`.
_UL, _LL, _T1, _T2, _T3, _T4 = (PELLET_NAMES.index(n) for n in REQUIRED_PELLETS)
_REQUIRED = [_UL, _LL, _T1, _T2, _T3, _T4]

# Tract variables in file-column order, which is also the column order
# of `TvTrajectory.values`.
TV_NAMES = ("LA", "LP", "TBCL", "TBCD", "TTCL", "TTCD")
_LA, _LP, _TBCL, _TBCD, _TTCL, _TTCD = range(len(TV_NAMES))


class Quality(enum.Enum):
    """The type of `TractVariableFrame.quality`; each value is a label."""

    OK = "Ok"
    DEGENERATE_TONGUE = "DegenerateTongue"
    MISSING_PELLET = "MissingPellet"


# The one label <-> code mapping: `TvTrajectory.quality` holds int8 codes
# that index QUALITY_LABELS, the labels TV files spell.
QUALITY_LABELS = tuple(q.value for q in Quality)
OK, DEGENERATE_TONGUE, MISSING_PELLET = range(len(QUALITY_LABELS))


@dataclass(frozen=True, slots=True)
class PelletFrame:
    """One time sample of the eight tracked pellets, each an (x, y) pair:
    the record that `PelletTrajectory.frames` presents.  `valid` holds
    the names of the pellets whose positions can be trusted."""

    t: float
    ul: tuple[float, float]
    ll: tuple[float, float]
    t1: tuple[float, float]
    t2: tuple[float, float]
    t3: tuple[float, float]
    t4: tuple[float, float]
    mni: tuple[float, float]
    mnm: tuple[float, float]
    valid: frozenset[str]


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


class TvTrajectory:
    """A uniformly sampled tract-variable series, held as columns.

    `t` has shape (n,): the uniform, increasing grid that `resample` owns,
    so the constructor checks nothing.  `values` has shape (n, 6), columns
    in TV_NAMES order, with NaN for an absent variable (computed values
    are always finite).  `quality` has shape (n,) and holds int8 codes
    into QUALITY_LABELS.  `frames` presents the same data as
    TractVariableFrame objects, built afresh on each use.  Treat the
    arrays as read-only.
    """

    __slots__ = ("t", "values", "quality")

    def __init__(self, t: np.ndarray, values: np.ndarray, quality: np.ndarray) -> None:
        self.t = t
        self.values = values
        self.quality = quality

    def __len__(self) -> int:
        return len(self.t)

    @property
    def frames(self) -> tuple[TractVariableFrame, ...]:
        return tuple(
            TractVariableFrame(
                ti,
                *(None if v != v else v for v in row),
                quality=Quality(QUALITY_LABELS[q]),
            )
            for ti, row, q in zip(
                self.t.tolist(), self.values.tolist(), self.quality.tolist()
            )
        )


def _angles(
    center: tuple[float, float], x: np.ndarray, y: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """The angle of each point (x, y) about `center`, zero along +y and
    positive toward +x, on (-pi, pi].

    Also returns the DegenerateAngle fault of the first point within
    MIN_ANGLE_RADIUS of the center, as [(frame, message)] where frame is
    its entry of `rows`, or [] when there is none.
    """
    dx = x - center[0]
    dy = y - center[1]
    angle = np.fromiter(
        map(math.atan2, dx.tolist(), dy.tolist()), np.float64, len(dx)
    )
    angle[angle <= -math.pi] = math.pi
    on_center = np.flatnonzero(hypot_each(dx, dy) < MIN_ANGLE_RADIUS)
    if not len(on_center):
        return angle, []
    k = on_center[0]
    message = (
        f"point ({float(x[k])}, {float(y[k])}) coincides with the reference center"
    )
    return angle, [(int(rows[k]), message)]


def compute_trajectory(
    trajectory: PelletTrajectory,
    anat: SpeakerAnatomy,
    *,
    clamp_tbcd: bool = False,
) -> TvTrajectory:
    """Tract variables for every frame of a pellet trajectory.

    A pure map: frame i of the output depends only on frame i of the
    input and the anatomy, so results are identical no matter how the
    work is ordered or parallelized.  `clamp_tbcd` clamps negative
    tongue-body clearances (trace inside the circle) to zero; by default
    the signed value is kept because the penetration depth carries
    articulatory information.

    Raises DegenerateAngle when a location is undefined in some frame:
    the extended palate passes through the tongue-body circle's center,
    or the circle's contact point, the collinear-fallback pellet or T1
    sits on the reference center.  The error describes the first such
    frame, and within it the first of these checks, in that order; its
    `frame` and `t` attributes name that frame.
    """
    xy = trajectory.xy
    valid = trajectory.valid
    n = len(trajectory.t)
    palate = anat.extended_palate
    center = anat.reference_center
    values = np.full((n, len(TV_NAMES)), np.nan)
    # The first failing frame of each check, with its message, in the
    # order the checks run within a frame.
    faults: list[tuple[int, str]] = []

    rows = np.flatnonzero(valid[:, _UL])
    values[rows, _LP] = xy[rows, _UL, 0]
    rows = np.flatnonzero(valid[:, _UL] & valid[:, _LL])
    lips = xy[rows, _UL] - xy[rows, _LL]
    values[rows, _LA] = hypot_each(lips[:, 0], lips[:, 1])

    # Tongue body: the circle through T2, T3, T4, as in
    # `tests/reference.circumcircle`.
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
    radius = hypot_each(ux, uy)
    _, center_dist, _, _, contact_x, contact_y = circle_polyline_contacts(
        cx, cy, radius, palate
    )
    on_trace = np.flatnonzero(center_dist < MIN_ANGLE_RADIUS)
    if len(on_trace):
        faults.append((int(rows[on_trace[0]]), CENTER_ON_TRACE))
    tbcd = center_dist - radius
    if clamp_tbcd:
        tbcd[tbcd < 0.0] = 0.0
    values[rows, _TBCD] = tbcd
    values[rows, _TBCL], fault = _angles(center, contact_x, contact_y, rows)
    faults += fault

    # Collinear tongue body: the nearest of T2, T3, T4 to the palate, the
    # first on ties.
    tongue = xy[flat, _T2 : _T4 + 1]
    dist = np.empty((3, len(flat)))
    for k in range(3):
        dist[k] = np.sqrt(palate.nearest_many(tongue[:, k, 0], tongue[:, k, 1])[1])
    best = np.argmin(dist, axis=0)
    pick = np.arange(len(flat))
    values[flat, _TBCD] = dist[best, pick]
    values[flat, _TBCL], fault = _angles(
        center, tongue[pick, best, 0], tongue[pick, best, 1], flat
    )
    faults += fault

    rows = np.flatnonzero(valid[:, _T1])
    tx = xy[rows, _T1, 0]
    ty = xy[rows, _T1, 1]
    values[rows, _TTCD] = np.sqrt(palate.nearest_many(tx, ty)[1])
    values[rows, _TTCL], fault = _angles(center, tx, ty, rows)
    faults += fault

    if faults:
        # `min` keeps the first of equal frames, which is the earlier check.
        k, message = min(faults, key=lambda fault: fault[0])
        raise DegenerateAngle(message, frame=k, t=float(trajectory.t[k]))

    quality = np.full(n, OK, dtype=np.int8)
    quality[flat] = DEGENERATE_TONGUE
    quality[~valid[:, _REQUIRED].all(axis=1)] = MISSING_PELLET
    return TvTrajectory(trajectory.t, values, quality)
