"""Static per-speaker anatomy derived from palate and pharynx traces.

A speaker session provides two measured traces: the hard palate, ordered
anterior to posterior, and the posterior pharyngeal wall, ordered
superior to inferior.  From these we derive everything the per-frame
computation needs:

* the anterior pharyngeal wall, obtained by shifting the posterior wall
  forward by a sex-specific oropharyngeal thickness;
* the extended palate, which continues the palate posteriorly along the
  soft-palate line until it meets the anterior wall and then follows the
  wall down;
* a reference center for constriction angles, taken from a circle fit
  through the palate trace (only the center is used).

Every trace, measured or derived, is a `Polyline`, whose `.xy` holds
its points as one (n, 2) array of (x, y) rows; the derivations below
work on those arrays whole.  A single position, the junction or the
reference center, is a plain `(x, y)` pair of floats; `Point2D` is only
the field type of the per-frame objects.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .geometry import (
    Polyline,
    extend_line_to_polyline,
    fit_circle,
)

# Oropharyngeal wall thickness defaults (mm), by speaker sex.
FEMALE_THICKNESS_MM = 5.8
MALE_THICKNESS_MM = 5.6

# Sampling step bound (mm) for the soft-palate extension.
VELUM_STEP_MM = 1.0

# A palate extension landing more than this far above the last palate
# point means the traces are mislabeled or mis-oriented.
_MAX_JUNCTION_RISE_MM = 20.0

# No vocal tract has a soft palate this long; the bound also caps the
# points sampled along the extension at VELUM_STEP_MM.
_MAX_EXTENSION_MM = 1000.0


class Sex(enum.Enum):
    """Speaker sex as recorded in the corpus metadata."""

    FEMALE = "F"
    MALE = "M"

    @property
    def default_thickness_mm(self) -> float:
        if self is Sex.FEMALE:
            return FEMALE_THICKNESS_MM
        return MALE_THICKNESS_MM


@dataclass(frozen=True)
class SpeakerAnatomy:
    """Measured and derived traces for one speaker.

    Instances are built by `build_speaker_anatomy`; all traces use the
    session coordinate frame (origin at the maxillary incisor tip, +x
    anterior, +y superior, millimeters).
    """

    speaker_id: str
    sex: Sex
    thickness_mm: float
    palate: Polyline
    posterior_wall: Polyline
    anterior_wall: Polyline
    extended_palate: Polyline
    reference_center: tuple[float, float]


def infer_anterior_wall(posterior_wall: Polyline, thickness_mm: float) -> Polyline:
    """Anterior pharyngeal wall from the posterior trace.

    The anterior wall is the posterior one translated anteriorly (+x) by
    the oropharyngeal thickness.  Thickness must be positive.  Raises
    DataError when the shifted points do not form a polyline.
    """
    if not math.isfinite(thickness_mm) or thickness_mm <= 0.0:
        raise ValueError(f"thickness must be positive, got {thickness_mm}")
    xy = posterior_wall.xy.copy()
    # Only x moves: adding (thickness, 0.0) would turn a -0.0 y into 0.0.
    # A sum past the float range is refused below, so numpy need not warn.
    with np.errstate(over="ignore"):
        xy[:, 0] += thickness_mm
    try:
        return Polyline(xy)
    except ValueError as exc:
        # The shift can round two wall points into one, or leave the float range.
        raise DataError(
            f"anterior wall {thickness_mm:g} mm forward: {exc}"
        ) from None


def extend_palate(palate: Polyline, anterior_wall: Polyline) -> Polyline:
    """Continue the palate posteriorly until it meets the anterior wall.

    The soft palate is approximated by the straight line through the last
    two palate points, extended beyond the last one to its first
    intersection with the anterior wall (the junction).  That stretch is
    sampled at steps of at most VELUM_STEP_MM, ending exactly on the
    junction.  Anterior-wall points inferior to the junction are then
    appended in their superior-to-inferior order, so the result sweeps
    the full oral cavity boundary from the alveolar ridge down into the
    pharynx.  No point is duplicated at either seam.

    Raises DataError when the junction lands more than 20 mm above the
    last palate point, or more than 1000 mm from it, which indicates
    mislabeled traces, and when the extended points do not form a
    polyline.
    """
    second_last, last = palate.xy[-2:].tolist()
    junction = extend_line_to_polyline(second_last, last, anterior_wall)
    (lx, ly), (jx, jy) = last, junction
    if jy > ly + _MAX_JUNCTION_RISE_MM:
        raise DataError(
            f"palate extension meets the anterior wall {jy - ly:.1f} mm "
            f"above the palate end; traces look inconsistent"
        )
    gap = math.hypot(lx - jx, ly - jy)
    if gap > _MAX_EXTENSION_MM:
        raise DataError(
            f"palate extension to the anterior wall is {gap:g} mm long, more than "
            f"{_MAX_EXTENSION_MM:g} mm; traces look inconsistent"
        )
    parts = [palate.xy]
    if gap > 1e-9:
        steps = max(1, math.ceil(gap / VELUM_STEP_MM))
        start, end = np.array([last, junction])
        k = np.arange(1, steps)
        parts += [start + (k / steps)[:, None] * (end - start), end[None]]
    wall = anterior_wall.xy
    parts.append(wall[wall[:, 1] < jy - 1e-9])
    try:
        return Polyline(np.concatenate(parts))
    except ValueError as exc:
        # Far from the origin the 1 mm samples can round into one point.
        raise DataError(f"extended palate: {exc}") from None


def palatal_reference_center(palate: Polyline) -> tuple[float, float]:
    """Center (x, y) of the least-squares circle through the palate trace.

    Only the center is kept; the circle itself plays no further role.
    Raises DataError for a palate of fewer than 3 points.
    """
    if len(palate) < 3:
        raise DataError(
            f"palate trace has {len(palate)} points; "
            f"a reference circle needs at least 3"
        )
    return fit_circle(palate.xy)


def build_speaker_anatomy(
    speaker_id: str,
    palate: Polyline,
    posterior_wall: Polyline,
    sex: Sex,
    thickness_mm: float | None = None,
) -> SpeakerAnatomy:
    """Derive the full anatomy bundle for one speaker.

    An explicit `thickness_mm` overrides the sex-based default.  Errors
    from the underlying geometry propagate as they are; the caller knows
    which speaker it asked for.
    """
    thickness = sex.default_thickness_mm if thickness_mm is None else thickness_mm
    anterior = infer_anterior_wall(posterior_wall, thickness)
    extended = extend_palate(palate, anterior)
    cx, cy = palatal_reference_center(palate)
    lowest_palate_y = float(palate.xy[:, 1].min())
    if cy >= lowest_palate_y:
        raise DataError(
            f"palatal reference center ({cx:g}, {cy:g}) is not "
            f"below the palate (min palate y = {lowest_palate_y:g}); "
            f"the palate fit looks pathological"
        )
    return SpeakerAnatomy(
        speaker_id=speaker_id,
        sex=sex,
        thickness_mm=thickness,
        palate=palate,
        posterior_wall=posterior_wall,
        anterior_wall=anterior,
        extended_palate=extended,
        reference_center=(cx, cy),
    )
