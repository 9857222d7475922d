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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import AnatomyInconsistent, DegenerateTrace, TractvarError
from .geometry import (
    Point2D,
    Polyline,
    distance,
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
    reference_center: Point2D


def infer_anterior_wall(posterior_wall: Polyline, thickness_mm: float) -> Polyline:
    """Anterior pharyngeal wall from the posterior trace.

    The anterior wall is the posterior one translated anteriorly (+x) by
    the oropharyngeal thickness.  Thickness must be positive.
    """
    if not math.isfinite(thickness_mm) or thickness_mm <= 0.0:
        raise ValueError(f"thickness must be positive, got {thickness_mm}")
    return Polyline(
        Point2D(p.x + thickness_mm, p.y) for p in posterior_wall.points
    )


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

    Raises AnatomyInconsistent when the junction lands more than 20 mm
    above the last palate point, which indicates mislabeled traces.
    """
    second_last, last = palate.points[-2], palate.points[-1]
    junction, _ = extend_line_to_polyline(second_last, last, anterior_wall)
    if junction.y > last.y + _MAX_JUNCTION_RISE_MM:
        raise AnatomyInconsistent(
            f"palate extension meets the anterior wall {junction.y - last.y:.1f} mm "
            f"above the palate end; traces look inconsistent"
        )
    points = list(palate.points)
    gap = distance(last, junction)
    if gap > 1e-9:
        steps = max(1, math.ceil(gap / VELUM_STEP_MM))
        for k in range(1, steps):
            f = k / steps
            points.append(
                Point2D(
                    last.x + f * (junction.x - last.x),
                    last.y + f * (junction.y - last.y),
                )
            )
        points.append(junction)
    for w in anterior_wall.points:
        if w.y < junction.y - 1e-9:
            points.append(w)
    return Polyline(points)


def palatal_reference_center(palate: Polyline) -> Point2D:
    """Center of the least-squares circle through the palate trace.

    Only the center is kept; the circle itself plays no further role.
    Raises DegenerateTrace for a palate of fewer than 3 points.
    """
    if len(palate.points) < 3:
        raise DegenerateTrace(
            f"palate trace has {len(palate.points)} points; "
            f"a reference circle needs at least 3"
        )
    return fit_circle(palate.points).center


def build_speaker_anatomy(
    speaker_id: str,
    palate: Polyline,
    posterior_wall: Polyline,
    sex: Sex,
    thickness_mm: float | None = None,
) -> SpeakerAnatomy:
    """Derive the full anatomy bundle for one speaker.

    An explicit `thickness_mm` overrides the sex-based default.  Errors
    from the underlying geometry are re-raised with the speaker id
    prepended so batch runs can say which speaker failed.
    """
    thickness = sex.default_thickness_mm if thickness_mm is None else thickness_mm
    try:
        anterior = infer_anterior_wall(posterior_wall, thickness)
        extended = extend_palate(palate, anterior)
        center = palatal_reference_center(palate)
        lowest_palate_y = min(p.y for p in palate.points)
        if center.y >= lowest_palate_y:
            raise AnatomyInconsistent(
                f"palatal reference center ({center.x:.2f}, {center.y:.2f}) is not "
                f"below the palate (min palate y = {lowest_palate_y:.2f}); "
                f"the palate fit looks pathological"
            )
    except (TractvarError, ValueError) as exc:
        raise type(exc)(f"speaker {speaker_id}: {exc}") from exc
    return SpeakerAnatomy(
        speaker_id=speaker_id,
        sex=sex,
        thickness_mm=thickness,
        palate=palate,
        posterior_wall=posterior_wall,
        anterior_wall=anterior,
        extended_palate=extended,
        reference_center=center,
    )
