"""Self-contained SVG figures for anatomy and tract-variable traces.

Pixel positions are computed a whole column at a time.  The anatomy
figure stacks its four traces and the palatal reference center into one
array and takes its bounds and pixels from that.  Each TV panel maps its
time and value columns with one expression each, and its series is split
into runs where the mask of present values flips.  Only the `.2f`
formatting of each coordinate goes value by value.  The test suite keeps
a point-at-a-time twin of both figures (`tests/reference.py`) that they
must match byte for byte.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .anatomy import SpeakerAnatomy
from .tract_variables import TvTrajectory
from .tvcsv import TV_NAMES

_ANATOMY_SIZE = (640, 520)
_TV_SIZE = (800, 96)
_MARGIN = 40.0

_TRACE_STYLES = (
    ("palate", "#1f4e79", "none"),
    ("extension", "#1f4e79", "6 4"),
    ("anterior-wall", "#b22222", "none"),
    ("posterior-wall", "#777777", "none"),
)


def _polyline_svg(cls: str, color: str, dash: str, pts: Iterable[Sequence[float]]) -> str:
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
    dash_attr = f' stroke-dasharray="{dash}"' if dash != "none" else ""
    return (
        f'<polyline class="{cls}" fill="none" stroke="{color}" '
        f'stroke-width="1.5"{dash_attr} points="{coords}"/>'
    )


def anatomy_svg(anat: SpeakerAnatomy) -> str:
    """One figure: palate, its extension, and both pharyngeal walls.

    The palatal reference center is drawn as a marker circle.
    """
    palate = anat.palate.xy
    traces = [
        palate,
        anat.extended_palate.xy[len(palate) - 1 :],
        anat.anterior_wall.xy,
        anat.posterior_wall.xy,
    ]
    everything = np.concatenate([*traces, [anat.reference_center]])
    lo = everything.min(axis=0)
    span = everything.max(axis=0) - lo
    span[span == 0.0] = 1.0
    w, h = _ANATOMY_SIZE
    scale = min((w - 2 * _MARGIN) / span[0], (h - 2 * _MARGIN) / span[1])
    # +y is superior anatomically but down in SVG, so flip.
    pixels = ((_MARGIN, h - _MARGIN) + (everything - lo) * scale * (1.0, -1.0)).tolist()

    title = anat.speaker_id.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<title>speaker {title} anatomy</title>',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    start = 0
    for (cls, color, dash), xy in zip(_TRACE_STYLES, traces):
        parts.append(_polyline_svg(cls, color, dash, pixels[start : start + len(xy)]))
        start += len(xy)
    cx, cy = pixels[-1]
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
    """Six stacked panels, one per tract variable, sharing the time axis.

    Missing values split the trace; an all-missing panel keeps its axes.
    """
    w, panel_h = _TV_SIZE
    n_panels = len(TV_NAMES)
    h = panel_h * n_panels
    times = trajectory.t
    t0 = times[0] if len(times) else 0.0
    t1 = times[-1] if len(times) else 1.0
    span_t = (t1 - t0) or 1.0
    pad = 8.0
    label_w = 70.0
    xs = (label_w + (times - t0) / span_t * (w - label_w - pad)).tolist()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for idx, name in enumerate(TV_NAMES):
        values = trajectory.values[:, idx]
        present = ~np.isnan(values)
        drawn = values[present]
        lo = drawn.min() if len(drawn) else 0.0
        hi = drawn.max() if len(drawn) else 1.0
        if hi == lo:
            lo -= 0.5
            hi += 0.5
        top = idx * panel_h
        ys = (top + panel_h - pad - (values - lo) / (hi - lo) * (panel_h - 2 * pad)).tolist()
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
        # Each run of present values starts and stops where the mask flips.
        edges = np.flatnonzero(np.diff(present, prepend=False, append=False))
        for start, stop in edges.reshape(-1, 2).tolist():
            if stop - start == 1:
                x, y = xs[start], ys[start]
                parts.append(
                    f'<circle class="series" cx="{x:.2f}" cy="{y:.2f}" r="1.5" '
                    f'fill="#1f4e79"/>'
                )
            else:
                run = zip(xs[start:stop], ys[start:stop])
                parts.append(_polyline_svg("series", "#1f4e79", "none", run))
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)

