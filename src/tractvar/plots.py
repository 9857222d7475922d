"""Self-contained SVG figures for anatomy and tract-variable traces."""

from __future__ import annotations

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


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _polyline_svg(cls: str, color: str, dash: str, pts: list[tuple[float, float]]) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    dash_attr = f' stroke-dasharray="{dash}"' if dash != "none" else ""
    return (
        f'<polyline class="{cls}" fill="none" stroke="{color}" '
        f'stroke-width="1.5"{dash_attr} points="{coords}"/>'
    )


def anatomy_svg(anat: SpeakerAnatomy) -> str:
    """One figure: palate, its extension, and both pharyngeal walls.

    The palatal reference center is drawn as a marker circle.
    """
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
        f'<circle class="reference-center" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="4" '
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
                    f'<circle class="series" cx="{_fmt(x)}" cy="{_fmt(y)}" r="1.5" '
                    f'fill="#1f4e79"/>'
                )
            else:
                parts.append(_polyline_svg("series", "#1f4e79", "none", run))
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)

