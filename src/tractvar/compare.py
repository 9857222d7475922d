"""Trajectory comparison via Pearson product-moment correlation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .tract_variables import OK
from .tvcsv import TV_NAMES, read_tv_csv

# Two frames count as simultaneous when their stamps agree this closely.
_TIME_TOL_S = 1e-6


def ppmc(a, b) -> float:
    """Pearson correlation of two equal-length series.

    The result is clamped onto [-1, 1]; floating-point overshoot beyond
    that never exceeds ~1e-16 for centered sums.  Raises DataError when
    a series is ragged, holds something other than numbers or is not
    1-D, for unequal or too-short series, when either side holds a NaN
    or infinity, and when either side is constant.
    """
    try:
        x = np.asarray(a, dtype=np.float64)
        y = np.asarray(b, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"series must be 1-D sequences of numbers ({exc})") from None
    if x.ndim != 1 or y.ndim != 1:
        raise DataError(f"series must be 1-D, got shapes {x.shape} and {y.shape}")
    if len(x) != len(y):
        raise DataError(f"series lengths differ: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise DataError(f"need at least 2 samples, got {x.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("correlation undefined for a series with non-finite samples")
    # Scaled exactly, by a power of two, so that the sums below neither
    # overflow nor vanish at any finite magnitude.
    x, y = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (x, y))
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        raise DataError("correlation undefined for a constant series")
    r = float(np.dot(dx, dy)) / np.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


@dataclass(frozen=True)
class ComparisonReport:
    """Per-variable correlations between two TV files."""

    scores: dict[str, float]
    average: float
    n_frames_compared: int


def compare_tvs(path_a, path_b) -> ComparisonReport:
    """Correlate two TV files variable by variable.

    The files must have the same frame count and agree on timestamps
    within 1e-6 s.  Frames whose quality is not Ok in either file are
    excluded pairwise before correlating.  The summary score is the
    arithmetic mean of the six correlations.  An error from `ppmc`, such
    as a constant series, names its variable first.
    """
    times_a, values_a, quality_a = read_tv_csv(path_a)
    times_b, values_b, quality_b = read_tv_csv(path_b)
    if len(times_a) != len(times_b):
        raise DataError(
            f"frame counts differ: {len(times_a)} vs {len(times_b)}"
        )
    with np.errstate(over="ignore"):  # stamps far apart differ by inf
        gap = np.abs(times_a - times_b)
    if len(gap) and float(gap.max()) > _TIME_TOL_S:
        worst = int(np.argmax(gap))
        raise DataError(
            f"timestamps disagree at frame {worst}: "
            f"{float(times_a[worst])!r} vs {float(times_b[worst])!r}"
        )
    ok = (quality_a == OK) & (quality_b == OK)
    a = values_a[ok]
    b = values_b[ok]
    if len(a) < 2:
        raise DataError(
            f"only {len(a)} frame(s) are Ok in both files; need at least 2"
        )
    scores = {}
    for k, name in enumerate(TV_NAMES):
        try:
            scores[name] = ppmc(a[:, k], b[:, k])
        except DataError as exc:
            raise DataError(f"{name}: {exc}") from None
    average = sum(scores.values()) / len(scores)
    return ComparisonReport(
        scores=scores, average=average, n_frames_compared=len(a)
    )


def format_table(report: ComparisonReport) -> str:
    """Render a report as a fixed-width table, one PPMC row."""
    names = list(TV_NAMES) + ["Average"]
    values = [report.scores[n] for n in TV_NAMES] + [report.average]
    head = "  ".join(f"{n:>8s}" for n in names)
    body = "  ".join(f"{v:>8.4f}" for v in values)
    return (
        f"{head}\n{body}\n"
        f"frames compared: {report.n_frames_compared}"
    )
