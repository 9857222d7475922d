"""Planar geometry for midsagittal articulator measurements.

All coordinates live in the midsagittal plane in millimeters, with +x
pointing anterior and +y superior.  Angles follow the articulatory
convention used throughout the package: measured at a reference center,
zero along +y (toward the palate), increasing toward +x (anterior), in
radians on (-pi, pi].

A trace is a `Polyline`, which holds its points as one read-only (n, 2)
float64 array of (x, y) rows, `.xy`; trace readers, the anatomy
derivations and the writers all work on that array.  A single position,
such as the center `fit_circle` returns or a pellet of a `PelletFrame`,
is a plain `(x, y)` pair of floats.

`Polyline` precomputes per-segment arrays once, and no query loops over
segments in Python.  `nearest_many` answers whole blocks of points at a
time and is the one nearest-point kernel (`circle_polyline_contacts` is
built on it); `extend_line_to_polyline` casts a ray at every segment at
once.  The test suite keeps a scalar twin of each (`nearest` and
`extend_line` in `tests/reference.py`) that it must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError

# Twice-triangle-area threshold (mm^2) below which a point set counts as
# collinear.  Pellet coordinates are on a ~10 mm scale with ~0.01 mm
# precision, so genuine articulations never get this flat.
TOL_COLLINEAR = 1e-6

# Minimum distance (mm) from a reference center at which an angle is
# still considered well defined.
MIN_ANGLE_RADIUS = 1e-9

# Message of the DegenerateAngle raised when a trace passes through a
# circle's center, so that no point of the circle is closest to it.
CENTER_ON_TRACE = "trace passes through the circle center; boundary point undefined"

# Query points per block in `Polyline.nearest_many`.  A block's
# points-by-segments temporaries stay within the CPU cache for traces of
# a few hundred points.
NEAREST_CHUNK = 64


def hypot_each(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`math.hypot` per element (np.hypot can differ by one ulp)."""
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()), np.float64, len(x))


class Polyline:
    """An ordered open chain of at least two points, held as one (n, 2)
    float64 array of (x, y) rows, `.xy`.

    Consecutive points must be distinct and every coordinate finite.
    Construction copies the points, makes the copy read-only and
    precomputes the per-segment quantities used by the nearest-point
    queries, so instances are immutable and safe to share across
    workers.  A segment for which any of them leaves the float range (a
    squared length that overflows or underflows to zero, say) raises
    DataError; the other checks raise ValueError.
    """

    __slots__ = ("_xy", "_ax", "_ay", "_dx", "_dy", "_ux", "_uy", "_c0")

    def __init__(self, xy: np.ndarray):
        xy = np.array(xy, dtype=np.float64)
        if len(xy) < 2:
            raise ValueError(f"polyline needs at least 2 points, got {len(xy)}")
        bad = ~np.isfinite(xy).all(axis=1)
        if bad.any():
            x, y = xy[bad.argmax()].tolist()
            raise ValueError(f"non-finite coordinates ({x}, {y})")
        same = (xy[1:] == xy[:-1]).all(axis=1)
        if same.any():
            raise ValueError(f"zero-length segment at index {same.argmax()}")
        xy.flags.writeable = False
        self._xy = xy
        xs, ys = xy.T.copy()
        ax = xs[:-1]
        ay = ys[:-1]
        # Folded projection coefficients: t = px*ux + py*uy - c0, already
        # divided by the squared segment length.
        with np.errstate(all="ignore"):
            dx = np.diff(xs)
            dy = np.diff(ys)
            len2 = dx * dx + dy * dy
            inv_len2 = 1.0 / len2
            ux = dx * inv_len2
            uy = dy * inv_len2
            c0 = (ax * dx + ay * dy) * inv_len2
        # |ux| and |uy| are at most sqrt(inv_len2), so they need no check.
        bad = ~(np.isfinite(len2) & np.isfinite(inv_len2) & np.isfinite(c0))
        if bad.any():
            i = int(bad.argmax())
            (x0, y0), (x1, y1) = xy[i : i + 2].tolist()
            raise DataError(
                f"segment {i} from ({x0:g}, {y0:g}) to ({x1:g}, {y1:g}) is too "
                f"long or too short for floating-point arithmetic"
            )
        self._ax = ax
        self._ay = ay
        self._dx = dx
        self._dy = dy
        self._ux = ux
        self._uy = uy
        self._c0 = c0

    @property
    def xy(self) -> np.ndarray:
        return self._xy

    def __len__(self) -> int:
        return len(self._xy)

    def __repr__(self) -> str:
        return f"Polyline({len(self._xy)} points)"

    def nearest_many(
        self, px: np.ndarray, py: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Nearest point on the chain to every point of the arrays (px, py).

        Returns arrays of segment index, squared distance, closest x and
        closest y.  Each point is projected onto every segment with the
        clamped, folded projection, NEAREST_CHUNK points at a time, and
        ties resolve to the lowest segment index.
        """
        n = len(px)
        index = np.empty(n, dtype=np.intp)
        d2 = np.empty(n)
        cx = np.empty(n)
        cy = np.empty(n)
        for start in range(0, n, NEAREST_CHUNK):
            block = slice(start, start + NEAREST_CHUNK)
            qx = px[block, None]
            qy = py[block, None]
            t = qx * self._ux
            t += qy * self._uy
            t -= self._c0
            np.clip(t, 0.0, 1.0, out=t)
            bx = self._ax + t * self._dx
            by = self._ay + t * self._dy
            ex = qx - bx
            ey = qy - by
            ex *= ex
            ey *= ey
            ex += ey
            i = np.argmin(ex, axis=1)
            rows = np.arange(len(i))
            index[block] = i
            d2[block] = ex[rows, i]
            cx[block] = bx[rows, i]
            cy[block] = by[rows, i]
        return index, d2, cx, cy


def circle_polyline_contacts(
    cx: np.ndarray, cy: np.ndarray, radius: np.ndarray | float, trace: Polyline
) -> tuple[np.ndarray, ...]:
    """Where circles with centers (cx, cy) come closest to a trace.

    Returns arrays of segment index, center-to-trace distance, closest
    trace point (x, y), and the attaining circle point (x, y), which lies
    on the ray from the center through the closest trace point.  That
    circle point is meaningless where the center distance is below
    MIN_ANGLE_RADIUS, which callers must reject.
    """
    index, d2, px, py = trace.nearest_many(cx, cy)
    center_dist = np.sqrt(d2)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = radius / center_dist
        ox = cx + (px - cx) * scale
        oy = cy + (py - cy) * scale
    return index, center_dist, px, py, ox, oy


def _spread_twice_area(xs: np.ndarray, ys: np.ndarray) -> float:
    """Collinearity measure for a point set.

    Twice the area of the extent-by-deviation box: the spread along the
    principal direction times the largest perpendicular deviation.  Zero
    for exactly collinear sets; comparable to the twice-triangle-area
    test for triples.  The principal direction of the 2x2 scatter
    matrix is taken in closed form; it is arbitrary only for an
    isotropic scatter, where any direction gives a box of the same
    order.
    """
    u = xs - xs.mean()
    v = ys - ys.mean()
    suu = float(np.dot(u, u))
    svv = float(np.dot(v, v))
    suv = float(np.dot(u, v))
    theta = 0.5 * math.atan2(2.0 * suv, suu - svv)
    c = math.cos(theta)
    s = math.sin(theta)
    along = u * c + v * s
    dev = v * c - u * s
    extent = float(along.max() - along.min())
    return extent * float(np.abs(dev).max())


def fit_circle(xy: np.ndarray) -> tuple[float, float]:
    """Center (cx, cy) of the algebraic least-squares circle through
    three or more (x, y) rows.

    Minimizes sum_i (|p_i - c|^2 - r^2)^2, which is linear in the center
    after reducing coordinates about the centroid; the radius then
    satisfies r^2 = mean |p_i - c|^2, which must be positive and finite.
    Exact on noiseless circles.

    Raises DataError when the point spread is flat within
    TOL_COLLINEAR, and when the normal equations overflow or are
    singular anyway.
    """
    if len(xy) < 3:
        raise ValueError(f"need at least 3 points to fit a circle, got {len(xy)}")
    xs, ys = np.asarray(xy, dtype=np.float64).T.copy()
    # Coordinates near 1e100 overflow the third moments.  Such a fit is
    # refused below, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        xm = xs.mean()
        ym = ys.mean()
        u = xs - xm
        v = ys - ym
        suu = np.dot(u, u)
        svv = np.dot(v, v)
        suv = np.dot(u, v)
        suuu = np.dot(u * u, u)
        svvv = np.dot(v * v, v)
        suuv = np.dot(u * u, v)
        suvv = np.dot(u, v * v)
        lhs = np.array([[suu, suv], [suv, svv]])
        rhs = np.array([(suuu + suvv) / 2.0, (svvv + suuv) / 2.0])
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise DataError("circle-fit moments overflow; coordinates are too large")
    if _spread_twice_area(xs, ys) < TOL_COLLINEAR:
        raise DataError("cannot fit a circle through collinear points")
    try:
        uc, vc = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise DataError(f"singular circle-fit system: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        cx = float(xm + uc)
        cy = float(ym + vc)
        r2 = float(np.mean((xs - cx) ** 2 + (ys - cy) ** 2))
    if r2 <= 0.0 or not math.isfinite(r2):
        raise DataError(
            f"fit produced a squared radius of {r2:g}, not a positive finite number"
        )
    return cx, cy


def extend_line_to_polyline(
    a: tuple[float, float], b: tuple[float, float], wall: Polyline
) -> tuple[float, float]:
    """First intersection of the ray from `b` away from `a` with a trace.

    The ray starts at `b` in direction (b - a); parameter zero (b already
    on the wall) counts as a hit.  Among all crossed segments the one
    with the smallest ray parameter wins.  Segments parallel to the ray
    are skipped.

    Returns the intersection point (x, y).  Raises DataError when the
    ray misses, ValueError when a == b.
    """
    (ax, ay), (bx, by) = a, b
    dx = bx - ax
    dy = by - ay
    dlen = math.hypot(dx, dy)
    if dlen == 0.0:
        raise ValueError("ray direction undefined: a and b coincide")
    sx, sy = wall._dx, wall._dy
    with np.errstate(all="ignore"):
        denom = dx * sy - dy * sx
        rx = wall._ax - bx
        ry = wall._ay - by
        t = (rx * sy - ry * sx) / denom
        u = (rx * dy - ry * dx) / denom
        skip = np.abs(denom) <= 1e-12 * dlen * hypot_each(sx, sy)
    skip |= (t < -1e-9) | (u < -1e-9) | (u > 1.0 + 1e-9)
    # A NaN parameter never wins, as no comparison holds for it.
    t[skip | np.isnan(t)] = math.inf
    k = int(np.argmin(t))
    if t[k] == math.inf:
        raise DataError(
            f"ray from ({bx:g}, {by:g}) along ({dx:g}, {dy:g}) "
            f"never meets the trace"
        )
    t = max(float(t[k]), 0.0)
    return bx + t * dx, by + t * dy
