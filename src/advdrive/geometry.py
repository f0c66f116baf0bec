"""2D primitives shared by the simulator, rasterizer, and metrics:
polylines with arc-length projection, axis-aligned rectangles, and
oriented bounding boxes with a separating-axis overlap test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.remainder(theta, TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [x0, x1] x [y0, y1]."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError(f"degenerate rect {self}")

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def contains_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return (xs >= self.x0) & (xs <= self.x1) & (ys >= self.y0) & (ys <= self.y1)


class Segments:
    """Line segments from ``starts[k]`` to ``starts[k] + deltas[k]``: the
    pieces of one polyline, or of several (``Segments.union``)."""

    def __init__(self, starts: np.ndarray, deltas: np.ndarray):
        self.starts = starts
        self.deltas = deltas
        self.lengths = np.hypot(deltas[:, 0], deltas[:, 1])

    @staticmethod
    def union(polylines) -> "Segments":
        return Segments(
            np.concatenate([p.segments.starts for p in polylines]),
            np.concatenate([p.segments.deltas for p in polylines]),
        )

    def distance_to_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Distance from each (x, y) to the nearest segment, vectorized over points."""
        px = xs.reshape(-1)
        py = ys.reshape(-1)
        ax = self.starts[:, 0][:, None]
        ay = self.starts[:, 1][:, None]
        dx = self.deltas[:, 0][:, None]
        dy = self.deltas[:, 1][:, None]
        t = ((px[None, :] - ax) * dx + (py[None, :] - ay) * dy) / (self.lengths[:, None] ** 2)
        t = np.clip(t, 0.0, 1.0)
        nx = ax + t * dx
        ny = ay + t * dy
        d2 = (nx - px[None, :]) ** 2 + (ny - py[None, :]) ** 2
        return np.sqrt(d2.min(axis=0)).reshape(xs.shape)


class Polyline:
    """Piecewise-linear curve with cached segment geometry.

    Points are an (N, 2) float array, N >= 2. Degenerate (zero-length)
    segments are rejected at construction.
    """

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
            raise ValueError("polyline needs an (N>=2, 2) array of points")
        deltas = np.diff(pts, axis=0)
        self.segments = Segments(pts[:-1], deltas)
        seg_len = self.segments.lengths
        if np.any(seg_len <= 0.0):
            raise ValueError("polyline has a zero-length segment")
        self.points = pts
        self._cum = np.concatenate(([0.0], np.cumsum(seg_len)))
        self.length = float(self._cum[-1])

    def initial_heading(self) -> float:
        d = self.segments.deltas[0]
        return math.atan2(d[1], d[0])

    def project(self, point) -> tuple[float, float]:
        """Nearest point on the polyline; returns (arc length from start, distance)."""
        p = np.asarray(point, dtype=np.float64)
        rel = p[None, :] - self.points[:-1]
        seg = self.segments
        t = np.einsum("ij,ij->i", rel, seg.deltas) / (seg.lengths**2)
        t = np.clip(t, 0.0, 1.0)
        nearest = seg.starts + t[:, None] * seg.deltas
        d2 = np.sum((nearest - p[None, :]) ** 2, axis=1)
        i = int(np.argmin(d2))
        arc = float(self._cum[i] + t[i] * seg.lengths[i])
        return arc, float(math.sqrt(d2[i]))


def smooth_corners(waypoints, radius: float = 5.0, max_seg: float = 1.0) -> Polyline:
    """Polyline through waypoints with interior corners rounded off.

    Each interior corner is replaced by a quadratic Bezier curve whose control
    point is the corner itself. It starts and ends on the two legs, tangent to
    them, at the setback r * tan(turn / 2) from the corner, where r is
    `radius` clipped to 0.45 of the shorter leg; that is where a circular arc of
    radius r would meet the legs, and the curve approximates that arc. It is
    sampled at ceil(r * turn / `max_seg`) + 1 points (at least 3), about one
    every `max_seg` meters of the arc.
    """
    wps = [np.asarray(w, dtype=np.float64) for w in waypoints]
    if len(wps) < 2:
        raise ValueError("need at least two waypoints")
    out = [wps[0]]
    for i in range(1, len(wps) - 1):
        prev, corner, nxt = out[-1], wps[i], wps[i + 1]
        v_in = corner - prev
        v_out = nxt - corner
        len_in = float(np.hypot(*v_in))
        len_out = float(np.hypot(*v_out))
        u_in = v_in / len_in
        u_out = v_out / len_out
        cos_turn = float(np.clip(np.dot(u_in, u_out), -1.0, 1.0))
        turn = math.acos(cos_turn)
        if turn < 1e-9:
            out.append(corner)
            continue
        r = min(radius, 0.45 * len_in, 0.45 * len_out)
        setback = r * math.tan(turn / 2.0)
        a = corner - u_in * setback
        b = corner + u_out * setback
        n_arc = max(2, int(math.ceil(r * turn / max_seg)))
        # de Casteljau quadratic through (a, corner, b) approximates the arc
        for k in range(n_arc + 1):
            t = k / n_arc
            pt = (1 - t) ** 2 * a + 2 * (1 - t) * t * corner + t**2 * b
            out.append(pt)
    out.append(wps[-1])
    # drop consecutive duplicates introduced by tight setbacks
    dedup = [out[0]]
    for p in out[1:]:
        if np.hypot(*(p - dedup[-1])) > 1e-9:
            dedup.append(p)
    return Polyline(np.vstack(dedup))


def obb_corners(cx: float, cy: float, heading: float, length: float, width: float) -> np.ndarray:
    """Corners of an oriented box centered at (cx, cy), long axis along heading. (4, 2)."""
    c, s = math.cos(heading), math.sin(heading)
    hl, hw = 0.5 * length, 0.5 * width
    local = np.array([[hl, hw], [hl, -hw], [-hl, -hw], [-hl, hw]])
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([cx, cy])


def obb_overlap(corners_a: np.ndarray, corners_b: np.ndarray) -> bool:
    """Separating-axis test for two convex quads given as (4, 2) corner arrays."""
    for quad in (corners_a, corners_b):
        # two unique edge normals per rectangle
        for i in (0, 1):
            edge = quad[i + 1] - quad[i]
            axis = np.array([-edge[1], edge[0]])
            pa = corners_a @ axis
            pb = corners_b @ axis
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True
