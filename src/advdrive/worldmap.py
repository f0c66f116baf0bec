"""Static road geometry.

Maps are unions of axis-aligned road rectangles plus lane centerlines and
divider markings. Each lane is its centerline ``Polyline``; every lane of a
map is ``lane_width`` wide. Two builders cover the shipped scenarios: a
T-intersection (a two-lane east-west road with a two-lane stem joining from
the north) and a straight corridor used for single-agent sanity training.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .geometry import Polyline, Rect, Segments


@dataclass
class MapGeometry:
    """Drivable area as a union of rectangles, with lane and marking geometry.

    ``divider_segments`` holds every divider line's segments together (None
    without dividers), so one call measures the distance to all of them.
    """

    name: str
    lane_width: float
    drivable_rects: list[Rect]
    intersection_region: Rect | None
    lane_segments: list[Polyline]  # lane centerlines
    divider_lines: list[Polyline] = field(default_factory=list)

    def __post_init__(self):
        if self.lane_width <= 0:
            raise ConfigurationError("lane_width must be positive")
        if not self.drivable_rects:
            raise ConfigurationError("map needs at least one drivable rectangle")
        for lane in self.lane_segments:
            pts = lane.points
            inside = self.contains_points(pts[:, 0], pts[:, 1])
            if not bool(np.all(inside)):
                raise ConfigurationError(
                    f"lane centerline leaves the drivable region in map '{self.name}'"
                )
        self.divider_segments = Segments.union(self.divider_lines) if self.divider_lines else None

    def contains(self, x: float, y: float) -> bool:
        return any(r.contains(x, y) for r in self.drivable_rects)

    def contains_points(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        mask = np.zeros(np.shape(xs), dtype=bool)
        for r in self.drivable_rects:
            mask |= r.contains_points(xs, ys)
        return mask

    def bounds(self) -> Rect:
        x0 = min(r.x0 for r in self.drivable_rects)
        y0 = min(r.y0 for r in self.drivable_rects)
        x1 = max(r.x1 for r in self.drivable_rects)
        y1 = max(r.y1 for r in self.drivable_rects)
        return Rect(x0, y0, x1, y1)

    def payload(self) -> dict:
        """JSON-friendly description, used for fingerprints and manifests."""
        return {
            "name": self.name,
            "lane_width": self.lane_width,
            "drivable_rects": [[r.x0, r.y0, r.x1, r.y1] for r in self.drivable_rects],
            "intersection_region": (
                None
                if self.intersection_region is None
                else [
                    self.intersection_region.x0,
                    self.intersection_region.y0,
                    self.intersection_region.x1,
                    self.intersection_region.y1,
                ]
            ),
            "lanes": [lane.points.tolist() for lane in self.lane_segments],
        }


# Default T-intersection layout. The east-west road carries a westbound lane
# (y = 59) and an eastbound lane (y = 62.7); the stem joins from the north
# with a northbound lane (x = 167) and a southbound lane (x = 170.5).
WESTBOUND_Y = 59.0
EASTBOUND_Y = 62.7
NORTHBOUND_X = 167.0
SOUTHBOUND_X = 170.5
ROAD_X_MIN, ROAD_X_MAX = 140.0, 196.0
STEM_Y_MAX = 86.0


def t_intersection_map(lane_width: float) -> MapGeometry:
    half = lane_width / 2.0
    road_y0 = WESTBOUND_Y - half
    road_y1 = EASTBOUND_Y + half
    stem_x0 = NORTHBOUND_X - half
    stem_x1 = SOUTHBOUND_X + half

    horizontal = Rect(ROAD_X_MIN, road_y0, ROAD_X_MAX, road_y1)
    stem = Rect(stem_x0, road_y1, stem_x1, STEM_Y_MAX)
    intersection = Rect(stem_x0, road_y0, stem_x1, road_y1)

    lanes = [
        Polyline([[ROAD_X_MIN, WESTBOUND_Y], [ROAD_X_MAX, WESTBOUND_Y]]),
        Polyline([[ROAD_X_MIN, EASTBOUND_Y], [ROAD_X_MAX, EASTBOUND_Y]]),
        Polyline([[NORTHBOUND_X, road_y1], [NORTHBOUND_X, STEM_Y_MAX]]),
        Polyline([[SOUTHBOUND_X, road_y1], [SOUTHBOUND_X, STEM_Y_MAX]]),
    ]
    mid_y = 0.5 * (WESTBOUND_Y + EASTBOUND_Y)
    mid_x = 0.5 * (NORTHBOUND_X + SOUTHBOUND_X)
    dividers = [
        Polyline([[ROAD_X_MIN, mid_y], [stem_x0, mid_y]]),
        Polyline([[stem_x1, mid_y], [ROAD_X_MAX, mid_y]]),
        Polyline([[mid_x, road_y1], [mid_x, STEM_Y_MAX]]),
    ]
    return MapGeometry(
        name="t_intersection",
        lane_width=lane_width,
        drivable_rects=[horizontal, stem],
        intersection_region=intersection,
        lane_segments=lanes,
        divider_lines=dividers,
    )


def corridor_map(length: float, lane_width: float) -> MapGeometry:
    # road is three lane-widths across so early policies have room to recover
    half_road = 1.5 * lane_width
    road = Rect(-5.0, -half_road, length + 10.0, half_road)
    lane = Polyline([[-5.0, 0.0], [length + 10.0, 0.0]])
    return MapGeometry(
        name="corridor",
        lane_width=lane_width,
        drivable_rects=[road],
        intersection_region=None,
        lane_segments=[lane],
        divider_lines=[],
    )
