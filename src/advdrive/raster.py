"""Egocentric bird's-eye observation images.

Each agent sees an 84x84x3 crop of the world: itself anchored at pixel
(row 70, col 42) with its heading pointing up, other vehicles, road
surface, lane markings and its goal marker painted in fixed class colors.
`lite21` renders the same view on a 21x21 grid (sampled at the centers of
4x4 pixel blocks) and replicates pixels back up to 84x84, keeping the
image contract identical while costing a sixteenth of the work.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .world import WorldState

FULL_RES = 84
LITE_RES = 21
BLOCK = FULL_RES // LITE_RES

ANCHOR_ROW = 70
ANCHOR_COL = 42

RESOLUTION_MODES = ("full84", "lite21")

# Default class palette. Every channel value must be k/256 for an integer
# 0 <= k <= 255, so rollouts can store observations as exact uint8 codes
# (net.obs_codes); RasterConfig enforces it. Classes must stay pairwise distinct.
DEFAULT_COLORS = {
    "offroad": (32 / 256, 96 / 256, 32 / 256),
    "road": (84 / 256, 84 / 256, 84 / 256),
    "marking": (224 / 256, 224 / 256, 224 / 256),
    "goal": (240 / 256, 208 / 256, 48 / 256),
    "other_vehicle": (216 / 256, 48 / 256, 48 / 256),
    "own_vehicle": (64 / 256, 112 / 256, 240 / 256),
}


@dataclass
class RasterConfig:
    view_ahead: float = 40.0
    view_side: float = 20.0
    resolution_mode: str = "lite21"
    colors: dict = field(default_factory=lambda: dict(DEFAULT_COLORS))
    marking_halfwidth: float = 0.3
    goal_radius: float = 2.0

    def __post_init__(self):
        if self.resolution_mode not in RESOLUTION_MODES:
            raise ConfigurationError(f"unknown resolution_mode '{self.resolution_mode}'")
        if self.view_ahead <= 0 or self.view_side <= 0:
            raise ConfigurationError("view extents must be positive")
        needed = set(DEFAULT_COLORS)
        if set(self.colors) != needed:
            raise ConfigurationError(f"colors must define exactly {sorted(needed)}")
        seen = set()
        for name, rgb in self.colors.items():
            rgb = tuple(float(v) for v in rgb)
            if len(rgb) != 3 or any(not (0.0 <= v <= 1.0) for v in rgb):
                raise ConfigurationError(f"color '{name}' must be three values in [0, 1]")
            for v in rgb:
                if v * 256 != int(v * 256) or v * 256 > 255:
                    raise ConfigurationError(
                        f"color '{name}' channel value {v!r} is not k/256 for an integer"
                        " 0 <= k <= 255"
                    )
            if rgb in seen:
                raise ConfigurationError("class colors must be pairwise distinct")
            seen.add(rgb)

    def grid_key(self):
        return (self.resolution_mode, self.view_ahead, self.view_side)


@dataclass
class ObservationImage:
    pixels: np.ndarray  # (84, 84, 3) float64 in [0, 1]
    agent_id: str
    tick: int


_GRID_CACHE: dict = {}


def _ego_grid(cfg: RasterConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """(forward, side) offsets in meters for every pixel center, ego frame."""
    key = cfg.grid_key()
    cached = _GRID_CACHE.get(key)
    if cached is not None:
        return cached
    m_per_row = cfg.view_ahead / ANCHOR_ROW
    m_per_col = 2.0 * cfg.view_side / FULL_RES
    if cfg.resolution_mode == "full84":
        res = FULL_RES
        rows = np.arange(res, dtype=np.float64)
        cols = np.arange(res, dtype=np.float64)
    else:
        res = LITE_RES
        rows = BLOCK * np.arange(res, dtype=np.float64) + (BLOCK - 1) / 2.0
        cols = BLOCK * np.arange(res, dtype=np.float64) + (BLOCK - 1) / 2.0
    fwd = (ANCHOR_ROW - rows) * m_per_row
    side = (cols - ANCHOR_COL) * m_per_col
    fwd_grid = np.repeat(fwd, res)
    side_grid = np.tile(side, res)
    _GRID_CACHE[key] = (fwd_grid, side_grid, res)
    return fwd_grid, side_grid, res


def render(world: WorldState, agent_id: str, cfg: RasterConfig) -> ObservationImage:
    scenario = world.scenario
    spec = scenario.agent(agent_id)  # raises for unknown agents
    me = world.vehicles[agent_id]
    fwd, side, res = _ego_grid(cfg)

    c, s = math.cos(me.heading), math.sin(me.heading)
    # forward = heading direction, side = to the agent's right
    px = me.position[0] + fwd * c + side * s
    py = me.position[1] + fwd * s - side * c

    img = np.empty((res * res, 3), dtype=np.float64)
    img[:] = cfg.colors["offroad"]

    road = world.map.contains_points(px, py)
    img[road] = cfg.colors["road"]

    for divider in world.map.divider_lines:
        near = divider.distance_to_points(px, py) <= cfg.marking_halfwidth
        img[near & road] = cfg.colors["marking"]

    gx, gy = spec.goal
    goal_mask = (px - gx) ** 2 + (py - gy) ** 2 <= cfg.goal_radius**2
    img[goal_mask] = cfg.colors["goal"]

    veh_p = scenario.vehicle
    half_l, half_w = veh_p.length / 2.0, veh_p.width / 2.0

    def paint_vehicle(v, color):
        dx = px - v.position[0]
        dy = py - v.position[1]
        vc, vs = math.cos(v.heading), math.sin(v.heading)
        along = dx * vc + dy * vs
        across = dx * vs - dy * vc
        mask = (np.abs(along) <= half_l) & (np.abs(across) <= half_w)
        img[mask] = color

    for other_id in scenario.agent_ids():
        if other_id != agent_id:
            paint_vehicle(world.vehicles[other_id], cfg.colors["other_vehicle"])
    paint_vehicle(me, cfg.colors["own_vehicle"])

    pixels = img.reshape(res, res, 3)
    if res != FULL_RES:
        pixels = np.repeat(np.repeat(pixels, BLOCK, axis=0), BLOCK, axis=1)
    return ObservationImage(pixels=pixels, agent_id=agent_id, tick=world.tick)


def write_ppm(pixels: np.ndarray, path) -> None:
    """Dump an observation as a binary portable pixmap (P6)."""
    arr = np.clip(np.asarray(pixels) * 255.0, 0, 255).astype(np.uint8)
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(arr.tobytes())
