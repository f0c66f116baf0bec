"""Egocentric bird's-eye observation images.

Each agent sees a crop of the world: itself anchored at pixel (row 70,
col 42) of an 84x84 frame with its heading pointing up, other vehicles, road
surface, lane markings and its goal marker painted in fixed class colors.
The frame spans ``VIEW_AHEAD`` meters ahead of the agent and ``VIEW_SIDE``
either side. ``render(world, agent_id, res)`` samples that frame on a
res x res grid at the centers of its (84 / res)-pixel blocks; ``res`` must
divide 84. The resolution is the observing net's core resolution
(``NetConfig.core_res()``, 84 for ``full84`` and 21 for ``lite21``), so
what an agent sees is decided by its net alone. ``upsample`` replicates each
pixel to its block for PPM dumps and for comparison with 84x84 images.

Rendering paints a uint8 class index per pixel, in painter's order (road,
lane markings on road, goal, other vehicles, own vehicle), and then looks
the colors up in ``PALETTE`` once. An observation is a (res, res, 3) uint8
image of palette codes: code k stands for the channel value k/256. It is the
only observation format; the nets read it as rendered and rollouts store it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .world import WorldState

FULL_RES = 84

ANCHOR_ROW = 70
ANCHOR_COL = 42
VIEW_AHEAD = 40.0  # meters from the agent to the top edge of the frame
VIEW_SIDE = 20.0  # meters from the agent to either side edge

OBS_CODE_SCALE = 256  # observation code k stands for the channel value k / 256

# Class indices of the class-index image, in painter's order.
OFFROAD, ROAD, MARKING, GOAL, OTHER_VEHICLE, OWN_VEHICLE = range(6)
# Row k: the codes of class k's color. Classes stay pairwise distinct.
PALETTE = np.array(
    [
        (32, 96, 32),  # offroad
        (84, 84, 84),  # road
        (224, 224, 224),  # marking
        (240, 208, 48),  # goal
        (216, 48, 48),  # other vehicle
        (64, 112, 240),  # own vehicle
    ],
    dtype=np.uint8,
)
MARKING_HALFWIDTH = 0.3  # meters either side of a lane divider
GOAL_RADIUS = 2.0  # meters


@dataclass
class ObservationImage:
    pixels: np.ndarray  # (res, res, 3) uint8 palette codes


@functools.cache
def _ego_grid(res: int) -> tuple[np.ndarray, np.ndarray]:
    """(forward, side) offsets in meters of every pixel center, ego frame."""
    if res <= 0 or FULL_RES % res:
        raise ContractViolationError(
            f"cannot render at {res}x{res}: the resolution must divide {FULL_RES}"
        )
    block = FULL_RES // res
    centers = block * np.arange(res, dtype=np.float64) + (block - 1) / 2.0
    fwd = (ANCHOR_ROW - centers) * (VIEW_AHEAD / ANCHOR_ROW)
    side = (centers - ANCHOR_COL) * (2.0 * VIEW_SIDE / FULL_RES)
    return np.repeat(fwd, res), np.tile(side, res)


def render(world: WorldState, agent_id: str, res: int) -> ObservationImage:
    """``agent_id``'s view of ``world`` as a res x res code image."""
    scenario = world.scenario
    spec = scenario.agent(agent_id)  # raises for unknown agents
    me = world.vehicles[agent_id]
    fwd, side = _ego_grid(res)

    c, s = math.cos(me.heading), math.sin(me.heading)
    # forward = heading direction, side = to the agent's right
    px = me.position[0] + fwd * c + side * s
    py = me.position[1] + fwd * s - side * c

    classes = np.full(res * res, OFFROAD, dtype=np.uint8)

    road = world.map.contains_points(px, py)
    classes[road] = ROAD

    # markings are painted only on road, so only road pixels are tested; a
    # pixel is near some divider iff it is near the union of their segments
    dividers = world.map.divider_segments
    if dividers is not None:
        on_road = np.flatnonzero(road)
        near = dividers.distance_to_points(px[on_road], py[on_road]) <= MARKING_HALFWIDTH
        classes[on_road[near]] = MARKING

    gx, gy = spec.goal
    goal_mask = (px - gx) ** 2 + (py - gy) ** 2 <= GOAL_RADIUS**2
    classes[goal_mask] = GOAL

    # vehicle footprints, one row per vehicle: the others, then the agent itself
    vehicles = [world.vehicles[o] for o in scenario.agent_ids() if o != agent_id] + [me]
    vx = np.array([[v.position[0]] for v in vehicles])
    vy = np.array([[v.position[1]] for v in vehicles])
    vc = np.array([[math.cos(v.heading)] for v in vehicles])
    vs = np.array([[math.sin(v.heading)] for v in vehicles])
    dx = px - vx
    dy = py - vy
    along = dx * vc + dy * vs
    across = dx * vs - dy * vc
    veh_p = scenario.vehicle
    inside = (np.abs(along) <= veh_p.length / 2.0) & (np.abs(across) <= veh_p.width / 2.0)
    classes[inside[:-1].any(axis=0)] = OTHER_VEHICLE
    classes[inside[-1]] = OWN_VEHICLE

    pixels = np.take(PALETTE, classes, axis=0).reshape(res, res, 3)
    return ObservationImage(pixels=pixels)


def upsample(pixels: np.ndarray) -> np.ndarray:
    """An observation at 84x84: each pixel replicated to its block, an 84x84
    image unchanged."""
    pixels = np.asarray(pixels)
    block = FULL_RES // pixels.shape[0]
    if block == 1:
        return pixels
    return np.repeat(np.repeat(pixels, block, axis=0), block, axis=1)


def write_ppm(pixels: np.ndarray, path) -> None:
    """Dump an observation as an 84x84 binary portable pixmap (P6): each
    code k becomes the byte floor(k / 256 * 255)."""
    arr = (upsample(pixels) / OBS_CODE_SCALE * 255.0).astype(np.uint8)
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(arr.tobytes())
