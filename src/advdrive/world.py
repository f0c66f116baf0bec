"""Deterministic 2D driving world.

The state (``WorldState``) is the tick, each vehicle's position, heading
and speed (``VehicleState``), and the ``Termination`` of each agent whose
episode has ended: the tick and the reason. Everything else an agent has,
its goal and route among them, is its spec's in the scenario
(``scenario.agent(aid)``).

One `step` advances every live vehicle by dt under kinematic bicycle
dynamics, then evaluates per-agent flags: vehicle collision (CV), leaving
the drivable area entirely (CO), offroad-at-intersection (IO), outside the
desired lane (IOL), forward speed (F) and remaining route distance (D).
Each pair of vehicles with a live member is tested for overlap once per
tick. Agents freeze permanently once they collide, leave the map or reach
their goal.
"""
from __future__ import annotations

import hashlib
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError
from .geometry import normalize_angle, obb_corners, obb_overlap
from .scenario import ScenarioConfig

TERMINATION_COLLISION = "collision"
TERMINATION_OFFROAD_EXIT = "offroad_exit"
TERMINATION_GOAL = "goal"


@dataclass
class ActionCommand:
    steer: float = 0.0
    throttle: float = 0.0
    brake: float = 0.0

    def validate(self):
        if not (-1.0 <= self.steer <= 1.0):
            raise ContractViolationError(f"steer {self.steer} outside [-1, 1]")
        if not (0.0 <= self.throttle <= 1.0):
            raise ContractViolationError(f"throttle {self.throttle} outside [0, 1]")
        if not (0.0 <= self.brake <= 1.0):
            raise ContractViolationError(f"brake {self.brake} outside [0, 1]")


@dataclass
class VehicleState:
    position: np.ndarray  # (2,)
    heading: float
    speed: float


@dataclass
class StepFlags:
    cv: bool = False
    co: bool = False
    io: bool = False
    iol: bool = False
    f: float = 0.0
    d: float = 0.0


@dataclass
class Termination:
    """The tick an agent's episode ended at and why; both None if it ran out of time."""

    tick: int | None
    reason: str | None


@dataclass
class WorldState:
    tick: int
    vehicles: dict[str, VehicleState]
    ended: dict[str, Termination]  # agents whose episode has ended
    scenario: ScenarioConfig

    @property
    def map(self):
        return self.scenario.map

    def live_agents(self) -> list[str]:
        return [a for a in self.scenario.agent_ids() if a not in self.ended]

    def digest(self) -> str:
        """Checksum of the dynamic state, for determinism checks."""
        h = hashlib.sha256()
        h.update(str(self.tick).encode())
        for aid in self.scenario.agent_ids():
            v = self.vehicles[aid]
            h.update(aid.encode())
            h.update(np.asarray(v.position, dtype=np.float64).tobytes())
            h.update(np.float64(v.heading).tobytes())
            h.update(np.float64(v.speed).tobytes())
            h.update(repr(self.ended.get(aid)).encode())
        return h.hexdigest()


def _vehicle_corners(scenario: ScenarioConfig, veh: VehicleState) -> np.ndarray:
    p = scenario.vehicle
    return obb_corners(veh.position[0], veh.position[1], veh.heading, p.length, p.width)


def _overlapping_pairs(corners: dict[str, np.ndarray], live) -> Iterator[tuple[str, str]]:
    """Each unordered pair of vehicles (in agent order) with a member in
    ``live`` whose footprints overlap, each pair tested once."""
    ids = list(corners)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if (a in live or b in live) and obb_overlap(corners[a], corners[b]):
                yield a, b


def init_world(scenario: ScenarioConfig, seed) -> WorldState:
    """Spawn every agent at rest on its route start; raises on bad spawn layouts."""
    rng = np.random.default_rng(seed)
    vehicles: dict[str, VehicleState] = {}
    for spec in scenario.agents:
        pos = np.array(spec.spawn, dtype=np.float64)
        if scenario.spawn_jitter > 0.0:
            pos = pos + rng.uniform(-scenario.spawn_jitter, scenario.spawn_jitter, size=2)
        if not scenario.map.contains(pos[0], pos[1]):
            raise ConfigurationError(
                f"spawn for '{spec.agent_id}' at {pos.tolist()} is outside the drivable region"
            )
        heading = normalize_angle(spec.route.initial_heading())
        vehicles[spec.agent_id] = VehicleState(pos, heading, speed=0.0)
    corners = {aid: _vehicle_corners(scenario, veh) for aid, veh in vehicles.items()}
    for a, b in _overlapping_pairs(corners, vehicles):
        raise ConfigurationError(f"spawns of '{a}' and '{b}' overlap")
    return WorldState(tick=0, vehicles=vehicles, ended={}, scenario=scenario)


def route_flags(world: WorldState, agent_id: str) -> tuple[bool, bool, float]:
    """(IO, IOL, d) from one projection onto the agent's route. IOL when off
    the route centerline beyond the lateral limit, IO when that happens
    inside the intersection region; d is the route distance still to cover,
    exactly 0 once within goal tolerance."""
    scenario = world.scenario
    spec = scenario.agent(agent_id)
    veh = world.vehicles[agent_id]
    arc, lateral = spec.route.project(veh.position)
    iol = lateral > scenario.lateral_limit
    region = scenario.map.intersection_region
    io = bool(iol and region is not None and region.contains(veh.position[0], veh.position[1]))
    to_goal = float(np.hypot(*(veh.position - spec.goal)))
    if to_goal <= scenario.goal_tolerance:
        return io, iol, 0.0
    return io, iol, max(spec.route.length - arc, to_goal - scenario.goal_tolerance)


def initial_flags(world: WorldState) -> dict[str, StepFlags]:
    """Flags at spawn (tick 0): stationary, no events, full route remaining."""
    out = {}
    for aid in world.scenario.agent_ids():
        io, iol, d = route_flags(world, aid)
        out[aid] = StepFlags(cv=False, co=False, io=io, iol=iol, f=0.0, d=d)
    return out


def _footprint_outside(world: WorldState, corners: np.ndarray, center: np.ndarray) -> bool:
    geo = world.map
    if geo.contains(center[0], center[1]):
        return False
    return not bool(np.any(geo.contains_points(corners[:, 0], corners[:, 1])))


def step(
    world: WorldState, actions: dict[str, ActionCommand]
) -> tuple[WorldState, dict[str, StepFlags]]:
    """Advance one tick. Exactly the live agents must be commanded."""
    scenario = world.scenario
    live = world.live_agents()
    for aid in actions:
        if aid not in world.vehicles:
            raise ContractViolationError(f"action for unknown agent '{aid}'")
        if aid in world.ended:
            raise ContractViolationError(f"action for terminated agent '{aid}'")
    missing = [a for a in live if a not in actions]
    if missing:
        raise ContractViolationError(f"missing actions for live agents: {missing}")

    p = scenario.vehicle
    dt = scenario.dt
    vehicles = dict(world.vehicles)
    for aid in live:
        cmd = actions[aid]
        cmd.validate()
        veh = world.vehicles[aid]
        accel = p.accel_max * cmd.throttle - p.brake_max * cmd.brake - p.drag * veh.speed
        speed_new = min(max(veh.speed + accel * dt, 0.0), p.speed_max)
        yaw_rate = (veh.speed / p.wheelbase) * math.tan(cmd.steer * p.steer_max_rad)
        heading_new = normalize_angle(veh.heading + yaw_rate * dt)
        pos_new = veh.position + speed_new * dt * np.array(
            [math.cos(heading_new), math.sin(heading_new)]
        )
        vehicles[aid] = VehicleState(pos_new, heading_new, speed_new)

    new_world = WorldState(world.tick + 1, vehicles, dict(world.ended), scenario)
    corners = {aid: _vehicle_corners(scenario, vehicles[aid]) for aid in scenario.agent_ids()}
    hit = {aid for pair in _overlapping_pairs(corners, live) for aid in pair}
    flags: dict[str, StepFlags] = {}
    for aid in live:
        veh = vehicles[aid]
        co = _footprint_outside(new_world, corners[aid], veh.position)
        io, iol, d = route_flags(new_world, aid)
        flags[aid] = StepFlags(cv=aid in hit, co=co, io=io, iol=iol, f=veh.speed, d=d)
        reason = (TERMINATION_COLLISION if aid in hit else TERMINATION_OFFROAD_EXIT if co
                  else TERMINATION_GOAL if d == 0.0 else None)
        if reason is not None:
            new_world.ended[aid] = Termination(new_world.tick, reason)
    return new_world, flags
