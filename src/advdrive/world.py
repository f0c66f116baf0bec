"""Deterministic 2D driving world.

One `step` advances every live vehicle by dt under kinematic bicycle
dynamics, then evaluates per-agent flags: vehicle collision (CV), leaving
the drivable area entirely (CO), offroad-at-intersection (IO), outside the
desired lane (IOL), forward speed (F) and remaining route distance (D).
Agents freeze permanently once they collide or reach their goal.
"""
from __future__ import annotations

import hashlib
import math
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
    goal: np.ndarray  # (2,)


@dataclass
class StepFlags:
    cv: bool = False
    co: bool = False
    io: bool = False
    iol: bool = False
    f: float = 0.0
    d: float = 0.0


@dataclass
class WorldState:
    tick: int
    vehicles: dict[str, VehicleState]
    terminated: dict[str, bool]
    termination_reason: dict[str, str | None]
    scenario: ScenarioConfig
    rng: np.random.Generator

    @property
    def map(self):
        return self.scenario.map

    def live_agents(self) -> list[str]:
        return [a for a in self.scenario.agent_ids() if not self.terminated[a]]

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
            h.update(b"1" if self.terminated[aid] else b"0")
            h.update(str(self.termination_reason[aid]).encode())
        h.update(repr(self.rng.bit_generator.state).encode())
        return h.hexdigest()


def _vehicle_corners(scenario: ScenarioConfig, veh: VehicleState) -> np.ndarray:
    p = scenario.vehicle
    return obb_corners(veh.position[0], veh.position[1], veh.heading, p.length, p.width)


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
        vehicles[spec.agent_id] = VehicleState(
            position=pos,
            heading=normalize_angle(spec.route.initial_heading()),
            speed=0.0,
            goal=np.array(spec.goal, dtype=np.float64),
        )
    ids = scenario.agent_ids()
    for i, a in enumerate(ids):
        ca = _vehicle_corners(scenario, vehicles[a])
        for b in ids[i + 1 :]:
            if obb_overlap(ca, _vehicle_corners(scenario, vehicles[b])):
                raise ConfigurationError(f"spawns of '{a}' and '{b}' overlap")
    return WorldState(
        tick=0,
        vehicles=vehicles,
        terminated={a: False for a in ids},
        termination_reason={a: None for a in ids},
        scenario=scenario,
        rng=rng,
    )


def route_flags(world: WorldState, agent_id: str) -> tuple[bool, bool, float]:
    """(IO, IOL, d) from one projection onto the agent's route. IOL when off
    the route centerline beyond the lateral limit, IO when that happens
    inside the intersection region; d is the route distance still to cover,
    exactly 0 once within goal tolerance."""
    scenario = world.scenario
    route = scenario.agent(agent_id).route
    veh = world.vehicles[agent_id]
    arc, lateral = route.project(veh.position)
    iol = lateral > scenario.lateral_limit
    region = scenario.map.intersection_region
    io = bool(iol and region is not None and region.contains(veh.position[0], veh.position[1]))
    to_goal = float(np.hypot(*(veh.position - veh.goal)))
    if to_goal <= scenario.goal_tolerance:
        return io, iol, 0.0
    return io, iol, max(route.length - arc, to_goal - scenario.goal_tolerance)


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
        if world.terminated[aid]:
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
        vehicles[aid] = VehicleState(pos_new, heading_new, speed_new, veh.goal.copy())

    new_world = WorldState(
        tick=world.tick + 1,
        vehicles=vehicles,
        terminated=dict(world.terminated),
        termination_reason=dict(world.termination_reason),
        scenario=scenario,
        rng=world.rng,
    )

    corners = {aid: _vehicle_corners(scenario, vehicles[aid]) for aid in scenario.agent_ids()}
    flags: dict[str, StepFlags] = {}
    for aid in live:
        veh = vehicles[aid]
        cv = any(
            obb_overlap(corners[aid], corners[other])
            for other in scenario.agent_ids()
            if other != aid
        )
        co = _footprint_outside(new_world, corners[aid], veh.position)
        io, iol, d = route_flags(new_world, aid)
        flags[aid] = StepFlags(cv=cv, co=co, io=io, iol=iol, f=veh.speed, d=d)

        reached = float(np.hypot(*(veh.position - veh.goal))) <= scenario.goal_tolerance
        if cv:
            new_world.terminated[aid] = True
            new_world.termination_reason[aid] = TERMINATION_COLLISION
        elif co:
            new_world.terminated[aid] = True
            new_world.termination_reason[aid] = TERMINATION_OFFROAD_EXIT
        elif reached:
            new_world.terminated[aid] = True
            new_world.termination_reason[aid] = TERMINATION_GOAL
    return new_world, flags
