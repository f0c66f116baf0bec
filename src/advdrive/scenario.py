"""Scenario definitions: which agents exist, where they spawn, what route
each one follows, and the vehicle/simulation parameters shared by all.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

from . import worldmap
from .errors import ConfigurationError
from .geometry import Polyline, smooth_corners
from .worldmap import MapGeometry

ROLES = ("victim", "adversary")

VICTIM_1 = "victim1"
VICTIM_2 = "victim2"
ADVERSARY = "adversary"


@dataclass(frozen=True)
class VehicleParams:
    """Kinematic bicycle parameters, identical for every agent."""

    length: float = 4.5
    width: float = 2.0
    wheelbase: float = 2.7
    accel_max: float = 4.0
    brake_max: float = 8.0
    steer_max_deg: float = 35.0
    drag: float = 0.1
    speed_max: float = 15.0

    @property
    def steer_max_rad(self) -> float:
        return math.radians(self.steer_max_deg)


@dataclass(frozen=True)
class AgentSpec:
    agent_id: str
    role: str
    reward_kind: str
    spawn: tuple[float, float]
    goal: tuple[float, float]
    route: Polyline
    seed_index: int

    def __post_init__(self):
        if self.role not in ROLES:
            raise ConfigurationError(f"unknown role '{self.role}' for agent {self.agent_id}")

    def payload(self) -> dict:
        return {
            "agent_id": self.agent_id,
            "role": self.role,
            "spawn": list(self.spawn),
            "goal": list(self.goal),
            "route": self.route.points.tolist(),
        }


@dataclass
class ScenarioConfig:
    name: str
    map: MapGeometry
    agents: list[AgentSpec]
    dt: float = 0.05
    max_steps: int = 500
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    spawn_jitter: float = 0.0
    goal_tolerance: float = 1.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError("dt must be positive")
        if self.max_steps < 1:
            raise ConfigurationError("max_steps must be >= 1")
        seen = set()
        for spec in self.agents:
            if spec.agent_id in seen:
                raise ConfigurationError(f"duplicate agent id '{spec.agent_id}'")
            seen.add(spec.agent_id)

    @property
    def lateral_limit(self) -> float:
        return self.map.lane_width / 2.0

    def agent(self, agent_id: str) -> AgentSpec:
        for spec in self.agents:
            if spec.agent_id == agent_id:
                return spec
        raise ConfigurationError(f"no agent '{agent_id}' in scenario '{self.name}'")

    def agent_ids(self) -> list[str]:
        return [a.agent_id for a in self.agents]

    def victims(self) -> list[AgentSpec]:
        return [a for a in self.agents if a.role == "victim"]

    def adversaries(self) -> list[AgentSpec]:
        return [a for a in self.agents if a.role == "adversary"]

    def subset(self, agent_ids) -> "ScenarioConfig":
        """Same world with only the named agents present."""
        wanted = list(agent_ids)
        missing = [a for a in wanted if a not in self.agent_ids()]
        if missing:
            raise ConfigurationError(f"subset names unknown agents: {missing}")
        kept = [a for a in self.agents if a.agent_id in wanted]
        return replace(self, agents=kept)

    def fingerprint_payload(self) -> dict:
        """Everything that defines the evaluation world except the policy set.

        Adversary entries are excluded on purpose: reports for baseline and
        attack conditions must compare as the same scenario.
        """
        return {
            "map": self.map.payload(),
            "dt": self.dt,
            "goal_tolerance": self.goal_tolerance,
            "lateral_limit": self.lateral_limit,
            "vehicle": asdict(self.vehicle),
            "victims": [a.payload() for a in self.victims()],
        }


def t_intersection_scenario(
    lane_width: float = 3.5,
    dt: float = 0.05,
    max_steps: int = 500,
    spawn_jitter: float = 0.0,
) -> ScenarioConfig:
    """Three-agent T-intersection: two victims crossing, one adversary turning in.

    victim1 approaches from the east and turns north up the stem; victim2
    drives straight west-to-east; the adversary comes down the stem and turns
    west, crossing both victims' paths.
    """
    geo = worldmap.t_intersection_map(lane_width)
    wb, eb = worldmap.WESTBOUND_Y, worldmap.EASTBOUND_Y
    nb, sb = worldmap.NORTHBOUND_X, worldmap.SOUTHBOUND_X
    agents = [
        AgentSpec(
            agent_id=VICTIM_1,
            role="victim",
            reward_kind="victim",
            spawn=(188.0, wb),
            goal=(nb, 75.7),
            route=smooth_corners([(188.0, wb), (nb, wb), (nb, 75.7)], radius=6.0),
            seed_index=0,
        ),
        AgentSpec(
            agent_id=VICTIM_2,
            role="victim",
            reward_kind="victim",
            spawn=(147.6, 62.6),
            goal=(191.2, eb),
            route=Polyline([(147.6, 62.6), (191.2, eb)]),
            seed_index=1,
        ),
        AgentSpec(
            agent_id=ADVERSARY,
            role="adversary",
            reward_kind="adv_collision",
            spawn=(sb, 80.0),
            goal=(144.0, wb),
            route=smooth_corners([(sb, 80.0), (sb, wb), (144.0, wb)], radius=6.0),
            seed_index=2,
        ),
    ]
    return ScenarioConfig(
        name="t_intersection",
        map=geo,
        agents=agents,
        dt=dt,
        max_steps=max_steps,
        spawn_jitter=spawn_jitter,
    )


def corridor_scenario(
    length: float = 50.0,
    lane_width: float = 3.5,
    dt: float = 0.05,
    max_steps: int = 250,
    spawn_jitter: float = 0.0,
) -> ScenarioConfig:
    """Single victim driving a straight corridor; used for sanity training."""
    geo = worldmap.corridor_map(length, lane_width)
    agent = AgentSpec(
        agent_id=VICTIM_1,
        role="victim",
        reward_kind="victim",
        spawn=(0.0, 0.0),
        goal=(length, 0.0),
        route=Polyline([(0.0, 0.0), (length, 0.0)]),
        seed_index=0,
    )
    return ScenarioConfig(
        name="corridor",
        map=geo,
        agents=[agent],
        dt=dt,
        max_steps=max_steps,
        spawn_jitter=spawn_jitter,
    )
