"""Run configuration: the schema, YAML loading, validation, and builders.

The schema is the dataclasses below together with ``ppo.PpoHyper`` and
``rewards.RewardParams``: every config key is one field, and its checks
(type, bounds, choices, whether null is allowed) sit on that field
(``schema.setting``). ``parse_config`` runs them all through
``schema.parse_section`` and then applies the rules that tie keys
together. Command-line flags reach the config as overrides merged over the
YAML data before that one call, so they pass the same checks with the same
messages.

Every hyperparameter defaults to the reference training setup (PPO
clip 0.3 / KL target 0.03 / lr 0.0006 / batch 128, phase budgets
610/101/306 episodes, evaluation 50 episodes x 2000 steps). A config file
only needs the keys it overrides; unknown keys and out-of-range values
fail with the offending dotted key named.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

import yaml

from .errors import ValidationError
from .geometry import Polyline, Rect
from .net import OBS_MODES
from .ppo import PpoHyper
from .rewards import RewardParams
from .scenario import (
    REWARD_KINDS,
    ROLES,
    AgentSpec,
    ScenarioConfig,
    corridor_scenario,
    t_intersection_scenario,
)
from .schema import error, parse_section, setting
from .worldmap import MapGeometry

ACTION_MODES = ("sample", "greedy")
PRESETS = ("t_intersection", "corridor", "custom")
ADVERSARY_REWARDS = ("adv_collision", "adv_offroad")


@dataclass
class ScenarioSettings:
    preset: str = setting("t_intersection", choices=PRESETS)
    lane_width: float = setting(3.5, lo=2.1)
    dt: float = setting(0.05, lo=1e-4, hi=1.0)
    max_steps: int = setting(500, lo=1)
    spawn_jitter: float = setting(0.0, lo=0.0)
    corridor_length: float = setting(50.0, lo=10.0)
    map: dict | None = setting(None, kind=dict, nullable=True)  # custom preset only
    agents: list | None = setting(None, kind=list, nullable=True)  # custom preset only


@dataclass
class PhaseBudgets:
    baseline_episodes: int = setting(610, lo=1)
    baseline_step_cap: int | None = setting(300672, lo=1, nullable=True)
    adversary_episodes: int = setting(101, lo=1)
    adversary_step_cap: int | None = setting(57728, lo=1, nullable=True)
    retrain_episodes: int = setting(306, lo=1)
    retrain_step_cap: int | None = setting(133888, lo=1, nullable=True)


@dataclass
class EvalSettings:
    episodes: int = setting(50, lo=1)
    max_steps: int = setting(2000, lo=1)
    action_mode: str = setting("sample", choices=ACTION_MODES)


@dataclass
class AdversarySettings:
    train_victims: list[str] = setting(factory=lambda: ["victim1"])
    reward: str = setting("adv_collision", choices=ADVERSARY_REWARDS)


@dataclass
class RunConfig:
    seed: int = setting(0, lo=0)
    out_dir: str = setting("runs/run")
    obs_mode: str = setting("full84", choices=OBS_MODES)
    workers: int = setting(1, lo=1)
    checkpoint_every: int = setting(25, lo=1)
    scenario: ScenarioSettings = field(default_factory=ScenarioSettings)
    reward: RewardParams = field(default_factory=RewardParams)
    ppo: PpoHyper = field(default_factory=PpoHyper)
    phases: PhaseBudgets = field(default_factory=PhaseBudgets)
    eval: EvalSettings = field(default_factory=EvalSettings)
    adversary: AdversarySettings = field(default_factory=AdversarySettings)


# Desk-scale budgets used by the `demo` subcommand; every value can still be
# overridden on the command line.
DEMO_BUDGETS = {
    "baseline_episodes": 120,
    "adversary_episodes": 40,
    "retrain_episodes": 60,
    "eval_episodes": 20,
    "eval_max_steps": 400,
    "train_max_steps": 300,
}


def _with_overrides(data, overrides: dict):
    """``data`` with each dotted key of ``overrides`` set, copying only the
    mappings on the way; a section that is not a mapping is left for
    ``parse_section`` to report."""
    merged = {} if data is None else data
    if not overrides or not isinstance(merged, dict):
        return merged
    merged = dict(merged)
    for dotted, value in overrides.items():
        *sections, name = dotted.split(".")
        node = merged
        for section in sections:
            child = node.get(section, {})
            if not isinstance(child, dict):
                break
            child = dict(child)
            node[section] = child
            node = child
        else:
            node[name] = value
    return merged


def parse_config(data: dict | None, overrides: dict | None = None) -> RunConfig:
    """Validated config from parsed YAML, with ``overrides`` (dotted keys,
    as the command line sets them) applied on top."""
    data = _with_overrides(data, overrides or {})
    cfg = parse_section(RunConfig, data)

    sc = cfg.scenario
    if sc.preset == "custom":
        if sc.map is None or sc.agents is None:
            error("scenario", "custom preset requires 'map' and 'agents'")
        if not sc.agents:
            error("scenario.agents", "expected a non-empty list")
    elif sc.map is not None or sc.agents is not None:
        error("scenario.map", "only allowed with the custom preset")
    tv = cfg.adversary.train_victims
    if not tv or not all(isinstance(x, str) for x in tv):
        error("adversary.train_victims", "expected a non-empty list of agent ids")
    return cfg


def load_config(path, overrides: dict | None = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config '{path}': {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValidationError(f"config parse error: {exc}") from exc
    return parse_config(data, overrides)


MAP_KEYS = ("drivable_rects", "intersection_rect", "dividers", "lane_width")
AGENT_KEYS = ("id", "role", "reward_kind", "spawn", "goal", "route")


def _entries(key: str, raw) -> list:
    if raw is None:
        return []
    if not isinstance(raw, (list, tuple)):
        error(key, f"expected a list, got {type(raw).__name__}")
    return raw


def _numbers(key: str, raw, n: int, shape: str) -> list[float]:
    """``raw`` as n floats, or a ValidationError naming ``key``."""
    if (not isinstance(raw, (list, tuple)) or len(raw) != n
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw)):
        error(key, f"expected {shape}, got {raw!r}")
    return [float(v) for v in raw]


def _rect(key: str, raw) -> Rect:
    shape = "[x0, y0, x1, y1] with x0 < x1 and y0 < y1"
    x0, y0, x1, y1 = _numbers(key, raw, 4, shape)
    if not (x0 < x1 and y0 < y1):
        error(key, f"expected {shape}, got {raw!r}")
    return Rect(x0, y0, x1, y1)


def _polyline(key: str, raw) -> Polyline:
    shape = "a list of at least two [x, y] points, consecutive points distinct"
    if not isinstance(raw, (list, tuple)) or len(raw) < 2:
        error(key, f"expected {shape}, got {raw!r}")
    points = [_numbers(key, p, 2, shape) for p in raw]
    if any(p == q for p, q in zip(points, points[1:])):
        error(key, f"expected {shape}, got {raw!r}")
    return Polyline(points)


def _agent(key: str, raw, seed_index: int) -> AgentSpec:
    """One custom-preset agent entry as an ``AgentSpec``; without a ``route``
    it drives the straight line from spawn to goal."""
    if not isinstance(raw, dict):
        error(key, f"expected a mapping with keys {list(AGENT_KEYS)}, got {raw!r}")
    unknown = sorted(set(raw) - set(AGENT_KEYS), key=str)
    if unknown:
        error(f"{key}.{unknown[0]}", "unknown key")
    for name in ("id", "role", "spawn", "goal"):
        if name not in raw:
            error(f"{key}.{name}", "missing")
    if not isinstance(raw["id"], str) or not raw["id"]:
        error(f"{key}.id", f"expected a non-empty string, got {raw['id']!r}")
    role, kind = raw["role"], raw.get("reward_kind", "victim")
    if role not in ROLES:
        error(f"{key}.role", f"must be one of {list(ROLES)}, got {role!r}")
    if kind not in REWARD_KINDS:
        error(f"{key}.reward_kind", f"must be one of {list(REWARD_KINDS)}, got {kind!r}")
    spawn = tuple(_numbers(f"{key}.spawn", raw["spawn"], 2, "[x, y]"))
    goal = tuple(_numbers(f"{key}.goal", raw["goal"], 2, "[x, y]"))
    if goal == spawn:
        error(f"{key}.goal", f"must differ from spawn, got {raw['goal']!r}")
    route = raw.get("route")
    route = Polyline([spawn, goal]) if route is None else _polyline(f"{key}.route", route)
    return AgentSpec(raw["id"], role, kind, spawn, goal, route, seed_index)


def build_scenario(cfg: RunConfig) -> ScenarioConfig:
    s = cfg.scenario
    if s.preset == "t_intersection":
        return t_intersection_scenario(
            lane_width=s.lane_width,
            dt=s.dt,
            max_steps=s.max_steps,
            spawn_jitter=s.spawn_jitter,
        )
    if s.preset == "corridor":
        return corridor_scenario(
            length=s.corridor_length,
            lane_width=s.lane_width,
            dt=s.dt,
            max_steps=s.max_steps,
            spawn_jitter=s.spawn_jitter,
        )
    m = s.map or {}
    unknown = sorted(set(m) - set(MAP_KEYS), key=str)
    if unknown:
        error(f"scenario.map.{unknown[0]}", "unknown key")
    rects = [_rect("scenario.map.drivable_rects", r)
             for r in _entries("scenario.map.drivable_rects", m.get("drivable_rects"))]
    if not rects:
        error("scenario.map.drivable_rects", "custom map needs at least one rectangle")
    lane_width = m.get("lane_width", s.lane_width)
    if isinstance(lane_width, bool) or not isinstance(lane_width, (int, float)) or lane_width <= 0:
        error("scenario.map.lane_width", f"expected a positive number, got {lane_width!r}")
    inter = m.get("intersection_rect")
    geo = MapGeometry(
        name="custom",
        lane_width=float(lane_width),
        drivable_rects=rects,
        intersection_region=None if inter is None else _rect("scenario.map.intersection_rect", inter),
        lane_segments=[],
        divider_lines=[_polyline("scenario.map.dividers", d)
                       for d in _entries("scenario.map.dividers", m.get("dividers"))],
    )
    agents = [_agent(f"scenario.agents[{i}]", raw, i) for i, raw in enumerate(s.agents or [])]
    return ScenarioConfig(
        name="custom", map=geo, agents=agents, dt=s.dt, max_steps=s.max_steps, spawn_jitter=s.spawn_jitter
    )


def config_echo(cfg: RunConfig) -> dict[str, Any]:
    """Fully resolved config as plain data, for run manifests."""
    return dataclasses.asdict(cfg)
