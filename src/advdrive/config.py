"""Run configuration: the schema, YAML loading, validation, and builders.

The schema is the dataclasses below together with
``scenario.ScenarioSettings``, ``ppo.PpoHyper`` and ``rewards.RewardParams``:
every config key is one field, and its checks (type, bounds, choices,
whether null is allowed) sit on that field (``schema.setting``).
``parse_config`` runs them all through ``schema.parse_section`` and then
checks the entries of ``adversary.train_victims``. Command-line flags reach
the config as overrides merged over the YAML data before that one call, so
they pass the same checks with the same messages. The choices of
``scenario.preset`` and ``obs_mode`` are the keys of ``scenario.PRESETS``
and ``net.NETS``, and ``build_scenario`` is the preset's builder applied to
the ``scenario`` section.

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

from . import scenario
from .errors import ValidationError
from .net import NETS
from .ppo import PpoHyper
from .rewards import ADVERSARY_VARIANTS, RewardParams
from .scenario import ScenarioConfig, ScenarioSettings
from .schema import error, parse_section, setting

ACTION_MODES = ("sample", "greedy")


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
    reward: str = setting("adv_collision", choices=ADVERSARY_VARIANTS)


@dataclass
class RunConfig:
    seed: int = setting(0, lo=0)
    out_dir: str = setting("runs/run")
    obs_mode: str = setting("full84", choices=NETS)
    workers: int = setting(1, lo=1)
    scenario: ScenarioSettings = field(default_factory=ScenarioSettings)
    reward: RewardParams = field(default_factory=RewardParams)
    ppo: PpoHyper = field(default_factory=PpoHyper)
    phases: PhaseBudgets = field(default_factory=PhaseBudgets)
    eval: EvalSettings = field(default_factory=EvalSettings)
    adversary: AdversarySettings = field(default_factory=AdversarySettings)


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


def build_scenario(cfg: RunConfig) -> ScenarioConfig:
    return scenario.PRESETS[cfg.scenario.preset](cfg.scenario)


def config_echo(cfg: RunConfig) -> dict[str, Any]:
    """Fully resolved config as plain data, for run manifests."""
    return dataclasses.asdict(cfg)
