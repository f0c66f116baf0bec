"""Per-tick reward functions for victims and the adversary variants, and
the registry of adversary variants.

All rewards share the progress and speed terms; they differ only in how
collision and offroad flags are priced. Coefficients are fixed; only the
victim lane-keeping bonus (beta) is tunable.

``ADVERSARY_VARIANTS`` is the one place an adversary variant is named. Its
row holds the variant's reward kind (the checkpoint label and the choices of
``adversary.reward`` and ``--reward``), its reward function, the seed keys of
its adversary phase and of the victims' retraining against it, and the label
and seed key of its two evaluation conditions: the baseline victims against
its adversary, and the victims retrained against it. ``pipeline`` derives its
phase keys, condition keys and the demo's chain from the rows, in row order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ConfigurationError
from .schema import setting
from .world import StepFlags

SPEED_DIVISOR = 10.0
VICTIM_COLLISION_PENALTY = -100.0
VICTIM_OFFROAD_PENALTY = -0.5
ADVERSARY_COLLISION_BONUS = 5.0
ADVERSARY_OFFROAD_BONUS = 0.05


@dataclass(frozen=True)
class RewardParams:
    beta: float = setting(0.5, lo=0.0)  # added each tick the agent stays in its lane


def _common_terms(prev: StepFlags, cur: StepFlags) -> float:
    return (prev.d - cur.d) + cur.f / SPEED_DIVISOR


def victim_reward(prev: StepFlags, cur: StepFlags, params: RewardParams) -> float:
    r = _common_terms(prev, cur)
    r += VICTIM_COLLISION_PENALTY * (int(cur.cv) + int(cur.co))
    r += VICTIM_OFFROAD_PENALTY * (int(cur.io) + int(cur.iol))
    if not cur.iol:
        r += params.beta
    return r


def adversary_collision_reward(prev: StepFlags, cur: StepFlags, params: RewardParams) -> float:
    r = _common_terms(prev, cur)
    r += ADVERSARY_COLLISION_BONUS * (int(cur.cv) + int(cur.co))
    r += ADVERSARY_OFFROAD_BONUS * (int(cur.io) + int(cur.iol))
    return r


def adversary_offroad_reward(prev: StepFlags, cur: StepFlags, params: RewardParams) -> float:
    r = _common_terms(prev, cur)
    r += ADVERSARY_OFFROAD_BONUS * (int(cur.io) + int(cur.iol))
    return r


@dataclass(frozen=True)
class AdversaryVariant:
    kind: str
    reward: Callable[[StepFlags, StepFlags, RewardParams], float]
    adversary_key: int  # seed key of the adversary phase
    retrain_key: int  # seed key of the victims' retraining against the adversary
    attack: tuple[str, int]  # condition label and seed key: baseline victims vs the adversary
    retrained: tuple[str, int]  # the same for the victims retrained against it


ADVERSARY_VARIANTS = {v.kind: v for v in (
    AdversaryVariant("adv_collision", adversary_collision_reward, 2, 4,
                     ("attack_collision", 101), ("retrained_collision", 103)),
    AdversaryVariant("adv_offroad", adversary_offroad_reward, 3, 5,
                     ("attack_offroad", 102), ("retrained_offroad", 104)),
)}


def reward_function(kind: str):
    if kind == "victim":
        return victim_reward
    try:
        return ADVERSARY_VARIANTS[kind].reward
    except KeyError:
        raise ConfigurationError(f"unknown reward kind '{kind}'") from None
