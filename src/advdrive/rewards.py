"""Per-tick reward functions for victims and the two adversary variants.

All three share the progress and speed terms; they differ only in how
collision and offroad flags are priced. Coefficients are fixed; only the
victim lane-keeping bonus (beta) is tunable.
"""
from __future__ import annotations

from dataclasses import dataclass

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


REWARD_FUNCTIONS = {
    "victim": victim_reward,
    "adv_collision": adversary_collision_reward,
    "adv_offroad": adversary_offroad_reward,
}


def reward_function(kind: str):
    try:
        return REWARD_FUNCTIONS[kind]
    except KeyError:
        raise ConfigurationError(f"unknown reward kind '{kind}'") from None
