"""Deterministic seed derivation.

A single master seed fans out to every random decision in a run through
numpy SeedSequence spawn keys, so any (phase, episode, agent, ...) tuple
always maps to the same generator regardless of execution order.

The keys every run shares are below. Each adversary variant's two phase
keys and two evaluation-condition keys sit in its row of
``rewards.ADVERSARY_VARIANTS``.
"""
from __future__ import annotations

import numpy as np

# Reserved first components of spawn keys. Evaluation conditions use keys
# from KEY_EVAL_BASE up, so they never collide with training phases: the
# baseline condition KEY_EVAL_BASE, a label outside the demo's conditions
# KEY_EVAL_OTHER.
KEY_INIT = 0
KEY_BASELINE = 1
KEY_EVAL_BASE = 100
KEY_EVAL_OTHER = KEY_EVAL_BASE + 50
KEY_UPDATE_BASE = 50_000

# Last components under an episode's key prefix: its initial world, and each
# agent's action RNG at KEY_AGENT_RNG_BASE + the agent's seed index.
KEY_EPISODE_WORLD = 0
KEY_AGENT_RNG_BASE = 10


class SeedTree:
    """Splittable seed namespace rooted at one master seed."""

    def __init__(self, master_seed: int):
        if master_seed < 0:
            raise ValueError("master seed must be non-negative")
        self.master_seed = int(master_seed)

    def sequence(self, *key: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.master_seed, spawn_key=tuple(int(k) for k in key))

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(self.sequence(*key))
