"""The benchmark's workloads: config generation from a seed, untimed
preparation, one timed invocation of a public ``advdrive.pipeline`` entry
point, and the behaviour digest of its outputs.

Every workload runs the T-intersection preset with ``workers=1`` and sampled
actions. Episodes are 64 ticks, which fresh policies always survive, so every
seed does the same amount of work: two episodes fill one 128-step PPO batch
per victim.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

EPISODE_TICKS = 64


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "train" (advdrive.pipeline.train_baseline) or "eval" (evaluate_condition)
    obs_mode: str
    episodes: int

    def config(self, seed: int) -> dict:
        data = {
            "seed": seed,
            "obs_mode": self.obs_mode,
            "workers": 1,
            "scenario": {"preset": "t_intersection", "max_steps": EPISODE_TICKS},
        }
        if self.kind == "train":
            data["phases"] = {"baseline_episodes": self.episodes, "baseline_step_cap": None}
        else:
            data["eval"] = {"episodes": self.episodes, "max_steps": EPISODE_TICKS,
                            "action_mode": "sample"}
        return data


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_lite21",
                 "baseline phase, 2 fresh victims, lite21: rollout-bound (render, forward, step)",
                 "train", "lite21", episodes=8),
        Workload("train_full84",
                 "baseline phase, 2 fresh victims, full84: PPO-update-bound (backward, Adam, im2col)",
                 "train", "full84", episodes=2),
        Workload("eval_full84",
                 "attack-condition evaluation, 3 frozen full84 agents: inference only, no PPO",
                 "eval", "full84", episodes=6),
    )
}


@dataclass
class Prepared:
    """What the untimed preparation leaves for the timed invocations."""

    workload: Workload
    config_path: str
    victim_ckpts: dict[str, str] = field(default_factory=dict)
    adversary_ckpt: str | None = None


def prepare(workload: Workload, seed: int, work_dir: str) -> Prepared:
    """Write the generated config and, for evaluation, the frozen agents'
    checkpoints (fresh nets drawn from the seed)."""
    from advdrive.checkpoint import Checkpoint, save_checkpoint
    from advdrive.config import build_scenario, parse_config
    from advdrive.net import init_params, net_config_for_mode

    os.makedirs(work_dir, exist_ok=True)
    data = workload.config(seed)
    prepared = Prepared(workload, os.path.join(work_dir, "config.yaml"))
    with open(prepared.config_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh)
    if workload.kind == "eval":
        scenario = build_scenario(parse_config(data))
        net_cfg = net_config_for_mode(workload.obs_mode)
        for i, agent in enumerate(scenario.agents):
            params = init_params(net_cfg, np.random.SeedSequence([seed, 1000 + i]))
            path = os.path.join(work_dir, "frozen", f"{agent.agent_id}.ckpt")
            save_checkpoint(path, Checkpoint(role=agent.role, reward_kind=agent.reward_kind,
                                             params=params))
            if agent.role == "adversary":
                prepared.adversary_ckpt = path
            else:
                prepared.victim_ckpts[agent.agent_id] = path
    return prepared


def invoke(prepared: Prepared, out_dir: str):
    """One workload run: load the config and call the pipeline entry point."""
    from advdrive import pipeline
    from advdrive.config import load_config

    cfg = load_config(prepared.config_path)
    if prepared.workload.kind == "train":
        return pipeline.train_baseline(cfg, out_dir)
    return pipeline.evaluate_condition(cfg, "attack_collision", prepared.victim_ckpts,
                                       prepared.adversary_ckpt, out_dir)


def digest(prepared: Prepared, result, out_dir: str) -> str:
    """Behaviour digest of one run's outputs.

    Training: the ``params_checksum`` of every output checkpoint, recomputed
    from the file, plus the ``train_log.jsonl`` bytes. Evaluation: the
    ``report.json`` bytes. Raises ``ValueError`` when the outputs disagree
    with what the entry point returned.
    """
    from advdrive.checkpoint import load_checkpoint, params_checksum

    h = hashlib.sha256()
    if prepared.workload.kind == "train":
        checksums = {}
        for aid, path in sorted(result.checkpoint_paths.items()):
            checksums[aid] = params_checksum(load_checkpoint(path).params)
            if checksums[aid] != result.checkpoint_checksums[aid]:
                raise ValueError(f"checkpoint of {aid} does not hold the returned parameters")
        h.update(json.dumps(checksums, sort_keys=True).encode())
        with open(os.path.join(out_dir, "train_log.jsonl"), "rb") as fh:
            h.update(fh.read())
    else:
        with open(os.path.join(out_dir, "report.json"), "rb") as fh:
            report = fh.read()
        if json.loads(report)["episodes"] != prepared.workload.episodes:
            raise ValueError("report.json does not cover the configured episodes")
        h.update(report)
    return h.hexdigest()
