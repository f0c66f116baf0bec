"""End-to-end phase drivers: baseline victim training, adversary training
against frozen victims (one per adversary reward variant), victim
retraining against a frozen adversary, evaluation conditions, and the
full demo pipeline that chains all of them and emits a comparison table.
"""
from __future__ import annotations

import json
import os

from . import __version__
from .checkpoint import load_checkpoint, params_checksum
from .config import RunConfig, build_raster, build_scenario, config_echo
from .errors import ConfigurationError
from .metrics import MetricsReport, compare, evaluate
from .net import init_params, net_config_for_mode
from .orchestrator import AgentPolicy, PhaseResult, run_training_phase
from .plot import emit_trajectory_plot
from .raster import render, write_ppm
from .seeding import (
    KEY_ADVERSARY_COLLISION,
    KEY_ADVERSARY_OFFROAD,
    KEY_EVAL_BASE,
    KEY_BASELINE,
    KEY_INIT,
    KEY_RETRAIN_COLLISION,
    KEY_RETRAIN_OFFROAD,
    SeedTree,
)
from .world import init_world

ADVERSARY_PHASE_KEYS = {
    "adv_collision": KEY_ADVERSARY_COLLISION,
    "adv_offroad": KEY_ADVERSARY_OFFROAD,
}
RETRAIN_PHASE_KEYS = {
    "adv_collision": KEY_RETRAIN_COLLISION,
    "adv_offroad": KEY_RETRAIN_OFFROAD,
}
EVAL_CONDITION_KEYS = {
    "baseline": KEY_EVAL_BASE + 0,
    "attack_collision": KEY_EVAL_BASE + 1,
    "attack_offroad": KEY_EVAL_BASE + 2,
    "retrained_collision": KEY_EVAL_BASE + 3,
    "retrained_offroad": KEY_EVAL_BASE + 4,
}


def fresh_policy(cfg: RunConfig, seed_tree: SeedTree, agent_id: str, role: str,
                 reward_kind: str, seed_index: int) -> AgentPolicy:
    params = init_params(net_config_for_mode(cfg.obs_mode), seed_tree.sequence(KEY_INIT, seed_index))
    return AgentPolicy(
        agent_id=agent_id,
        role=role,
        reward_kind=reward_kind,
        params=params,
        adam=None,
        frozen=False,
        kl_coef=cfg.ppo.kl_coef_init,
    )


def policy_from_checkpoint(path, agent_id: str, frozen: bool, role: str | None = None,
                           obs_mode: str | None = None) -> tuple[AgentPolicy, list[str]]:
    """Load a policy, checking what the caller names: its ``role`` (an
    adversary's reward kind must also be one with an adversary phase), and
    that its net is the one ``obs_mode`` trains. Raises ``ConfigurationError``
    naming both values on a mismatch."""
    ckpt = load_checkpoint(path)
    if role is not None:
        if ckpt.role != role:
            raise ConfigurationError(
                f"checkpoint '{path}' for '{agent_id}' has role '{ckpt.role}', expected '{role}'"
            )
        if role == "adversary" and ckpt.reward_kind not in ADVERSARY_PHASE_KEYS:
            raise ConfigurationError(
                f"adversary checkpoint '{path}' has reward kind '{ckpt.reward_kind}', "
                f"expected one of {list(ADVERSARY_PHASE_KEYS)}"
            )
    if obs_mode is not None:
        want = net_config_for_mode(obs_mode)
        if ckpt.net_config != want:
            raise ConfigurationError(
                f"checkpoint '{path}' for '{agent_id}' holds net {ckpt.net_config.to_dict()}, "
                f"but obs_mode '{obs_mode}' uses net {want.to_dict()}"
            )
    warnings = []
    if not frozen and ckpt.adam is None:
        warnings.append(f"checkpoint for '{agent_id}' has no optimizer state; resuming with a fresh one")
    return AgentPolicy.from_checkpoint(ckpt, agent_id=agent_id, frozen=frozen), warnings


def write_run_manifest(out_dir, cfg: RunConfig, command: str, extras: dict | None = None):
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "command": command,
        "code_version": __version__,
        "master_seed": cfg.seed,
        "config": config_echo(cfg),
    }
    manifest.update(extras or {})
    path = os.path.join(out_dir, "run_manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def train_baseline(cfg: RunConfig, out_dir: str) -> PhaseResult:
    """Train every victim concurrently in a shared adversary-free world."""
    seed_tree = SeedTree(cfg.seed)
    full = build_scenario(cfg)
    victims = full.victims()
    if not victims:
        raise ConfigurationError("scenario has no victim agents to train")
    scenario = full.subset([v.agent_id for v in victims])
    policies = {
        v.agent_id: fresh_policy(cfg, seed_tree, v.agent_id, v.role, v.reward_kind, v.seed_index)
        for v in victims
    }
    result = run_training_phase(
        phase_name="baseline",
        phase_key=KEY_BASELINE,
        scenario=scenario,
        policies=policies,
        hyper=cfg.ppo,
        reward_params=cfg.reward,
        raster_cfg=build_raster(cfg),
        episodes=cfg.phases.baseline_episodes,
        step_cap=cfg.phases.baseline_step_cap,
        seed_tree=seed_tree,
        out_dir=out_dir,
        checkpoint_every=cfg.checkpoint_every,
        config_echo=config_echo(cfg),
    )
    write_run_manifest(out_dir, cfg, "train-baseline", {"checkpoints": result.checkpoint_checksums})
    return result


def train_adversary(cfg: RunConfig, victim_ckpts: dict[str, str], reward_kind: str,
                    out_dir: str) -> PhaseResult:
    """Train a fresh adversary against frozen victim checkpoints."""
    if reward_kind not in ADVERSARY_PHASE_KEYS:
        raise ConfigurationError(f"adversary reward must be adv_collision or adv_offroad, got '{reward_kind}'")
    seed_tree = SeedTree(cfg.seed)
    full = build_scenario(cfg)
    adversaries = full.adversaries()
    if not adversaries:
        raise ConfigurationError("scenario has no adversary agent")
    adv_spec = adversaries[0]

    opponents = [aid for aid in cfg.adversary.train_victims if aid in victim_ckpts]
    if not opponents:
        raise ConfigurationError(
            f"none of adversary.train_victims {cfg.adversary.train_victims} has a checkpoint"
        )
    scenario = full.subset(opponents + [adv_spec.agent_id]).with_reward_kind(
        adv_spec.agent_id, reward_kind
    )

    policies = {}
    warnings = []
    for aid in opponents:
        policies[aid], w = policy_from_checkpoint(victim_ckpts[aid], aid, frozen=True,
                                                  role="victim", obs_mode=cfg.obs_mode)
        warnings += w
    policies[adv_spec.agent_id] = fresh_policy(
        cfg, seed_tree, adv_spec.agent_id, "adversary", reward_kind, adv_spec.seed_index
    )

    echo = config_echo(cfg)
    echo["warnings"] = warnings
    result = run_training_phase(
        phase_name=f"adversary_{reward_kind}",
        phase_key=ADVERSARY_PHASE_KEYS[reward_kind],
        scenario=scenario,
        policies=policies,
        hyper=cfg.ppo,
        reward_params=cfg.reward,
        raster_cfg=build_raster(cfg),
        episodes=cfg.phases.adversary_episodes,
        step_cap=cfg.phases.adversary_step_cap,
        seed_tree=seed_tree,
        out_dir=out_dir,
        checkpoint_every=cfg.checkpoint_every,
        config_echo=echo,
    )
    write_run_manifest(out_dir, cfg, f"train-adversary --reward {reward_kind}",
                       {"checkpoints": result.checkpoint_checksums})
    return result


def retrain_victims(cfg: RunConfig, victim_ckpts: dict[str, str], adversary_ckpt: str,
                    out_dir: str) -> PhaseResult:
    """Continue victim training with the frozen adversary in the world."""
    seed_tree = SeedTree(cfg.seed)
    full = build_scenario(cfg)
    adversaries = full.adversaries()
    if not adversaries:
        raise ConfigurationError("scenario has no adversary agent")
    adv_spec = adversaries[0]

    adv_policy, _ = policy_from_checkpoint(adversary_ckpt, adv_spec.agent_id, frozen=True,
                                           role="adversary", obs_mode=cfg.obs_mode)

    policies = {adv_spec.agent_id: adv_policy}
    warnings = []
    for aid, path in victim_ckpts.items():
        policies[aid], w = policy_from_checkpoint(path, aid, frozen=False,
                                                  role="victim", obs_mode=cfg.obs_mode)
        warnings += w
    scenario = full.subset(list(victim_ckpts) + [adv_spec.agent_id]).with_reward_kind(
        adv_spec.agent_id, adv_policy.reward_kind
    )

    echo = config_echo(cfg)
    echo["warnings"] = warnings
    result = run_training_phase(
        phase_name=f"retrain_vs_{adv_policy.reward_kind}",
        phase_key=RETRAIN_PHASE_KEYS[adv_policy.reward_kind],
        scenario=scenario,
        policies=policies,
        hyper=cfg.ppo,
        reward_params=cfg.reward,
        raster_cfg=build_raster(cfg),
        episodes=cfg.phases.retrain_episodes,
        step_cap=cfg.phases.retrain_step_cap,
        seed_tree=seed_tree,
        out_dir=out_dir,
        checkpoint_every=cfg.checkpoint_every,
        config_echo=echo,
    )
    write_run_manifest(out_dir, cfg, "retrain", {"checkpoints": result.checkpoint_checksums})
    return result


def evaluate_condition(
    cfg: RunConfig,
    label: str,
    victim_ckpts: dict[str, str],
    adversary_ckpt: str | None,
    out_dir: str,
    condition_key: int | None = None,
    dump_obs: bool = False,
) -> MetricsReport:
    """Evaluate one policy set; writes report JSON/text, one episode log,
    and a trajectory plot under out_dir."""
    seed_tree = SeedTree(cfg.seed)
    full = build_scenario(cfg)
    agent_ids = list(victim_ckpts)
    policies = {}
    for aid, path in victim_ckpts.items():
        policies[aid], _ = policy_from_checkpoint(path, aid, frozen=True,
                                                  role="victim", obs_mode=cfg.obs_mode)
    if adversary_ckpt is not None:
        adversaries = full.adversaries()
        if not adversaries:
            raise ConfigurationError("scenario has no adversary slot for the adversary checkpoint")
        adv_spec = adversaries[0]
        policies[adv_spec.agent_id], _ = policy_from_checkpoint(
            adversary_ckpt, adv_spec.agent_id, frozen=True, role="adversary", obs_mode=cfg.obs_mode
        )
        agent_ids.append(adv_spec.agent_id)
        full = full.with_reward_kind(adv_spec.agent_id, policies[adv_spec.agent_id].reward_kind)
    scenario = full.subset(agent_ids)
    raster_cfg = build_raster(cfg)
    if condition_key is None:
        condition_key = EVAL_CONDITION_KEYS.get(label, KEY_EVAL_BASE + 50)

    report, logs = evaluate(
        scenario,
        policies,
        raster_cfg,
        label=label,
        episodes=cfg.eval.episodes,
        max_steps=cfg.eval.max_steps,
        seed_tree=seed_tree,
        condition_key=condition_key,
        action_mode=cfg.eval.action_mode,
        workers=cfg.workers,
        keep_logs=1,
    )
    os.makedirs(out_dir, exist_ok=True)
    report.save(os.path.join(out_dir, "report.json"))
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.text_table() + "\n")
    if logs:
        with open(os.path.join(out_dir, "episode0.json"), "w", encoding="utf-8") as fh:
            json.dump(logs[0].to_dict(), fh, sort_keys=True)
        emit_trajectory_plot(
            logs[0],
            scenario,
            os.path.join(out_dir, "trajectories.svg"),
            os.path.join(out_dir, "trajectories.csv"),
            title=label,
        )
    if dump_obs:
        world = init_world(scenario, seed=seed_tree.sequence(condition_key, 0, 0))
        for aid in scenario.agent_ids():
            obs = render(world, aid, raster_cfg)
            write_ppm(obs.pixels, os.path.join(out_dir, f"obs_{aid}.ppm"))
    write_run_manifest(out_dir, cfg, f"evaluate --label {label}", {"fingerprint": report.fingerprint})
    return report


def run_demo(cfg: RunConfig, out_dir: str, dump_obs: bool = False) -> dict:
    """The whole two-step methodology at one budget setting:

    baseline victims -> both adversary variants -> retraining against each ->
    five evaluation conditions -> comparison table + per-condition plots.
    """
    os.makedirs(out_dir, exist_ok=True)
    baseline = train_baseline(cfg, os.path.join(out_dir, "baseline"))
    victim_ckpts = baseline.checkpoint_paths

    adv_ckpts = {}
    for kind in ("adv_collision", "adv_offroad"):
        res = train_adversary(cfg, victim_ckpts, kind, os.path.join(out_dir, f"adversary_{kind}"))
        adv_ckpts[kind] = next(iter(res.checkpoint_paths.values()))

    retrained = {}
    for kind in ("adv_collision", "adv_offroad"):
        res = retrain_victims(
            cfg, victim_ckpts, adv_ckpts[kind], os.path.join(out_dir, f"retrain_{kind}")
        )
        retrained[kind] = res.checkpoint_paths

    conditions = [
        ("baseline", victim_ckpts, None),
        ("attack_collision", victim_ckpts, adv_ckpts["adv_collision"]),
        ("attack_offroad", victim_ckpts, adv_ckpts["adv_offroad"]),
        ("retrained_collision", retrained["adv_collision"], adv_ckpts["adv_collision"]),
        ("retrained_offroad", retrained["adv_offroad"], adv_ckpts["adv_offroad"]),
    ]
    reports = []
    for label, vc, ac in conditions:
        reports.append(
            evaluate_condition(
                cfg, label, vc, ac, os.path.join(out_dir, "eval", label), dump_obs=dump_obs
            )
        )

    table = compare(reports)
    table.save(os.path.join(out_dir, "compare.json"), os.path.join(out_dir, "compare.txt"))
    manifest_path = write_run_manifest(
        out_dir,
        cfg,
        "demo",
        {
            "victim_checkpoints": victim_ckpts,
            "adversary_checkpoints": adv_ckpts,
            "retrained_checkpoints": retrained,
            "conditions": [c[0] for c in conditions],
        },
    )
    return {
        "out_dir": out_dir,
        "victim_checkpoints": victim_ckpts,
        "adversary_checkpoints": adv_ckpts,
        "retrained_checkpoints": retrained,
        "reports": {r.label: r for r in reports},
        "compare_text": table.to_text(),
        "manifest": manifest_path,
    }
