"""The paper's method as phase drivers: baseline victim training, adversary
training against frozen victims (one per adversary reward variant), victim
retraining against a frozen adversary, evaluation conditions, and the demo
that chains them all and emits a comparison table.

The variants are the rows of ``rewards.ADVERSARY_VARIANTS``. A variant's
row gives the seed keys of its adversary and retraining phases, read by
``train_adversary`` and ``retrain_victims``, and the labels and seed keys of
its two evaluation conditions, which ``EVAL_CONDITION_KEYS`` collects after
the baseline condition. ``run_demo`` trains each row's adversary and then
retrains the victims against it, row by row, and evaluates the conditions in
``EVAL_CONDITION_KEYS`` order: baseline, every attack, every retrained.

Every phase and evaluation is built from the same pieces. A policy is its
``Checkpoint``. ``_build_policies`` builds every policy a command needs,
loaded or fresh, and raises ``ConfigurationError`` unless each checkpoint id
names a scenario agent of the role it is loaded as and holds the net of
``cfg.obs_mode``; ``full.subset(policies)`` cuts the scenario down to the
agents that have a policy; ``_train`` runs one training phase within its
``cfg.phases`` budget, freezing the ids the phase names, and writes the run
manifest. A phase or evaluation with an adversary checkpoint echoes that
checkpoint's reward kind as ``adversary.reward`` in its manifests. The obs
mode reaches the rest of the run only through the nets: fresh policies get
its net, loaded ones are checked to hold it, and every agent is rendered at
its own net's core resolution.

A command's checkpoint loads and fresh inits run side by side in one
``orchestrator.side_by_side`` call (see the ``orchestrator`` docstring), after
every role and scenario check, so the policies, warnings and errors are a
serial run's.
"""
from __future__ import annotations

import os
from dataclasses import replace
from functools import partial

from . import __version__
from .checkpoint import Checkpoint, load_checkpoint, params_checksum  # noqa: F401 (perfbench/tracer.py wraps params_checksum here)
from .config import RunConfig, build_scenario, config_echo
from .errors import ConfigurationError
from .metrics import ComparisonTable, MetricsReport, compare, evaluate
from .net import init_params, net_config_for_mode
from .orchestrator import (PhaseResult, episode_world, helper_pool, helper_threads,
                           run_training_phase, side_by_side)
from .plot import emit_trajectory_plot
from .raster import render, write_ppm
from .rewards import ADVERSARY_VARIANTS
from .scenario import AgentSpec, ScenarioConfig
from .schema import write_record
from .seeding import KEY_BASELINE, KEY_EVAL_BASE, KEY_INIT, SeedTree

EVAL_CONDITION_KEYS = dict([("baseline", KEY_EVAL_BASE)]
                           + [v.attack for v in ADVERSARY_VARIANTS.values()]
                           + [v.retrained for v in ADVERSARY_VARIANTS.values()])


def fresh_policy(cfg: RunConfig, spec: AgentSpec) -> Checkpoint:
    """An untrained policy for ``spec``, seeded by its seed index."""
    params = init_params(net_config_for_mode(cfg.obs_mode),
                         SeedTree(cfg.seed).sequence(KEY_INIT, spec.seed_index))
    return Checkpoint(spec.role, spec.reward_kind, params, kl_coef=cfg.ppo.kl_coef_init)


def policy_from_checkpoint(path, agent_id: str, frozen: bool, role: str,
                           obs_mode: str) -> tuple[Checkpoint, list[str]]:
    """Load the policy for ``agent_id``, checking its ``role`` (an
    adversary's reward kind must also be one with an adversary phase), and
    that its net is the one ``obs_mode`` trains. Raises
    ``ConfigurationError`` naming both values on a mismatch. Returns it with
    the load warnings: one if a policy to be trained (not ``frozen``) has no
    optimizer state."""
    ckpt = load_checkpoint(path)
    if ckpt.role != role:
        raise ConfigurationError(
            f"checkpoint '{path}' for '{agent_id}' has role '{ckpt.role}', expected '{role}'"
        )
    if role == "adversary" and ckpt.reward_kind not in ADVERSARY_VARIANTS:
        raise ConfigurationError(
            f"adversary checkpoint '{path}' has reward kind '{ckpt.reward_kind}', "
            f"expected one of {list(ADVERSARY_VARIANTS)}"
        )
    want = net_config_for_mode(obs_mode)
    if ckpt.net_config != want:
        raise ConfigurationError(
            f"checkpoint '{path}' for '{agent_id}' holds net {ckpt.net_config.to_dict()}, "
            f"but obs_mode '{obs_mode}' uses net {want.to_dict()}"
        )
    warnings = []
    if not frozen and ckpt.adam is None:
        warnings.append(f"checkpoint for '{agent_id}' has no optimizer state; resuming with a fresh one")
    return ckpt, warnings


def write_run_manifest(out_dir, cfg: RunConfig, command: str, extras: dict | None = None):
    write_record(os.path.join(out_dir, "run_manifest.json"),
                 {"command": command, "code_version": __version__, "master_seed": cfg.seed,
                  "config": config_echo(cfg), **(extras or {})},
                 indent=2)


def _check_roles(full: ScenarioConfig, agent_ids, role: str):
    """Raises ``ConfigurationError`` unless every id names an agent that
    holds ``role`` in ``full``."""
    holders = [a.agent_id for a in full.agents if a.role == role]
    for aid in agent_ids:
        if aid not in holders:
            raise ConfigurationError(
                f"checkpoint id '{aid}' is not a {role} in scenario '{full.name}', "
                f"whose {role} agents are {holders}"
            )


def _build_policies(cfg: RunConfig, full: ScenarioConfig,
                    ckpts: dict[str, dict[str, str]] | None = None,
                    frozen_roles: tuple[str, ...] = (), fresh: tuple[AgentSpec, ...] = ()
                    ) -> tuple[dict[str, Checkpoint], list[str]]:
    """Every policy a command needs, built side by side (``side_by_side``):
    the checkpoints of ``ckpts`` (role -> agent id -> path), loaded for
    agents that hold that role in ``full`` and as frozen for the
    ``frozen_roles``, and fresh policies for the ``fresh`` specs. Returns
    the policies by agent id and the load warnings, both in ``full``'s agent
    order. The role checks run before any file is read."""
    calls = {}
    for role, paths in (ckpts or {}).items():
        _check_roles(full, paths, role)
        for aid, path in paths.items():
            calls[aid] = partial(policy_from_checkpoint, path, aid, role in frozen_roles, role=role,
                                 obs_mode=cfg.obs_mode)
    for spec in fresh:
        calls[spec.agent_id] = partial(_fresh_call, cfg, spec)
    ids = [aid for aid in full.agent_ids() if aid in calls]
    params = net_config_for_mode(cfg.obs_mode).param_count()
    with helper_pool(helper_threads(len(ids), params)) as pool:
        built = list(side_by_side(ids, calls.__getitem__, pool))
    return ({aid: policy for aid, (policy, _) in zip(ids, built)},
            [w for _, load_warnings in built for w in load_warnings])


def _fresh_call(cfg: RunConfig, spec: AgentSpec) -> tuple[Checkpoint, list[str]]:
    return fresh_policy(cfg, spec), []


def _with_reward(cfg: RunConfig, kind: str) -> RunConfig:
    """``cfg`` with ``adversary.reward`` set to ``kind``."""
    return replace(cfg, adversary=replace(cfg.adversary, reward=kind))


def _adversary(full: ScenarioConfig) -> AgentSpec:
    adversaries = full.adversaries()
    if not adversaries:
        raise ConfigurationError(f"scenario '{full.name}' has no adversary agent")
    return adversaries[0]


def _train(cfg: RunConfig, out_dir: str, command: str, phase_name: str, phase_key: int,
           budget: str, full: ScenarioConfig, policies: dict[str, Checkpoint],
           frozen: tuple[str, ...] = (), warnings: list[str] | None = None) -> PhaseResult:
    """One training phase of ``policies`` in their part of ``full``, within
    ``cfg.phases.<budget>_episodes`` and ``<budget>_step_cap``, with the
    ``frozen`` ids held fixed; writes the run manifest. ``warnings``, when
    given, joins the phase manifest's config echo."""
    echo = config_echo(cfg)
    if warnings is not None:
        echo["warnings"] = warnings
    result = run_training_phase(
        phase_name=phase_name,
        phase_key=phase_key,
        # an adversary spec keeps the scenario's reward kind: episodes reward each agent
        # by its policy's reward_kind, and report fingerprints leave adversaries out
        scenario=full.subset(policies),
        policies=policies,
        hyper=cfg.ppo,
        reward_params=cfg.reward,
        episodes=getattr(cfg.phases, f"{budget}_episodes"),
        step_cap=getattr(cfg.phases, f"{budget}_step_cap"),
        seed_tree=SeedTree(cfg.seed),
        out_dir=out_dir,
        frozen=frozen,
        config_echo=echo,
    )
    write_run_manifest(out_dir, cfg, command, {"checkpoints": result.checkpoint_checksums})
    return result


def train_baseline(cfg: RunConfig, out_dir: str) -> PhaseResult:
    """Train every victim concurrently in a shared adversary-free world,
    starting from fresh policies initialised side by side."""
    full = build_scenario(cfg)
    policies, _ = _build_policies(cfg, full, fresh=tuple(full.victims()))
    return _train(cfg, out_dir, "train-baseline", "baseline", KEY_BASELINE, "baseline",
                  full, policies)


def train_adversary(cfg: RunConfig, victim_ckpts: dict[str, str], out_dir: str) -> PhaseResult:
    """Train a fresh adversary with reward ``cfg.adversary.reward`` against
    the frozen victims of ``cfg.adversary.train_victims`` among
    ``victim_ckpts``. Each other checkpoint goes unused, and the phase
    manifest warns of it by id."""
    reward_kind = cfg.adversary.reward
    full = build_scenario(cfg)
    adv = _adversary(full)
    _check_roles(full, victim_ckpts, "victim")
    opponents = {aid: victim_ckpts[aid] for aid in cfg.adversary.train_victims if aid in victim_ckpts}
    if not opponents:
        raise ConfigurationError(
            f"none of adversary.train_victims {cfg.adversary.train_victims} has a checkpoint"
        )
    warnings = [
        f"checkpoint for '{aid}' is unused: it is not in adversary.train_victims "
        f"{cfg.adversary.train_victims}"
        for aid in victim_ckpts if aid not in opponents
    ]
    policies, load_warnings = _build_policies(cfg, full, {"victim": opponents}, ("victim",),
                                              (replace(adv, reward_kind=reward_kind),))
    return _train(cfg, out_dir, f"train-adversary --reward {reward_kind}", f"adversary_{reward_kind}",
                  ADVERSARY_VARIANTS[reward_kind].adversary_key, "adversary", full, policies,
                  tuple(opponents), warnings + load_warnings)


def retrain_victims(cfg: RunConfig, victim_ckpts: dict[str, str], adversary_ckpt: str,
                    out_dir: str) -> PhaseResult:
    """Continue victim training with the frozen adversary in the world."""
    full = build_scenario(cfg)
    adv_id = _adversary(full).agent_id
    policies, warnings = _build_policies(
        cfg, full, {"victim": victim_ckpts, "adversary": {adv_id: adversary_ckpt}}, ("adversary",)
    )
    kind = policies[adv_id].reward_kind
    return _train(_with_reward(cfg, kind), out_dir, "retrain", f"retrain_vs_{kind}",
                  ADVERSARY_VARIANTS[kind].retrain_key, "retrain", full, policies, (adv_id,),
                  warnings)


def evaluate_condition(
    cfg: RunConfig,
    label: str,
    victim_ckpts: dict[str, str],
    adversary_ckpt: str | None,
    out_dir: str,
    dump_obs: bool = False,
) -> MetricsReport:
    """Evaluate one policy set; writes report JSON/text, one episode log,
    and a trajectory plot under out_dir. The run manifest's ``warnings``
    name an ``eval.max_steps`` other than ``scenario.max_steps``, the length
    of training episodes."""
    full = build_scenario(cfg)
    warnings = []
    if cfg.eval.max_steps != full.max_steps:
        warnings.append(
            f"eval.max_steps {cfg.eval.max_steps} differs from scenario.max_steps "
            f"{full.max_steps}, the length of training episodes"
        )
    ckpts = {"victim": victim_ckpts}
    if adversary_ckpt is not None:
        adv_id = _adversary(full).agent_id
        ckpts["adversary"] = {adv_id: adversary_ckpt}
    policies, _ = _build_policies(cfg, full, ckpts, ("victim", "adversary"))
    if adversary_ckpt is not None:
        cfg = _with_reward(cfg, policies[adv_id].reward_kind)
    scenario = full.subset(policies)
    seed_tree = SeedTree(cfg.seed)
    condition_key = EVAL_CONDITION_KEYS.get(label, KEY_EVAL_BASE + 50)

    report, logs = evaluate(
        scenario,
        policies,
        label=label,
        episodes=cfg.eval.episodes,
        max_steps=cfg.eval.max_steps,
        seed_tree=seed_tree,
        condition_key=condition_key,
        action_mode=cfg.eval.action_mode,
        workers=cfg.workers,
    )
    os.makedirs(out_dir, exist_ok=True)
    report.save(os.path.join(out_dir, "report.json"))
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.text_table() + "\n")
    if logs:
        write_record(os.path.join(out_dir, "episode0.json"), logs[0])
        emit_trajectory_plot(
            logs[0],
            scenario,
            os.path.join(out_dir, "trajectories.svg"),
            os.path.join(out_dir, "trajectories.csv"),
            title=label,
        )
    if dump_obs:
        world = episode_world(scenario, seed_tree, (condition_key, 0))
        for aid in scenario.agent_ids():
            obs = render(world, aid, policies[aid].params.config.core_res())
            write_ppm(obs.pixels, os.path.join(out_dir, f"obs_{aid}.ppm"))
    write_run_manifest(out_dir, cfg, f"evaluate --label {label}",
                       {"fingerprint": report.fingerprint, "warnings": warnings})
    return report


def run_demo(cfg: RunConfig, out_dir: str, dump_obs: bool = False) -> ComparisonTable:
    """The whole two-step methodology at one budget setting:

    baseline victims -> per adversary variant, its adversary and the victims
    retrained against it -> five evaluation conditions -> comparison table +
    per-condition plots. Returns the table it writes to ``compare.json``.
    """
    os.makedirs(out_dir, exist_ok=True)
    baseline = train_baseline(cfg, os.path.join(out_dir, "baseline"))
    victim_ckpts = baseline.checkpoint_paths

    adv_ckpts, retrained, policy_sets = {}, {}, {"baseline": (victim_ckpts, None)}
    for kind, variant in ADVERSARY_VARIANTS.items():
        res = train_adversary(_with_reward(cfg, kind), victim_ckpts,
                              os.path.join(out_dir, f"adversary_{kind}"))
        adv_ckpts[kind] = next(iter(res.checkpoint_paths.values()))
        res = retrain_victims(cfg, victim_ckpts, adv_ckpts[kind], os.path.join(out_dir, f"retrain_{kind}"))
        retrained[kind] = res.checkpoint_paths
        policy_sets[variant.attack[0]] = (victim_ckpts, adv_ckpts[kind])
        policy_sets[variant.retrained[0]] = (retrained[kind], adv_ckpts[kind])

    reports = [
        evaluate_condition(cfg, label, *policy_sets[label], os.path.join(out_dir, "eval", label),
                           dump_obs=dump_obs)
        for label in EVAL_CONDITION_KEYS
    ]

    table = compare(reports)
    table.save(os.path.join(out_dir, "compare.json"), os.path.join(out_dir, "compare.txt"))
    write_run_manifest(
        out_dir,
        cfg,
        "demo",
        {
            "victim_checkpoints": victim_ckpts,
            "adversary_checkpoints": adv_ckpts,
            "retrained_checkpoints": retrained,
            "conditions": list(EVAL_CONDITION_KEYS),
        },
    )
    return table
