"""Command-line interface.

Subcommands: train-baseline, train-adversary, retrain, evaluate, compare,
plot, demo. Flag precedence: command line > config file > built-in
defaults. A command takes only the flags it acts on: plot reads just the
scenario and the output directory, and only evaluate and demo take
--workers, the number of processes that run the evaluation's blocks of
episodes. plot refuses an episode log unless its agents are the scenario's,
with or without the adversary. Flags that set config values become
overrides keyed by dotted config keys, merged over the config file's data
before the one ``config.parse_config`` call, so they pass the same schema
checks (``config.py``) and fail with the same messages as config keys. The
ADVDRIVE_OUT_ROOT environment variable, when set, prefixes relative output
directories. Exit codes: 0 success, 1 runtime failure (one
machine-parseable ``error_class=...`` line on stderr), 2 usage error.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import pipeline
from .config import RunConfig, build_scenario, load_config, parse_config
from .errors import AdvDriveError, ConfigurationError
from .metrics import MetricsReport, compare
from .net import NETS
from .orchestrator import EpisodeLog
from .plot import emit_trajectory_plot
from .rewards import ADVERSARY_VARIANTS

OUT_ROOT_ENV = "ADVDRIVE_OUT_ROOT"

# The config key each flag sets, on the commands that have the flag.
_FLAG_KEYS = {
    "seed": "seed", "workers": "workers", "obs_mode": "obs_mode", "out": "out_dir",
    "reward": "adversary.reward",
}

# Per command: the config keys --episodes and --steps set, and the step cap
# that --episodes clears (None: keep it).
_BUDGET_FLAG_KEYS = {
    "train-baseline": ("phases.baseline_episodes", "phases.baseline_step_cap", "scenario.max_steps"),
    "train-adversary": ("phases.adversary_episodes", "phases.adversary_step_cap", "scenario.max_steps"),
    "retrain": ("phases.retrain_episodes", "phases.retrain_step_cap", "scenario.max_steps"),
    "evaluate": ("eval.episodes", None, "eval.max_steps"),
    "demo": ("phases.baseline_episodes", None, "scenario.max_steps"),
}

# What `demo` without --config lays over the defaults, under any flags:
# desk-scale budgets.
_DEMO_OVERRIDES = {
    "obs_mode": "lite21",
    "phases.baseline_episodes": 120,
    "phases.adversary_episodes": 40,
    "phases.retrain_episodes": 60,
    "phases.baseline_step_cap": None,
    "phases.adversary_step_cap": None,
    "phases.retrain_step_cap": None,
    "eval.episodes": 20,
    "eval.max_steps": 400,
    "scenario.max_steps": 300,
}


# The config flags besides --config and --out, with their argparse options.
_CONFIG_FLAGS = {
    "--seed": {"type": int, "help": "master seed"},
    "--workers": {"type": int, "help": "concurrent world instances for evaluation"},
    "--episodes": {"type": int, "help": "episode budget override for this command"},
    "--steps": {"type": int, "help": "per-episode step cap override"},
    "--obs-mode": {"choices": NETS, "dest": "obs_mode"},
}
_TRAINING_FLAGS = ("--seed", "--episodes", "--steps", "--obs-mode")


def _add_common(p: argparse.ArgumentParser, flags=tuple(_CONFIG_FLAGS)):
    p.add_argument("--config", help="YAML run config; unset keys use defaults")
    for flag in flags:
        p.add_argument(flag, **_CONFIG_FLAGS[flag])
    p.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="advdrive", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-baseline", help="train victim policies with no adversary")
    _add_common(p, _TRAINING_FLAGS)

    p = sub.add_parser("train-adversary", help="train an adversary against frozen victims")
    _add_common(p, _TRAINING_FLAGS)
    p.add_argument("--reward", choices=ADVERSARY_VARIANTS)
    p.add_argument("--victims", nargs="+", metavar="CKPT", required=True,
                   help="victim checkpoints as id=path or bare paths in scenario order")

    p = sub.add_parser("retrain", help="retrain victims against a frozen adversary")
    _add_common(p, _TRAINING_FLAGS)
    p.add_argument("--victims", nargs="+", metavar="CKPT", required=True)
    p.add_argument("--adversary", metavar="CKPT", required=True)

    p = sub.add_parser("evaluate", help="run test episodes and write a metrics report")
    _add_common(p)
    p.add_argument("--victims", nargs="+", metavar="CKPT", required=True)
    p.add_argument("--adversary", metavar="CKPT")
    p.add_argument("--label", default="evaluation")
    p.add_argument("--greedy", action="store_true", help="argmax actions instead of sampling")
    p.add_argument("--dump-obs", action="store_true",
                   help="write each agent's first observation as a .ppm image")

    p = sub.add_parser("compare", help="compare metric reports side by side")
    p.add_argument("reports", nargs="+", help="report.json files; first is the reference")
    p.add_argument("--out", help="output directory")

    p = sub.add_parser("plot", help="render a saved episode log as SVG + CSV")
    _add_common(p, ())  # reads only the scenario and the output directory
    p.add_argument("episode_log", help="episode0.json produced by evaluate")

    p = sub.add_parser("demo", help="full pipeline at desk-scale budgets")
    _add_common(p)
    p.add_argument("--dump-obs", action="store_true")
    return parser


def _resolve_out(path: str) -> str:
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _load_cfg(args) -> RunConfig:
    overrides = {}
    if args.command == "demo" and args.config is None:
        overrides.update(_DEMO_OVERRIDES)
    for flag, key in _FLAG_KEYS.items():
        if getattr(args, flag, None) is not None:
            overrides[key] = getattr(args, flag)
    episodes_key, cap_key, steps_key = _BUDGET_FLAG_KEYS.get(args.command, (None, None, None))
    if episodes_key and args.episodes is not None:
        overrides[episodes_key] = args.episodes
        if cap_key:
            overrides[cap_key] = None
    if steps_key and args.steps is not None:
        overrides[steps_key] = args.steps
    if getattr(args, "greedy", False):
        overrides["eval.action_mode"] = "greedy"
    if args.config:
        cfg = load_config(args.config, overrides)
    else:
        cfg = parse_config(None, overrides)
    cfg.out_dir = _resolve_out(cfg.out_dir)
    return cfg


def _victim_ckpts(paths, cfg) -> dict[str, str]:
    """Accepts id=path pairs, each id once, or bare paths assigned to victims
    in scenario order."""
    out = {}
    bare = []
    for item in paths:
        if "=" in item:
            aid, path = item.split("=", 1)
            if aid in out:
                raise ConfigurationError(f"victim id '{aid}' is given more than one checkpoint")
            out[aid] = path
        else:
            bare.append(item)
    if bare:
        victim_ids = [v.agent_id for v in build_scenario(cfg).victims() if v.agent_id not in out]
        if len(bare) > len(victim_ids):
            raise ConfigurationError(
                f"more victim checkpoints than unassigned victims {victim_ids}: "
                f"extra {bare[len(victim_ids):]}"
            )
        out.update(zip(victim_ids, bare))
    return out


def _phase_done(result, headline: str) -> int:
    """Print a finished training phase's headline and checkpoint paths."""
    print(headline)
    for aid, path in result.checkpoint_paths.items():
        print(f"  checkpoint {aid}: {path}")
    return 0


def _cmd_train_baseline(args) -> int:
    cfg = _load_cfg(args)
    result = pipeline.train_baseline(cfg, cfg.out_dir)
    return _phase_done(result, f"baseline complete: {result.episodes_run} episodes, "
                               f"{result.steps_run} steps")


def _cmd_train_adversary(args) -> int:
    cfg = _load_cfg(args)
    result = pipeline.train_adversary(cfg, _victim_ckpts(args.victims, cfg), cfg.out_dir)
    return _phase_done(result, f"adversary ({cfg.adversary.reward}) complete: "
                               f"{result.episodes_run} episodes")


def _cmd_retrain(args) -> int:
    cfg = _load_cfg(args)
    result = pipeline.retrain_victims(
        cfg, _victim_ckpts(args.victims, cfg), args.adversary, cfg.out_dir
    )
    return _phase_done(result, f"retraining complete: {result.episodes_run} episodes")


def _cmd_evaluate(args) -> int:
    cfg = _load_cfg(args)
    report = pipeline.evaluate_condition(
        cfg,
        args.label,
        _victim_ckpts(args.victims, cfg),
        args.adversary,
        cfg.out_dir,
        dump_obs=args.dump_obs,
    )
    print(report.text_table())
    print(f"report written to {os.path.join(cfg.out_dir, 'report.json')}")
    return 0


def _cmd_compare(args) -> int:
    reports = [MetricsReport.load(p) for p in args.reports]
    table = compare(reports)
    print(table.to_text())
    if args.out:
        out = _resolve_out(args.out)
        os.makedirs(out, exist_ok=True)
        table.save(os.path.join(out, "compare.json"), os.path.join(out, "compare.txt"))
        print(f"written to {out}")
    return 0


def _cmd_plot(args) -> int:
    cfg = _load_cfg(args)
    log = EpisodeLog.load(args.episode_log)
    scenario = build_scenario(cfg)
    # the agents of an evaluation with and without the adversary
    victims = [a.agent_id for a in scenario.victims()]
    if log.agent_ids not in (scenario.agent_ids(), victims):
        raise ConfigurationError(
            f"episode log '{args.episode_log}' has agents {log.agent_ids}, but scenario "
            f"'{scenario.name}' has {scenario.agent_ids()} (victims {victims})")
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    svg = os.path.join(out, "trajectories.svg")
    emit_trajectory_plot(log, scenario, svg, os.path.join(out, "trajectories.csv"))
    print(f"plot written to {svg}")
    return 0


def _cmd_demo(args) -> int:
    cfg = _load_cfg(args)
    table = pipeline.run_demo(cfg, cfg.out_dir, dump_obs=args.dump_obs)
    print(table.to_text())
    print(f"demo artifacts under {cfg.out_dir}")
    return 0


_HANDLERS = {
    "train-baseline": _cmd_train_baseline,
    "train-adversary": _cmd_train_adversary,
    "retrain": _cmd_retrain,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "plot": _cmd_plot,
    "demo": _cmd_demo,
}


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except AdvDriveError as exc:
        print(f"error_class={type(exc).__name__} {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
