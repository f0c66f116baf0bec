"""The config schema: per-field checks, CLI overrides, the manifest echo,
and the checks on checkpoints where they enter the pipeline."""
import hashlib
import json
import re

import numpy as np
import pytest
import yaml

from test_cli import MICRO_CONFIG

from advdrive import pipeline
from advdrive.checkpoint import Checkpoint, save_checkpoint
from advdrive.cli import _victim_ckpts, build_parser, dispatch
from advdrive.config import RunConfig, build_scenario, config_echo, parse_config
from advdrive.errors import ConfigurationError, ValidationError
from advdrive.net import full84_config, init_params, lite21_config
from advdrive.orchestrator import run_episode
from advdrive.raster import write_ppm
from advdrive.rewards import ADVERSARY_VARIANTS, reward_function
from advdrive.schema import Check, section_fields
from advdrive.seeding import SeedTree

# SHA-256 of json.dumps(config_echo(cfg), sort_keys=True); the manifests'
# `config` must not move.
ECHO_GOLDENS = {
    "default": "22e07b467380d8b4a3b152f28236e8752832148da4d80f9572aff3b60b9ba80e",
    "micro": "7b1b47ad26585d7369fd6494c34b5948bbd24e2a1b3517b7a818996f32c1c107",
}


def _numeric_leaves(cls=RunConfig, prefix=""):
    for name, spec in section_fields(cls).items():
        if isinstance(spec, Check):
            if spec.kind in (int, float):
                yield prefix + name, spec
        else:
            yield from _numeric_leaves(spec, f"{prefix}{name}.")


NUMERIC_LEAVES = dict(_numeric_leaves())


def _nested(key, value):
    *sections, name = key.split(".")
    data = {name: value}
    for section in reversed(sections):
        data = {section: data}
    return data


def _step(check, bound, direction):
    if check.kind is int:
        return bound + direction
    return float(np.nextafter(bound, direction * np.inf))


def _rejects(data, key):
    with pytest.raises(ValidationError) as info:
        parse_config(data)
    assert str(info.value).startswith(f"{key}: "), str(info.value)
    return str(info.value)


def test_schema_covers_every_numeric_key():
    assert len(NUMERIC_LEAVES) == 27
    assert {"seed", "reward.beta", "ppo.lr", "phases.retrain_step_cap", "eval.max_steps"} <= set(
        NUMERIC_LEAVES
    )
    assert all(check.lo is not None for check in NUMERIC_LEAVES.values())


@pytest.mark.parametrize("key", sorted(NUMERIC_LEAVES))
def test_numeric_key_bounds(key):
    check = NUMERIC_LEAVES[key]
    assert "expected a number, got True" in _rejects(_nested(key, True), key)
    assert "expected a number" in _rejects(_nested(key, "1"), key)
    below = _step(check, check.lo, -1)
    assert f"below minimum {check.lo}" in _rejects(_nested(key, below), key)
    section = parse_config(_nested(key, check.lo))
    for name in key.split("."):
        section = getattr(section, name)
    assert section == check.lo and type(section) is check.kind
    if check.hi is not None:
        above = _step(check, check.hi, +1)
        assert f"above maximum {check.hi}" in _rejects(_nested(key, above), key)
    if check.kind is int:
        assert "expected an integer" in _rejects(_nested(key, check.lo + 0.5), key)
    if check.nullable:
        assert parse_config(_nested(key, None)) is not None
    else:
        _rejects(_nested(key, None), key)


def test_messages_keep_their_text():
    assert _rejects({"ppo": {"gamma": 1.5}}, "ppo.gamma") == "ppo.gamma: value 1.5 above maximum 1.0"
    assert _rejects({"scenario": {"presett": "x"}}, "scenario.presett") == (
        "scenario.presett: unknown key"
    )
    assert _rejects({"seed": -1}, "seed") == "seed: value -1 below minimum 0"
    assert _rejects({"ppo": 3}, "ppo") == "ppo: expected a mapping, got int"
    with pytest.raises(ValidationError, match="^<root>: expected a mapping, got list$"):
        parse_config([1])
    assert _rejects({"obs_mode": "x"}, "obs_mode") == (
        "obs_mode: must be one of ['full84', 'lite21'], got 'x'"
    )


def test_out_dir_null_empty_or_not_a_string_rejected():
    assert "expected a non-empty string, got NoneType" in _rejects({"out_dir": None}, "out_dir")
    _rejects({"out_dir": 7}, "out_dir")
    _rejects({"out_dir": ""}, "out_dir")


# Keys of the removed `custom` preset and the removed `checkpoint_every`
# option: (config data, the key the error names, its message).
REMOVED_KEYS = [
    ({"scenario": {"preset": "custom"}}, "scenario.preset",
     "must be one of ['t_intersection', 'corridor'], got 'custom'"),
    ({"scenario": {"map": {"drivable_rects": [[-5, -5, 60, 5]]}}}, "scenario.map", "unknown key"),
    ({"scenario": {"agents": [{"id": "v", "role": "victim"}]}}, "scenario.agents", "unknown key"),
    ({"checkpoint_every": 25}, "checkpoint_every", "unknown key"),
]


def test_cross_field_rules():
    for data, key, message in REMOVED_KEYS:
        assert _rejects(data, key) == f"{key}: {message}"
    for bad in ([], [1], "victim1"):
        _rejects({"adversary": {"train_victims": bad}}, "adversary.train_victims")


@pytest.mark.parametrize("data, key, message", REMOVED_KEYS, ids=[k for _, k, _ in REMOVED_KEYS])
def test_removed_keys_exit_1_from_cli(data, key, message, tmp_path, capsys):
    config = tmp_path / "old.yaml"
    scenario = {**MICRO_CONFIG["scenario"], **data.get("scenario", {})}
    config.write_text(yaml.safe_dump({**MICRO_CONFIG, **data, "scenario": scenario}))
    assert dispatch(["train-baseline", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert f"error_class=ValidationError {key}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# A whole config written for the removed `custom` preset, with a map and
# agents, is refused at its first unknown key before any output is written,
# whatever is wrong with its map or agents.
GOOD_MAP = {"drivable_rects": [[-5, -5, 60, 5]], "intersection_rect": [20, -5, 30, 5],
            "dividers": [[[-5, 0], [60, 0]]]}
GOOD_AGENT = {"id": "v", "role": "victim", "spawn": [0, 0], "goal": [50, 0]}


def _exits_1_naming_agents(data, tmp_path, capsys):
    config = tmp_path / "custom.yaml"
    config.write_text(yaml.safe_dump({**MICRO_CONFIG, "scenario": {"preset": "custom", **data}}))
    assert dispatch(["train-baseline", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "error_class=ValidationError scenario.agents: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("drivable_rects", [[0, 0, 5]]),
    ("drivable_rects", [[5, 0, 0, 3]]),
    ("drivable_rects", [[0, 0, "a", 3]]),
    ("intersection_rect", [0, 0, 5]),
    ("dividers", [[[0, 0]]]),
])
def test_bad_custom_map_exits_1_from_cli(key, value, tmp_path, capsys):
    _exits_1_naming_agents({"map": {**GOOD_MAP, key: value}, "agents": [GOOD_AGENT]},
                           tmp_path, capsys)


@pytest.mark.parametrize("agent, field", [
    (5, "scenario.agents[0]"),
    ({"id": "v"}, "scenario.agents[0].role"),
    ({**GOOD_AGENT, "spawn": [0]}, "scenario.agents[0].spawn"),
])
def test_bad_custom_agent_exits_1_from_cli(agent, field, tmp_path, capsys):
    _exits_1_naming_agents({"map": GOOD_MAP, "agents": [agent]}, tmp_path, capsys)


def test_float_keys_take_integers():
    cfg = parse_config({"ppo": {"lr": 1}, "reward": {"beta": 0}})
    assert cfg.ppo.lr == 1.0 and type(cfg.ppo.lr) is float
    assert cfg.reward.beta == 0.0 and type(cfg.reward.beta) is float


def test_overrides_merge_over_data_without_mutating_it():
    data = {"ppo": {"lr": 0.001}, "seed": 2}
    cfg = parse_config(data, {"ppo.gamma": 0.5, "seed": 3, "phases.baseline_step_cap": None})
    assert (cfg.ppo.lr, cfg.ppo.gamma, cfg.seed) == (0.001, 0.5, 3)
    assert cfg.phases.baseline_step_cap is None
    assert data == {"ppo": {"lr": 0.001}, "seed": 2}
    with pytest.raises(ValidationError, match="^ppo: expected a mapping"):
        parse_config({"ppo": 1}, {"ppo.gamma": 0.5})


@pytest.mark.parametrize("name", sorted(ECHO_GOLDENS))
def test_config_echo_golden(name):
    cfg = RunConfig() if name == "default" else parse_config(MICRO_CONFIG)
    blob = json.dumps(config_echo(cfg), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == ECHO_GOLDENS[name]


@pytest.mark.parametrize(
    "argv, key",
    [
        (["train-baseline", "--seed", "-1"], "seed"),
        (["train-baseline", "--workers", "0"], "workers"),
        (["train-baseline", "--episodes", "0"], "phases.baseline_episodes"),
        (["train-baseline", "--steps", "0"], "scenario.max_steps"),
        (["evaluate", "--victims", "victim1=a", "--steps", "0"], "eval.max_steps"),
        (["demo", "--episodes", "0"], "phases.baseline_episodes"),
        (["train-baseline", "--out", ""], "out_dir"),
    ],
)
def test_bad_flag_values_exit_1_naming_the_key(argv, key, tmp_path, capsys):
    config = tmp_path / "micro.yaml"  # keeps a run that wrongly starts short
    config.write_text(yaml.safe_dump(MICRO_CONFIG))
    common = ["--config", str(config), "--out", str(tmp_path / "o")]
    assert dispatch(argv[:1] + common + argv[1:]) == 1  # the case's own flags come last
    err = capsys.readouterr().err
    assert f"error_class=ValidationError {key}: " in err
    assert not (tmp_path / "o").exists()


def test_extra_bare_victim_paths_rejected():
    cfg = RunConfig()
    assert _victim_ckpts(["p1", "p2"], cfg) == {"victim1": "p1", "victim2": "p2"}
    assert _victim_ckpts(["victim2=q", "p1"], cfg) == {"victim2": "q", "victim1": "p1"}
    with pytest.raises(ConfigurationError, match=r"extra \['p3'\]"):
        _victim_ckpts(["p1", "p2", "p3"], cfg)
    with pytest.raises(ConfigurationError, match=r"extra \['p2'\]"):
        _victim_ckpts(["victim1=q", "p1", "p2"], cfg)


def test_repeated_victim_id_rejected(tmp_path, capsys):
    with pytest.raises(ConfigurationError, match=r"^victim id 'victim1' is given more than one"):
        _victim_ckpts(["victim1=a.ckpt", "victim1=b.ckpt"], RunConfig())
    out = tmp_path / "out"
    assert dispatch(["evaluate", "--victims", "victim1=a.ckpt", "victim1=b.ckpt",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error_class=ConfigurationError victim id 'victim1' ")
    assert err.count("error_class=") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.fixture
def lite21_ckpts(tmp_path):
    """A lite21 victim and adversary, plus an adversary with a victim reward."""
    paths = {}
    for i, (name, role, kind) in enumerate(
        (("victim", "victim", "victim"), ("adversary", "adversary", "adv_offroad"),
         ("odd_adversary", "adversary", "victim"))
    ):
        paths[name] = str(tmp_path / f"{name}.ckpt")
        params = init_params(lite21_config(), np.random.SeedSequence(i))
        save_checkpoint(paths[name], Checkpoint(role=role, reward_kind=kind, params=params))
    return paths


def _cfg(obs_mode):
    return parse_config({**MICRO_CONFIG, "obs_mode": obs_mode})


def test_victim_checkpoint_as_adversary_rejected(lite21_ckpts, tmp_path):
    victims = {"victim1": lite21_ckpts["victim"]}
    with pytest.raises(ConfigurationError, match="role 'victim', expected 'adversary'"):
        pipeline.retrain_victims(_cfg("lite21"), victims, lite21_ckpts["victim"], str(tmp_path / "r"))
    with pytest.raises(ConfigurationError, match="reward kind 'victim'"):
        pipeline.retrain_victims(
            _cfg("lite21"), victims, lite21_ckpts["odd_adversary"], str(tmp_path / "r")
        )
    with pytest.raises(ConfigurationError, match="role 'adversary', expected 'victim'"):
        pipeline.train_adversary(_cfg("lite21"), {"victim1": lite21_ckpts["adversary"]},
                                 str(tmp_path / "a"))
    assert not (tmp_path / "r").exists() and not (tmp_path / "a").exists()


DEMO_CONDITIONS = [("baseline", 100), ("attack_collision", 101), ("attack_offroad", 102),
                   ("retrained_collision", 103), ("retrained_offroad", 104)]


@pytest.mark.parametrize("kind", list(ADVERSARY_VARIANTS))
def test_adversary_variant_row_drives_every_use(kind, lite21_ckpts, tmp_path, capsys):
    variant = ADVERSARY_VARIANTS[kind]
    kinds = list(ADVERSARY_VARIANTS)
    # the config key and the --reward flag take exactly the registry's kinds
    assert parse_config({"adversary": {"reward": kind}}).adversary.reward == kind
    with pytest.raises(ValidationError, match=re.escape(f"adversary.reward: must be one of {kinds}")):
        parse_config({"adversary": {"reward": "victim"}})
    argv = ["train-adversary", "--victims", "v.ckpt", "--reward"]
    assert build_parser().parse_args(argv + [kind]).reward == kind
    assert dispatch(argv + ["victim"]) == 2
    choices = ", ".join(repr(k) for k in kinds)
    assert f"invalid choice: 'victim' (choose from {choices})" in capsys.readouterr().err
    assert reward_function(kind) is variant.reward
    # an adversary checkpoint loads with the row's kind and with no other
    paths = {}
    for label in (kind, "adv_ablation"):
        paths[label] = str(tmp_path / f"{label}.ckpt")
        params = init_params(lite21_config(), np.random.SeedSequence(1))
        save_checkpoint(paths[label], Checkpoint(role="adversary", reward_kind=label, params=params))
    assert pipeline.policy_from_checkpoint(paths[kind], "adversary", True, "adversary",
                                           "lite21")[0].reward_kind == kind
    with pytest.raises(ConfigurationError, match=re.escape(
            f"reward kind 'adv_ablation', expected one of {kinds}")):
        pipeline.policy_from_checkpoint(paths["adv_ablation"], "adversary", True, "adversary",
                                        "lite21")
    # the row's two conditions sit among the demo's, whose keys the reports carry
    assert list(pipeline.EVAL_CONDITION_KEYS.items()) == DEMO_CONDITIONS
    assert variant.attack in DEMO_CONDITIONS and variant.retrained in DEMO_CONDITIONS
    victims = {"victim1": lite21_ckpts["victim"]}
    cfg = parse_config({**MICRO_CONFIG, "eval": {"episodes": 1, "max_steps": 5}})
    for label, key in (variant.attack, ("evaluation", 150)):
        report = pipeline.evaluate_condition(cfg, label, victims, paths[kind], str(tmp_path / label))
        assert report.condition_key == key


def test_checkpoint_net_must_match_obs_mode(lite21_ckpts, tmp_path):
    victims = {"victim1": lite21_ckpts["victim"]}
    with pytest.raises(ConfigurationError, match="'name': 'lite21'.*obs_mode 'full84'.*'name': 'full84'"):
        pipeline.evaluate_condition(_cfg("full84"), "baseline", victims, None, str(tmp_path / "e"))
    with pytest.raises(ConfigurationError, match="obs_mode 'full84'"):
        pipeline.retrain_victims(_cfg("full84"), victims, lite21_ckpts["adversary"], str(tmp_path / "r"))


def test_mismatched_checkpoint_exits_1_from_cli(lite21_ckpts, tmp_path, capsys):
    path = tmp_path / "micro.yaml"
    path.write_text(yaml.safe_dump(MICRO_CONFIG))
    rc = dispatch(["retrain", "--config", str(path), "--victims", lite21_ckpts["victim"],
                   "--adversary", lite21_ckpts["victim"], "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "error_class=ConfigurationError" in capsys.readouterr().err


# Checkpoints named by ids that are not agents of the role they are loaded
# as: (command, victim id -> fixture checkpoint, adversary checkpoint, message).
WRONG_ROLE_CASES = [
    ("retrain", {"victim1": "victim", "adversary": "victim"}, "adversary",
     "checkpoint id 'adversary' is not a victim in scenario 't_intersection', "
     "whose victim agents are ['victim1', 'victim2']"),
    ("evaluate", {"adversary": "victim"}, None, "checkpoint id 'adversary' is not a victim"),
    ("evaluate", {"victim1": "victim"}, "victim", "role 'victim', expected 'adversary'"),
    ("train-adversary", {"victim1": "victim", "victim9": "victim"}, None,
     "checkpoint id 'victim9' is not a victim"),
    ("train-adversary", {"victim1": "adversary"}, None, "role 'adversary', expected 'victim'"),
    ("retrain", {"victim1": "adversary"}, "adversary", "role 'adversary', expected 'victim'"),
    ("evaluate", {"victim1": "adversary"}, None, "role 'adversary', expected 'victim'"),
]


def _run_pipeline(command, cfg, victims, adversary, out):
    if command == "train-adversary":
        return pipeline.train_adversary(cfg, victims, out)
    if command == "retrain":
        return pipeline.retrain_victims(cfg, victims, adversary, out)
    return pipeline.evaluate_condition(cfg, "baseline", victims, adversary, out)


WRONG_ROLE_IDS = ["retrain-adversary-as-victim", "evaluate-adversary-as-victim",
                  "evaluate-victim-ckpt-as-adversary", "train-adversary-victim9",
                  "train-adversary-adversary-ckpt", "retrain-adversary-ckpt",
                  "evaluate-adversary-ckpt"]


@pytest.mark.parametrize("command, victims, adversary, message", WRONG_ROLE_CASES, ids=WRONG_ROLE_IDS)
def test_checkpoint_ids_must_name_agents_of_their_role(command, victims, adversary, message,
                                                       lite21_ckpts, tmp_path):
    victims = {aid: lite21_ckpts[name] for aid, name in victims.items()}
    adversary = adversary and lite21_ckpts[adversary]
    with pytest.raises(ConfigurationError) as info:
        _run_pipeline(command, _cfg("lite21"), victims, adversary, str(tmp_path / "o"))
    assert message in str(info.value)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, victims, adversary, message", WRONG_ROLE_CASES, ids=WRONG_ROLE_IDS)
def test_checkpoint_role_mismatch_exits_1_from_cli(command, victims, adversary, message,
                                                   lite21_ckpts, tmp_path, capsys):
    config = tmp_path / "micro.yaml"
    config.write_text(yaml.safe_dump(MICRO_CONFIG))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "o"), "--victims"]
    argv += [f"{aid}={lite21_ckpts[name]}" for aid, name in victims.items()]
    if adversary:
        argv += ["--adversary", lite21_ckpts[adversary]]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert "error_class=ConfigurationError " in err and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train-adversary", "retrain", "evaluate"])
def test_scenario_without_adversary_rejected(command, lite21_ckpts, tmp_path):
    cfg = parse_config({**MICRO_CONFIG, "scenario": {"preset": "corridor", "max_steps": 40}})
    with pytest.raises(ConfigurationError, match="^scenario 'corridor' has no adversary agent$"):
        _run_pipeline(command, cfg, {"victim1": lite21_ckpts["victim"]},
                      lite21_ckpts["adversary"], str(tmp_path / "o"))
    assert not (tmp_path / "o").exists()


def test_unused_victim_checkpoint_is_a_manifest_warning(lite21_ckpts, tmp_path):
    # the default adversary.train_victims is [victim1]: victim2's checkpoint goes unused
    victims = {"victim1": lite21_ckpts["victim"], "victim2": lite21_ckpts["victim"]}
    pipeline.train_adversary(_cfg("lite21"), victims, str(tmp_path / "a"))
    manifest = json.loads((tmp_path / "a" / "phase_manifest.json").read_text())
    assert manifest["agents"] == ["victim1", "adversary"]
    assert manifest["config"]["warnings"] == [
        "checkpoint for 'victim2' is unused: it is not in adversary.train_victims ['victim1']"
    ]


@pytest.mark.parametrize("eval_steps", [40, 60])
def test_eval_horizon_other_than_training_is_a_manifest_warning(lite21_ckpts, tmp_path, eval_steps):
    cfg = parse_config({**MICRO_CONFIG, "eval": {"episodes": 1, "max_steps": eval_steps}})
    pipeline.evaluate_condition(cfg, "baseline", {"victim1": lite21_ckpts["victim"]}, None,
                                str(tmp_path / "e"))
    manifest = json.loads((tmp_path / "e" / "run_manifest.json").read_text())
    assert manifest["warnings"] == ([] if eval_steps == 40 else [
        "eval.max_steps 60 differs from scenario.max_steps 40, the length of training episodes"
    ])


def test_dumped_observation_is_episode0_first_observation(tmp_path):
    # with spawn jitter the first observation depends on the episode's world
    # seed; at full84 episodes 0 and 1 of this seed see different pixels
    cfg = parse_config({**MICRO_CONFIG, "obs_mode": "full84",
                        "scenario": {**MICRO_CONFIG["scenario"], "spawn_jitter": 1.5}})
    ckpt = str(tmp_path / "victim.ckpt")
    save_checkpoint(ckpt, Checkpoint(role="victim", reward_kind="victim",
                                     params=init_params(full84_config(), 0)))
    out = tmp_path / "e"
    pipeline.evaluate_condition(cfg, "baseline", {"victim1": ckpt}, None, str(out), dump_obs=True)

    policy, _ = pipeline.policy_from_checkpoint(ckpt, "victim1", True, "victim", "full84")
    scenario = build_scenario(cfg).subset({"victim1": policy})
    dumps = []
    for episode in (0, 1):
        trajectories, _ = run_episode(
            scenario, {"victim1": policy}, cfg.reward, cfg.eval.max_steps, SeedTree(cfg.seed),
            (pipeline.EVAL_CONDITION_KEYS["baseline"], episode), collect={"victim1"},
        )
        path = tmp_path / f"episode{episode}.ppm"
        write_ppm(trajectories["victim1"].obs[0], path)
        dumps.append(path.read_bytes())
    assert (out / "obs_victim1.ppm").read_bytes() == dumps[0]
    assert dumps[1] != dumps[0]
