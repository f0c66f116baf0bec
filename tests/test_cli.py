import json
import os

import pytest
import yaml

from advdrive.checkpoint import load_checkpoint
from advdrive.cli import dispatch
from advdrive.config import build_scenario, parse_config
from advdrive.metrics import MetricsReport, VictimMetrics
from advdrive.orchestrator import run_episode
from advdrive.pipeline import fresh_policy
from advdrive.rewards import RewardParams
from advdrive.schema import write_record
from advdrive.seeding import SeedTree

MICRO_CONFIG = {
    "obs_mode": "lite21",
    "seed": 5,
    "scenario": {"preset": "t_intersection", "max_steps": 40},
    "ppo": {"minibatch": 16, "epochs_per_batch": 2, "train_batch": 32},
    "phases": {
        "baseline_episodes": 2,
        "baseline_step_cap": None,
        "adversary_episodes": 2,
        "adversary_step_cap": None,
        "retrain_episodes": 2,
        "retrain_step_cap": None,
    },
    "eval": {"episodes": 2, "max_steps": 40},
}


@pytest.fixture
def micro_config(tmp_path):
    path = tmp_path / "micro.yaml"
    path.write_text(yaml.safe_dump(MICRO_CONFIG))
    return str(path)


def test_usage_errors_exit_2(capsys):
    assert dispatch([]) == 2
    assert dispatch(["no-such-command"]) == 2
    assert dispatch(["evaluate"]) == 2  # --victims required
    capsys.readouterr()


# Flags a command does not act on: plot reads only the scenario and the output
# directory, and only evaluate and demo take --workers.
REFUSED_FLAGS = [
    (["plot", "episode0.json"], flag) for flag in
    (["--seed", "1"], ["--workers", "1"], ["--episodes", "1"], ["--steps", "1"],
     ["--obs-mode", "lite21"])
] + [
    (command, ["--workers", "1"]) for command in
    (["train-baseline"], ["train-adversary", "--victims", "v.ckpt"],
     ["retrain", "--victims", "v.ckpt", "--adversary", "a.ckpt"])
]


@pytest.mark.parametrize("command, flag", REFUSED_FLAGS,
                         ids=[f"{c[0]}{f[0]}" for c, f in REFUSED_FLAGS])
def test_flags_a_command_ignores_are_usage_errors(command, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert dispatch(command + flag + ["--out", "o"]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()


def test_runtime_error_exits_1_with_error_class(tmp_path, capsys):
    rc = dispatch(
        ["evaluate", "--victims", "victim1=/nonexistent.ckpt", "victim2=/n2.ckpt",
         "--out", str(tmp_path / "o")]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "error_class=CheckpointError" in captured.err


def test_full_cli_flow(tmp_path, micro_config, capsys):
    base_out = tmp_path / "baseline"
    rc = dispatch(["train-baseline", "--config", micro_config, "--out", str(base_out)])
    assert rc == 0
    v1 = base_out / "checkpoints" / "victim1.ckpt"
    v2 = base_out / "checkpoints" / "victim2.ckpt"
    assert v1.exists() and v2.exists()
    assert (base_out / "run_manifest.json").exists()
    assert (base_out / "phase_manifest.json").exists()

    adv_out = tmp_path / "adv"
    rc = dispatch(
        ["train-adversary", "--config", micro_config, "--reward", "adv_offroad",
         "--victims", f"victim1={v1}", f"victim2={v2}", "--out", str(adv_out)]
    )
    assert rc == 0
    adv_ckpt = adv_out / "checkpoints" / "adversary.ckpt"
    assert adv_ckpt.exists()
    # the checkpoint is labeled with its reward kind, and the manifest echoes the flag
    assert load_checkpoint(adv_ckpt).reward_kind == "adv_offroad"
    manifest = json.loads((adv_out / "run_manifest.json").read_text())
    assert manifest["command"] == "train-adversary --reward adv_offroad"
    assert manifest["config"]["adversary"]["reward"] == "adv_offroad"

    retrain_out = tmp_path / "retrain"
    rc = dispatch(
        ["retrain", "--config", micro_config,
         "--victims", f"victim1={v1}", f"victim2={v2}",
         "--adversary", str(adv_ckpt), "--out", str(retrain_out)]
    )
    assert rc == 0
    assert (retrain_out / "checkpoints" / "victim1.ckpt").exists()

    eval_out = tmp_path / "eval_base"
    rc = dispatch(
        ["evaluate", "--config", micro_config, "--label", "baseline",
         "--victims", f"victim1={v1}", f"victim2={v2}", "--out", str(eval_out)]
    )
    assert rc == 0
    assert (eval_out / "report.json").exists()
    assert (eval_out / "report.txt").exists()
    assert (eval_out / "episode0.json").exists()
    assert (eval_out / "trajectories.svg").exists()
    assert (eval_out / "trajectories.csv").exists()

    eval_attack = tmp_path / "eval_attack"
    rc = dispatch(
        ["evaluate", "--config", micro_config, "--label", "attack_offroad",
         "--victims", f"victim1={v1}", f"victim2={v2}",
         "--adversary", str(adv_ckpt), "--out", str(eval_attack), "--dump-obs"]
    )
    assert rc == 0
    assert (eval_attack / "obs_victim1.ppm").exists()
    assert (eval_attack / "obs_adversary.ppm").exists()

    capsys.readouterr()
    cmp_out = tmp_path / "cmp"
    rc = dispatch(
        ["compare", str(eval_out / "report.json"), str(eval_attack / "report.json"),
         "--out", str(cmp_out)]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "collision with cars" in captured.out
    assert (cmp_out / "compare.json").exists()
    assert (cmp_out / "compare.txt").exists()

    plot_out = tmp_path / "plot"
    rc = dispatch(
        ["plot", str(eval_attack / "episode0.json"), "--config", micro_config,
         "--out", str(plot_out)]
    )
    assert rc == 0
    assert (plot_out / "trajectories.svg").exists()


def test_demo_micro(tmp_path, micro_config, capsys):
    out = tmp_path / "demo"
    rc = dispatch(["demo", "--config", micro_config, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "composite error" in captured.out
    assert (out / "compare.txt").exists()
    assert (out / "compare.json").exists()
    assert (out / "run_manifest.json").exists()
    for cond in (
        "baseline", "attack_collision", "attack_offroad",
        "retrained_collision", "retrained_offroad",
    ):
        assert (out / "eval" / cond / "report.json").exists()
        assert (out / "eval" / cond / "trajectories.svg").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "demo"
    assert manifest["config"]["ppo"]["lr"] == 0.0006
    # every manifest of a step with an adversary echoes the reward it ran with
    for kind in ("adv_collision", "adv_offroad"):
        condition = kind.removeprefix("adv_")
        for name in (
            f"adversary_{kind}/run_manifest.json", f"adversary_{kind}/phase_manifest.json",
            f"retrain_{kind}/run_manifest.json", f"retrain_{kind}/phase_manifest.json",
            f"eval/attack_{condition}/run_manifest.json",
            f"eval/retrained_{condition}/run_manifest.json",
        ):
            echo = json.loads((out / name).read_text())["config"]
            assert echo["adversary"]["reward"] == kind, name


@pytest.mark.parametrize("command", ["compare", "plot"])
@pytest.mark.parametrize("content, message", [
    (None, "cannot read {what} '{path}': "),
    ("{not json", "cannot read {what} '{path}': "),
    ('{"ticks": 3}', "{what} '{path}': {first}"),
], ids=["missing", "not_json", "wrong_keys"])
def test_bad_input_file_exits_1_with_error_class(tmp_path, capsys, command, content, message):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "out"
    inputs = [str(path)] * (2 if command == "compare" else 1)  # compare needs two reports
    assert dispatch([command, *inputs, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    what, first = (("metrics report", "ticks: unknown key") if command == "compare"
                   else ("episode log", "agent_ids: missing key"))
    assert err.startswith("error_class=ContractViolationError " + message.format(
        what=what, path=path, first=first))
    assert err.count("error_class=") == 1 and "Traceback" not in err
    assert not out.exists()


def saved_episode_log(path, preset, agent_ids=None):
    """A 3-tick episode log of the agents ``agent_ids`` (all by default) of
    the ``preset`` scenario, as ``evaluate`` writes ``episode0.json``."""
    cfg = parse_config({"obs_mode": "lite21", "scenario": {"preset": preset, "max_steps": 3}})
    full = build_scenario(cfg)
    scenario = full.subset(agent_ids or full.agent_ids())
    policies = {spec.agent_id: fresh_policy(cfg, spec) for spec in scenario.agents}
    _, log = run_episode(scenario, policies, RewardParams(), 3, SeedTree(0), (0, 0))
    write_record(path, log)
    return path


@pytest.mark.parametrize("preset, agent_ids, refused", [
    ("corridor", None, True),
    ("t_intersection", ["victim1"], True),
    ("t_intersection", ["victim1", "victim2"], False),  # a condition without the adversary
    ("t_intersection", None, False),
])
def test_plot_refuses_a_log_of_other_agents(tmp_path, capsys, preset, agent_ids, refused):
    log = saved_episode_log(tmp_path / "episode0.json", preset, agent_ids)
    out = tmp_path / "out"
    # the default config's scenario, the T-intersection
    rc = dispatch(["plot", str(log), "--out", str(out)])
    if not refused:
        assert rc == 0 and (out / "trajectories.svg").exists()
        return
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error_class=ConfigurationError episode log '{log}' has agents "
        f"{agent_ids or ['victim1']}, but scenario 't_intersection' has "
        "['victim1', 'victim2', 'adversary'] (victims ['victim1', 'victim2'])\n")
    assert not out.exists()


def saved_report(path, label="baseline"):
    """A report of two victims without errors, saved at ``path``."""
    entry = VictimMetrics(episodes=2, mean_cv_rate=0.0, mean_co_rate=0.0, mean_os_rate=0.0,
                          mean_ttfc=None, episodes_with_collision=0)
    MetricsReport(label=label, episodes=2, max_steps=40, action_mode="sample",
                  master_seed=5, condition_key=0, fingerprint="f" * 64,
                  victims={"victim1": entry, "victim2": entry}, per_episode={}).save(path)
    return path


def test_compare_names_victim_entry_without_a_metric(tmp_path, capsys):
    good = saved_report(tmp_path / "good.json")
    data = json.loads(good.read_text())
    del data["victims"]["victim1"]["mean_cv_rate"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert dispatch(["compare", str(good), str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error_class=ContractViolationError metrics report '{bad}': "
                          "victims.victim1.mean_cv_rate: missing key")
    assert err.count("error_class=") == 1 and "Traceback" not in err
    assert not out.exists()


def test_compare_of_reports_with_one_label_exits_1(tmp_path, capsys):
    report = saved_report(tmp_path / "report.json", label="evaluation")
    out = tmp_path / "out"
    assert dispatch(["compare", str(report), str(report), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error_class=ContractViolationError two reports are labelled "
                            "'evaluation'; each compared report needs its own label\n")
    assert not out.exists()


def test_out_root_env_var(tmp_path, micro_config, monkeypatch, capsys):
    monkeypatch.setenv("ADVDRIVE_OUT_ROOT", str(tmp_path / "root"))
    rc = dispatch(["train-baseline", "--config", micro_config, "--out", "rel_dir"])
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "root" / "rel_dir" / "checkpoints" / "victim1.ckpt").exists()


def test_seed_flag_overrides_config(tmp_path, micro_config, capsys):
    outs = []
    for seed, name in ((9, "a"), (9, "b")):
        out = tmp_path / name
        rc = dispatch(
            ["train-baseline", "--config", micro_config, "--seed", str(seed),
             "--episodes", "2", "--out", str(out)]
        )
        assert rc == 0
        outs.append((out / "checkpoints" / "victim1.ckpt").read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]
