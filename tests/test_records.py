"""The run records ``report.json`` and ``episode0.json``, read back through
the one record parser (``schema.read_record``): every malformed record fails
with ``ContractViolationError`` naming the file and the dotted key, and a
load followed by a write gives back the same bytes."""
import dataclasses
import json

import numpy as np
import pytest

from test_cli import MICRO_CONFIG

from advdrive import pipeline
from advdrive.checkpoint import save_checkpoint
from advdrive.cli import dispatch
from advdrive.config import build_scenario, parse_config
from advdrive.errors import ContractViolationError
from advdrive.metrics import MetricsReport
from advdrive.orchestrator import EpisodeLog, Termination
from advdrive.schema import write_record

# file -> (record, its name in errors, the JSON indent it is written with)
RECORDS = {"report.json": (MetricsReport, "metrics report", 1),
           "episode0.json": (EpisodeLog, "episode log", None)}


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    """The directory of a micro evaluation of fresh lite21 victims."""
    root = tmp_path_factory.mktemp("records")
    cfg = parse_config(MICRO_CONFIG)
    victims = {}
    for spec in build_scenario(cfg).victims():
        victims[spec.agent_id] = str(root / f"{spec.agent_id}.ckpt")
        save_checkpoint(victims[spec.agent_id], pipeline.fresh_policy(cfg, spec))
    pipeline.evaluate_condition(cfg, "baseline", victims, None, str(root / "eval"))
    return root / "eval"


def _two_d(d):
    d["positions"] = [tick[0] for tick in d["positions"]]


def _extend_flags(d):
    for values in d["flags"]["victim1"].values():
        values.extend([True] * 60)


# (file, edit of its parsed JSON, the message after the file is named)
CASES = {
    "report_nested_missing": ("report.json", lambda d: d["per_episode"]["victim1"][0].pop("cv_rate"),
                              "per_episode.victim1[0].cv_rate: missing key"),
    "report_victim_missing": ("report.json", lambda d: d["victims"]["victim2"].pop("mean_ttfc"),
                              "victims.victim2.mean_ttfc: missing key"),
    "report_wrong_type": ("report.json", lambda d: d["victims"]["victim1"].update(episodes="2"),
                          "victims.victim1.episodes: expected a number, got '2'"),
    "report_not_a_list": ("report.json", lambda d: d["per_episode"].update(victim2={}),
                          "per_episode.victim2: expected a list, got dict"),
    "report_unknown": ("report.json", lambda d: d["victims"]["victim1"].update(goal_rate=1.0),
                       "victims.victim1.goal_rate: unknown key"),
    "report_top_missing": ("report.json", lambda d: d.pop("fingerprint"),
                           "fingerprint: missing key"),
    "log_2d_positions": ("episode0.json", _two_d,
                         "positions: expected shape (40, 2, 4) (ticks, agents, 4), got (40, 4)"),
    "log_empty_positions": ("episode0.json", lambda d: d.update(positions=[]),
                            "positions: expected shape (40, 2, 4) (ticks, agents, 4), got (0,)"),
    "log_ragged_positions": ("episode0.json", lambda d: d["positions"][3].pop(),
                             "positions: expected nested lists of numbers"),
    "log_termination_not_mapping": ("episode0.json", lambda d: d.update(termination=["goal"]),
                                    "termination: expected a mapping, got list"),
    "log_termination_missing": ("episode0.json", lambda d: d["termination"]["victim1"].pop("reason"),
                                "termination.victim1.reason: missing key"),
    "log_flag_wrong_type": ("episode0.json", lambda d: d["flags"]["victim2"]["cv"].__setitem__(5, 0),
                            "flags.victim2.cv[5]: expected a boolean, got int"),
    "log_event_missing": ("episode0.json", lambda d: d["events"].append({"tick": 3}),
                          "events[0].agent_id: missing key"),
    "log_event_agent": ("episode0.json",
                        lambda d: d["events"].append({"tick": 3, "agent_id": "ghost", "flag": "cv"}),
                        "events[0].agent_id: 'ghost' is not in agent_ids"),
    "log_flags_ghost": ("episode0.json", lambda d: d["flags"].update(ghost=d["flags"].pop("victim2")),
                        "flags.ghost: 'ghost' is not in agent_ids"),
    "log_flags_agent_missing": ("episode0.json", lambda d: d["flags"].pop("victim2"),
                                "flags.victim2: missing key"),
    "log_flag_unknown": ("episode0.json", lambda d: d["flags"]["victim1"].update(goal=[]),
                         "flags.victim1.goal: 'goal' is not a flag name"),
    "log_flag_missing": ("episode0.json", lambda d: d["flags"]["victim1"].pop("iol"),
                         "flags.victim1.iol: missing key"),
    "log_termination_ghost": ("episode0.json",
                              lambda d: d["termination"].update(ghost=d["termination"]["victim1"]),
                              "termination.ghost: 'ghost' is not in agent_ids"),
    "log_termination_agent_missing": ("episode0.json", lambda d: d["termination"].pop("victim1"),
                                      "termination.victim1: missing key"),
    "log_flags_past_ticks": ("episode0.json", _extend_flags,
                             "flags.victim1.cv: expected 40 entries (one per live tick), got 100"),
    "log_flag_short": ("episode0.json", lambda d: d["flags"]["victim2"]["iol"].pop(),
                       "flags.victim2.iol: expected 40 entries (one per live tick), got 39"),
    "log_flags_past_termination": ("episode0.json",
                                   lambda d: d["termination"].update(victim1={"tick": 10,
                                                                             "reason": "goal"}),
                                   "flags.victim1.cv: expected 10 entries (one per live tick), "
                                   "got 40"),
    "log_termination_past_ticks": ("episode0.json",
                                   lambda d: d["termination"].update(victim2={"tick": 41,
                                                                             "reason": "goal"}),
                                   "termination.victim2.tick: expected a tick in 1..40, got 41"),
    "log_event_past_ticks": ("episode0.json",
                             lambda d: d["events"].append({"tick": 41, "agent_id": "victim1",
                                                           "flag": "cv"}),
                             "events[0].tick: 'victim1' raised no cv at tick 41 (live ticks 1..40)"),
    "log_event_flag_lowered": ("episode0.json",
                               lambda d: d["events"].append({"tick": 3, "agent_id": "victim1",
                                                             "flag": "cv"}),
                               "events[0].tick: 'victim1' raised no cv at tick 3 (live ticks 1..40)"),
    "log_event_flag_unknown": ("episode0.json",
                               lambda d: d["events"].append({"tick": 3, "agent_id": "victim1",
                                                             "flag": "goal"}),
                               "events[0].flag: 'goal' is not a flag name"),
    "log_unknown": ("episode0.json", lambda d: d.update(seed=1), "seed: unknown key"),
    "log_empty": ("episode0.json", lambda d: d.clear(), "agent_ids: missing key"),
}


@pytest.mark.parametrize("name, edit, message", CASES.values(), ids=CASES.keys())
def test_malformed_record_names_file_and_key(micro_run, tmp_path, name, edit, message):
    data = json.loads((micro_run / name).read_text())
    assert data.get("events", []) == []  # the cases above assume an episode without events
    edit(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    cls, what, _ = RECORDS[name]
    with pytest.raises(ContractViolationError) as info:
        cls.load(path)
    assert str(info.value) == f"{what} '{path}': {message}"


@pytest.mark.parametrize("name", RECORDS)
def test_load_then_write_gives_identical_bytes(micro_run, tmp_path, name):
    cls, _, indent = RECORDS[name]
    write_record(tmp_path / name, cls.load(micro_run / name), indent)
    assert (tmp_path / name).read_bytes() == (micro_run / name).read_bytes()


def test_report_with_empty_label_round_trips(micro_run, tmp_path):
    # evaluate --label "" writes such a report; compare must read it back
    report = dataclasses.replace(MetricsReport.load(micro_run / "report.json"), label="")
    report.save(tmp_path / "report.json")
    assert MetricsReport.load(tmp_path / "report.json") == report


def test_log_without_ticks_round_trips(tmp_path):
    log = EpisodeLog(agent_ids=["victim1"], dt=0.05, seed_key=[0, 0], ticks=0,
                     positions=np.zeros((0, 1, 4)),
                     flags={"victim1": {"cv": [], "co": [], "io": [], "iol": []}}, events=[],
                     termination={"victim1": Termination(None, None)})
    write_record(tmp_path / "a.json", log)
    assert (tmp_path / "a.json").read_text().count('"positions": []') == 1
    loaded = EpisodeLog.load(tmp_path / "a.json")
    assert loaded.positions.shape == (0, 1, 4)
    write_record(tmp_path / "b.json", loaded)
    assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()


@pytest.mark.parametrize("case", ["log_2d_positions", "log_termination_not_mapping",
                                  "report_nested_missing"])
def test_cli_names_file_and_key(micro_run, tmp_path, capsys, case):
    name, edit, message = CASES[case]
    data = json.loads((micro_run / name).read_text())
    edit(data)
    bad = tmp_path / name
    bad.write_text(json.dumps(data))
    out = tmp_path / "out"
    if name == "report.json":
        argv = ["compare", str(micro_run / name), str(bad), "--out", str(out)]
    else:
        argv = ["plot", str(bad), "--out", str(out)]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    _, what, _ = RECORDS[name]
    assert err == f"error_class=ContractViolationError {what} '{bad}': {message}\n"
    assert not out.exists()
