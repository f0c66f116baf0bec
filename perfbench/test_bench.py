"""Self-checks of the benchmark: tracer counts, digest neutrality of tracing,
BENCHMARK.json against the code, and failure in a checkout without the program.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from tracer import summarise
from workloads import WORKLOADS, digest, prepare

run.import_program()

TINY_EPISODES = {"train_lite21": 2, "eval_full84": 1}


@pytest.mark.parametrize("name", sorted(TINY_EPISODES))
def test_tracing_counts_every_step_and_keeps_the_digest(name, tmp_path):
    workload = dataclasses.replace(WORKLOADS[name], episodes=TINY_EPISODES[name])
    prepared = prepare(workload, 3, str(tmp_path / "inputs"))
    plain = run.Invocation(prepared, str(tmp_path / "plain"), traced=False)
    traced = run.Invocation(prepared, str(tmp_path / "traced"), traced=True)

    assert digest(prepared, traced.result, str(tmp_path / "traced")) == digest(
        prepared, plain.result, str(tmp_path / "plain"))
    metrics = summarise([traced.probe])
    assert metrics["orchestrator.agent_steps"] == plain.probe.counts["orchestrator.agent_steps"] > 0
    assert metrics["raster.render.calls"] == metrics["orchestrator.agent_steps"]
    assert metrics["net.forward.calls"] == metrics["orchestrator.agent_steps"]
    if workload.kind == "train":
        assert metrics["ppo.grad_steps"] == metrics["net.adam_update.calls"] > 0
    else:
        assert metrics["ppo.update_policy.calls"] == 0
        assert metrics["checkpoint.load_checkpoint.calls"] == 3


def test_setup_only_invocation_stops_at_first_episode(tmp_path):
    prepared = prepare(WORKLOADS["train_lite21"], 0, str(tmp_path / "inputs"))
    inv = run.Invocation(prepared, str(tmp_path / "out"), traced=False, setup_only=True)
    assert inv.result is None and 0 < inv.setup_s
    assert inv.probe.counts["orchestrator.agent_steps"] == 0


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.metric_specs(trace=True)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_lite21", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
