import dataclasses
import io
import json
import os
import shutil
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import straight_scenario, tiny_net_config

from advdrive import metrics, net, orchestrator, pipeline
from advdrive.checkpoint import Checkpoint, load_checkpoint, params_checksum, save_checkpoint
from advdrive.config import build_scenario, parse_config
from advdrive.errors import (
    ChecksumMismatchError,
    ConfigurationError,
    ContractViolationError,
    FreezeViolationError,
    NonFiniteError,
    PhaseAbortedError,
)
from advdrive.orchestrator import (
    EpisodeLog,
    run_episode,
    run_training_phase,
)
from advdrive.ppo import PpoHyper, update_policy
from advdrive.raster import render
from advdrive.rewards import RewardParams
from advdrive.scenario import ScenarioSettings, t_intersection_scenario
from advdrive.schema import write_record
from advdrive.seeding import KEY_INIT, SeedTree
from advdrive.world import init_world


def make_policy(spec, seed=None, reward_kind=None, config=None):
    return Checkpoint(
        role=spec.role,
        reward_kind=reward_kind or spec.reward_kind,
        params=net.init_params(config or tiny_net_config(),
                               spec.seed_index if seed is None else seed),
    )


def before_episode(monkeypatch, hook):
    """Calls ``hook(ep, policies)`` before each training episode ``ep`` runs,
    through a monkeypatched ``orchestrator.run_episode``: the hook sees the
    policies and the files as the episodes before ``ep`` left them."""

    def hooked(scenario, policies, *args, key_prefix, **kwargs):
        hook(key_prefix[-1], policies)
        return run_episode(scenario, policies, *args, key_prefix=key_prefix, **kwargs)

    monkeypatch.setattr(orchestrator, "run_episode", hooked)


def head_on_scenario(adversary_reward="adv_collision"):
    return straight_scenario(
        route_length=40,
        max_steps=600,
        agents=[
            {"id": "a", "spawn": (0.0, 0.0), "goal": (40.0, 0.0)},
            {
                "id": "b",
                "spawn": (10.0, 0.0),
                "goal": (-30.0, 0.0),
                "route": [(10.0, 0.0), (-30.0, 0.0)],
                "role": "adversary",
                "reward_kind": adversary_reward,
            },
        ],
    )


def trajectories_equal(t1, t2):
    if len(t1) != len(t2) or t1.actions != t2.actions:
        return False
    return all(np.array_equal(a, b) for a, b in zip(t1.obs, t2.obs))


class TestRunEpisode:
    def test_fixed_seed_reproduces_trajectories(self):
        sc = t_intersection_scenario(ScenarioSettings(max_steps=80))
        pols = {s.agent_id: make_policy(s) for s in sc.agents}
        runs = []
        for _ in range(2):
            trajs, log = run_episode(
                sc, pols, RewardParams(), 80, SeedTree(5), (1, 0),
                collect=set(sc.agent_ids()),
            )
            runs.append((trajs, log))
        for aid in sc.agent_ids():
            assert trajectories_equal(runs[0][0][aid], runs[1][0][aid])
            assert runs[0][0][aid].rewards == runs[1][0][aid].rewards
        assert np.array_equal(runs[0][1].positions, runs[1][1].positions)

    def test_different_episode_keys_differ(self):
        sc = t_intersection_scenario(ScenarioSettings(max_steps=60))
        pols = {s.agent_id: make_policy(s) for s in sc.agents}
        t0, _ = run_episode(sc, pols, RewardParams(), 60, SeedTree(5), (1, 0), collect={"victim1"})
        t1, _ = run_episode(sc, pols, RewardParams(), 60, SeedTree(5), (1, 1), collect={"victim1"})
        assert t0["victim1"].actions != t1["victim1"].actions

    def test_collision_ends_agent_transitions(self):
        sc = head_on_scenario()
        pols = {s.agent_id: make_policy(s) for s in sc.agents}
        trajs, log = run_episode(
            sc, pols, RewardParams(), 600, SeedTree(0), (1, 0), collect={"a", "b"}
        )
        assert log.termination["a"].reason == "collision"
        k = log.termination["a"].tick
        assert k is not None and k < 600
        assert len(trajs["a"]) == k  # nothing appended after the collision tick
        assert len(log.flags["a"]["cv"]) == k

    def test_reward_streams_differ_by_kind_on_identical_flags(self):
        results = {}
        for kind in ("adv_collision", "adv_offroad"):
            sc = head_on_scenario(adversary_reward=kind)
            pols = {s.agent_id: make_policy(s) for s in sc.agents}
            trajs, log = run_episode(
                sc, pols, RewardParams(), 600, SeedTree(0), (1, 0), collect={"a", "b"}
            )
            results[kind] = (trajs, log)
        t_coll, log_coll = results["adv_collision"]
        t_off, log_off = results["adv_offroad"]
        # identical dynamics: rewards never feed back into the episode
        assert np.array_equal(log_coll.positions, log_off.positions)
        assert trajectories_equal(t_coll["a"], t_off["a"])
        # the adversary's final (colliding) reward differs by exactly +5 per collision flag
        diff = np.array(t_coll["b"].rewards) - np.array(t_off["b"].rewards)
        cv = np.array(log_coll.flags["b"]["cv"], dtype=float)
        co = np.array(log_coll.flags["b"]["co"], dtype=float)
        assert np.allclose(diff, 5.0 * (cv + co), atol=1e-12)
        assert diff[-1] == pytest.approx(5.0)  # the head-on crash

    def test_goal_termination(self):
        sc = straight_scenario(route_length=3.0, max_steps=500)
        pols = {"victim1": make_policy(sc.agents[0])}
        trajs, log = run_episode(
            sc, pols, RewardParams(), 500, SeedTree(0), (1, 0), collect={"victim1"}
        )
        assert log.termination["victim1"].reason == "goal"
        # the trajectory holds the agent's live ticks and ends with its episode
        assert len(trajs["victim1"]) == log.termination["victim1"].tick < 500

    def test_same_tick_actions_independent_of_other_policies(self):
        sc = head_on_scenario()
        pols1 = {s.agent_id: make_policy(s) for s in sc.agents}
        pols2 = {s.agent_id: make_policy(s) for s in sc.agents}
        pols2["b"] = make_policy(sc.agents[1], seed=99)  # different adversary network
        t1, _ = run_episode(sc, pols1, RewardParams(), 1, SeedTree(3), (1, 0), collect={"a"})
        t2, _ = run_episode(sc, pols2, RewardParams(), 1, SeedTree(3), (1, 0), collect={"a"})
        assert t1["a"].actions == t2["a"].actions  # first tick sees the same pre-step world

    def test_value_head_never_leaks_into_behavior(self):
        sc = head_on_scenario()
        pols1 = {s.agent_id: make_policy(s) for s in sc.agents}
        pols2 = {s.agent_id: make_policy(s) for s in sc.agents}
        pols2["b"].params = pols2["b"].params.copy()
        pols2["b"].params.arrays["value/w"] += 3.0
        pols2["b"].params.arrays["value/b"] += 10.0
        t1, log1 = run_episode(sc, pols1, RewardParams(), 200, SeedTree(4), (1, 0), collect={"a", "b"})
        t2, log2 = run_episode(sc, pols2, RewardParams(), 200, SeedTree(4), (1, 0), collect={"a", "b"})
        # actions and world evolution identical; only stored value estimates move
        assert t1["b"].actions == t2["b"].actions
        assert trajectories_equal(t1["a"], t2["a"])
        assert np.array_equal(log1.positions, log2.positions)
        assert t1["b"].values_old != t2["b"].values_old

    def test_greedy_mode_needs_no_sampling(self):
        sc = straight_scenario(route_length=20.0, max_steps=30)
        pols = {"victim1": make_policy(sc.agents[0])}
        a, _ = run_episode(sc, pols, RewardParams(), 30, SeedTree(0), (1, 0),
                           collect={"victim1"}, action_mode="greedy")
        b, _ = run_episode(sc, pols, RewardParams(), 30, SeedTree(1), (1, 0),
                           collect={"victim1"}, action_mode="greedy")
        assert a["victim1"].actions == b["victim1"].actions  # seed-independent

    def test_trajectories_store_core_resolution_observations(self, monkeypatch):
        sc = straight_scenario(route_length=20.0, max_steps=12)
        pol = make_policy(sc.agents[0])
        pol.params = net.init_params(net.NETS["lite21"], 0)
        rendered = []

        def recorder(world, agent_id, res):
            obs = render(world, agent_id, res)
            rendered.append(obs.pixels)
            return obs

        monkeypatch.setattr(orchestrator, "render", recorder)
        trajs, _ = run_episode(
            sc, {"victim1": pol}, RewardParams(), 12, SeedTree(0), (1, 0), collect={"victim1"}
        )
        stored = trajs["victim1"].obs
        assert len(stored) == len(rendered) == 12
        for obs, pixels in zip(stored, rendered):
            # rendered at the lite21 net's core resolution
            assert obs is pixels  # stored as rendered
            assert obs.shape == (21, 21, 3) and obs.dtype == np.uint8

    def test_resolution_must_divide_the_frame(self):
        sc = straight_scenario(route_length=20.0, max_steps=4)
        world = init_world(sc, 0)
        for res in (16, 0):
            with pytest.raises(ContractViolationError, match=rf"cannot render at {res}x{res}"):
                render(world, "victim1", res)
        pol = make_policy(sc.agents[0])
        pol.params = net.init_params(dataclasses.replace(tiny_net_config(), decimation=5), 0)
        assert pol.params.config.core_res() == 16
        with pytest.raises(ContractViolationError, match=r"cannot render at 16x16"):
            run_episode(sc, {"victim1": pol}, RewardParams(), 4, SeedTree(0), (1, 0))

    def test_episode_log_round_trip(self, tmp_path):
        sc = head_on_scenario()
        pols = {s.agent_id: make_policy(s) for s in sc.agents}
        _, log = run_episode(sc, pols, RewardParams(), 600, SeedTree(0), (1, 0))  # a crash
        path = tmp_path / "episode0.json"
        write_record(path, log)
        restored = EpisodeLog.load(path)
        assert restored.ticks == log.ticks
        assert np.array_equal(restored.positions, log.positions)
        assert restored.flags == log.flags
        assert restored.events == log.events and restored.events
        assert restored.termination == log.termination


FAST_HYPER = PpoHyper(minibatch=16, epochs_per_batch=2, train_batch=32)


def phase_scenario():
    return straight_scenario(
        route_length=40,
        max_steps=40,
        agents=[
            {"id": "victim1", "spawn": (0.0, 0.0), "goal": (40.0, 0.0)},
            {
                "id": "adversary",
                "spawn": (12.0, 0.0),
                "goal": (-30.0, 0.0),
                "route": [(12.0, 0.0), (-30.0, 0.0)],
                "role": "adversary",
                "reward_kind": "adv_collision",
            },
        ],
    )


class TestTrainingPhase:
    def test_frozen_checksums_hold_and_trainable_move(self, tmp_path):
        sc = phase_scenario()
        victim = make_policy(sc.agents[0])
        adversary = make_policy(sc.agents[1])
        victim_before = params_checksum(victim.params)
        adversary_before = params_checksum(adversary.params)
        result = run_training_phase(
            phase_name="adv_test",
            phase_key=2,
            scenario=sc,
            policies={"victim1": victim, "adversary": adversary},
            hyper=FAST_HYPER,
            reward_params=RewardParams(),
            episodes=3,
            step_cap=None,
            seed_tree=SeedTree(1),
            out_dir=str(tmp_path / "phase"),
            frozen=("victim1",),
        )
        assert params_checksum(victim.params) == victim_before
        assert params_checksum(adversary.params) != adversary_before
        assert result.episodes_run == 3
        manifest = json.loads((tmp_path / "phase" / "phase_manifest.json").read_text())
        assert manifest["status"] == "completed"
        assert manifest["frozen"] == ["victim1"]
        assert manifest["frozen_checksums"]["victim1"] == victim_before
        ckpt = load_checkpoint(result.checkpoint_paths["adversary"])
        assert ckpt.reward_kind == "adv_collision"

    def test_freeze_violation_aborts(self, tmp_path, monkeypatch):
        sc = phase_scenario()
        victim = make_policy(sc.agents[0])
        adversary = make_policy(sc.agents[1])

        def corrupt(ep, policies):
            if ep > 0:
                policies["victim1"].params.arrays["dense/w"][0, 0] += 1.0

        before_episode(monkeypatch, corrupt)
        with pytest.raises(FreezeViolationError):
            run_training_phase(
                phase_name="adv_test",
                phase_key=2,
                scenario=sc,
                policies={"victim1": victim, "adversary": adversary},
                hyper=FAST_HYPER,
                reward_params=RewardParams(),
                episodes=3,
                step_cap=None,
                seed_tree=SeedTree(1),
                out_dir=str(tmp_path / "phase"),
                frozen=("victim1",),
            )

    def test_freeze_violation_leaves_the_log_written_so_far(self, tmp_path, monkeypatch):
        sc = phase_scenario()
        out_dir = tmp_path / "phase"
        log_path = out_dir / "train_log.jsonl"
        flushed = []

        def run(episodes=4, out=out_dir):
            policies = {"victim1": make_policy(sc.agents[0]),
                        "adversary": make_policy(sc.agents[1])}
            run_training_phase(
                phase_name="adv_test", phase_key=2, scenario=sc, policies=policies,
                hyper=FAST_HYPER, reward_params=RewardParams(), episodes=episodes,
                step_cap=None, seed_tree=SeedTree(1), out_dir=str(out),
                frozen=("victim1",),
            )

        def corrupt_after_two(ep, policies):
            if ep > 0:
                flushed.append(log_path.read_bytes())  # the log as the last episode left it
            if ep == 2:
                policies["victim1"].params.arrays["dense/w"][0, 0] += 1.0

        before_episode(monkeypatch, corrupt_after_two)
        with pytest.raises(FreezeViolationError):
            run()
        monkeypatch.undo()
        data = log_path.read_bytes()
        records = [json.loads(line) for line in data.decode().split("\n")[:-1]]
        episodes = [r["episode"] for r in records if r["type"] == "episode"]
        updates = [r["episode"] for r in records if r["type"] == "update"]
        # episode 2 ran with the changed victim; its records precede the abort
        assert data.endswith(b"\n") and episodes == [0, 1, 2] and updates
        assert {r["agent_id"] for r in records} == {"adversary"}
        assert len(flushed) == 2 and data.startswith(flushed[1]) and flushed[1].startswith(flushed[0])
        assert [r["episode"] for r in map(json.loads, flushed[1].decode().splitlines())
                if r["type"] == "episode"] == [0, 1]

        # a phase run again into the same directory starts a fresh log
        run(episodes=1)
        run(episodes=1, out=tmp_path / "fresh")
        assert log_path.read_bytes() == (tmp_path / "fresh" / "train_log.jsonl").read_bytes()
        assert [(r["type"], r["episode"]) for r in map(json.loads, log_path.read_text().splitlines())
                ] == [("episode", 0), ("update", 0)]

    def test_divergence_aborts_with_last_good_checkpoint(self, tmp_path, monkeypatch):
        monkeypatch.setattr(orchestrator, "CHECKPOINT_EVERY", 1)
        sc = phase_scenario()
        victim = make_policy(sc.agents[0])
        adversary = make_policy(sc.agents[1])

        def poison(ep, policies):
            if ep == 2:
                policies["adversary"].params.arrays["policy/b"][:] = np.nan

        before_episode(monkeypatch, poison)
        with pytest.raises(PhaseAbortedError) as err:
            run_training_phase(
                phase_name="adv_test",
                phase_key=2,
                scenario=sc,
                policies={"victim1": victim, "adversary": adversary},
                hyper=FAST_HYPER,
                reward_params=RewardParams(),
                episodes=4,
                step_cap=None,
                seed_tree=SeedTree(1),
                out_dir=str(tmp_path / "phase"),
                frozen=("victim1",),
            )
        last = err.value.last_checkpoints
        assert "adversary" in last and os.path.exists(last["adversary"])
        load_checkpoint(last["adversary"])  # still a valid file
        manifest = json.loads((tmp_path / "phase" / "phase_manifest.json").read_text())
        assert manifest["status"] == "aborted"

    def test_step_cap_stops_phase(self, tmp_path):
        sc = phase_scenario()
        victim = make_policy(sc.agents[0])
        adversary = make_policy(sc.agents[1])
        result = run_training_phase(
            phase_name="adv_test",
            phase_key=2,
            scenario=sc,
            policies={"victim1": victim, "adversary": adversary},
            hyper=FAST_HYPER,
            reward_params=RewardParams(),
            episodes=50,
            step_cap=75,  # two 40-tick episodes reach 80 >= 75
            seed_tree=SeedTree(1),
            out_dir=str(tmp_path / "phase"),
            frozen=("victim1",),
        )
        assert result.episodes_run == 2

    def test_phase_outputs_reproducible(self, tmp_path):
        blobs = []
        for run in range(2):
            sc = phase_scenario()
            policies = {
                "victim1": make_policy(sc.agents[0]),
                "adversary": make_policy(sc.agents[1]),
            }
            out = tmp_path / f"run{run}"
            result = run_training_phase(
                phase_name="adv_test",
                phase_key=2,
                scenario=sc,
                policies=policies,
                hyper=FAST_HYPER,
                reward_params=RewardParams(),
                episodes=3,
                step_cap=None,
                seed_tree=SeedTree(7),
                out_dir=str(out),
                frozen=("victim1",),
            )
            with open(result.checkpoint_paths["adversary"], "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]

    def test_training_log_records(self, tmp_path):
        sc = phase_scenario()
        policies = {
            "victim1": make_policy(sc.agents[0]),
            "adversary": make_policy(sc.agents[1]),
        }
        run_training_phase(
            phase_name="adv_test",
            phase_key=2,
            scenario=sc,
            policies=policies,
            hyper=FAST_HYPER,
            reward_params=RewardParams(),
            episodes=3,
            step_cap=None,
            seed_tree=SeedTree(1),
            out_dir=str(tmp_path / "phase"),
            frozen=("victim1",),
        )
        lines = (tmp_path / "phase" / "train_log.jsonl").read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        updates = [r for r in records if r["type"] == "update"]
        episodes = [r for r in records if r["type"] == "episode"]
        assert updates and episodes
        for key in ("phase", "agent_id", "episode", "mean_episode_reward", "mean_kl",
                    "mean_entropy", "loss", "surrogate", "vf"):
            assert key in updates[0]
        for key in ("agent_id", "episode", "reward", "length"):
            assert key in episodes[0]
        # each update counts the episodes logged since the one before it
        since_update = []
        for r in records:
            if r["type"] == "episode":
                since_update.append(r)
                continue
            assert r["n_episodes"] == len(since_update)
            assert r["n_steps"] == sum(e["length"] for e in since_update)
            assert r["mean_episode_reward"] == np.mean([e["reward"] for e in since_update])
            since_update = []


def two_victim_scenario():
    return straight_scenario(
        route_length=40,
        max_steps=20,
        agents=[
            {"id": "victim1", "spawn": (0.0, -1.75), "goal": (40.0, -1.75)},
            {"id": "victim2", "spawn": (0.0, 1.75), "goal": (40.0, 1.75)},
        ],
    )


class TestConcurrentUpdates:
    """Updates due after the same episode run on as many threads as there are
    usable CPUs per BLAS thread for nets from ``SIDE_BY_SIDE_MIN_PARAMS`` up,
    and on the calling thread alone for smaller nets; the outputs must not
    depend on that number."""

    def run_phase(self, tmp_path, monkeypatch, cpus, poisoned=None, blas_threads="1"):
        """Runs a 4-episode phase of two tiny-net victims, counted as nets of
        ``SIDE_BY_SIDE_MIN_PARAMS`` parameters so their updates may run side
        by side; returns its files, whether it aborted and the threads that
        ran its updates."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(orchestrator, "SIDE_BY_SIDE_MIN_PARAMS",
                            tiny_net_config().param_count())
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        if blas_threads is not None:
            monkeypatch.setenv("OMP_NUM_THREADS", blas_threads)
        threads = set()

        def recorder(*args):
            threads.add(threading.get_ident())
            return update_policy(*args)

        monkeypatch.setattr(orchestrator, "update_policy", recorder)
        monkeypatch.setattr(orchestrator, "CHECKPOINT_EVERY", 1)

        def poison(ep, policies):
            # NaN values leave the rollout alone and fail the next update's loss
            if ep == 2 and poisoned is not None:
                policies[poisoned].params.arrays["value/w"][:] = np.nan

        before_episode(monkeypatch, poison)

        sc = two_victim_scenario()
        out = tmp_path / "phase"
        shutil.rmtree(out, ignore_errors=True)
        aborted = False
        try:
            run_training_phase(
                phase_name="baseline_test",
                phase_key=1,
                scenario=sc,
                policies={s.agent_id: make_policy(s) for s in sc.agents},
                hyper=PpoHyper(minibatch=10, epochs_per_batch=2, train_batch=20),
                reward_params=RewardParams(),
                episodes=4,
                step_cap=None,
                seed_tree=SeedTree(5),
                out_dir=str(out),
            )
        except PhaseAbortedError:
            aborted = True
        files = {
            p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()
        }
        return files, aborted, threads

    @pytest.mark.parametrize("poisoned", [None, "victim1", "victim2"])
    def test_outputs_identical_for_one_and_two_cpus(self, tmp_path, monkeypatch, poisoned):
        serial, serial_aborted, serial_threads = self.run_phase(tmp_path, monkeypatch, 1, poisoned)
        both, both_aborted, both_threads = self.run_phase(tmp_path, monkeypatch, 2, poisoned)
        assert len(serial_threads) == 1 and len(both_threads) == 2
        assert serial_aborted == both_aborted == (poisoned is not None)
        assert {"train_log.jsonl", "phase_manifest.json"} <= set(serial)
        assert any(name.startswith("checkpoints/") for name in serial)
        assert serial.keys() == both.keys()
        for name in serial:
            assert serial[name] == both[name], name
        records = [json.loads(line) for line in serial["train_log.jsonl"].splitlines()]
        updates = [(r["agent_id"], r["episode"]) for r in records if r["type"] == "update"]
        if poisoned is None:
            assert updates == [(a, ep) for ep in range(4) for a in ("victim1", "victim2")]
        else:
            # the poisoned victim's update after episode 2 aborts the phase
            last = records[-1]
            assert last["type"] == "episode" and last["episode"] == 2
            assert last["agent_id"] == poisoned

    @pytest.mark.parametrize("blas_threads", [None, "2"])
    def test_updates_one_at_a_time_when_blas_uses_every_cpu(
        self, tmp_path, monkeypatch, blas_threads
    ):
        files, aborted, threads = self.run_phase(
            tmp_path, monkeypatch, 2, blas_threads=blas_threads
        )
        assert not aborted and len(threads) == 1
        serial, _, _ = self.run_phase(tmp_path, monkeypatch, 1)
        assert files == serial

    def test_lite21_updates_due_together_start_no_thread(self, tmp_path, monkeypatch):
        assert net.NETS["lite21"].param_count() < orchestrator.SIDE_BY_SIDE_MIN_PARAMS
        pin_cpus(monkeypatch, 2)
        refuse_threads(monkeypatch, "a lite21 phase's updates")
        sc = two_victim_scenario()
        run_training_phase(
            phase_name="baseline_test",
            phase_key=1,
            scenario=sc,
            policies={s.agent_id: make_policy(s, config=net.NETS["lite21"]) for s in sc.agents},
            hyper=PpoHyper(minibatch=10, epochs_per_batch=1, train_batch=1),
            reward_params=RewardParams(),
            episodes=1,
            step_cap=None,
            seed_tree=SeedTree(5),
            out_dir=str(tmp_path),
        )
        records = [json.loads(line) for line in (tmp_path / "train_log.jsonl").open()]
        updates = [(r["agent_id"], r["episode"]) for r in records if r["type"] == "update"]
        assert updates == [("victim1", 0), ("victim2", 0)]


def baseline_config(obs_mode):
    """One 20-tick baseline episode: no update is due, so the phase's only
    per-policy jobs are the fresh inits and the checkpoint writes."""
    return parse_config({
        "obs_mode": obs_mode,
        "seed": 3,
        "scenario": {"preset": "t_intersection", "max_steps": 20},
        "phases": {"baseline_episodes": 1, "baseline_step_cap": None},
    })


def pin_cpus(monkeypatch, cpus):
    """``cpus`` usable CPUs with one thread per BLAS call."""
    monkeypatch.setattr(orchestrator, "_usable_cpus", lambda: cpus)
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")


def record_threads(monkeypatch, module, name):
    """The idents of the threads that call ``module.name`` from now on."""
    threads = set()
    original = getattr(module, name)

    def recorder(*args, **kwargs):
        threads.add(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorder)
    return threads


def record_forwards(monkeypatch):
    """Per block of episodes run by ``metrics.evaluate`` from now on, the
    list of its ``net.forward_core`` calls, each as (thread, rows): the
    thread None for the calling thread, else the ident of its helper. A
    block's helpers live until its last episode ends, so within one block
    distinct idents are distinct helpers."""
    blocks = []
    caller = threading.get_ident()
    run_block, forward_core = metrics._eval_block, net.forward_core

    def run(*args):
        blocks.append([])
        return run_block(*args)

    def recorder(params, x, *args, **kwargs):
        ident = threading.get_ident()
        blocks[-1].append((None if ident == caller else ident, len(x)))
        return forward_core(params, x, *args, **kwargs)

    monkeypatch.setattr(metrics, "_eval_block", run)
    monkeypatch.setattr(net, "forward_core", recorder)
    return blocks


def refuse_threads(monkeypatch, what):
    """Fail the test when a thread starts."""
    def refuse(thread):
        raise AssertionError(f"{what} started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)


class TestSideBySidePrimitive:
    """``side_by_side`` yields a serial run's results and raises its first
    error, for any pool; leaving ``helper_pool``'s block drops the calls not
    yet started and waits for the running ones."""

    @staticmethod
    def run(job, helpers, items=range(5)):
        """The results yielded, and the message of the error raised after
        them (None if none was)."""
        results = []
        try:
            with orchestrator.helper_pool(helpers) as pool:
                for result in orchestrator.side_by_side(items, job, pool):
                    results.append(result)
        except ValueError as exc:
            return results, str(exc)
        return results, None

    @pytest.mark.parametrize("helpers", [0, 1, 3])
    def test_results_in_item_order_last_call_on_the_calling_thread(self, helpers):
        threads = {}
        jobs = []  # the items whose job ran, in the order they ran

        def job(i):
            jobs.append(i)
            assert threading.get_ident() == caller

            def call():
                threads[i] = threading.get_ident()
                time.sleep(0.01 * (4 - i))  # the earlier, the later it ends
                return i * i

            return call

        caller = threading.get_ident()
        assert self.run(job, helpers) == ([0, 1, 4, 9, 16], None)
        assert jobs == [0, 1, 2, 3, 4]
        assert threads[4] == caller
        assert {threads[i] == caller for i in range(4)} == {helpers == 0}

    @pytest.mark.parametrize("helpers", [0, 1, 3])
    @pytest.mark.parametrize("failing", [
        {1: "call", 3: "call"},
        {1: "job", 3: "job"},
        {1: "call", 3: "job"},
        {4: "call"},
        {4: "job"},
        {0: "call", 4: "job"},
    ], ids=lambda failing: "-".join(f"{stage}{i}" for i, stage in failing.items()))
    def test_first_error_in_item_order_raised_after_the_results_before_it(self, helpers,
                                                                          failing):
        def job(i):  # "job" fails on the calling thread, as a render does
            if failing.get(i) == "job":
                raise ValueError(f"job {i}")

            def call():
                if failing.get(i) == "call":
                    raise ValueError(f"call {i}")
                return i

            return call

        first = min(failing)
        assert self.run(job, helpers) == (list(range(first)), f"{failing[first]} {first}")

    def test_calls_not_started_dropped_and_started_ones_ended(self):
        started, ended = set(), set()
        failed = threading.Event()

        def job(i):
            def call():
                started.add(i)
                if i == 0:
                    failed.set()
                    raise ValueError("call 0")
                if i == 4:  # the last, on the calling thread
                    assert failed.wait(10)
                else:  # keeps the one helper busy while the error surfaces
                    time.sleep(0.5)
                ended.add(i)
                return i

            return call

        running = threading.active_count()
        assert self.run(job, 1) == ([], "call 0")
        assert threading.active_count() == running
        # at most the call the helper took as call 0 failed has run
        assert {0, 4} <= started and len(started - {0, 4}) <= 1
        assert ended == started - {0}

    def test_no_pool_starts_no_thread(self, monkeypatch):
        refuse_threads(monkeypatch, "side_by_side without a pool")
        assert self.run(lambda i: lambda: i, 0) == ([0, 1, 2, 3, 4], None)


class TestSideBySide:
    """Fresh inits and checkpoint writes of full84 nets run side by side by
    the CPU rule of every per-policy job; lite21 nets' run serially on no
    thread. The outputs and errors must not depend on it."""

    def test_full84_baseline_identical_for_one_and_two_cpus(self, tmp_path, monkeypatch):
        outputs = {}
        for cpus in (1, 2):
            with monkeypatch.context() as m:
                pin_cpus(m, cpus)
                inits = record_threads(m, pipeline, "init_params")
                saves = record_threads(m, orchestrator, "save_checkpoint")
                forwards = record_threads(m, net, "forward")
                out = tmp_path / str(cpus)
                pipeline.train_baseline(baseline_config("full84"), str(out))
            assert len(inits) == len(saves) == len(forwards) == cpus
            outputs[cpus] = {
                name: (out / name).read_bytes()
                for name in ("checkpoints/victim1.ckpt", "checkpoints/victim2.ckpt",
                             "train_log.jsonl")
            }
        assert outputs[1] == outputs[2]

    def test_lite21_baseline_starts_no_thread(self, tmp_path, monkeypatch):
        pin_cpus(monkeypatch, 2)
        refuse_threads(monkeypatch, "a lite21 baseline")
        result = pipeline.train_baseline(baseline_config("lite21"), str(tmp_path / "out"))
        assert sorted(result.checkpoint_paths) == ["victim1", "victim2"]

    @pytest.mark.parametrize("failing", [("victim2",), ("victim1",), ("victim1", "victim2")])
    def test_init_error_raised_as_a_serial_run_raises_it(self, tmp_path, monkeypatch, failing):
        cfg = baseline_config("full84")
        seed_keys = {(KEY_INIT, v.seed_index): v.agent_id for v in build_scenario(cfg).victims()}
        errors = {}
        for cpus in (1, 2):
            threads = {}

            def init(config, seed):
                aid = seed_keys[seed.spawn_key]
                threads[aid] = threading.get_ident()
                if aid in failing:
                    raise ContractViolationError(f"init of {aid} failed")
                return net.init_params(tiny_net_config(), 0)

            with monkeypatch.context() as m:
                pin_cpus(m, cpus)
                m.setattr(pipeline, "init_params", init)
                out = tmp_path / str(cpus)
                with pytest.raises(ContractViolationError) as info:
                    pipeline.train_baseline(cfg, str(out))
            errors[cpus] = str(info.value)
            assert not out.exists()
            # the first init on the helper, the last on the calling thread
            assert (threads["victim1"] == threading.get_ident()) == (cpus == 1)
            if "victim2" in threads:  # a serial run stops at a failing victim1
                assert threads["victim2"] == threading.get_ident()
        assert errors[1] == errors[2] == f"init of {failing[0]} failed"


def eval_config(obs_mode, workers=1):
    """Two 20-tick evaluation episodes of the T-intersection's three agents."""
    return parse_config({
        "obs_mode": obs_mode,
        "seed": 3,
        "workers": workers,
        "scenario": {"preset": "t_intersection", "max_steps": 20},
        "eval": {"episodes": 2, "max_steps": 20},
    })


@pytest.fixture(scope="module")
def fresh_checkpoints(tmp_path_factory):
    """Per obs mode, agent id -> checkpoint path of a fresh net for each agent
    of ``eval_config``'s scenario."""
    paths = {}
    for obs_mode in ("lite21", "full84"):
        cfg = eval_config(obs_mode)
        out = tmp_path_factory.mktemp(obs_mode)
        paths[obs_mode] = {}
        for spec in build_scenario(cfg).agents:
            paths[obs_mode][spec.agent_id] = str(out / f"{spec.agent_id}.ckpt")
            save_checkpoint(paths[obs_mode][spec.agent_id], pipeline.fresh_policy(cfg, spec))
    return paths


def evaluate_attack(cfg, ckpts, out) -> dict:
    """Evaluate the agents of ``ckpts`` as the attack condition; returns the
    bytes of the report and of the episode log."""
    victims = {aid: path for aid, path in ckpts.items() if aid != "adversary"}
    pipeline.evaluate_condition(cfg, "attack_collision", victims, ckpts["adversary"], str(out))
    return {name: (out / name).read_bytes() for name in ("report.json", "episode0.json")}


class TestForwardsSideBySide:
    """Within each tick of a lockstep block, each agent's forward on its rows
    of the block's episodes runs on a helper thread by the CPU rule of the
    other per-policy jobs for full84 nets, and on the calling thread for
    lite21 nets. The outputs and errors must not depend on it."""

    def test_full84_evaluation_identical_for_one_and_two_cpus(
        self, tmp_path, monkeypatch, fresh_checkpoints
    ):
        outputs = {}
        for cpus in (1, 2):
            with monkeypatch.context() as m:
                pin_cpus(m, cpus)
                blocks = record_forwards(m)
                outputs[cpus] = evaluate_attack(eval_config("full84"), fresh_checkpoints["full84"],
                                                tmp_path / str(cpus))
            assert len(blocks) == 1  # the two episodes run in one block
            forwards = blocks[0]
            # per tick, one forward per agent on the rows of both episodes
            assert len(forwards) == 3 * 20 and {rows for _, rows in forwards} == {2}
            threads = {thread for thread, _ in forwards}
            if cpus == 1:
                assert threads == {None}
            else:  # the calling thread and the block pool's one helper
                assert None in threads and len(threads - {None}) == 1
        assert outputs[1] == outputs[2]

    # per CPU and worker count: the helpers of a 3-agent full84 block in this
    # process, and in each worker of the pool, which for 2 one-episode blocks
    # holds at most 2 processes
    @pytest.mark.parametrize("cpus, workers, helpers, worker_helpers",
                             [(2, 2, 1, 0), (4, 2, 2, 1), (4, 3, 2, 1)])
    def test_pool_workers_share_the_cpus(
        self, tmp_path, monkeypatch, fresh_checkpoints, cpus, workers, helpers, worker_helpers
    ):
        def recorder(*args, **kwargs):
            big = orchestrator.SIDE_BY_SIDE_MIN_PARAMS
            (tmp_path / f"helpers_{os.getpid()}").write_text(
                str(orchestrator.helper_threads(3, big))
            )
            return orchestrator.run_episode(*args, **kwargs)

        def init_recorder(*args):
            (tmp_path / f"worker_{os.getpid()}").touch()
            return worker_init(*args)

        worker_init = metrics._eval_worker_init
        outputs = {}
        for n in (1, workers):
            with monkeypatch.context() as m:
                pin_cpus(m, cpus)
                m.setattr(metrics, "EVAL_BLOCK", 1)
                m.setattr(metrics, "run_episode", recorder)
                m.setattr(metrics, "_eval_worker_init", init_recorder)
                outputs[n] = evaluate_attack(eval_config("full84", n), fresh_checkpoints["full84"],
                                             tmp_path / str(n))
        assert outputs[1] == outputs[workers]
        assert len(list(tmp_path.glob("worker_*"))) == 2
        found = {p.name: p.read_text() for p in tmp_path.glob("helpers_*")}
        assert found.pop(f"helpers_{os.getpid()}") == str(helpers)
        assert found and set(found.values()) == {str(worker_helpers)}

    @pytest.mark.parametrize("failing", [
        {"victim1": "forward"},
        {"victim2": "forward"},
        {"adversary": "forward"},
        {"victim1": "forward", "victim2": "forward"},
        {"victim2": "forward", "adversary": "forward"},
        {"victim1": "forward", "victim2": "render"},
        {"victim2": "render", "adversary": "forward"},
    ], ids=lambda failing: "-".join(f"{aid}_{stage}" for aid, stage in failing.items()))
    def test_error_raised_as_a_serial_run_raises_it(self, monkeypatch, fresh_checkpoints, failing):
        scenario = build_scenario(eval_config("full84"))
        policies = {aid: load_checkpoint(p) for aid, p in fresh_checkpoints["full84"].items()}
        owners = {id(pol.params): aid for aid, pol in policies.items()}
        forward_core, draw = net.forward_core, orchestrator.render
        keys = [(1, 0), (1, 1)]
        errors = {}
        for cpus in (1, 2):
            threads = {}

            def failing_forward(params, x, *args, **kwargs):
                aid = owners[id(params)]
                threads[aid] = threading.get_ident()
                if failing.get(aid) == "forward":
                    raise NonFiniteError(f"forward of {aid} failed")
                return forward_core(params, x, *args, **kwargs)

            def failing_render(world, aid, res):
                if failing.get(aid) == "render":
                    raise ContractViolationError(f"render of {aid} failed")
                return draw(world, aid, res)

            with monkeypatch.context() as m:
                pin_cpus(m, cpus)
                m.setattr(net, "forward_core", failing_forward)
                m.setattr(orchestrator, "render", failing_render)
                running = threading.active_count()
                with orchestrator.Lockstep(keys) as group:
                    with pytest.raises((NonFiniteError, ContractViolationError)) as info:
                        run_episode(scenario, policies, RewardParams(), 20, SeedTree(3), keys[0],
                                    lockstep=group)
                    assert threading.active_count() == running  # every helper has ended
                    with pytest.raises(type(info.value), match=str(info.value)):
                        run_episode(scenario, policies, RewardParams(), 20, SeedTree(3), keys[1],
                                    lockstep=group)
            errors[cpus] = str(info.value)
            assert threads["victim1"] != threading.get_ident() or cpus == 1
            assert threads["adversary"] == threading.get_ident()
        first = next(aid for aid in scenario.agent_ids() if aid in failing)
        assert errors[1] == errors[2] == f"{failing[first]} of {first} failed"

    def test_lite21_evaluation_starts_no_thread(self, tmp_path, monkeypatch, fresh_checkpoints):
        pin_cpus(monkeypatch, 2)
        refuse_threads(monkeypatch, "a lite21 evaluation")
        outputs = evaluate_attack(eval_config("lite21"), fresh_checkpoints["lite21"], tmp_path)
        assert json.loads(outputs["report.json"])["episodes"] == 2


def jittered_scenario():
    """Two lite21 victims whose goals lie 1.8 m ahead of spawns jittered by up
    to 1 m: episodes end at different ticks, and so do agents."""
    return dataclasses.replace(straight_scenario(route_length=30, max_steps=40, agents=[
        {"id": "victim1", "spawn": (0.0, 0.0), "goal": (1.8, 0.0)},
        {"id": "victim2", "spawn": (15.0, 0.0), "goal": (16.8, 0.0)},
    ]), spawn_jitter=1.0)


def lite21_policies(scenario):
    return {spec.agent_id: make_policy(spec, config=net.NETS["lite21"])
            for spec in scenario.agents}


def log_bytes(log) -> bytes:
    buf = io.BytesIO()
    write_record(buf, log)
    return buf.getvalue()


def run_in_order(scenario, policies, keys, group=None, **kwargs):
    """Runs the episodes of ``keys`` in order, in the lockstep ``group`` if
    given; returns their results up to the first error, and that error's
    message (None if none was raised)."""
    results = []
    for key in keys:
        try:
            results.append(run_episode(scenario, policies, RewardParams(), 40, SeedTree(3), key,
                                       lockstep=group, **kwargs))
        except ValueError as exc:
            return results, str(exc)
    return results, None


class TestLockstep:
    """A block of episodes advanced in lockstep gives each episode the log,
    trajectories and error it gives when run alone."""

    KEYS = [(100, ep) for ep in range(12)]

    def test_episodes_equal_the_same_episodes_run_alone(self):
        scenario = jittered_scenario()
        policies = lite21_policies(scenario)
        collect = {"victim1", "victim2"}
        alone, _ = run_in_order(scenario, policies, self.KEYS, collect=collect)
        with orchestrator.Lockstep(reversed(self.KEYS)) as group:
            together, _ = run_in_order(scenario, policies, self.KEYS, group, collect=collect)
        assert len({log.ticks for _, log in alone}) > 1
        assert len({log.termination["victim2"].tick for _, log in alone}) > 2
        for (trajs_a, log_a), (trajs_b, log_b) in zip(alone, together, strict=True):
            assert log_bytes(log_a) == log_bytes(log_b)
            for aid in collect:
                assert trajectories_equal(trajs_a[aid], trajs_b[aid])
                assert trajs_a[aid].rewards == trajs_b[aid].rewards

    def test_evaluate_identical_for_one_and_two_workers(self, tmp_path, monkeypatch):
        scenario = jittered_scenario()
        policies = lite21_policies(scenario)
        episodes = 2 * metrics.EVAL_BLOCK + 3
        saved = {}
        for workers in (1, 2):
            with monkeypatch.context() as m:
                blocks = record_forwards(m)
                report, logs = metrics.evaluate(scenario, policies, label="probe",
                                                episodes=episodes, max_steps=40,
                                                seed_tree=SeedTree(3), condition_key=100,
                                                workers=workers)
            if workers == 1:  # blocks of EVAL_BLOCK, EVAL_BLOCK and 3 episodes
                assert [max(rows for _, rows in forwards) for forwards in blocks] == [
                    metrics.EVAL_BLOCK, metrics.EVAL_BLOCK, 3]
            report.save(tmp_path / f"{workers}.json")
            saved[workers] = ((tmp_path / f"{workers}.json").read_bytes(), log_bytes(logs[0]))
        assert saved[1] == saved[2]
        _, alone = run_episode(scenario, policies, RewardParams(), 40, SeedTree(3), (100, 0))
        assert saved[1][1] == log_bytes(alone)

    @pytest.mark.parametrize("stage", ["world", "render", "forward"])
    def test_failing_episode_raises_the_error_a_serial_run_raises(self, monkeypatch, stage):
        """Episode 3 fails before episode 2 does, in an earlier tick: a
        serial run ends episodes 0 and 1 and raises episode 2's error, and so
        does the block."""
        scenario = jittered_scenario()
        policies = lite21_policies(scenario)
        worlds = {}  # episode -> the digest of its world at each tick

        def recorder(world, aid, res):
            if aid == "victim2":
                worlds[ep].append(world.digest())
            return render(world, aid, res)

        with monkeypatch.context() as m:
            m.setattr(orchestrator, "render", recorder)
            for ep in (2, 3):
                worlds[ep] = []
                run_episode(scenario, policies, RewardParams(), 40, SeedTree(3), self.KEYS[ep])
        # victim2's render fails in these worlds, or marks its codes, on which its forward fails
        targets = {worlds[2][5]: 2, worlds[3][1]: 3}
        world, forward_core = orchestrator.episode_world, net.forward_core
        marked = 200  # + the episode: codes no render gives

        def failing_world(scenario, seed_tree, key_prefix):
            if key_prefix in (self.KEYS[2], self.KEYS[3]):
                raise ValueError(f"world of episode {key_prefix[1]} failed")
            return world(scenario, seed_tree, key_prefix)

        def failing_render(world, aid, res):
            episode = targets.get(world.digest()) if aid == "victim2" else None
            if episode is not None and stage == "render":
                raise ValueError(f"render of episode {episode} failed")
            obs = render(world, aid, res)
            if episode is not None and stage == "forward":
                obs.pixels = np.full_like(obs.pixels, marked + episode)
            return obs

        def failing_forward(params, x, *args, **kwargs):
            for row in x:
                if row.min() == row.max() >= marked:
                    raise ValueError(f"forward of episode {row.min() - marked} failed")
            return forward_core(params, x, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(orchestrator, "episode_world", failing_world if stage == "world" else world)
            m.setattr(orchestrator, "render", failing_render)
            m.setattr(net, "forward_core", failing_forward)
            alone = run_in_order(scenario, policies, self.KEYS)
            with orchestrator.Lockstep(self.KEYS) as group:
                together = run_in_order(scenario, policies, self.KEYS, group)
        for run in (alone, together):
            results, message = run
            assert (len(results), message) == (2, f"{stage} of episode 2 failed")
        assert [log_bytes(log) for _, log in alone[0]] == [log_bytes(log) for _, log in together[0]]

    def test_group_refuses_other_arguments_and_episodes(self):
        scenario = jittered_scenario()
        policies = lite21_policies(scenario)
        args = (scenario, policies, RewardParams(), 40, SeedTree(3))
        with orchestrator.Lockstep(self.KEYS[:2]) as group:
            run_episode(*args, self.KEYS[0], lockstep=group)
            with pytest.raises(ContractViolationError, match=r"holds no episode \[100, 0\]"):
                run_episode(*args, self.KEYS[0], lockstep=group)  # already returned
            with pytest.raises(ContractViolationError, match=r"holds no episode \[100, 5\]"):
                run_episode(*args, self.KEYS[5], lockstep=group)
            with pytest.raises(ContractViolationError, match="arguments differ"):
                run_episode(*args, self.KEYS[1], action_mode="greedy", lockstep=group)
            with pytest.raises(ContractViolationError, match="arguments differ"):
                run_episode(scenario, dict(policies), *args[2:], self.KEYS[1], lockstep=group)
            run_episode(*args, self.KEYS[1], lockstep=group)


def command_config(obs_mode):
    """``eval_config`` with one 20-tick episode per training phase, too few
    steps for an update to be due."""
    return parse_config({
        "obs_mode": obs_mode,
        "seed": 3,
        "scenario": {"preset": "t_intersection", "max_steps": 20},
        "eval": {"episodes": 2, "max_steps": 20},
        "phases": {"adversary_episodes": 1, "adversary_step_cap": None,
                   "retrain_episodes": 1, "retrain_step_cap": None},
    })


def run_command(command, cfg, ckpts, out):
    """Run ``command`` on the checkpoints ``ckpts`` (agent id -> path) into
    ``out``; returns every file it wrote, by path under ``out``, with ``out``
    itself written as ``OUT``."""
    victims = {aid: path for aid, path in ckpts.items() if aid != "adversary"}
    if command == "evaluate":
        pipeline.evaluate_condition(cfg, "attack_collision", victims, ckpts["adversary"], str(out))
    elif command == "retrain":
        pipeline.retrain_victims(cfg, victims, ckpts["adversary"], str(out))
    else:
        pipeline.train_adversary(cfg, victims, str(out))
    return {
        p.relative_to(out).as_posix(): p.read_bytes().replace(str(out).encode(), b"OUT")
        for p in out.rglob("*") if p.is_file()
    }


def with_flipped_byte(ckpts, tmp_path, ids):
    """A copy of ``ckpts`` with one payload byte flipped in the files of ``ids``."""
    copies = {aid: tmp_path / f"{aid}.ckpt" for aid in ckpts}
    for aid, path in ckpts.items():
        raw = bytearray(Path(path).read_bytes())
        if aid in ids:
            raw[len(raw) // 2] ^= 0xFF
        copies[aid].write_bytes(raw)
    return {aid: str(path) for aid, path in copies.items()}


class TestLoadsSideBySide:
    """A command's checkpoint loads and fresh inits run in one side-by-side
    call, and a phase hashes its ``checksums_in`` side by side, by the CPU
    rule of the other per-policy jobs; lite21 nets' run serially on no
    thread. The outputs and errors must not depend on it."""

    @pytest.mark.parametrize("command", ["evaluate", "retrain"])
    def test_full84_outputs_identical_for_one_and_two_cpus(
        self, tmp_path, monkeypatch, fresh_checkpoints, command
    ):
        ckpts = fresh_checkpoints["full84"]
        agents = {path: aid for aid, path in ckpts.items()}
        caller = threading.get_ident()
        outputs = {}
        for cpus in (1, 2):
            loads = {}  # agent id -> whether its load ran on the calling thread
            hashes = []  # per params_checksum call, whether on the calling thread
            load, checksum = pipeline.load_checkpoint, orchestrator.params_checksum

            def load_recorder(path):
                loads[agents[path]] = threading.get_ident() == caller
                return load(path)

            def checksum_recorder(params):
                hashes.append(threading.get_ident() == caller)
                return checksum(params)

            with monkeypatch.context() as m:
                pin_cpus(m, cpus)
                m.setattr(pipeline, "load_checkpoint", load_recorder)
                m.setattr(orchestrator, "params_checksum", checksum_recorder)
                outputs[cpus] = run_command(command, command_config("full84"), ckpts,
                                            tmp_path / str(cpus))
            # the last agent's load on the calling thread, the others on the helper
            assert loads == {"victim1": cpus == 1, "victim2": cpus == 1, "adversary": True}
            if command == "retrain":
                assert set(hashes) == ({True} if cpus == 1 else {True, False})
        assert outputs[1] == outputs[2]
        if command == "retrain":
            manifest = json.loads(outputs[1]["phase_manifest.json"])
            assert sorted(manifest["checksums_in"]) == ["adversary", "victim1", "victim2"]
            assert manifest["config"]["warnings"] == [
                f"checkpoint for '{aid}' has no optimizer state; resuming with a fresh one"
                for aid in ("victim1", "victim2")
            ]

    @pytest.mark.parametrize("command", ["retrain", "train-adversary"])
    def test_lite21_commands_start_no_thread(self, tmp_path, monkeypatch, fresh_checkpoints,
                                             command):
        pin_cpus(monkeypatch, 2)
        refuse_threads(monkeypatch, f"a lite21 {command}")
        outputs = run_command(command, command_config("lite21"), fresh_checkpoints["lite21"],
                              tmp_path)
        assert "phase_manifest.json" in outputs

    @pytest.mark.parametrize("command", ["evaluate", "retrain", "train-adversary"])
    def test_wrong_role_id_refused_before_any_file_is_read(
        self, tmp_path, monkeypatch, fresh_checkpoints, command
    ):
        def refuse(path):
            raise AssertionError(f"read '{path}'")

        pin_cpus(monkeypatch, 2)
        monkeypatch.setattr(pipeline, "load_checkpoint", refuse)
        ckpts = dict(fresh_checkpoints["full84"])
        ckpts["victim3"] = ckpts["victim2"]
        with pytest.raises(ConfigurationError, match="checkpoint id 'victim3' is not a victim"):
            run_command(command, command_config("full84"), ckpts, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "retrain"])
    @pytest.mark.parametrize("failing", [("victim2",), ("victim1", "victim2"),
                                         ("victim2", "adversary")],
                             ids=lambda failing: "-".join(failing))
    def test_failing_load_raised_as_a_serial_run_raises_it(
        self, tmp_path, monkeypatch, fresh_checkpoints, command, failing
    ):
        ckpts = with_flipped_byte(fresh_checkpoints["full84"], tmp_path, failing)
        errors = {}
        for cpus in (1, 2):
            with monkeypatch.context() as m:
                pin_cpus(m, cpus)
                running = threading.active_count()
                with pytest.raises(ChecksumMismatchError) as info:
                    run_command(command, command_config("full84"), ckpts, tmp_path / str(cpus))
                assert threading.active_count() == running  # every helper has ended
            errors[cpus] = str(info.value)
            assert not (tmp_path / str(cpus)).exists()
        assert errors[1] == errors[2]
        assert errors[1].startswith(f"checkpoint '{ckpts[failing[0]]}': ")


class TestFrozenChecksSideBySide:
    """A phase hashes its frozen policies after every episode and at its end
    side by side, by the CPU rule of the other per-policy jobs, and a changed
    one still aborts the phase."""

    @pytest.mark.parametrize("mutated", [None, "victim1", "victim2"])
    def test_full84_adversary_phase_hashes_frozen_victims_on_two_threads(
        self, tmp_path, monkeypatch, fresh_checkpoints, mutated
    ):
        policies = {aid: load_checkpoint(p) for aid, p in fresh_checkpoints["full84"].items()}
        owners = {id(pol.params): aid for aid, pol in policies.items()}
        caller = threading.get_ident()
        hashes = []  # per params_checksum call, its agent and whether on the calling thread
        checksum = orchestrator.params_checksum

        def recorder(params):
            hashes.append((owners[id(params)], threading.get_ident() == caller))
            return checksum(params)

        def mutate(ep, policies):
            if ep == 1 and mutated is not None:
                policies[mutated].params.arrays["dense/w"][0, 0] += 1.0

        pin_cpus(monkeypatch, 2)
        before_episode(monkeypatch, mutate)
        monkeypatch.setattr(orchestrator, "params_checksum", recorder)
        phase = partial(
            run_training_phase,
            phase_name="adv_test",
            phase_key=2,
            scenario=build_scenario(command_config("full84")),
            policies=policies,
            hyper=PpoHyper(train_batch=1000),  # no update is due
            reward_params=RewardParams(),
            episodes=2,
            step_cap=None,
            seed_tree=SeedTree(1),
            out_dir=str(tmp_path / "phase"),
            frozen=("victim1", "victim2"),
        )
        if mutated is None:
            phase()
        else:
            with pytest.raises(FreezeViolationError,
                               match=f"frozen policy '{mutated}' changed during phase 'adv_test'"):
                phase()
        assert sorted(aid for aid, _ in hashes[:3]) == ["adversary", "victim1", "victim2"]
        # after each episode (and at the end of a completed phase): victim1 on
        # the helper, victim2 on the calling thread
        checks = 3 if mutated is None else 2
        assert sorted(hashes[3:]) == sorted([("victim1", False), ("victim2", True)] * checks)


class TestSeeding:
    def test_seed_tree_deterministic_and_distinct(self):
        t = SeedTree(42)
        assert t.rng(1, 2, 3).random() == SeedTree(42).rng(1, 2, 3).random()
        assert t.rng(1, 2).random() != t.rng(1, 3).random()
        assert SeedTree(42).rng(5).random() != SeedTree(43).rng(5).random()
