import csv
import dataclasses
import random
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import straight_scenario, tiny_net_config

from advdrive import net
from advdrive.errors import ContractViolationError
from advdrive.metrics import (
    EpisodeMetrics,
    MetricsReport,
    VictimMetrics,
    aggregate_episode_metrics,
    compare,
    episode_metrics,
    evaluate,
    scenario_fingerprint,
)
from advdrive.checkpoint import Checkpoint
from advdrive.orchestrator import EpisodeLog, Event, Termination, run_episode
from advdrive.plot import emit_trajectory_plot
from advdrive.rewards import RewardParams
from advdrive.scenario import t_intersection_scenario
from advdrive.seeding import SeedTree


def make_log(flag_streams, dt=0.05, agent_ids=None):
    agent_ids = agent_ids or sorted(flag_streams)
    ticks = max(len(v["cv"]) for v in flag_streams.values())
    flags = {
        aid: {k: list(streams.get(k, [False] * len(streams["cv"]))) for k in ("cv", "co", "io", "iol")}
        for aid, streams in flag_streams.items()
    }
    return EpisodeLog(agent_ids=agent_ids, dt=dt, seed_key=[0, 0], ticks=ticks,
                      positions=np.zeros((ticks, len(agent_ids), 4)), flags=flags, events=[],
                      termination={aid: Termination(None, None) for aid in agent_ids})


class TestEpisodeMetrics:
    def test_ttfc_from_first_collision_tick(self):
        cv = [False] * 199 + [True]
        log = make_log({"v": {"cv": cv}})
        m = episode_metrics(log, "v")
        assert m.ttfc == pytest.approx(10.0)  # tick 200 at dt 0.05
        assert m.cv_rate == pytest.approx(1 / 200)

    def test_early_termination_uses_simulated_ticks(self):
        log = make_log({"v": {"cv": [False, False, True]}})
        m = episode_metrics(log, "v")
        assert m.ticks == 3
        assert m.cv_rate == pytest.approx(1 / 3)
        assert m.ttfc == pytest.approx(3 * 0.05)

    def test_clean_episode_has_absent_ttfc(self):
        log = make_log({"v": {"cv": [False] * 50}})
        m = episode_metrics(log, "v")
        assert m.ttfc is None
        assert (m.cv_rate, m.co_rate, m.os_rate) == (0.0, 0.0, 0.0)

    def test_ttfc_uses_co_as_well(self):
        log = make_log({"v": {"cv": [False] * 10, "co": [False] * 4 + [True] + [False] * 5}})
        m = episode_metrics(log, "v")
        assert m.ttfc == pytest.approx(5 * 0.05)

    def test_os_rate_counts_out_of_lane_ticks(self):
        log = make_log({"v": {"cv": [False] * 10, "iol": [True] * 4 + [False] * 6}})
        assert episode_metrics(log, "v").os_rate == pytest.approx(0.4)

    def test_rates_always_within_unit_interval(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 40)
            streams = {
                k: [rng.random() < 0.3 for _ in range(n)] for k in ("cv", "co", "io", "iol")
            }
            m = episode_metrics(make_log({"v": streams}), "v")
            for rate in (m.cv_rate, m.co_rate, m.os_rate):
                assert 0.0 <= rate <= 1.0

    def test_ttfc_monotone_in_collision_tick(self):
        prev = -1.0
        for first in (3, 10, 50, 199):
            cv = [False] * first + [True]
            t = episode_metrics(make_log({"v": {"cv": cv}}), "v").ttfc
            assert t > prev
            prev = t


class TestAggregation:
    def metrics_list(self, rng):
        out = []
        for _ in range(31):
            out.append(
                EpisodeMetrics(
                    cv_rate=rng.random() / 3,
                    co_rate=rng.random() / 3,
                    os_rate=rng.random(),
                    ttfc=rng.random() * 20 if rng.random() < 0.5 else None,
                    ticks=rng.randint(5, 200),
                )
            )
        return out

    def test_mean_is_arithmetic_mean(self):
        rng = random.Random(3)
        ms = self.metrics_list(rng)
        agg = aggregate_episode_metrics(ms)
        assert agg.mean_cv_rate == pytest.approx(np.mean([m.cv_rate for m in ms]), abs=1e-12)
        ttfcs = [m.ttfc for m in ms if m.ttfc is not None]
        assert agg.mean_ttfc == pytest.approx(np.mean(ttfcs), abs=1e-12)
        assert agg.episodes_with_collision == len(ttfcs)

    def test_permutation_invariant_exactly(self):
        rng = random.Random(11)
        ms = self.metrics_list(rng)
        base = aggregate_episode_metrics(ms)
        for _ in range(5):
            shuffled = ms[:]
            rng.shuffle(shuffled)
            assert aggregate_episode_metrics(shuffled) == base

    def test_no_collisions_reports_absent_ttfc(self):
        ms = [EpisodeMetrics(cv_rate=0.0, co_rate=0.0, os_rate=0.1, ttfc=None, ticks=50)
              for _ in range(5)]
        assert aggregate_episode_metrics(ms).mean_ttfc is None


def saved_bytes(report, path) -> bytes:
    report.save(path)
    return path.read_bytes()


class TestEvaluate:
    def eval_once(self, seed=3, workers=1, episodes=4, spawn_jitter=0.0):
        sc = dataclasses.replace(
            straight_scenario(route_length=30, max_steps=50), spawn_jitter=spawn_jitter
        )
        pols = {
            "victim1": Checkpoint("victim", "victim", net.init_params(tiny_net_config(), 0))
        }
        return evaluate(
            sc, pols,
            label="probe", episodes=episodes, max_steps=50,
            seed_tree=SeedTree(seed), condition_key=100, workers=workers,
        )

    def test_bit_identical_across_runs(self, tmp_path):
        r1, _ = self.eval_once()
        r2, _ = self.eval_once()
        assert saved_bytes(r1, tmp_path / "1.json") == saved_bytes(r2, tmp_path / "2.json")

    def test_parallel_matches_serial(self, tmp_path):
        # jittered spawns start some episodes beyond the lateral limit, so
        # episodes differ and a report in another episode order would too
        r1, _ = self.eval_once(workers=1, spawn_jitter=3.0)
        r2, _ = self.eval_once(workers=2, spawn_jitter=3.0)
        per = r1.per_episode["victim1"]
        assert len({repr(m) for m in per}) > 1
        assert per != per[::-1]
        assert saved_bytes(r1, tmp_path / "1.json") == saved_bytes(r2, tmp_path / "2.json")

    def test_serial_run_binds_no_worker_state(self):
        from advdrive import metrics

        self.eval_once(workers=1)
        assert metrics._worker_episode is None  # no policies kept alive in this process

    def test_report_round_trip(self, tmp_path):
        r1, _ = self.eval_once()
        p = tmp_path / "report.json"
        r1.save(p)
        assert saved_bytes(MetricsReport.load(p), tmp_path / "again.json") == p.read_bytes()

    def test_mean_equals_mean_of_per_episode(self):
        report, _ = self.eval_once(episodes=6)
        per = report.per_episode["victim1"]
        assert report.victims["victim1"].mean_os_rate == pytest.approx(
            np.mean([m.os_rate for m in per]), abs=1e-12
        )

    def test_text_table_renders_dash_for_absent_ttfc(self):
        report, _ = self.eval_once()
        if report.victims["victim1"].mean_ttfc is None:
            assert "-" in report.text_table()


def synthetic_report(label, cv, co, os_rate, ttfc, fingerprint="f" * 64):
    victims = {}
    for aid in ("victim1", "victim2"):
        victims[aid] = VictimMetrics(
            episodes=20,
            mean_cv_rate=cv,
            mean_co_rate=co,
            mean_os_rate=os_rate,
            mean_ttfc=ttfc,
            episodes_with_collision=0 if ttfc is None else 5,
        )
    return MetricsReport(
        label=label, episodes=20, max_steps=400, action_mode="sample",
        master_seed=0, condition_key=0, fingerprint=fingerprint, victims=victims,
        per_episode={},
    )


class TestCompare:
    def test_mismatched_fingerprints_rejected(self):
        a = synthetic_report("baseline", 0.0, 0.0, 0.1, None)
        b = synthetic_report("attack", 0.4, 0.0, 0.2, 12.0, fingerprint="e" * 64)
        with pytest.raises(ContractViolationError):
            compare([a, b])

    def test_reports_with_other_victims_rejected(self):
        base = synthetic_report("baseline", 0.0, 0.0, 0.1, None)
        attack = synthetic_report("attack", 0.4, 0.0, 0.2, 12.0)
        del attack.victims["victim2"]
        with pytest.raises(ContractViolationError,
                           match=r"^report 'attack' has victims \['victim1'\], expected"):
            compare([base, attack])

    def test_deltas_flag_degradation_and_improvement(self):
        base = synthetic_report("baseline", 0.0, 0.0, 0.0, None)
        attack = synthetic_report("attack", 0.4, 0.0, 0.0, 12.0)
        retrained = synthetic_report("retrained", 0.07, 0.0, 0.0, 30.0)
        table = compare([base, attack, retrained])
        assert table.composite_deltas_vs_first["attack|victim1"] == pytest.approx(0.4)
        assert table.composite_deltas_vs_first["retrained|victim1"] == pytest.approx(0.07)
        text = table.to_text()
        assert "worse" in text and "baseline" in text
        # attack vs retrained improvement visible via composite columns
        assert (table.cells["retrained|victim1"]["composite"]
                < table.cells["attack|victim1"]["composite"])

    def test_repeated_label_rejected(self):
        base = synthetic_report("evaluation", 0.0, 0.0, 0.1, None)
        attack = synthetic_report("attack", 0.4, 0.0, 0.2, 12.0)
        other = synthetic_report("evaluation", 0.8, 0.0, 0.2, 12.0)
        with pytest.raises(ContractViolationError,
                           match=r"^two reports are labelled 'evaluation'; "):
            compare([base, attack, other])

    def test_dash_rendered_for_missing_ttfc(self):
        base = synthetic_report("baseline", 0.0, 0.0, 0.1, None)
        attack = synthetic_report("attack", 0.2, 0.0, 0.3, 9.5)
        text = compare([base, attack]).to_text()
        assert "-" in text

    def test_columns_sit_under_their_headers(self):
        reports = [synthetic_report("baseline", 0.0, 0.0, 0.1, None),
                   synthetic_report("attack_collision", 0.2, 0.0, 0.3, 9.5),
                   synthetic_report("retrained_collision", 0.1, 0.0, 0.2, 12.0)]
        lines = compare(reports).to_text().splitlines()
        head, rows = lines[1], lines[2:]
        columns = [f"{r.label}/{v}" for r in reports for v in ("victim1", "victim2")]
        assert head.split()[1:] == columns
        ends = [m.end() for m in re.finditer(r"\S+", head)][1:]
        for row in rows:
            assert len(row) == len(head), row
            # each cell is right-aligned and ends where its header ends
            assert all(row[e - 1] != " " and (e == len(row) or row[e] == " ") for e in ends), row

    def test_fingerprint_ignores_adversary_presence(self):
        full = t_intersection_scenario()
        victims_only = full.subset(["victim1", "victim2"])
        f1 = scenario_fingerprint(full, "lite21", 20, 400, "sample")
        f2 = scenario_fingerprint(victims_only, "lite21", 20, 400, "sample")
        assert f1 == f2
        f3 = scenario_fingerprint(victims_only, "lite21", 21, 400, "sample")
        assert f3 != f1  # protocol changes do alter it

    @pytest.mark.parametrize("obs_mode, digest", [
        ("lite21", "31908d633174ba143f008f710c3c430d74c499946643580aa944f14e493f438a"),
        ("full84", "bf576a88f2f94b44f67279ae2653e22a65d34bacd2fef766bb72382d0b3abcdd"),
    ], ids=["lite21", "full84"])
    def test_fingerprint_is_pinned(self, obs_mode, digest):
        # reports already written carry these values; a change makes them incomparable
        victims_only = t_intersection_scenario().subset(["victim1", "victim2"])
        assert scenario_fingerprint(victims_only, obs_mode, 20, 400, "sample") == digest


class TestPlot:
    def run_and_plot(self, tmp_path):
        sc = t_intersection_scenario(max_steps=40)
        pols = {
            s.agent_id: Checkpoint(
                s.role, s.reward_kind, net.init_params(tiny_net_config(), s.seed_index)
            )
            for s in sc.agents
        }
        _, log = run_episode(sc, pols, RewardParams(), 40, SeedTree(0), (100, 0))
        svg = tmp_path / "traj.svg"
        csv_path = tmp_path / "traj.csv"
        emit_trajectory_plot(log, sc, svg, csv_path, title="probe")
        return sc, log, svg, csv_path

    def test_svg_is_well_formed_with_paths(self, tmp_path):
        sc, log, svg, _ = self.run_and_plot(tmp_path)
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) >= len(log.agent_ids)

    def test_csv_row_count_is_ticks_times_agents(self, tmp_path):
        sc, log, _, csv_path = self.run_and_plot(tmp_path)
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == log.ticks * len(log.agent_ids)

    def test_empty_log_gives_map_only_plot(self, tmp_path):
        sc = t_intersection_scenario()
        log = EpisodeLog(
            agent_ids=sc.agent_ids(), dt=0.05, seed_key=[0, 0], ticks=0,
            positions=np.zeros((0, 3, 4)),
            flags={a: {k: [] for k in ("cv", "co", "io", "iol")} for a in sc.agent_ids()},
            events=[], termination={a: Termination(None, None) for a in sc.agent_ids()},
        )
        svg = tmp_path / "empty.svg"
        csv_path = tmp_path / "empty.csv"
        emit_trajectory_plot(log, sc, svg, csv_path)
        root = ET.parse(svg).getroot()
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(rects) >= 3  # background + two road rectangles
        with open(csv_path) as fh:
            assert len(list(csv.reader(fh))) == 1  # header only

    def test_collision_event_marked(self, tmp_path):
        log = make_log({"a": {"cv": [False, True]}, "b": {"cv": [False, True]}})
        log.events = [Event(tick=2, agent_id="a", flag="cv")]
        sc = straight_scenario(
            agents=[
                {"id": "a", "spawn": (0.0, 0.0), "goal": (30.0, 0.0)},
                {"id": "b", "spawn": (10.0, 0.0), "goal": (30.0, 0.0)},
            ]
        )
        svg = tmp_path / "mark.svg"
        emit_trajectory_plot(log, sc, svg, tmp_path / "mark.csv")
        content = svg.read_text()
        assert "polygon" in content  # the collision star marker
