import dataclasses
import math

import numpy as np
import pytest

from conftest import straight_scenario

from advdrive import world
from advdrive.errors import ConfigurationError, ContractViolationError
from advdrive.geometry import obb_overlap
from advdrive.scenario import ScenarioSettings, VehicleParams, t_intersection_scenario
from advdrive.world import (
    ActionCommand,
    Termination,
    init_world,
    initial_flags,
    route_flags,
    step,
)


def coast():
    return ActionCommand(steer=0.0, throttle=0.0, brake=0.0)


def all_coast(world):
    return {aid: coast() for aid in world.live_agents()}


class TestInitWorld:
    def test_default_scenario_uses_reference_coordinates(self):
        sc = t_intersection_scenario(ScenarioSettings())
        w = init_world(sc, 0)
        assert np.allclose(w.vehicles["victim1"].position, (188.0, 59.0))
        assert np.allclose(sc.agent("victim1").goal, (167.0, 75.7))
        assert np.allclose(w.vehicles["adversary"].position, (170.5, 80.0))
        assert np.allclose(sc.agent("adversary").goal, (144.0, 59.0))
        assert np.allclose(w.vehicles["victim2"].position, (147.6, 62.6))
        assert np.allclose(sc.agent("victim2").goal, (191.2, 62.7))

    def test_spawn_state(self):
        sc = t_intersection_scenario(ScenarioSettings())
        w = init_world(sc, 3)
        assert w.tick == 0
        for aid in sc.agent_ids():
            assert w.vehicles[aid].speed == 0.0
        assert w.ended == {} and w.live_agents() == sc.agent_ids()
        # headings aligned with route starts
        assert w.vehicles["victim1"].heading == pytest.approx(math.pi)  # westbound
        assert w.vehicles["adversary"].heading == pytest.approx(-math.pi / 2)  # southbound

    def test_same_seed_identical_state(self):
        sc = t_intersection_scenario(ScenarioSettings(spawn_jitter=0.4))
        assert init_world(sc, 7).digest() == init_world(sc, 7).digest()
        assert init_world(sc, 7).digest() != init_world(sc, 8).digest()

    def test_digest_is_the_dynamic_state(self):
        # seeds differ through the spawn jitter they draw; the world keeps no generator
        jittered = t_intersection_scenario(ScenarioSettings(spawn_jitter=0.4))
        assert len({init_world(jittered, seed).digest() for seed in range(10)}) == 10
        still = t_intersection_scenario(ScenarioSettings())
        assert len({init_world(still, seed).digest() for seed in range(10)}) == 1
        w = init_world(still, 0)
        before = w.digest()
        w.ended["victim1"] = Termination(1, "goal")
        assert w.digest() != before

    def test_overlapping_spawns_rejected(self):
        sc = straight_scenario(
            agents=[
                {"id": "a", "spawn": (0.0, 0.0), "goal": (30.0, 0.0)},
                {"id": "b", "spawn": (2.0, 0.5), "goal": (30.0, 1.0)},
            ]
        )
        with pytest.raises(ConfigurationError):
            init_world(sc, 0)

    def test_spawn_outside_map_rejected(self):
        sc = straight_scenario(
            agents=[{"id": "a", "spawn": (0.0, 50.0), "goal": (30.0, 0.0)}]
        )
        with pytest.raises(ConfigurationError):
            init_world(sc, 0)


class TestStepDynamics:
    def test_zero_input_is_fixed_point(self):
        sc = straight_scenario()
        w = init_world(sc, 0)
        w2, flags = step(w, all_coast(w))
        assert w2.tick == 1
        assert flags["victim1"].f == 0.0
        assert np.array_equal(w2.vehicles["victim1"].position, w.vehicles["victim1"].position)

    def test_straight_line_displacement_closed_form(self):
        # dragless vehicle holding 10 m/s for 20 ticks covers 10 * 0.05 * 20 m
        sc = straight_scenario()
        sc = dataclasses.replace(sc, vehicle=VehicleParams(drag=0.0))
        w = init_world(sc, 0)
        w.vehicles["victim1"].speed = 10.0
        start = w.vehicles["victim1"].position.copy()
        for _ in range(20):
            w, _ = step(w, all_coast(w))
        disp = w.vehicles["victim1"].position - start
        assert abs(disp[0] - 10.0) < 1e-9
        assert abs(disp[1]) < 1e-12
        assert w.vehicles["victim1"].speed == pytest.approx(10.0, abs=1e-12)

    def test_throttle_accelerates_brake_stops(self):
        sc = straight_scenario()
        w = init_world(sc, 0)
        w, flags = step(w, {"victim1": ActionCommand(throttle=1.0)})
        # dv = a_max * dt
        assert flags["victim1"].f == pytest.approx(4.0 * 0.05)
        for _ in range(10):
            w, flags = step(w, {"victim1": ActionCommand(brake=1.0)})
        assert flags["victim1"].f == 0.0  # braking never yields reverse motion

    def test_speed_clamped_to_bounds(self, rng):
        sc = straight_scenario(route_length=2000.0, max_steps=3000)
        w = init_world(sc, 0)
        vmax = sc.vehicle.speed_max
        for _ in range(300):
            if w.ended:
                break
            cmd = ActionCommand(
                steer=float(rng.uniform(-1, 1)),
                throttle=float(rng.uniform(0, 1)),
                brake=float(rng.uniform(0, 1)),
            )
            w, flags = step(w, {"victim1": cmd})
            assert 0.0 <= flags["victim1"].f <= vmax

    def test_heading_turns_with_steer(self):
        sc = straight_scenario()
        w = init_world(sc, 0)
        w.vehicles["victim1"].speed = 10.0
        w2, _ = step(w, {"victim1": ActionCommand(steer=0.5)})
        p = sc.vehicle
        expected = (10.0 / p.wheelbase) * math.tan(0.5 * p.steer_max_rad) * sc.dt
        assert w2.vehicles["victim1"].heading == pytest.approx(expected)

    def test_determinism_bitwise(self):
        sc = t_intersection_scenario(ScenarioSettings())
        seqs = []
        for _ in range(2):
            w = init_world(sc, 11)
            digests = []
            for k in range(30):
                cmds = {
                    aid: ActionCommand(steer=((k + i) % 3 - 1) * 0.5, throttle=0.7)
                    for i, aid in enumerate(w.live_agents())
                }
                w, _ = step(w, cmds)
                digests.append(w.digest())
            seqs.append(digests)
        assert seqs[0] == seqs[1]


class TestCollisions:
    def collide_two(self):
        sc = straight_scenario(
            agents=[
                {"id": "a", "spawn": (0.0, 0.0), "goal": (40.0, 0.0)},
                {"id": "b", "spawn": (6.0, 0.0), "goal": (40.0, 0.0)},
            ]
        )
        w = init_world(sc, 0)
        w.vehicles["a"].speed = 10.0
        flags = {}
        for _ in range(10):
            if not w.live_agents():
                break
            acts = {aid: coast() for aid in w.live_agents()}
            w, flags = step(w, acts)
            if any(f.cv for f in flags.values()):
                break
        return w, flags

    def test_collision_symmetric_and_terminates(self):
        w, flags = self.collide_two()
        assert flags["a"].cv and flags["b"].cv
        assert w.ended == {"a": Termination(w.tick, "collision"),
                           "b": Termination(w.tick, "collision")}

    def test_terminated_agents_freeze(self):
        sc = straight_scenario(
            agents=[
                {"id": "a", "spawn": (0.0, 0.0), "goal": (40.0, 0.0)},
                {"id": "b", "spawn": (6.0, 0.0), "goal": (40.0, 0.0)},
                {"id": "c", "spawn": (0.0, 3.0), "goal": (40.0, 3.0)},
            ]
        )
        w = init_world(sc, 0)
        w.vehicles["a"].speed = 12.0
        while w.live_agents() != ["c"]:
            w, _ = step(w, {aid: coast() for aid in w.live_agents()})
        frozen_pos = w.vehicles["a"].position.copy()
        for _ in range(5):
            w, flags = step(w, {"c": ActionCommand(throttle=0.5)})
            assert "a" not in flags and "b" not in flags  # no new flags for frozen agents
            assert np.array_equal(w.vehicles["a"].position, frozen_pos)

    def test_moving_into_frozen_vehicle_sets_cv(self):
        sc = straight_scenario(
            agents=[
                {"id": "a", "spawn": (0.0, 0.0), "goal": (40.0, 0.0)},
                {"id": "b", "spawn": (6.0, 0.0), "goal": (40.0, 0.0)},
                {"id": "c", "spawn": (-8.0, 0.0), "goal": (40.0, 0.0)},
            ]
        )
        w = init_world(sc, 0)
        w.vehicles["a"].speed = 12.0
        while "a" not in w.ended:
            w, _ = step(w, {aid: coast() for aid in w.live_agents()})
        wreck = dict(w.ended)
        assert sorted(wreck) == ["a", "b"]
        # drive c into the wreck
        for _ in range(400):
            if "c" in w.ended:
                break
            w, flags = step(w, {"c": ActionCommand(throttle=1.0)})
        assert list(flags) == ["c"] and flags["c"].cv
        assert w.ended == {**wreck, "c": Termination(w.tick, "collision")}

    def test_each_pair_with_a_live_member_is_tested_once_per_tick(self, monkeypatch):
        sc = straight_scenario(
            agents=[
                {"id": "a", "spawn": (0.0, 0.0), "goal": (40.0, 0.0)},
                {"id": "b", "spawn": (6.0, 0.0), "goal": (40.0, 0.0)},
                {"id": "c", "spawn": (0.0, 3.0), "goal": (40.0, 3.0)},
            ]
        )
        w = init_world(sc, 0)
        w.vehicles["a"].speed = 12.0
        calls = []
        monkeypatch.setattr(world, "obb_overlap", lambda p, q: calls.append(1) or obb_overlap(p, q))
        per_tick, expected = [], []
        for _ in range(20):
            ended = len(w.ended)
            expected.append(3 - ended * (ended - 1) // 2)  # pairs less those of two ended agents
            before = len(calls)
            w, _ = step(w, all_coast(w))
            per_tick.append(len(calls) - before)
        assert sorted(w.ended) == ["a", "b"]  # a hit b, so the last ticks test (a, c), (b, c)
        assert per_tick == expected and set(per_tick) == {2, 3}

    def test_leaving_road_entirely_sets_co(self):
        sc = straight_scenario(road_halfwidth=4.0)
        w = init_world(sc, 0)
        w.vehicles["victim1"].heading = math.pi / 2  # aim straight off the road
        w.vehicles["victim1"].speed = 10.0
        reasons = None
        for _ in range(40):
            if w.ended:
                reasons = w.ended["victim1"].reason
                break
            w, flags = step(w, {"victim1": coast()})
        assert reasons == "offroad_exit"
        assert flags["victim1"].co


class TestOffroadAndDistance:
    def test_on_centerline_no_flags(self):
        sc = straight_scenario()
        w = init_world(sc, 0)
        assert route_flags(w, "victim1")[:2] == (False, False)

    def test_lateral_offset_outside_lane(self):
        sc = straight_scenario()
        w = init_world(sc, 0)
        w.vehicles["victim1"].position = np.array([10.0, 2.0])
        assert route_flags(w, "victim1")[:2] == (False, True)  # 2.0 > 3.5/2

    def test_same_offset_inside_intersection(self):
        sc = straight_scenario(with_intersection=True)
        w = init_world(sc, 0)
        w.vehicles["victim1"].position = np.array([25.0, 2.0])
        assert route_flags(w, "victim1")[:2] == (True, True)

    def test_offset_within_lane_is_clean(self):
        sc = straight_scenario()
        w = init_world(sc, 0)
        w.vehicles["victim1"].position = np.array([10.0, 1.5])
        assert route_flags(w, "victim1")[:2] == (False, False)

    def test_remaining_distance_along_route(self):
        sc = straight_scenario(route_length=30.0)
        w = init_world(sc, 0)
        assert route_flags(w, "victim1")[2] == pytest.approx(30.0, abs=1e-6)
        w.vehicles["victim1"].position = np.array([5.0, 0.0])
        assert route_flags(w, "victim1")[2] == pytest.approx(25.0, abs=1e-6)
        w.vehicles["victim1"].position = np.array([30.0, 0.0])
        assert route_flags(w, "victim1")[2] == 0.0

    def test_distance_zero_iff_within_goal_tolerance(self):
        sc = straight_scenario(route_length=30.0)
        w = init_world(sc, 0)
        w.vehicles["victim1"].position = np.array([29.2, 0.0])
        assert route_flags(w, "victim1")[2] == 0.0  # within 1 m
        w.vehicles["victim1"].position = np.array([28.9, 0.0])
        assert route_flags(w, "victim1")[2] > 0.0

    def test_distance_non_increasing_driving_route(self):
        sc = straight_scenario(route_length=60.0, max_steps=400)
        w = init_world(sc, 0)
        prev = route_flags(w, "victim1")[2]
        for _ in range(120):
            if w.ended:
                break
            w, flags = step(w, {"victim1": ActionCommand(throttle=0.8)})
            assert flags["victim1"].d <= prev + 1e-12
            prev = flags["victim1"].d

    def test_initial_flags(self):
        sc = straight_scenario(route_length=30.0)
        w = init_world(sc, 0)
        flags = initial_flags(w)
        f = flags["victim1"]
        assert (f.cv, f.co, f.io, f.iol) == (False, False, False, False)
        assert f.f == 0.0
        assert f.d == pytest.approx(30.0, abs=1e-6)


class TestContracts:
    def test_action_for_unknown_agent(self):
        sc = straight_scenario()
        w = init_world(sc, 0)
        with pytest.raises(ContractViolationError):
            step(w, {"victim1": coast(), "ghost": coast()})

    def test_missing_action(self):
        sc = t_intersection_scenario(ScenarioSettings())
        w = init_world(sc, 0)
        with pytest.raises(ContractViolationError):
            step(w, {"victim1": coast()})

    def test_action_for_terminated_agent(self):
        sc = straight_scenario(
            agents=[
                {"id": "a", "spawn": (0.0, 0.0), "goal": (40.0, 0.0)},
                {"id": "b", "spawn": (6.0, 0.0), "goal": (40.0, 0.0)},
            ]
        )
        w = init_world(sc, 0)
        w.vehicles["a"].speed = 10.0
        while "a" not in w.ended:
            w, _ = step(w, {aid: coast() for aid in w.live_agents()})
        with pytest.raises(ContractViolationError):
            step(w, {aid: coast() for aid in w.scenario.agent_ids()})

    def test_action_range_validation(self):
        sc = straight_scenario()
        w = init_world(sc, 0)
        with pytest.raises(ContractViolationError):
            step(w, {"victim1": ActionCommand(steer=1.5)})
        with pytest.raises(ContractViolationError):
            step(w, {"victim1": ActionCommand(throttle=-0.1)})

    def test_goal_reach_terminates(self):
        sc = straight_scenario(route_length=30.0)
        w = init_world(sc, 0)
        w.vehicles["victim1"].position = np.array([29.5, 0.0])
        w.vehicles["victim1"].speed = 5.0
        w, flags = step(w, {"victim1": coast()})
        assert w.ended == {"victim1": Termination(1, "goal")}
        assert flags["victim1"].d == 0.0
