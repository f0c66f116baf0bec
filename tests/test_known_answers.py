"""Known answers of the reward, termination and map code: scripted drivers on
the two presets (``spawn_jitter`` 0), scored tick by tick with
``rewards.reward_function`` as ``run_episode`` scores them, with no net. A
driver gives each agent a constant command or follows its route
(``pursue``).

A change to the rewards, the termination rules or the map geometry moves one
of these returns, end reasons or end ticks.
"""
import math

import numpy as np
import pytest

from advdrive.geometry import normalize_angle
from advdrive.net import action_to_command
from advdrive.rewards import RewardParams, reward_function
from advdrive.scenario import ScenarioSettings, corridor_scenario, t_intersection_scenario
from advdrive.world import ActionCommand, init_world, initial_flags, step

BRAKE = ActionCommand(brake=0.6)
THROTTLE = ActionCommand(throttle=0.6)  # straight ahead
LOOKAHEAD_M = 6.0
DEADBAND_RAD = 0.1


def pursue(cruise: float):
    """A route-pursuit driver on the 3x3 action grid
    (``net.action_to_command``): it steers by the sign of the heading error
    to the route point ``LOOKAHEAD_M`` ahead of the car's projection onto its
    route (straight within ``DEADBAND_RAD``), throttles below ``cruise`` m/s
    and coasts from it up."""
    def command(world, aid):
        veh = world.vehicles[aid]
        route = world.scenario.agent(aid).route
        arc, _ = route.project(veh.position)
        along = np.concatenate(([0.0], np.cumsum(route.segments.lengths)))
        ahead = min(arc + LOOKAHEAD_M, route.length)
        x, y = (np.interp(ahead, along, route.points[:, k]) for k in (0, 1))
        error = normalize_angle(math.atan2(y - veh.position[1], x - veh.position[0]) - veh.heading)
        steer = 1 if abs(error) <= DEADBAND_RAD else 2 if error > 0 else 0
        return action_to_command(3 * steer + (0 if veh.speed < cruise else 1))
    return command


def drive(scenario, commands):
    """Each agent's (return, end reason, end tick) when it is given its
    command from ``commands`` on every tick until it ends or the scenario's
    ``max_steps`` run out (reason and tick None). A command is an
    ``ActionCommand``, or a driver called with the world and the agent's id."""
    world = init_world(scenario, 0)
    prev = initial_flags(world)
    out = {spec.agent_id: [0.0, None, None] for spec in scenario.agents}
    for _ in range(scenario.max_steps):
        live = world.live_agents()
        if not live:
            break
        world, flags = step(world, {aid: commands[aid](world, aid) if callable(commands[aid])
                                    else commands[aid] for aid in live})
        for aid in live:
            out[aid][0] += reward_function(scenario.agent(aid).reward_kind)(
                prev[aid], flags[aid], RewardParams()
            )
            prev[aid] = flags[aid]
    for aid, end in world.ended.items():
        out[aid][1:] = [end.reason, end.tick]
    return {aid: tuple(v) for aid, v in out.items()}


class TestTIntersection:
    scenario = t_intersection_scenario(ScenarioSettings(max_steps=300))

    def test_every_agent_brakes(self):
        out = drive(self.scenario, dict.fromkeys(self.scenario.agent_ids(), BRAKE))
        # beta 0.5 for each of 300 ticks in lane, no progress, no speed
        assert out["victim1"] == out["victim2"] == (150.0, None, None)
        assert out["adversary"] == (0.0, None, None)

    def test_adversary_throttles_straight_off_the_map(self):
        out = drive(self.scenario, {"victim1": BRAKE, "victim2": BRAKE, "adversary": THROTTLE})
        assert out["victim1"] == out["victim2"] == (150.0, None, None)
        ret, reason, tick = out["adversary"]
        assert (reason, tick) == ("offroad_exit", 99)
        assert ret == pytest.approx(75.94, abs=0.005)


class TestCorridor:
    scenario = corridor_scenario(ScenarioSettings(max_steps=300))

    def test_braking_earns_beta_per_tick(self):
        assert drive(self.scenario, {"victim1": BRAKE}) == {"victim1": (150.0, None, None)}

    def test_throttle_reaches_the_goal(self):
        ret, reason, tick = drive(self.scenario, {"victim1": THROTTLE})["victim1"]
        assert (reason, tick) == ("goal", 143)
        assert ret == pytest.approx(220.32, abs=0.005)


class TestRoutePursuit:
    """``pursue`` drivers on the T-intersection (300 ticks); agents given no
    cruise speed brake."""

    scenario = t_intersection_scenario(ScenarioSettings(max_steps=300))

    def run(self, **cruise):
        return drive(self.scenario, {aid: pursue(cruise[aid]) if aid in cruise else BRAKE
                                     for aid in self.scenario.agent_ids()})

    @pytest.mark.parametrize("aid, ret, tick", [("victim1", 162.98, 121), ("victim2", 201.07, 144)])
    def test_a_victim_drives_alone_to_its_goal(self, aid, ret, tick):
        out = self.run(**{aid: 8.0})
        assert out.pop(aid) == (pytest.approx(ret, abs=0.005), "goal", tick)
        assert out.pop("adversary") == (0.0, None, None)
        assert list(out.values()) == [(150.0, None, None)]

    @pytest.mark.parametrize("cruise, ret1, ret2, tick", [
        (4.0, 9.25, 8.96, 108), (6.0, -0.49, -0.78, 88),
        (8.0, -3.27, -3.56, 83), (10.0, -3.23, -3.52, 83),
    ])
    def test_victims_at_one_speed_hit_each_other(self, cruise, ret1, ret2, tick):
        out = self.run(victim1=cruise, victim2=cruise)
        assert out["victim1"] == (pytest.approx(ret1, abs=0.005), "collision", tick)
        assert out["victim2"] == (pytest.approx(ret2, abs=0.005), "collision", tick)
        assert out["adversary"] == (0.0, None, None)  # not in the collision

    def test_victims_taking_turns_both_reach_their_goals(self):
        out = self.run(victim1=3.0, victim2=10.0)
        assert out["victim1"] == (pytest.approx(218.19, abs=0.005), "goal", 232)
        assert out["victim2"] == (pytest.approx(196.17, abs=0.005), "goal", 134)

    def test_adversary_follows_its_route_to_its_goal(self):
        out = self.run(adversary=8.0)
        assert out["adversary"] == (pytest.approx(132.30, abs=0.005), "goal", 146)
        assert out["victim1"] == out["victim2"] == (150.0, None, None)

    def test_adversary_hits_a_driving_victim1(self):
        out = self.run(victim1=8.0, adversary=8.0)
        assert out["adversary"] == (pytest.approx(55.16, abs=0.005), "collision", 79)
        assert out["victim1"] == (pytest.approx(-10.34, abs=0.005), "collision", 79)
        assert out["victim2"] == (150.0, None, None)
