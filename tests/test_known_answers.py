"""Known answers of the reward, termination and map code: constant-action
drivers on the two presets (``spawn_jitter`` 0), scored tick by tick with
``rewards.reward_function`` as ``run_episode`` scores them, with no net.

A change to the rewards, the termination rules or the map geometry moves one
of these returns, end reasons or end ticks.
"""
import pytest

from advdrive.rewards import RewardParams, reward_function
from advdrive.scenario import corridor_scenario, t_intersection_scenario
from advdrive.world import ActionCommand, init_world, initial_flags, step

BRAKE = ActionCommand(brake=0.6)
THROTTLE = ActionCommand(throttle=0.6)  # straight ahead


def drive(scenario, commands):
    """Each agent's (return, end reason, end tick) when it is given its
    command from ``commands`` on every tick until it ends or the scenario's
    ``max_steps`` run out (reason and tick None)."""
    world = init_world(scenario, 0)
    prev = initial_flags(world)
    out = {spec.agent_id: [0.0, None, None] for spec in scenario.agents}
    for _ in range(scenario.max_steps):
        live = world.live_agents()
        if not live:
            break
        world, flags = step(world, {aid: commands[aid] for aid in live})
        for aid in live:
            out[aid][0] += reward_function(scenario.agent(aid).reward_kind)(
                prev[aid], flags[aid], RewardParams()
            )
            prev[aid] = flags[aid]
            if world.terminated[aid]:
                out[aid][1:] = [world.termination_reason[aid], world.tick]
    return {aid: tuple(v) for aid, v in out.items()}


class TestTIntersection:
    scenario = t_intersection_scenario(max_steps=300)

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
    scenario = corridor_scenario(max_steps=300)

    def test_braking_earns_beta_per_tick(self):
        assert drive(self.scenario, {"victim1": BRAKE}) == {"victim1": (150.0, None, None)}

    def test_throttle_reaches_the_goal(self):
        ret, reason, tick = drive(self.scenario, {"victim1": THROTTLE})["victim1"]
        assert (reason, tick) == ("goal", 143)
        assert ret == pytest.approx(220.32, abs=0.005)
