"""Multi-agent episode execution and the training phase loop.

Every agent renders its own observation from the shared pre-step world and
all live agents act simultaneously; no agent ever sees another agent's
network, only its rendered pixels. Each agent is rendered at its own net's
core resolution (``NetConfig.core_res()``), so the net decides what the agent
sees and a render the net cannot read cannot be built. That render, uint8
palette codes, is the one observation format: the net reads it and the
trajectory stores it as rendered. A policy is its ``Checkpoint``, and every
function here takes the policies keyed by agent id. Training phases
interleave episode collection with per-policy PPO updates (each policy
updates once its own buffer holds at least one train batch of whole
episodes), verify the policies the phase freezes by checksum after every
episode, and write checkpoints plus a phase manifest sufficient to audit the
freeze contracts.

An episode leaves an ``EpisodeLog``, the record ``episode0.json`` holds: each
agent's positions and flags per tick, the flags raised (``Event``) and how
each agent's episode ended (``Termination``, which comes from ``world``: the
log takes each agent's record from the final world's ``ended``). It is
written and read back through ``schema.write_record`` and
``schema.read_record``, which checks every key at every depth and that each
agent's flags and events fit the ticks it was live. A phase writes its records through
``schema.write_record`` too: it truncates ``train_log.jsonl`` when it starts,
appends one line per agent and episode and one per update, each flushed
before the next episode starts, and writes ``phase_manifest.json`` once it
completes or a non-finite value aborts it.

One primitive runs every per-policy job side by side:
``side_by_side(items, job, pool)``. For each item in turn, ``job(item)`` runs
on the calling thread and returns a call; each call but the last goes to a
helper thread of ``pool`` as soon as it is made, and the calling thread makes
the last call itself. Results are yielded in item order, and the first error
in item order is raised after the results before it, exactly as a serial run
yields and raises them, so outputs are the same for any CPU count. The pool
comes from ``helper_pool(helpers)``, which the caller holds for as long as it
runs jobs: ``None`` runs every call on the calling thread and starts no
thread, and leaving the block drops the calls not yet started and waits for
the running ones. The jobs are the updates of the policies due after the
same episode, on a pool per phase (the job takes the buffer and the update's
RNG, the call builds the batch and updates; every agent's episode record is
written, then its update record or its error); within each tick of
``run_episode``, every live agent's forward, on a pool per episode (the job
renders the agent, so each forward overlaps the next agents' renders, and
sampling and the world step then follow in agent order, each agent drawing
from its own RNG); and a phase's ``checksums_in`` and frozen-policy hashes
and checkpoint writes and, in ``pipeline``, each command's checkpoint loads
and fresh inits, on a pool per call. (After an abort, an update or a write
that ran alongside the failing one has still taken effect; no file records
the update.)

One rule sizes every pool (``helper_threads``), from the number of jobs and
the smallest of their nets. Below ``SIDE_BY_SIDE_MIN_PARAMS`` parameters
(``lite21``) the jobs run one after another on the calling thread and start
no thread. From it up, as many jobs run at once as the usable CPUs divided
by the threads of each BLAS call: one per CPU with a single BLAS thread, and
one at a time with BLAS at its default of every CPU, where each job's large
matrix products already use every core. Each job owns what it writes, and
numpy, LAPACK, hashlib and file writes release the GIL in their large
operations. A process pool (``metrics.evaluate`` with ``workers`` > 1)
shares the usable CPUs among its processes (``share_cpus``), so a worker's
jobs start helper threads only where processes × jobs at once fit the CPUs.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import partial
from dataclasses import dataclass

import numpy as np

from . import net
from .net import SIDE_BY_SIDE_MIN_PARAMS
from .checkpoint import Checkpoint, params_checksum, save_checkpoint
from .errors import (
    ConfigurationError,
    FreezeViolationError,
    NonFiniteError,
    PhaseAbortedError,
)
from .ppo import PpoHyper, Trajectory, build_rollout_batch, update_policy
from .raster import render
from .rewards import RewardParams, reward_function
from .scenario import ScenarioConfig
from .schema import error, read_record, write_record
from .seeding import KEY_AGENT_RNG_BASE, KEY_EPISODE_WORLD, KEY_UPDATE_BASE, SeedTree
from .world import Termination, WorldState, init_world, initial_flags, step

FLAG_NAMES = ("cv", "co", "io", "iol")
# Episodes between the `_latest` checkpoints a diverged phase falls back to.
CHECKPOINT_EVERY = 25
# Nets with at least net.SIDE_BY_SIDE_MIN_PARAMS parameters are initialised,
# loaded, hashed, saved, run forward and updated side by side. A full84 init
# spends most of its 0.24 s in a LAPACK QR that releases the GIL, and two ran
# in 0.25 s on two threads against 0.47 s one after the other. A lite21 init
# takes 0.8 ms, mostly in Python, and two took 2.5 ms on two threads against
# 1.6 ms; a lite21 load, hash or forward is likewise too short to hand to a
# thread. With two lite21 updates on two threads, train_lite21 ran a median 7%
# more agent steps/s, inside its runs' spread, and the helper's malloc arena
# raised its peak RSS by 9% (51.1 against 46.8 MB, medians of 10 paired runs).


@dataclass
class Event:
    """A flag an agent raised at a tick."""

    tick: int
    agent_id: str
    flag: str


@dataclass
class EpisodeLog:
    """Everything an episode leaves behind for metrics and plots: the record
    ``episode0.json`` holds, written and read through ``schema.write_record``
    and ``schema.read_record``. ``flags`` and ``termination`` hold an entry
    for each of ``agent_ids`` and no other, and each agent's flags are
    ``FLAG_NAMES``. An agent is live up to its termination tick, or for all
    ``ticks`` if it ran out of time: each of its flag lists holds one entry
    per live tick, and each of its events names a live tick at which that
    flag is raised."""

    agent_ids: list[str]
    dt: float
    seed_key: list[int]
    ticks: int
    positions: np.ndarray  # (ticks, agents, 4): x, y, heading, speed
    flags: dict[str, dict[str, list[bool]]]  # agent -> flag -> one per live tick
    events: list[Event]
    termination: dict[str, Termination]

    def __post_init__(self):
        shape = (self.ticks, len(self.agent_ids), 4)
        if self.positions.size == 0 and 0 in shape:  # a log without ticks holds [] in its file
            self.positions = self.positions.reshape(shape)
        if self.positions.shape != shape:
            error("positions", f"expected shape {shape} (ticks, agents, 4), "
                  f"got {self.positions.shape}")
        _check_keys("flags", self.flags, self.agent_ids, "is not in agent_ids")
        for aid, flags in self.flags.items():
            _check_keys(f"flags.{aid}", flags, FLAG_NAMES, "is not a flag name")
        _check_keys("termination", self.termination, self.agent_ids, "is not in agent_ids")
        live_ticks = {}
        for aid in self.agent_ids:
            end = self.termination[aid].tick
            if end is not None and not 1 <= end <= self.ticks:
                error(f"termination.{aid}.tick", f"expected a tick in 1..{self.ticks}, got {end}")
            live_ticks[aid] = self.ticks if end is None else end
            for name in FLAG_NAMES:
                if len(self.flags[aid][name]) != live_ticks[aid]:
                    error(f"flags.{aid}.{name}", f"expected {live_ticks[aid]} entries (one per "
                          f"live tick), got {len(self.flags[aid][name])}")
        for i, event in enumerate(self.events):
            if event.agent_id not in self.agent_ids:
                error(f"events[{i}].agent_id", f"'{event.agent_id}' is not in agent_ids")
            if event.flag not in FLAG_NAMES:
                error(f"events[{i}].flag", f"'{event.flag}' is not a flag name")
            live, raised = live_ticks[event.agent_id], self.flags[event.agent_id][event.flag]
            if not (1 <= event.tick <= live and raised[event.tick - 1]):
                error(f"events[{i}].tick", f"'{event.agent_id}' raised no {event.flag} at tick "
                      f"{event.tick} (live ticks 1..{live})")

    @staticmethod
    def load(path) -> "EpisodeLog":
        return read_record(EpisodeLog, path, "episode log")


def _check_keys(key: str, mapping: dict, expected, unknown: str) -> None:
    """Raises ``ValidationError`` naming ``key.<name>`` unless ``mapping`` is
    keyed by exactly the names in ``expected``."""
    for name in mapping:
        if name not in expected:
            error(f"{key}.{name}", f"'{name}' {unknown}")
    for name in expected:
        if name not in mapping:
            error(f"{key}.{name}", "missing key")


def episode_world(scenario: ScenarioConfig, seed_tree: SeedTree,
                  key_prefix: tuple[int, ...]) -> WorldState:
    """The initial world of the episode keyed by ``key_prefix``."""
    return init_world(scenario, seed=seed_tree.sequence(*key_prefix, KEY_EPISODE_WORLD))


def run_episode(
    scenario: ScenarioConfig,
    policies: dict[str, Checkpoint],
    reward_params: RewardParams,
    max_steps: int,
    seed_tree: SeedTree,
    key_prefix: tuple[int, ...],
    collect: set[str] | None = None,
    action_mode: str = "sample",
) -> tuple[dict[str, Trajectory], EpisodeLog]:
    """Run one episode; returns per-agent trajectories for `collect` agents
    and the episode log. Deterministic in (scenario, policies, key_prefix).

    Each tick renders the live agents in agent order and runs their forwards
    through ``side_by_side`` on a pool held for the episode, sized by
    ``helper_threads(len(agents), ...)`` (see the module docstring), so for
    nets from ``SIDE_BY_SIDE_MIN_PARAMS`` up each but the last forward
    overlaps the next agents' renders, and smaller nets start no thread. The
    forwards' results are then taken in agent order, each followed by its
    agent's action (drawn from its own RNG in ``sample`` mode), and the world
    steps once. So the outputs do not depend on the thread count, and neither
    does the error: a failing render, forward or draw raises the error of the
    first failing agent in agent order, once every started forward has ended;
    forwards not yet started are dropped.
    """
    collect = set() if collect is None else set(collect)
    ids = scenario.agent_ids()
    for aid in ids:
        if aid not in policies:
            raise ConfigurationError(f"no policy provided for agent '{aid}'")
    res = {aid: policies[aid].params.config.core_res() for aid in ids}
    greedy = action_mode == "greedy"

    world = episode_world(scenario, seed_tree, key_prefix)
    rngs = {
        aid: seed_tree.rng(*key_prefix, KEY_AGENT_RNG_BASE + scenario.agent(aid).seed_index)
        for aid in ids
    }
    prev_flags = initial_flags(world)
    reward_fns = {aid: reward_function(policies[aid].reward_kind) for aid in ids}

    trajectories = {aid: Trajectory(agent_id=aid) for aid in collect}
    flag_log = {aid: {k: [] for k in FLAG_NAMES} for aid in ids}
    events, positions = [], []

    with _policy_pool(policies, ids) as pool:
        for _ in range(max_steps):
            live = world.live_agents()
            if not live:
                break
            actions = {}
            pending = {}
            forwards = side_by_side(live, partial(_render_forward, world, policies, res), pool)
            for aid, (obs, logits, value) in zip(live, forwards):
                chosen = net.greedy_action(logits) if greedy else net.sample_action(logits, rngs[aid])
                actions[aid] = net.action_to_command(chosen.index)
                pending[aid] = (obs, chosen, value)

            world, flags = step(world, actions)

            for aid in live:
                fl = flags[aid]
                for name in FLAG_NAMES:
                    value_flag = getattr(fl, name)
                    flag_log[aid][name].append(bool(value_flag))
                    if value_flag:
                        events.append(Event(world.tick, aid, name))
                if aid in collect:
                    obs, chosen, value = pending[aid]
                    reward = reward_fns[aid](prev_flags[aid], fl, reward_params)
                    trajectories[aid].append(
                        obs.pixels, chosen.index, chosen.log_prob_vector, value, reward
                    )
                prev_flags[aid] = fl

            vehicles = [world.vehicles[aid] for aid in ids]
            positions.append([(*v.position[:2], v.heading, v.speed) for v in vehicles])

    log = EpisodeLog(
        agent_ids=ids, dt=scenario.dt, seed_key=list(key_prefix), ticks=len(positions),
        positions=np.asarray(positions, dtype=np.float64), flags=flag_log, events=events,
        termination={aid: world.ended.get(aid, Termination(None, None)) for aid in ids},
    )
    return trajectories, log


def _render_forward(world: WorldState, policies: dict[str, Checkpoint], res: dict[str, int],
                    aid: str):
    """Renders ``aid``; returns the call giving its observation and its
    net's forward on it."""
    obs = render(world, aid, res[aid])
    return lambda: (obs,) + net.forward(policies[aid].params, obs.pixels)


@dataclass
class PhaseResult:
    episodes_run: int
    steps_run: int
    checkpoint_paths: dict[str, str]
    checkpoint_checksums: dict[str, str]


def _save_policy_checkpoints(policies, agent_ids, out_dir, suffix=""):
    paths = {aid: os.path.join(out_dir, "checkpoints", f"{aid}{suffix}.ckpt")
             for aid in agent_ids}
    return paths, _per_policy(policies, agent_ids,
                              lambda aid: partial(save_checkpoint, paths[aid], policies[aid]))


def _checksums(policies: dict[str, Checkpoint], agent_ids) -> dict[str, str]:
    """``params_checksum`` of each of ``agent_ids``' policies, by id."""
    return _per_policy(policies, agent_ids,
                       lambda aid: partial(params_checksum, policies[aid].params))


def _check_frozen(policies: dict[str, Checkpoint], frozen_checksums: dict[str, str],
                  phase_name: str) -> None:
    """Raises ``FreezeViolationError`` naming the first frozen policy, in
    agent order, whose checksum differs from ``frozen_checksums``."""
    for aid, checksum in _checksums(policies, list(frozen_checksums)).items():
        if checksum != frozen_checksums[aid]:
            raise FreezeViolationError(f"frozen policy '{aid}' changed during phase '{phase_name}'")


def _per_policy(policies: dict[str, Checkpoint], agent_ids, job) -> dict:
    """The results of the calls ``job(aid)`` returns, by id, run side by side
    on a pool of their own sized for the smallest of the policies' nets."""
    with _policy_pool(policies, agent_ids) as pool:
        return dict(zip(agent_ids, side_by_side(agent_ids, job, pool)))


def _policy_pool(policies: dict[str, Checkpoint], agent_ids):
    """``helper_pool`` for side-by-side jobs of ``agent_ids``' policies, sized
    by ``helper_threads`` for the smallest of their nets."""
    params = min((policies[aid].net_config.param_count() for aid in agent_ids), default=0)
    return helper_pool(helper_threads(len(agent_ids), params))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _blas_threads() -> int:
    """Threads per BLAS call, read from the variables OpenBLAS reads at load
    in its order of precedence; unset, BLAS libraries use every CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return _usable_cpus()


# Processes that share the usable CPUs: 1, or in a process pool's worker the
# size of the pool (``share_cpus``).
_processes = 1


def share_cpus(processes: int) -> None:
    """Count the usable CPUs as shared by ``processes`` processes running
    side by side, this one among them; ``helper_threads`` gives each its
    share."""
    global _processes
    _processes = processes


def helper_threads(jobs: int, params: int) -> int:
    """Helper threads for ``jobs`` independent per-policy jobs on nets of at
    least ``params`` parameters, the one rule that sizes every
    ``helper_pool``: none below ``SIDE_BY_SIDE_MIN_PARAMS``; from it up, one
    fewer than the jobs that run at once, which are this process's share of
    the usable CPUs divided by the threads of each BLAS call, at least one
    and at most ``jobs``."""
    if params < SIDE_BY_SIDE_MIN_PARAMS:
        return 0
    return min(jobs, max(1, _usable_cpus() // (_blas_threads() * _processes))) - 1


@contextmanager
def helper_pool(helpers: int):
    """A pool of ``helpers`` threads for ``side_by_side``, or None, which
    starts no thread, when ``helpers`` < 1. Leaving the block drops the calls
    not yet started and waits for the running ones."""
    if helpers < 1:
        yield None
        return
    pool = ThreadPoolExecutor(max_workers=helpers)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def side_by_side(items, job, pool):
    """Yields, in item order, the result of the call that ``job(item)``
    returns for each of the sequence ``items``.

    Each ``job(item)`` runs on the calling thread, in item order. With a
    ``pool`` (``helper_pool``), each call but the last goes to it as soon as
    it is made, and the calling thread makes the last call itself; with None,
    every call runs on the calling thread in its turn. Either way a failing
    job or call raises after the results before it are yielded, as a serial
    run raises it; once the error leaves the pool's block, every started call
    has ended and the calls not yet started are dropped.
    """
    if pool is None or len(items) < 2:
        for item in items:
            yield job(item)()
        return
    futures = []
    try:
        for item in items[:-1]:
            futures.append(pool.submit(job(item)))
        last = job(items[-1])()
    except Exception:
        for future in futures:
            yield future.result()
        raise
    for future in futures:
        yield future.result()
    yield last


def _update(pol: Checkpoint, trajectories: list[Trajectory], hyper: PpoHyper, rng):
    """Build one policy's rollout batch and update the policy; returns
    update_policy's result, its stats joined by the episodes' count and mean
    undiscounted reward. `trajectories` is emptied once the batch holds
    their steps."""
    episode_rewards = np.array([float(np.sum(t.rewards)) for t in trajectories])
    batch = build_rollout_batch(trajectories, hyper.gamma, hyper.gae_lambda)
    trajectories.clear()
    if pol.adam is None:
        pol.adam = net.init_adam_state(pol.params)
    params, adam, kl_coef, stats = update_policy(pol.params, pol.adam, batch, hyper,
                                                 pol.kl_coef, rng)
    stats.update(n_episodes=len(episode_rewards),
                 mean_episode_reward=float(episode_rewards.mean()))
    return params, adam, kl_coef, stats


def run_training_phase(
    *,
    phase_name: str,
    phase_key: int,
    scenario: ScenarioConfig,
    policies: dict[str, Checkpoint],
    hyper: PpoHyper,
    reward_params: RewardParams,
    episodes: int,
    step_cap: int | None,
    seed_tree: SeedTree,
    out_dir: str,
    frozen: tuple[str, ...] = (),
    config_echo: dict | None = None,
) -> PhaseResult:
    """Collect-and-update loop for one phase. The policies of the ``frozen``
    ids are not trained, and are checksum verified after every episode; any
    mutation aborts the phase. The others are trained in place. Every
    ``CHECKPOINT_EVERY`` (25) episodes the trainable policies are saved as
    ``<id>_latest`` checkpoints; a non-finite loss or gradient aborts the
    phase with those last good checkpoints preserved. For nets from
    ``SIDE_BY_SIDE_MIN_PARAMS`` up, the updates due after the same episode run
    side by side, and so do the ``checksums_in`` hashes, the frozen checks and
    the checkpoint writes; smaller nets run each of them on the calling
    thread and start no thread (see the module docstring).
    """
    os.makedirs(out_dir, exist_ok=True)
    ids = scenario.agent_ids()
    trainable = [aid for aid in ids if aid not in frozen]
    frozen = [aid for aid in ids if aid not in trainable]
    if not trainable:
        raise ConfigurationError(f"phase '{phase_name}' has no trainable policy")

    checksums_in = _checksums(policies, ids)
    frozen_checksums = {aid: checksums_in[aid] for aid in frozen}
    buffers: dict[str, list[Trajectory]] = {aid: [] for aid in trainable}

    episodes_run = 0
    steps_run = 0
    last_paths: dict[str, str] = {}
    status = "completed"
    abort_message = None

    def update_job(aid):
        """Takes ``aid``'s buffer and its update's RNG; returns the update."""
        pol = policies[aid]
        rng = seed_tree.rng(phase_key, KEY_UPDATE_BASE + pol.counters["updates"],
                            scenario.agent(aid).seed_index)
        trajectories, buffers[aid] = buffers[aid], []
        return partial(_update, pol, trajectories, hyper, rng)

    try:
        # For nets from SIDE_BY_SIDE_MIN_PARAMS up, the last due update runs
        # on this thread: it reuses the memory that the rollouts freed in this
        # thread's malloc arena, which helper threads, each with an arena of
        # their own, cannot (peak RSS 60 MB higher on a full84 phase with both
        # updates on helpers). Smaller nets run every update on this thread.
        with open(os.path.join(out_dir, "train_log.jsonl"), "wb") as train_log, \
                _policy_pool(policies, trainable) as pool:
            for ep in range(episodes):
                if step_cap is not None and steps_run >= step_cap:
                    break
                trajs, log = run_episode(
                    scenario,
                    policies,
                    reward_params,
                    max_steps=scenario.max_steps,
                    seed_tree=seed_tree,
                    key_prefix=(phase_key, ep),
                    collect=set(trainable),
                )
                episodes_run += 1
                steps_run += log.ticks
                for aid in trainable:
                    buffers[aid].append(trajs[aid])
                due = [aid for aid in trainable
                       if sum(len(t) for t in buffers[aid]) >= hyper.train_batch]
                updates = side_by_side(due, update_job, pool)

                for aid in trainable:
                    pol = policies[aid]
                    pol.counters["episodes"] += 1
                    pol.counters["env_steps"] += len(trajs[aid])
                    ep_reward = float(np.sum(trajs[aid].rewards))
                    write_record(train_log, {"type": "episode", "phase": phase_name,
                                             "agent_id": aid, "episode": ep,
                                             "reward": ep_reward, "length": len(trajs[aid])})
                    if aid in due:
                        pol.params, pol.adam, pol.kl_coef, upd = next(updates)
                        pol.counters["updates"] += 1
                        write_record(train_log, {"type": "update", "phase": phase_name,
                                                 "agent_id": aid, "episode": ep, **upd})

                _check_frozen(policies, frozen_checksums, phase_name)
                if (ep + 1) % CHECKPOINT_EVERY == 0:
                    last_paths, _ = _save_policy_checkpoints(policies, trainable, out_dir,
                                                             "_latest")
    except NonFiniteError as exc:
        status = "aborted"
        abort_message = str(exc)

    if status == "completed":
        paths, checksums = _save_policy_checkpoints(policies, trainable, out_dir)
    else:
        paths, checksums = dict(last_paths), {}

    _check_frozen(policies, frozen_checksums, phase_name)

    write_record(os.path.join(out_dir, "phase_manifest.json"), {
        "phase": phase_name,
        "phase_key": phase_key,
        "master_seed": seed_tree.master_seed,
        "status": status,
        "abort_message": abort_message,
        "episodes_budget": episodes,
        "episodes_run": episodes_run,
        "step_cap": step_cap,
        "steps_run": steps_run,
        "agents": ids,
        "trainable": trainable,
        "frozen": frozen,
        "checksums_in": checksums_in,
        "checkpoints_out": {aid: {"path": paths.get(aid), "checksum": checksums.get(aid)} for aid in trainable},
        "frozen_checksums": frozen_checksums,
        "config": config_echo or {},
    }, indent=2)

    if status == "aborted":
        raise PhaseAbortedError(
            f"phase '{phase_name}' aborted: {abort_message}", last_checkpoints=paths
        )
    return PhaseResult(
        episodes_run=episodes_run,
        steps_run=steps_run,
        checkpoint_paths=paths,
        checkpoint_checksums=checksums,
    )
