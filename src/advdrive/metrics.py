"""Evaluation metrics and condition comparison.

Per victim and episode: the fraction of its simulated ticks with a vehicle
collision (cv_rate), an object collision (co_rate), or an out-of-lane flag
(os_rate), plus time-to-first-collision in seconds (absent when the episode
had no collision). ``report.json`` is a ``MetricsReport``: each episode's
metrics are an ``EpisodeMetrics`` under ``per_episode``, and each victim's
averages a ``VictimMetrics`` under ``victims``. It is written and read back
through ``schema.write_record`` and ``schema.read_record``, so a missing,
unknown or mistyped key at any depth fails by its dotted name. Reports average
over a fixed number of frozen-policy episodes and carry a scenario fingerprint
so only like-for-like conditions can be compared. ``METRICS`` names the
averages both text tables show, in their order: the ``VictimMetrics`` fields
that carry a title. The fingerprint covers the victims' part of the scenario,
the evaluation protocol and what the victims saw: the obs mode, taken from
the names of the victims' nets (each victim is rendered at its own net's
resolution), and the raster's fixed view extents.

``evaluate`` cuts its episodes into fixed blocks of ``EVAL_BLOCK``, the last
one shorter, and runs each block's episodes in lockstep
(``orchestrator.Lockstep``): each tick, each agent's net runs one forward on
its rows of the block's live episodes, in episode order. The blocks depend
only on the episode count, and a process pool (``workers`` > 1) maps
blocks, not episodes, so every forward has the same rows, and the report the
same bytes, for any worker count.

``compare`` lines up reports of distinct labels in a ``ComparisonTable``,
whose fields are the keys of ``compare.json``: its ``cells`` and
``composite_deltas_vs_first`` are keyed ``"label|victim"`` in memory as in
the file, which ``save`` writes through ``schema.write_record``.
"""
from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from .checkpoint import Checkpoint
from .errors import ContractViolationError
from .orchestrator import EpisodeLog, Lockstep, run_episode, share_cpus
from .raster import VIEW_AHEAD, VIEW_SIDE
from .rewards import RewardParams
from .scenario import ScenarioConfig
from .schema import read_record, write_record
from .seeding import SeedTree


@dataclass
class EpisodeMetrics:
    """One victim's metrics over one episode: a report's ``per_episode`` entry."""

    cv_rate: float
    co_rate: float
    os_rate: float
    ttfc: float | None
    ticks: int


@dataclass
class VictimMetrics:
    """One victim's averages over the episodes: a report's ``victims`` entry.
    The text tables show the fields with a title, in field order."""

    episodes: int
    mean_cv_rate: float = field(metadata={"title": "collision with cars"})
    mean_co_rate: float = field(metadata={"title": "collision with objects"})
    mean_os_rate: float = field(metadata={"title": "offroad steering"})
    mean_ttfc: float | None = field(metadata={"title": "time to first collision"})
    episodes_with_collision: int


# (field, text-table title) of each per-victim average the tables show
METRICS = tuple((f.name, f.metadata["title"]) for f in fields(VictimMetrics) if f.metadata)


def episode_metrics(log: EpisodeLog, agent_id: str) -> EpisodeMetrics:
    """Error rates over the ticks this agent was actually simulated."""
    flags = log.flags[agent_id]
    ticks = len(flags["cv"])
    if ticks == 0:
        return EpisodeMetrics(0.0, 0.0, 0.0, None, 0)
    cv = np.asarray(flags["cv"], dtype=bool)
    co = np.asarray(flags["co"], dtype=bool)
    iol = np.asarray(flags["iol"], dtype=bool)
    collided = cv | co
    ttfc = None
    if collided.any():
        first = int(np.flatnonzero(collided)[0])
        ttfc = (first + 1) * log.dt
    return EpisodeMetrics(float(cv.mean()), float(co.mean()), float(iol.mean()), ttfc, ticks)


@dataclass
class MetricsReport:
    """One condition's evaluation: the record ``report.json`` holds."""

    label: str
    episodes: int
    max_steps: int
    action_mode: str
    master_seed: int
    condition_key: int
    fingerprint: str
    victims: dict[str, VictimMetrics]
    per_episode: dict[str, list[EpisodeMetrics]]

    def composite(self, agent_id: str) -> float:
        v = self.victims[agent_id]
        return v.mean_cv_rate + v.mean_co_rate + v.mean_os_rate

    def save(self, path) -> None:
        write_record(path, self, indent=1)

    @staticmethod
    def load(path) -> "MetricsReport":
        return read_record(MetricsReport, path, "metrics report")

    def text_table(self) -> str:
        lines = [f"condition: {self.label}  (episodes={self.episodes}, mode={self.action_mode})"]
        header = f"{'metric':<28}" + "".join(f"{a:>14}" for a in sorted(self.victims))
        lines.append(header)
        for metric, title in METRICS:
            row = f"{title:<28}"
            for a in sorted(self.victims):
                v = getattr(self.victims[a], metric)
                row += f"{'-':>14}" if v is None else f"{v:>14.4f}"
            lines.append(row)
        return "\n".join(lines)


def scenario_fingerprint(
    scenario: ScenarioConfig, obs_mode: str, episodes: int, max_steps: int, action_mode: str
) -> str:
    payload = {
        "scenario": scenario.fingerprint_payload(),
        "raster": {"mode": obs_mode, "view_ahead": VIEW_AHEAD, "view_side": VIEW_SIDE},
        "episodes": episodes,
        "max_steps": max_steps,
        "action_mode": action_mode,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# Episodes per lockstep block: a worker's unit of work, whose episodes advance
# one tick together with one forward per policy on their stacked rows.
EVAL_BLOCK = 8


def _eval_block(scenario, policies, max_steps, seed_tree, condition_key, action_mode,
                block: range) -> list[EpisodeLog]:
    """The logs of the episodes of ``block``, run in one lockstep group."""
    keys = [(condition_key, ep) for ep in block]
    with Lockstep(keys) as group:
        return [run_episode(scenario, policies, RewardParams(), max_steps=max_steps,
                            seed_tree=seed_tree, key_prefix=key, collect=set(),
                            action_mode=action_mode, lockstep=group)[1]
                for key in keys]


# A pool worker's `_eval_block` with everything but the block bound by the
# initializer, so the policies reach each worker once, not once per task.
_worker_block = None


def _eval_worker_init(workers: int, *context):
    global _worker_block
    share_cpus(workers)
    _worker_block = partial(_eval_block, *context)


def _eval_in_worker(block: range) -> list[EpisodeLog]:
    return _worker_block(block)


def evaluate(
    scenario: ScenarioConfig,
    policies: dict[str, Checkpoint],
    *,
    label: str,
    episodes: int,
    max_steps: int,
    seed_tree: SeedTree,
    condition_key: int,
    action_mode: str = "sample",
    workers: int = 1,
) -> tuple[MetricsReport, list[EpisodeLog]]:
    """Run frozen-policy test episodes and aggregate per-victim metrics.

    Deterministic in (scenario, policies, master seed, condition_key)
    regardless of worker count; the first episode's log is returned (a
    one-item list) for plotting. The episodes are cut into blocks of
    ``EVAL_BLOCK``, the last one shorter, and each block runs in lockstep
    (``orchestrator.Lockstep``), with ``run_episode`` called once per
    episode in episode order. With ``workers`` > 1 the blocks run in a pool
    of that many processes, at most one per block, which share the usable
    CPUs: each block's forwards start helper threads only while processes ×
    concurrent forwards fit the CPUs (``share_cpus``).
    """
    victim_ids = [a.agent_id for a in scenario.victims()]
    context = (scenario, policies, max_steps, seed_tree, condition_key, action_mode)
    blocks = [range(lo, min(lo + EVAL_BLOCK, episodes)) for lo in range(0, episodes, EVAL_BLOCK)]
    # the pool starts all its processes at the first task, so none may idle
    processes = min(workers, len(blocks))
    if processes > 1:
        with ProcessPoolExecutor(
            max_workers=processes, initializer=_eval_worker_init, initargs=(processes, *context)
        ) as pool:
            logs = [log for block_logs in pool.map(_eval_in_worker, blocks) for log in block_logs]
    else:
        logs = [log for block in blocks for log in _eval_block(*context, block)]

    per_episode = {aid: [episode_metrics(log, aid) for log in logs] for aid in victim_ids}
    victims = {aid: aggregate_episode_metrics(per_episode[aid]) for aid in victim_ids}
    obs_mode = "/".join(sorted({policies[aid].params.config.name for aid in victim_ids}))
    report = MetricsReport(
        label=label,
        episodes=episodes,
        max_steps=max_steps,
        action_mode=action_mode,
        master_seed=seed_tree.master_seed,
        condition_key=condition_key,
        fingerprint=scenario_fingerprint(scenario, obs_mode, episodes, max_steps, action_mode),
        victims=victims,
        per_episode=per_episode,
    )
    return report, logs[:1]


def aggregate_episode_metrics(metrics_list: list[EpisodeMetrics]) -> VictimMetrics:
    """Averages over a victim's per-episode entries; ttfc averages only
    episodes with a collision.

    Uses exact summation so aggregation is bit-identical under any episode
    ordering (evaluation may run episodes in parallel).
    """
    ttfcs = sorted(m.ttfc for m in metrics_list if m.ttfc is not None)

    def exact_mean(values):
        values = list(values)
        return math.fsum(values) / len(values) if values else 0.0

    return VictimMetrics(
        episodes=len(metrics_list),
        mean_cv_rate=exact_mean(m.cv_rate for m in metrics_list),
        mean_co_rate=exact_mean(m.co_rate for m in metrics_list),
        mean_os_rate=exact_mean(m.os_rate for m in metrics_list),
        mean_ttfc=exact_mean(ttfcs) if ttfcs else None,
        episodes_with_collision=len(ttfcs),
    )


@dataclass
class ComparisonTable:
    """Reports side by side: the record ``compare.json`` holds."""

    labels: list[str]
    victims: list[str]
    cells: dict  # "label|victim" -> the victim's VictimMetrics as a dict, plus "composite"
    composite_deltas_vs_first: dict  # "label|victim" -> composite delta, None for the first label

    def to_text(self) -> str:
        columns = [f"{label}/{v}" for label in self.labels for v in self.victims]
        width = max([16] + [len(c) + 2 for c in columns])
        lines = ["Victim driving error comparison (rows: metrics, columns: condition/victim)"]
        lines.append(f"{'metric':<26}" + "".join(f"{c:>{width}}" for c in columns))
        for key, title in METRICS + (("composite", "composite error"),):
            row = f"{title:<26}"
            for label in self.labels:
                for v in self.victims:
                    m = self.cells[f"{label}|{v}"]
                    val = m.get(key)
                    row += f"{'-':>{width}}" if val is None else f"{val:>{width}.4f}"
            lines.append(row)
        delta_row = f"{'composite delta':<26}"
        for label in self.labels:
            for v in self.victims:
                d = self.composite_deltas_vs_first[f"{label}|{v}"]
                cell = "baseline" if d is None else f"{d:+.4f} {'worse' if d > 0 else 'better' if d < 0 else 'same'}"
                delta_row += f"{cell:>{width}}"
        lines.append(delta_row)
        return "\n".join(lines)

    def save(self, json_path, text_path) -> None:
        write_record(json_path, self, indent=2)
        with open(text_path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text() + "\n")


def compare(reports: list[MetricsReport]) -> ComparisonTable:
    """Side-by-side report comparison; all reports must share a fingerprint
    and their victims, and each needs a label of its own."""
    if len(reports) < 2:
        raise ContractViolationError("compare needs at least two reports")
    base = reports[0]
    victims = sorted(base.victims)
    for r in reports[1:]:
        if r.fingerprint != base.fingerprint:
            raise ContractViolationError(
                f"report '{r.label}' has fingerprint {r.fingerprint[:12]}..., "
                f"expected {base.fingerprint[:12]}... (different scenario or eval protocol)"
            )
        if sorted(r.victims) != victims:
            raise ContractViolationError(
                f"report '{r.label}' has victims {sorted(r.victims)}, expected {victims}")
    labels = [r.label for r in reports]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ContractViolationError(
                f"two reports are labelled '{label}'; each compared report needs its own label")
    cells = {}
    deltas = {}
    for r in reports:
        for v in victims:
            key = f"{r.label}|{v}"
            cells[key] = {**asdict(r.victims[v]), "composite": r.composite(v)}
            deltas[key] = None if r is base else r.composite(v) - base.composite(v)
    return ComparisonTable(labels=labels, victims=victims, cells=cells,
                           composite_deltas_vs_first=deltas)
