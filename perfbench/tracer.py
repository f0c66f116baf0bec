"""Outside-in tracing of advdrive's layers.

Timing wrappers are installed on the module attributes through which callers
look each function up (``advdrive.orchestrator.render``, not only
``advdrive.raster.render``), so no file of the program changes. A wrapper
calls only ``time.perf_counter``; it never touches an RNG or an array. Spans
are kept in memory as ``(id, parent_id, name, start, end)`` and summarised or
written out after the run.

Counts are taken from outside as well, by hooks that read only metadata of a
call's arguments or result (lengths, ``nbytes``, shapes, file sizes).
"""
from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import sys
import time
from collections import defaultdict


class SetupDone(Exception):
    """Raised at the first episode start to end a set-up-only invocation."""


def _count_agent_steps(counts, args, kwargs, result):
    _, log = result
    counts["orchestrator.agent_steps"] += sum(len(log.flags[a]["cv"]) for a in log.agent_ids)
    counts["orchestrator.episodes"] += 1


def _count_render_pixels(counts, args, kwargs, result):
    shape = result.pixels.shape
    counts["raster.output_pixels"] += shape[0] * shape[1]


def _count_core_pixels(counts, args, kwargs, result):
    counts["net.core_pixels_read"] += args[0].config.core_res() ** 2


def _count_rollout_bytes(counts, args, kwargs, result):
    counts["ppo.rollout_obs_bytes"] += result.obs.nbytes


def _count_grad_steps(counts, args, kwargs, result):
    counts["ppo.grad_steps"] += result[3]["grad_steps"]


def _count_bytes_written(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["checkpoint.bytes_written"] += os.path.getsize(path)


# (span name, lookup sites "module:attribute", count hook). Each site is where
# some caller resolves the name at call time.
SPANS = (
    ("orchestrator.run_episode",
     ("advdrive.orchestrator:run_episode", "advdrive.metrics:run_episode"), _count_agent_steps),
    ("raster.render", ("advdrive.orchestrator:render", "advdrive.pipeline:render"),
     _count_render_pixels),
    ("net.forward", ("advdrive.net:forward",), _count_core_pixels),
    ("net.sample_action", ("advdrive.net:sample_action",), None),
    ("world.step", ("advdrive.orchestrator:step",), None),
    ("ppo.build_rollout_batch", ("advdrive.orchestrator:build_rollout_batch",), _count_rollout_bytes),
    ("ppo.update_policy", ("advdrive.orchestrator:update_policy",), _count_grad_steps),
    ("ppo.ppo_loss_grads", ("advdrive.ppo:ppo_loss_grads",), None),
    ("net.forward_core", ("advdrive.net:forward_core",), None),
    ("net.backward", ("advdrive.net:backward",), None),
    ("net.adam_update", ("advdrive.net:adam_update",), None),
    ("checkpoint.save_checkpoint", ("advdrive.orchestrator:save_checkpoint",), _count_bytes_written),
    ("checkpoint.params_checksum",
     ("advdrive.orchestrator:params_checksum", "advdrive.checkpoint:params_checksum",
      "advdrive.pipeline:params_checksum"), None),
    ("checkpoint.load_checkpoint", ("advdrive.pipeline:load_checkpoint",), None),
    ("net.init_params", ("advdrive.pipeline:init_params",), None),
    ("metrics.evaluate", ("advdrive.pipeline:evaluate",), None),
    ("plot.emit_trajectory_plot", ("advdrive.pipeline:emit_trajectory_plot",), None),
    # Not reported as metrics; they give the layers above a parent.
    ("orchestrator.run_training_phase", ("advdrive.pipeline:run_training_phase",), None),
)
EPISODE_SPAN = "orchestrator.run_episode"
REPORTED_SPANS = tuple(name for name, _, _ in SPANS[:-1])
SPAN_STATS = (("calls", "count", "lower"), ("self_s", "s", "lower"), ("p50_ms", "ms", "lower"),
              ("tail_ms", "ms", "lower"), ("tail_pct", "%", "higher"))
COUNT_METRICS = (
    ("orchestrator.agent_steps", "count", "higher"),
    ("ppo.grad_steps", "count", "lower"),
    ("ppo.rollout_obs_bytes", "B", "lower"),
    ("checkpoint.bytes_written", "B", "lower"),
    ("raster.pixels_per_core_pixel", "ratio", "lower"),
    ("net.forward_core.calls_per_grad_step", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
)
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Probe:
    """Wrappers for one invocation of a pipeline entry point.

    With ``traced`` off only the episode sites are wrapped, to find when the
    first episode starts and to count agent steps; that costs two clock reads
    per episode. With ``stop_at_first_episode`` the first episode start
    raises ``SetupDone``, so the invocation measures set-up alone.
    """

    def __init__(self, traced: bool, stop_at_first_episode: bool = False):
        self.traced = traced
        self.stop_at_first_episode = stop_at_first_episode
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.first_episode_start: float | None = None
        self._stack = [0]
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, hook):
        spans, stack, ids, counts, clock = self.spans, self._stack, self._ids, self.counts, time.perf_counter
        on_episode = name == EPISODE_SPAN

        def traced(*args, **kwargs):
            if on_episode and self.first_episode_start is None:
                self.first_episode_start = clock()
                if self.stop_at_first_episode:
                    raise SetupDone
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` under a span of its own, e.g. the entry point."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def install(self):
        # Import every module first: one that imports a name from a module
        # patched earlier would otherwise copy the wrapper.
        for _, sites, _ in SPANS:
            for site in sites:
                importlib.import_module(site.split(":")[0])
        for name, sites, hook in SPANS:
            if not self.traced and name != EPISODE_SPAN:
                continue
            for site in sites:
                module_name, attr = site.split(":")
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    print(f"perfbench: trace site {site} is gone; span {name} misses its calls",
                          file=sys.stderr)
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, hook))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _tail(durations: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it, and
    its value; the maximum (as percentile 100) when there are fewer than 20."""
    n = len(durations)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10.0:
            rank = max(1, math.ceil(pct / 100.0 * n))
            return pct, durations[rank - 1]
    return 100.0, durations[-1] if durations else 0.0


def summarise(probes: list[Probe]) -> dict[str, float]:
    """Per-layer metrics over traced invocations: calls and self time per
    invocation, latency percentiles over all calls, and the counts and
    ratios taken from outside."""
    runs = len(probes)
    durations = defaultdict(list)
    self_time = defaultdict(float)
    forwards_in_update = 0
    for probe in probes:
        names = {sid: name for sid, _, name, _, _ in probe.spans}
        parents = {sid: parent for sid, parent, _, _, _ in probe.spans}
        child_time = defaultdict(float)
        for sid, parent, name, start, end in probe.spans:
            child_time[parent] += end - start
        for sid, parent, name, start, end in probe.spans:
            durations[name].append(end - start)
            self_time[name] += (end - start) - child_time[sid]
            if name == "net.forward_core":
                ancestor = parent
                while ancestor and names[ancestor] != "ppo.update_policy":
                    ancestor = parents[ancestor]
                forwards_in_update += bool(ancestor)

    metrics: dict[str, float] = {}
    for name in REPORTED_SPANS:
        d = sorted(durations[name])
        pct, tail = _tail(d)
        metrics[f"{name}.calls"] = len(d) / runs
        metrics[f"{name}.self_s"] = self_time[name] / runs
        metrics[f"{name}.p50_ms"] = 1e3 * d[(len(d) - 1) // 2] if d else 0.0
        metrics[f"{name}.tail_ms"] = 1e3 * tail
        metrics[f"{name}.tail_pct"] = pct

    total = defaultdict(int)
    for probe in probes:
        for key, value in probe.counts.items():
            total[key] += value
    for key in ("orchestrator.agent_steps", "ppo.grad_steps", "ppo.rollout_obs_bytes",
                "checkpoint.bytes_written"):
        metrics[key] = total[key] / runs
    core = total["net.core_pixels_read"]
    metrics["raster.pixels_per_core_pixel"] = total["raster.output_pixels"] / core if core else 0.0
    grad_steps = total["ppo.grad_steps"]
    metrics["net.forward_core.calls_per_grad_step"] = (
        forwards_in_update / grad_steps if grad_steps else 0.0
    )
    return metrics


def write_spans(probes: list[Probe], path: str) -> None:
    """All spans, one JSON array per line: invocation, id, parent, name,
    start and end in seconds from the invocation's first span."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for k, probe in enumerate(probes):
            t0 = min((s[3] for s in probe.spans), default=0.0)
            for sid, parent, name, start, end in probe.spans:
                fh.write(json.dumps([k, sid, parent, name, round(start - t0, 9), round(end - t0, 9)]) + "\n")
