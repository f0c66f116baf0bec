"""Run one benchmark workload of advdrive and print its metrics.

    python3 perfbench/run.py --workload train_lite21 --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The workload's inputs come from ``--seed``. The run prepares them
untimed, measures set-up alone several times, then invokes the pipeline entry
point again and again while the next call is expected to end within
``--seconds``. Each invocation's outputs are
hashed into a behaviour digest, which must match ``reference.json`` for the
seeds listed there and the run's first invocation otherwise. A mismatch or an
exception counts as a failed operation.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` invocations alternate untraced and
traced, and it holds the per-layer metrics, while every span is written to
``.bench_out/``. See README.md for the metric definitions.
"""
from __future__ import annotations

import os

# Pinned before numpy loads: one BLAS thread, as recorded with every result.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from tracer import COUNT_METRICS, REPORTED_SPANS, SPAN_STATS, Probe, SetupDone, summarise, write_spans  # noqa: E402
from workloads import WORKLOADS, digest, invoke, prepare  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# name -> (unit, better)
END_TO_END = {
    "agent_steps_per_s": ("1/s", "higher"),
    "episodes_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
SETUP_REPEATS = 5


def import_program() -> bool:
    """Put the checkout's ``src/`` first on the path and import advdrive
    from it; False when the checkout holds no program."""
    if not os.path.isfile(os.path.join(SRC, "advdrive", "__init__.py")):
        return False
    sys.path.insert(0, SRC)
    import advdrive

    return os.path.abspath(advdrive.__file__).startswith(SRC + os.sep)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class Invocation:
    """One call of the entry point, with its probe and wall-clock bounds."""

    def __init__(self, prepared, out_dir, traced, setup_only=False):
        self.probe = Probe(traced, stop_at_first_episode=setup_only)
        entry = ("pipeline.train_baseline" if prepared.workload.kind == "train"
                 else "pipeline.evaluate_condition")
        self.start = time.perf_counter()
        try:
            with self.probe:
                self.result = self.probe.span(entry, invoke, prepared, out_dir)
        except SetupDone:
            self.result = None
        self.end = time.perf_counter()
        if self.probe.first_episode_start is None:
            raise RuntimeError("the entry point ran no episode")

    @property
    def setup_s(self) -> float:
        return self.probe.first_episode_start - self.start

    @property
    def run_s(self) -> float:
        return self.end - self.probe.first_episode_start


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    env = environment()
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    expected = reference["digests"].get(str(seed), {}).get(workload_name)
    if expected is not None and any(env[k] != reference["env"][k] for k in ("numpy", "blas")):
        print("perfbench: numpy/BLAS differ from reference.json; digests may differ",
              file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))

    work_dir = os.path.join(ROOT, ".bench_work", f"{workload_name}-s{seed}-{os.getpid()}")
    try:
        prepared = prepare(workload, seed, os.path.join(work_dir, "inputs"))
        setup_samples = []
        if not trace:
            for k in range(SETUP_REPEATS):
                out_dir = os.path.join(work_dir, f"setup{k}")
                try:
                    setup_samples.append(Invocation(prepared, out_dir, False, setup_only=True).setup_s)
                except Exception:  # the timed operations below fail the same way and count it
                    traceback.print_exc()
                shutil.rmtree(out_dir, ignore_errors=True)

        done: list[tuple[Invocation, bool]] = []
        attempted = failed = 0
        t_begin = time.perf_counter()
        first = peak_rss_mb = None
        # Start another operation only if it is likely to end within the window.
        while attempted < 1 + trace or (time.perf_counter() - t_begin) * (attempted + 1) / attempted <= seconds:
            traced = trace and attempted % 2 == 1
            out_dir = os.path.join(work_dir, f"op{attempted}")
            attempted += 1
            try:
                inv = Invocation(prepared, out_dir, traced)
                if peak_rss_mb is None:
                    # A fresh process through one workload run, as a CLI user sees it.
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                got = digest(prepared, inv.result, out_dir)
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            if first is None:
                first = got
                print(f"digest {workload_name} seed={seed} {got}")
            if got != (expected or first):
                failed += 1
                print(f"perfbench: digest {got} differs from {expected or first}", file=sys.stderr)
                continue
            done.append((inv, traced))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    plain = [inv for inv, traced in done if not traced]
    metrics = {}
    if trace:
        probes = [inv.probe for inv, traced in done if traced]
        if probes and plain:
            metrics = summarise(probes)
            metrics["trace.overhead"] = statistics.median(
                inv.end - inv.start for inv, traced in done if traced
            ) / statistics.median(inv.end - inv.start for inv in plain)
            write_spans(probes, os.path.join(ROOT, ".bench_out", f"spans_{workload_name}_s{seed}.jsonl"))
    elif plain:
        setup_samples += [inv.setup_s for inv in plain]
        run_s = sum(inv.run_s for inv in plain)
        metrics = {
            "agent_steps_per_s": sum(inv.probe.counts["orchestrator.agent_steps"] for inv in plain) / run_s,
            "episodes_per_s": sum(inv.probe.counts["orchestrator.episodes"] for inv in plain) / run_s,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
    return {"correct": failed == 0 and bool(done), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def metric_specs(trace: bool) -> dict[str, tuple[str, str]]:
    """Name -> (unit, better) of the metrics a run reports."""
    if not trace:
        return dict(END_TO_END)
    specs = {f"{span}.{stat}": (unit, better)
             for span in REPORTED_SPANS for stat, unit, better in SPAN_STATS}
    specs.update({name: (unit, better) for name, unit, better in COUNT_METRICS})
    return specs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not import_program():
        print(f"perfbench: no advdrive sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload '{args.workload}'; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result["metrics"] = {
        name: {"value": result["metrics"].get(name, 0.0), "unit": unit}
        for name, (unit, _) in metric_specs(bool(args.trace)).items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
