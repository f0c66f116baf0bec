"""Repeat benchmark runs across seeds, and regenerate the digest reference.

    python3 perfbench/collect.py spread --workloads all --seeds 0-9 --seconds 40 [--out FILE]
    python3 perfbench/collect.py reference --seeds 0-9

``spread`` runs ``run.py`` once per workload and seed, one at a time, and
prints each metric's median, quartiles and spread (the distance between the
quartiles as a share of the median); ``--out`` also writes them, with the
environment record, as JSON. ``reference`` runs each workload once per seed
in this process and rewrites ``reference.json``; do that only when a change
alters the program's outputs on purpose.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import run
from workloads import WORKLOADS, digest, invoke, prepare


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(workloads, seeds, seconds, trace) -> dict:
    summary = {"env": None, "seconds": seconds, "trace": trace, "seeds": seeds, "workloads": {}}
    for name in workloads:
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
                cwd=run.ROOT, capture_output=True, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            summary["env"] = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
            attempted += result["attempted"]
            failed += result["failed"]
            if not result["correct"]:
                print(f"{name} seed={seed}: incorrect\n{proc.stderr}", file=sys.stderr)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        rows = {}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            rows[metric] = {"median": median, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / median if median else 0.0, "values": vals}
            print(f"{name:14s} {metric:42s} median {median:12.6g}  spread {rows[metric]['spread']:.4f}")
        summary["workloads"][name] = {"attempted": attempted, "failed": failed, "metrics": rows}
    return summary


def reference(seeds) -> dict:
    digests: dict[str, dict[str, str]] = {}
    work_dir = os.path.join(run.ROOT, ".bench_work", f"reference-{os.getpid()}")
    try:
        for seed in seeds:
            for name, workload in WORKLOADS.items():
                prepared = prepare(workload, seed, os.path.join(work_dir, name, "inputs"))
                out_dir = os.path.join(work_dir, name, "out")
                digests.setdefault(str(seed), {})[name] = digest(
                    prepared, invoke(prepared, out_dir), out_dir)
                shutil.rmtree(os.path.join(work_dir, name))
                print(f"seed={seed} {name} {digests[str(seed)][name]}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {"env": run.environment(), "digests": digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("spread", "reference"))
    parser.add_argument("--workloads", default="all", help="comma-separated names, or all")
    parser.add_argument("--seeds", default="0-9", help="one seed or an inclusive range a-b")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", help="write the spread summary here as JSON")
    args = parser.parse_args(argv)

    if not run.import_program():
        print(f"perfbench: no advdrive sources under {run.SRC}", file=sys.stderr)
        return 2
    seeds = parse_seeds(args.seeds)
    if args.mode == "reference":
        data = reference(seeds)
        with open(os.path.join(run.BENCH_DIR, "reference.json"), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    names = list(WORKLOADS) if args.workloads == "all" else args.workloads.split(",")
    summary = spread(names, seeds, args.seconds, args.trace)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
