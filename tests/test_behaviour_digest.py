"""Fixed-seed behaviour digest of a small lite21 training run.

Runs one operation of the benchmark's ``train_lite21`` workload, which hashes
the output checkpoints and ``train_log.jsonl`` and compares them with
``perfbench/reference.json``. The reference was recorded with one numpy/BLAS
build; on another build the digests may differ, so the test is skipped there.
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def _numpy_build() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"numpy": np.__version__, "blas": None}
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _reference_env() -> dict:
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["env"]


def test_train_lite21_matches_reference_digest():
    if not os.path.isfile(os.path.join(BENCH, "run.py")):
        pytest.skip("no perfbench/ in this checkout")
    ref = _reference_env()
    build = _numpy_build()
    if any(build[k] != ref[k] for k in ("numpy", "blas")):
        pytest.skip(f"numpy/BLAS {build} differ from the reference build {ref}")
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "train_lite21",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
