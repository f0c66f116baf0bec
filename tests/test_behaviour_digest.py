"""Fixed-seed behaviour digests of small lite21 and full84 training runs and
a full84 evaluation.

Each runs one operation of a benchmark workload: ``train_lite21`` and
``train_full84`` hash the output checkpoints and ``train_log.jsonl``,
``eval_full84`` the ``report.json`` of an attack-condition evaluation; all
compare the hashes with ``perfbench/reference.json``. The reference was
recorded with one numpy/BLAS build on one OpenBLAS core; OpenBLAS picks its
kernels by CPU at run time, so on another build or core the digests may
differ and the tests are skipped there (``skip_unless_reference_build``).
"""
import ctypes
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import openblas

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


# The OpenBLAS core the reference digests were recorded on; reference.json
# records only the numpy and BLAS versions.
REFERENCE_BLAS_CORE = "SkylakeX"


def _blas_core() -> str | None:
    """The core whose kernels numpy's bundled OpenBLAS runs (it honours
    ``OPENBLAS_CORETYPE``), or None when there is no such library."""
    corename = openblas("scipy_openblas_get_corename64_")
    if corename is None:
        return None
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def skip_unless_reference_build():
    """Skip the calling test unless numpy, its BLAS and the BLAS core are
    those the reference digests were recorded with."""
    ref = _reference_env()
    build = _numpy_build()
    if any(build[k] != ref[k] for k in ("numpy", "blas")):
        pytest.skip(f"numpy/BLAS {build} differ from the reference build {ref}")
    core = _blas_core()
    if core != REFERENCE_BLAS_CORE:
        pytest.skip(f"OpenBLAS core {core} differs from the reference core {REFERENCE_BLAS_CORE}")


def _run_workload_once(workload: str):
    if not os.path.isfile(os.path.join(BENCH, "run.py")):
        pytest.skip("no perfbench/ in this checkout")
    skip_unless_reference_build()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0


def test_train_lite21_matches_reference_digest():
    _run_workload_once("train_lite21")


def test_train_full84_matches_reference_digest():
    _run_workload_once("train_full84")


def test_eval_full84_matches_reference_digest():
    _run_workload_once("eval_full84")


# SHA-256 of the parameters and Adam state after the update of
# ``full84_update_digest``, with two BLAS threads per call, recorded before
# update_policy gained its scratch workspace and rollouts their uint8
# observation codes; both must leave every bit of it unchanged. With one BLAS
# thread the bits differ (4df04b88...), so the update runs in a process of its
# own pinned to two.
FULL84_UPDATE_SHA256 = "a0bf3f0f697f5e0b879db4d30872a00105cadc2c642f8cf8e964bbec0095ad68"


def full84_update_digest() -> str:
    """SHA-256 of a fresh full84 policy's parameters and Adam state after one
    PPO update on a 16-step rollout."""
    import hashlib

    from conftest import straight_scenario

    from advdrive import net
    from advdrive.checkpoint import Checkpoint
    from advdrive.orchestrator import run_episode
    from advdrive.ppo import PpoHyper, build_rollout_batch, update_policy
    from advdrive.rewards import RewardParams
    from advdrive.seeding import SeedTree

    sc = straight_scenario(route_length=40.0, max_steps=16)
    spec = sc.agents[0]
    params = net.init_params(net.full84_config(), 5)
    pol = Checkpoint(spec.role, spec.reward_kind, params)
    trajs, _ = run_episode(sc, {spec.agent_id: pol}, RewardParams(), 16, SeedTree(3), (1, 0),
                           collect={spec.agent_id})
    batch = build_rollout_batch([trajs[spec.agent_id]], 0.99, 1.0)
    assert len(batch) == 16
    hyper = PpoHyper(minibatch=8, epochs_per_batch=2, train_batch=16)
    params, adam, kl_coef, stats = update_policy(
        params, net.init_adam_state(params), batch, hyper, 0.3, np.random.default_rng(11)
    )
    assert stats["grad_steps"] == 4
    h = hashlib.sha256()
    for name, _ in params.config.param_layout():
        for arr in (params.arrays[name], adam.m[name], adam.v[name]):
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr))
    h.update(repr((adam.step, kl_coef, stats["loss"], stats["mean_kl"])).encode())
    return h.hexdigest()


def test_full84_update_matches_golden_digest():
    skip_unless_reference_build()
    path = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")])
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == FULL84_UPDATE_SHA256


if __name__ == "__main__":
    # Set through OpenBLAS itself: it caps OPENBLAS_NUM_THREADS at the usable
    # CPUs, so on one usable CPU the variable alone gives one thread.
    set_num_threads = openblas("scipy_openblas_set_num_threads64_")
    set_num_threads.argtypes = [ctypes.c_int]
    set_num_threads.restype = None
    set_num_threads(2)
    print(full84_update_digest())
