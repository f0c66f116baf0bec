"""Shared test fixtures and oracle helpers."""
from __future__ import annotations

import ctypes
import glob
import os

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from advdrive.geometry import Polyline, Rect
from advdrive.net import ConvSpec, NetConfig, NetworkParams
from advdrive.scenario import AgentSpec, ScenarioConfig
from advdrive.worldmap import MapGeometry


def straight_scenario(
    *,
    route_length: float = 30.0,
    road_halfwidth: float = 5.25,
    with_intersection: bool = False,
    agents: list[dict] | None = None,
    dt: float = 0.05,
    max_steps: int = 200,
    lane_width: float = 3.5,
) -> ScenarioConfig:
    """Minimal custom world: one straight road along y=0 starting at x=-10."""
    geo = MapGeometry(
        name="test_road",
        lane_width=lane_width,
        drivable_rects=[Rect(-10.0, -road_halfwidth, route_length + 20.0, road_halfwidth)],
        intersection_region=Rect(20.0, -road_halfwidth, 30.0, road_halfwidth)
        if with_intersection
        else None,
        lane_segments=[],
        divider_lines=[],
    )
    if agents is None:
        agents = [{"id": "victim1", "role": "victim", "spawn": (0.0, 0.0), "goal": (route_length, 0.0)}]
    specs = []
    for i, a in enumerate(agents):
        spawn = tuple(a["spawn"])
        goal = tuple(a["goal"])
        specs.append(
            AgentSpec(
                agent_id=a["id"],
                role=a.get("role", "victim"),
                reward_kind=a.get("reward_kind", "victim"),
                spawn=spawn,
                goal=goal,
                route=Polyline(a["route"]) if "route" in a else Polyline([spawn, goal]),
                seed_index=i,
            )
        )
    return ScenarioConfig(
        name="test_road", map=geo, agents=specs, dt=dt, max_steps=max_steps
    )


def tiny_net_config(name: str = "tiny") -> NetConfig:
    """Small 21x21-input stack for fast finite-difference checks."""
    return NetConfig(
        name=name,
        decimation=4,
        convs=(ConvSpec(4, 3, 2), ConvSpec(4, 3, 1)),
        dense_units=8,
    )


def uniform_codes(rng: np.random.Generator, n: int, res: int) -> np.ndarray:
    """n observations as uint8 codes at res x res: uniform draws in [0.05, 0.95)
    over 84x84 images, quantized to k/256 and read at the centers of the
    (84 // res)-pixel blocks."""
    draws = rng.uniform(0.05, 0.95, size=(n, 84, 84, 3))
    step = 84 // res
    off = (step - 1) // 2
    return (draws[:, off::step, off::step] * 256).astype(np.uint8)


OBS_SEED = 777  # frozen: keeps the probe's ReLU pre-activations off zero


def probe_obs(config: NetConfig, n: int = 1) -> np.ndarray:
    """The frozen probe observations of the gradient tests, as uint8 codes at
    the core resolution of `config`."""
    return uniform_codes(np.random.default_rng(OBS_SEED), n, config.core_res())


def zero_params(config: NetConfig) -> NetworkParams:
    """Every weight and bias zero."""
    return NetworkParams(
        config=config,
        arrays={name: np.zeros(shape, dtype=np.float64) for name, shape in config.param_layout()},
    )


def flatten_params(params) -> np.ndarray:
    return np.concatenate([params.arrays[n].ravel() for n, _ in params.config.param_layout()])


def fd_gradient(loss_fn, params, h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences of loss_fn(params) w.r.t. every parameter."""
    grads = {}
    for name, _ in params.config.param_layout():
        arr = params.arrays[name]
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn(params)
            flat[i] = orig - h
            down = loss_fn(params)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def grad_close(analytic: np.ndarray, numeric: np.ndarray, rel_tol: float = 1e-4) -> tuple[bool, float]:
    """Relative-error check with an absolute floor for near-zero gradients."""
    a = np.asarray(analytic).ravel()
    b = np.asarray(numeric).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-3)
    rel = np.abs(a - b) / denom
    return bool(np.all(rel < rel_tol)), float(rel.max())


def assert_relu_margin(params, cache, margin: float = 1e-3):
    """Guarantees the finite-difference probe never crosses a ReLU kink. The
    cache keeps no conv pre-activation, so each is recomputed from the cached
    layer input by a direct convolution over its sliding windows. Call before
    ``backward``, which overwrites the inputs of every conv layer but the first."""
    for i, (layer, spec) in enumerate(zip(cache["convs"], params.config.convs)):
        x = layer["input"]
        x = x / 256 if x.dtype == np.uint8 else x  # code k stands for k/256
        windows = sliding_window_view(x, (spec.kernel, spec.kernel), axis=(1, 2))
        windows = windows[:, :: spec.stride, :: spec.stride]  # (N, OH, OW, C, kh, kw)
        pre = np.einsum("nijcab,abcf->nijf", windows, params.arrays[f"conv{i + 1}/w"])
        pre += params.arrays[f"conv{i + 1}/b"]
        assert np.abs(pre).min() > margin
    assert np.abs(cache["pre_dense"]).min() > margin


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def openblas(symbol: str):
    """The function ``symbol`` of numpy's bundled OpenBLAS, or None when
    there is no such library."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            return getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
    return None


@pytest.fixture
def one_blas_thread():
    """Runs the test on one OpenBLAS thread and restores the count after.
    With more threads OpenBLAS splits a GEMM's rows among them at points that
    depend on the row count (on Haswell and Zen not at multiples of 16), so a
    row's bits can depend on the size of the GEMM it is computed in."""
    get, set_threads = (openblas(f"scipy_openblas_{f}_num_threads64_") for f in ("get", "set"))
    if get is None or set_threads is None:
        yield
        return
    get.argtypes, get.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    threads = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)
