"""Policy/value network: conv stack -> dense trunk -> 9 action logits + 1 value.

Forward, reverse-mode gradients, and Adam are implemented directly on
float64 numpy arrays (convolutions via im2col + BLAS). Each net works at
its core resolution (84 / decimation), the resolution at which every agent
driven by it is rendered. A run's obs mode names its net; ``NETS`` holds
each mode's ``NetConfig`` and is the one place a mode is named (the choices
of ``obs_mode`` and ``--obs-mode``):

* ``full84``: 84x84 input; 32@8x8/4, 64@4x4/2, 64@3x3/1, dense 512 (the
  fidelity net).
* ``lite21``: 21x21 input; 8@5x5/2, 16@3x3/2, 16@3x3/1, dense 64. Small
  enough for finite-difference checking and fast desk runs.

Observations come in one format, the raster's: uint8 palette codes at core
resolution, where code k stands for the channel value k/256. Conv1's im2col
copies the codes into its patch matrix as they are, and conv1 scales its
GEMM results (pre-activation and weight gradient) by the exact 2^-8 instead;
anything else is rejected.

Every forward pass runs in a ``Workspace``, the caller's or a fresh one, and
no buffer in it outlives its last reader. Each conv pre-activation is a
workspace buffer and its ReLU runs in place over it, so the forward cache
keeps each conv layer's input and activation but no pre-activation and no
patch matrix. ``backward`` takes each ReLU mask as ``activation > 0`` (equal
to ``pre-activation > 0``, NaN included) before that buffer is overwritten,
writes the dense input gradient over the dense input and each conv layer's
input gradient over that layer's input, and adds each input gradient tap by
tap in (a, b) order onto zeros, one GEMM per kernel tap. A cache is therefore
good for one backward pass, with no other use of its workspace in between.

Blocks. The workspace holds one patch buffer for every conv layer in both
directions. A layer whose patch matrix over the whole minibatch is larger
than ``PATCH_BLOCK_BYTES`` runs in blocks, in a net from
``SIDE_BY_SIDE_MIN_PARAMS`` up (``full84``): the forward pass builds the patch
rows of one block of images at a time and each block's GEMM writes its own
rows of the pre-activation, and ``backward`` builds the weight gradient one
kernel row at a time, each a GEMM over the whole minibatch's patch rows of
that kernel row. A smaller layer, and every ``lite21`` layer, runs as one
block and one kernel-row group. With one BLAS thread the bits are those of
one whole-minibatch GEMM per layer on the SkylakeX, Haswell, Zen, SandyBridge
and Nehalem OpenBLAS kernels. It takes three rules: a block boundary falls on
a multiple of ``GEMM_ROW_ALIGN`` GEMM rows, no weight gradient splits its sum
over the minibatch, and a layer that fits is not split at all (OpenBLAS's
small-matrix and row-tail kernels give other bits for a lone kernel row of
a few images, or of any ``lite21`` minibatch). With more BLAS threads the
Haswell and Zen kernels split a GEMM's rows among the threads at points that
depend on its row count, so a blocked layer keeps the bits only when that
count splits evenly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NonFiniteError
from .raster import OBS_CODE_SCALE
from .world import ActionCommand

INPUT_RES = 84
INPUT_CHANNELS = 3
# Scaling by a power of two is exact, so conv1's GEMM on the codes k, scaled
# by this, has the bits of the same GEMM on the values k / 256.
CODE_SCALE = 1.0 / OBS_CODE_SCALE
N_ACTIONS = 9

STEER_VALUES = (-0.5, 0.0, 0.5)
THROTTLE_ON = 0.6
BRAKE_ON = 0.6


def action_to_command(index: int) -> ActionCommand:
    """Fixed 3x3 grid: steer {-0.5, 0, +0.5} x {throttle, coast, brake}."""
    if not 0 <= index < N_ACTIONS:
        raise ContractViolationError(f"action index {index} outside 0..{N_ACTIONS - 1}")
    steer = STEER_VALUES[index // 3]
    longitudinal = index % 3
    if longitudinal == 0:
        return ActionCommand(steer=steer, throttle=THROTTLE_ON, brake=0.0)
    if longitudinal == 1:
        return ActionCommand(steer=steer, throttle=0.0, brake=0.0)
    return ActionCommand(steer=steer, throttle=0.0, brake=BRAKE_ON)


@dataclass(frozen=True)
class ConvSpec:
    filters: int
    kernel: int
    stride: int


@dataclass(frozen=True)
class NetConfig:
    name: str
    decimation: int
    convs: tuple[ConvSpec, ...]
    dense_units: int

    def core_res(self) -> int:
        return INPUT_RES // self.decimation

    def conv_output_sizes(self) -> list[int]:
        size = self.core_res()
        sizes = []
        for c in self.convs:
            if size < c.kernel:
                raise ContractViolationError(
                    f"conv kernel {c.kernel} does not fit input of size {size}"
                )
            size = (size - c.kernel) // c.stride + 1
            sizes.append(size)
        return sizes

    def flat_features(self) -> int:
        return self.conv_output_sizes()[-1] ** 2 * self.convs[-1].filters

    def param_layout(self) -> list[tuple[str, tuple[int, ...]]]:
        layout = []
        in_ch = INPUT_CHANNELS
        for i, c in enumerate(self.convs):
            layout.append((f"conv{i + 1}/w", (c.kernel, c.kernel, in_ch, c.filters)))
            layout.append((f"conv{i + 1}/b", (c.filters,)))
            in_ch = c.filters
        layout.append(("dense/w", (self.flat_features(), self.dense_units)))
        layout.append(("dense/b", (self.dense_units,)))
        layout.append(("policy/w", (self.dense_units, N_ACTIONS)))
        layout.append(("policy/b", (N_ACTIONS,)))
        layout.append(("value/w", (self.dense_units, 1)))
        layout.append(("value/b", (1,)))
        return layout

    def param_count(self) -> int:
        return sum(math.prod(shape) for _, shape in self.param_layout())

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "decimation": self.decimation,
            "convs": [[c.filters, c.kernel, c.stride] for c in self.convs],
            "dense_units": self.dense_units,
        }

    @staticmethod
    def from_dict(d: dict) -> "NetConfig":
        return NetConfig(
            name=str(d["name"]),
            decimation=int(d["decimation"]),
            convs=tuple(ConvSpec(int(f), int(k), int(s)) for f, k, s in d["convs"]),
            dense_units=int(d["dense_units"]),
        )


# each obs mode's net, keyed by its NetConfig.name
NETS = {c.name: c for c in (
    NetConfig("full84", 1, (ConvSpec(32, 8, 4), ConvSpec(64, 4, 2), ConvSpec(64, 3, 1)), 512),
    NetConfig("lite21", 4, (ConvSpec(8, 5, 2), ConvSpec(16, 3, 2), ConvSpec(16, 3, 1)), 64),
)}


def net_config_for_mode(obs_mode: str) -> NetConfig:
    try:
        return NETS[obs_mode]
    except KeyError:
        raise ContractViolationError(f"unknown obs mode '{obs_mode}'") from None


@dataclass
class NetworkParams:
    config: NetConfig
    arrays: dict[str, np.ndarray]

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.config, {k: v.copy() for k, v in self.arrays.items()})

    def check_finite(self):
        for name, arr in self.arrays.items():
            if not np.all(np.isfinite(arr)):
                raise NonFiniteError(f"parameter array '{name}' contains NaN/Inf")


def _orthogonal(rng: np.random.Generator, fan_in: int, fan_out: int, gain: float) -> np.ndarray:
    rows, cols = max(fan_in, fan_out), min(fan_in, fan_out)
    w = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(w)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    # qr copies the draw, so the draw's buffer takes the result: the array
    # kept is allocated before every temporary, and q is not copied. Under
    # glibc malloc, the peak RSS of three full84 inits in a row then no longer
    # jumps by one 12.8 MB dense/w with code layout. gain * signs is exactly
    # +-gain, so the bits are those of gain * (q * signs).
    np.multiply(q, gain * signs, out=w)
    return w.T if fan_in < fan_out else w


def init_params(config: NetConfig, seed) -> NetworkParams:
    """Orthogonal weights (gain sqrt(2) in the trunk, 0.01 policy head,
    1.0 value head), zero biases. The small policy gain keeps the initial
    policy near-uniform."""
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in config.param_layout():
        if name.endswith("/b"):
            arrays[name] = np.zeros(shape, dtype=np.float64)
            continue
        if name == "policy/w":
            gain = 0.01
        elif name == "value/w":
            gain = 1.0
        else:
            gain = math.sqrt(2.0)
        fan_out = shape[-1]
        fan_in = int(np.prod(shape[:-1]))
        w = _orthogonal(rng, fan_in, fan_out, gain).reshape(shape)
        arrays[name] = np.ascontiguousarray(w)
    return NetworkParams(config=config, arrays=arrays)


# Nets with at least this many parameters (full84, 1,687,210; lite21 has
# 8,906) run their convolutions in blocks, and the orchestrator runs their
# per-policy jobs side by side (see its module docstring).
SIDE_BY_SIDE_MIN_PARAMS = 100_000
# Bytes of patch rows per forward block of a blocked conv layer. The largest
# full84 block is conv1's 10 images (5.9 MiB); conv2's smallest aligned
# block, 16 images, takes 5.1 MiB.
PATCH_BLOCK_BYTES = 6 << 20
# Forward blocks split a conv GEMM's rows at multiples of this: OpenBLAS
# computes each row's dot products alike within such a run of rows, and
# differently in a shorter tail (Haswell, Zen and Nehalem kernels).
GEMM_ROW_ALIGN = 16


class Workspace:
    """Scratch buffers that ``forward_core`` and ``backward`` fill through
    ``out=`` instead of allocating, reusable across calls.

    Each named buffer keeps its storage and is handed out as a C-contiguous
    view of the requested shape, so minibatches of different sizes share it.
    A workspace holds one im2col patch buffer shared by every conv layer (one
    block of images forward, one kernel-row group of the whole minibatch
    backward, and the input-gradient taps), each conv layer's pre-activation
    (rectified in place into its activation), one ReLU mask and the
    ``dense/w`` gradient; no buffer outlives its last reader. A forward cache
    and the ``dense/w`` gradient alias these buffers and stay valid only until
    the workspace's next use. Not for concurrent use.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[key] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)

    def nbytes(self) -> int:
        """Bytes held by all buffers."""
        return sum(buf.nbytes for buf in self._buffers.values())


def _im2col(x: np.ndarray, kernel: int, stride: int, ws: Workspace,
            rows: slice = slice(None)) -> np.ndarray:
    """(N, H, W, C) -> (N*OH*OW, kernel rows * kernel*C) float64 patch matrix
    of the kernel rows ``rows`` (all by default), written into the
    workspace's shared ``cols`` buffer. uint8 observation codes are copied as
    they are (k, not k / 256): conv1 scales its GEMM results instead (see
    ``CODE_SCALE``).

    The windows are one strided view over ``x``'s buffer, made by the
    ``ndarray`` constructor: on a rollout tick's one-image arrays that costs
    much less than ``as_strided``. The view needs ``x`` C-contiguous, as
    every caller passes it (observation codes, a block of them, or a conv
    activation); ``np.ascontiguousarray`` returns such an array as it is."""
    x = np.ascontiguousarray(x)
    first, stop, _ = rows.indices(kernel)
    n, h, w, c = x.shape
    oh, ow = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    sn, sh, sw, sc = x.strides
    # (N, OH, OW, kh, kw, C): window (i, j) starts at pixel (stride*i, stride*j),
    # kernel row kh at its row first + kh
    windows = np.ndarray((n, oh, ow, stop - first, kernel, c), x.dtype, buffer=x,
                         offset=first * sh, strides=(sn, stride * sh, stride * sw, sh, sw, sc))
    cols = ws.array("cols", (n * oh * ow, (stop - first) * kernel * c))
    np.copyto(cols.reshape(windows.shape), windows)
    return cols


def _images_per_block(n: int, out_pixels: int, patch_cols: int, cfg: NetConfig) -> int:
    """Images per block of a conv layer over ``n`` images. All of them when
    their patch matrix fits ``PATCH_BLOCK_BYTES`` or the net is below
    ``SIDE_BY_SIDE_MIN_PARAMS``; otherwise as many as fit with a row count
    that is a multiple of ``GEMM_ROW_ALIGN``, and at least one such multiple."""
    image_bytes = out_pixels * patch_cols * 8
    if n * image_bytes <= PATCH_BLOCK_BYTES or cfg.param_count() < SIDE_BY_SIDE_MIN_PARAMS:
        return max(n, 1)
    unit = GEMM_ROW_ALIGN // math.gcd(GEMM_ROW_ALIGN, out_pixels)
    return unit * max(1, PATCH_BLOCK_BYTES // (unit * image_bytes))


def forward_core(params: NetworkParams, x: np.ndarray, workspace: Workspace | None = None):
    """Forward pass on a batch of uint8 observation codes at core resolution,
    which conv1 decodes by scaling its GEMM results.

    Runs in ``workspace``, or in a fresh one when none is given, each conv
    layer's im2col and GEMM over blocks of images (see the module docstring).
    Returns (logits (N, 9), values (N,), cache for one ``backward``). The
    cache holds each conv layer's input and activation (a workspace buffer),
    and the dense layer's input, pre-activation and output.
    Raises ``ContractViolationError`` for any other dtype or shape, an empty
    batch included.
    """
    cfg = params.config
    res = cfg.core_res()
    if (x.dtype != np.uint8 or x.ndim != 4 or x.shape[1:] != (res, res, INPUT_CHANNELS)
            or not len(x)):
        raise ContractViolationError(
            f"net '{cfg.name}' takes uint8 codes of shape (N, {res}, {res}, {INPUT_CHANNELS})"
            f" with N >= 1, got {x.dtype} of shape {x.shape}"
        )
    n = x.shape[0]
    workspace = Workspace() if workspace is None else workspace

    cache = {"convs": [], "workspace": workspace}
    h = x
    for i, spec in enumerate(cfg.convs):
        w = params.arrays[f"conv{i + 1}/w"].reshape(-1, spec.filters)
        b = params.arrays[f"conv{i + 1}/b"]
        out_size = (h.shape[1] - spec.kernel) // spec.stride + 1
        pre = workspace.array(f"pre{i}", (n, out_size, out_size, spec.filters))
        pre_rows = pre.reshape(-1, spec.filters)
        per = _images_per_block(n, out_size**2, len(w), cfg)
        for lo in range(0, n, per):
            cols = _im2col(h[lo : lo + per], spec.kernel, spec.stride, workspace)
            pre_mat = pre_rows[lo * out_size**2 : (lo + per) * out_size**2]
            np.matmul(cols, w, out=pre_mat)
            if i == 0:
                np.multiply(pre_mat, CODE_SCALE, out=pre_mat)
            np.add(pre_mat, b, out=pre_mat)
            np.maximum(pre_mat, 0.0, out=pre_mat)
        cache["convs"].append({"input": h, "act": pre})
        h = pre

    flat = h.reshape(n, -1)
    pre_dense = flat @ params.arrays["dense/w"] + params.arrays["dense/b"]
    hidden = np.maximum(pre_dense, 0.0)
    logits = hidden @ params.arrays["policy/w"] + params.arrays["policy/b"]
    values = (hidden @ params.arrays["value/w"] + params.arrays["value/b"])[:, 0]
    cache["flat"] = flat
    cache["pre_dense"] = pre_dense
    cache["hidden"] = hidden
    return logits, values, cache


def forward(params: NetworkParams, obs: np.ndarray) -> tuple[np.ndarray, float]:
    """Single-observation forward pass: (logits (9,), value). The observation
    is uint8 codes of shape (R, R, 3), R the net's core resolution."""
    logits, values, _ = forward_core(params, np.asarray(obs)[None])
    return logits[0], float(values[0])


def _add_input_gradient(dx: np.ndarray, dpre: np.ndarray, w: np.ndarray, stride: int,
                        ws: Workspace):
    """Add a conv layer's input gradient onto ``dx`` (zeros), kernel tap
    (a, b) by tap in (a, b) order, each tap its own GEMM into a tap buffer
    (the workspace's dead patch buffer)."""
    n, oh, ow, filters = dpre.shape
    kernel, c = w.shape[0], w.shape[2]
    dpre_mat = dpre.reshape(-1, filters)
    tap = ws.array("cols", (n * oh * ow, c))
    for a in range(kernel):
        for b in range(kernel):
            grad = np.matmul(dpre_mat, w[a, b].T, out=tap).reshape(n, oh, ow, c)
            dx[:, a : a + stride * oh : stride, b : b + stride * ow : stride, :] += grad


def backward(
    params: NetworkParams,
    cache: dict,
    dlogits: np.ndarray,
    dvalues: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients of sum(dlogits * logits) + sum(dvalues * values) w.r.t. params.

    Runs in the workspace of the forward pass that made ``cache``, and
    builds each conv weight gradient over kernel-row groups (see the module
    docstring), refilling the patch buffer from the cached input for each.
    The ``dense/w`` gradient is one of its buffers, and the input gradients
    overwrite the cached activations once they are dead: the cache is used
    up, and a second backward on it raises ``ContractViolationError``.
    """
    if cache.get("used_up"):
        raise ContractViolationError("forward cache already used up by a backward pass")
    cache["used_up"] = True
    workspace = cache["workspace"]
    cfg = params.config
    convs = cache["convs"]
    hidden = cache["hidden"]
    dlogits = np.asarray(dlogits, dtype=np.float64)
    dvalues = np.asarray(dvalues, dtype=np.float64).reshape(-1, 1)

    grads: dict[str, np.ndarray] = {}
    grads["policy/w"] = hidden.T @ dlogits
    grads["policy/b"] = dlogits.sum(axis=0)
    grads["value/w"] = hidden.T @ dvalues
    grads["value/b"] = dvalues.sum(axis=0)

    dhidden = dlogits @ params.arrays["policy/w"].T + dvalues @ params.arrays["value/w"].T
    dpre_dense = dhidden * (cache["pre_dense"] > 0.0)
    flat = cache["flat"]
    dense_w = params.arrays["dense/w"]
    grads["dense/w"] = np.matmul(
        flat.T, dpre_dense, out=workspace.array("grad_dense_w", dense_w.shape)
    )
    grads["dense/b"] = dpre_dense.sum(axis=0)
    # each mask is taken before its activation is overwritten below
    act = convs[-1]["act"]
    mask = np.greater(act, 0.0, out=workspace.array("mask", act.shape, np.bool_))
    dflat = np.matmul(dpre_dense, dense_w.T, out=flat)

    dpost = dflat.reshape(act.shape)
    for i in range(len(cfg.convs) - 1, -1, -1):
        spec = cfg.convs[i]
        h = convs[i]["input"]
        dpre = np.multiply(dpost, mask, out=dpost)
        dpre_mat = dpre.reshape(-1, spec.filters)
        grad_w = np.empty(params.arrays[f"conv{i + 1}/w"].shape)
        n, out_size = dpre.shape[:2]
        per = _images_per_block(n, out_size**2, spec.kernel**2 * h.shape[-1], cfg)
        groups = [slice(a, a + 1) for a in range(spec.kernel)] if per < n else [slice(None)]
        for rows in groups:  # one GEMM per kernel-row group, each over the whole minibatch
            cols = _im2col(h, spec.kernel, spec.stride, workspace, rows)
            np.matmul(cols.T, dpre_mat, out=grad_w[rows].reshape(-1, spec.filters))
        grads[f"conv{i + 1}/w"] = grad_w
        grads[f"conv{i + 1}/b"] = dpre_mat.sum(axis=0)
        if i == 0:
            np.multiply(grad_w, CODE_SCALE, out=grad_w)
            break
        # h is layer i-1's activation; its input gradient overwrites it
        mask = np.greater(h, 0.0, out=workspace.array("mask", h.shape, np.bool_))
        h.fill(0.0)
        _add_input_gradient(h, dpre, params.arrays[f"conv{i + 1}/w"], spec.stride, workspace)
        dpost = h
    return grads


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_adam_state(params: NetworkParams) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(a) for k, a in params.arrays.items()},
        v={k: np.zeros_like(a) for k, a in params.arrays.items()},
        step=0,
    )


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 1 << 16  # elements per in-place Adam block (512 KiB of float64)


def adam_update(
    params: NetworkParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam step, in place.

    Overwrites ``params.arrays``, ``state.m`` and ``state.v``, advances
    ``state.step``, and returns the same two objects. Every gradient is
    checked for shape and finiteness before anything is written. Each element
    goes through the out-of-place formula's operations in the same order, so
    results are bit-identical to it; working in blocks of ``ADAM_BLOCK``
    elements keeps the temporaries to two small scratch buffers.
    """
    if lr <= 0:
        raise ContractViolationError("learning rate must be positive")
    for name, g in grads.items():
        if g.shape != params.arrays[name].shape:
            raise ContractViolationError(f"gradient shape mismatch for '{name}'")
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient in '{name}'")
    for name, p in params.arrays.items():
        if not (p.flags.c_contiguous and state.m[name].flags.c_contiguous
                and state.v[name].flags.c_contiguous):
            raise ContractViolationError(f"parameter or moment '{name}' is not C-contiguous")
    t = state.step + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    scratch_a = np.empty(ADAM_BLOCK)
    scratch_b = np.empty(ADAM_BLOCK)
    for name, arr in params.arrays.items():
        p_all = arr.reshape(-1)
        g_all = grads[name].reshape(-1)
        m_all = state.m[name].reshape(-1)
        v_all = state.v[name].reshape(-1)
        for lo in range(0, p_all.size, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, p_all.size)
            p, g, m, v = p_all[lo:hi], g_all[lo:hi], m_all[lo:hi], v_all[lo:hi]
            a, b = scratch_a[: hi - lo], scratch_b[: hi - lo]
            # m = b1 * m + (1 - b1) * g
            np.multiply(m, ADAM_BETA1, out=m)
            np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            np.add(m, a, out=m)
            # v = b2 * v + (1 - b2) * (g * g)
            np.multiply(g, g, out=a)
            np.multiply(a, 1.0 - ADAM_BETA2, out=a)
            np.multiply(v, ADAM_BETA2, out=v)
            np.add(v, a, out=v)
            # p = p - lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(m, bc1, out=b)
            np.multiply(b, lr, out=b)
            np.divide(v, bc2, out=a)
            np.sqrt(a, out=a)
            np.add(a, ADAM_EPS, out=a)
            np.divide(b, a, out=b)
            np.subtract(p, b, out=p)
    state.step = t
    params.check_finite()
    return params, state


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def entropy_from_logp(logp: np.ndarray) -> np.ndarray:
    return -(np.exp(logp) * logp).sum(axis=-1)


@dataclass
class SampledAction:
    index: int
    log_prob_vector: np.ndarray  # (9,)


def sample_action(logits: np.ndarray, rng: np.random.Generator) -> SampledAction:
    """Categorical draw from softmax(logits) via inverse transform."""
    if not np.all(np.isfinite(logits)):
        raise NonFiniteError("cannot sample from non-finite logits")
    logp = log_softmax(np.asarray(logits, dtype=np.float64))
    probs = np.exp(logp)
    u = rng.random()
    index = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    index = min(index, N_ACTIONS - 1)
    return SampledAction(index=index, log_prob_vector=logp)


def greedy_action(logits: np.ndarray) -> SampledAction:
    logp = log_softmax(np.asarray(logits, dtype=np.float64))
    return SampledAction(index=int(np.argmax(logits)), log_prob_vector=logp)
