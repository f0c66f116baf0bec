import re

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import (
    assert_relu_margin,
    fd_gradient,
    grad_close,
    probe_obs,
    tiny_net_config,
    zero_params,
)

from advdrive import net
from advdrive.errors import ContractViolationError, NonFiniteError

# Frozen seeds chosen so every ReLU pre-activation sits well away from zero
# for the probe observations (conftest.OBS_SEED; verified by assert_relu_margin
# in each test); finite differences then never cross a kink.
TINY_SEED = 48
STRIDE4_SEED = 7


def margin_params(config, seed, bias_boost=0.07):
    params = net.init_params(config, seed)
    for key in params.arrays:
        if key.endswith("/b"):
            params.arrays[key] += bias_boost
    return params


class TestForward:
    def test_zero_network_outputs_zero(self):
        params = zero_params(net.lite21_config())
        logits, value = net.forward(params, probe_obs(params.config)[0])
        assert np.array_equal(logits, np.zeros(9))
        assert value == 0.0

    def test_full84_layer_sizes(self):
        cfg = net.full84_config()
        assert cfg.conv_output_sizes() == [20, 9, 7]
        assert cfg.flat_features() == 7 * 7 * 64
        shapes = dict(cfg.param_layout())
        assert shapes["conv1/w"] == (8, 8, 3, 32)
        assert shapes["conv2/w"] == (4, 4, 32, 64)
        assert shapes["conv3/w"] == (3, 3, 64, 64)
        assert shapes["dense/w"] == (3136, 512)
        assert shapes["policy/w"] == (512, 9)
        assert shapes["value/w"] == (512, 1)

    def test_deterministic_outputs(self):
        params = net.init_params(net.full84_config(), 5)
        obs = probe_obs(params.config)[0]
        a = net.forward(params, obs)
        b = net.forward(params, obs)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_shape_mismatch_rejected(self):
        # (net, batch, why it is rejected): a batch holds one or more
        # observations, each uint8 codes at the net's core resolution; forward
        # takes the observation of a one-row batch
        lite, full = net.lite21_config(), net.full84_config()
        cases = [
            (lite, np.zeros((1, 21, 21, 3)), "float64 codes"),
            (lite, np.zeros((1, 84, 84, 3), np.uint8), "84x84 image for lite21"),
            (full, np.zeros((1, 21, 21, 3), np.uint8), "21x21 image for full84"),
            (lite, np.zeros((1, 21, 21, 1), np.uint8), "one channel"),
            (lite, np.zeros((0, 21, 21, 3), np.uint8), "an empty batch"),
        ]
        for config, batch, why in cases:
            params = net.init_params(config, 0)
            res = config.core_res()
            expected = (rf"uint8 codes of shape \(N, {res}, {res}, 3\) with N >= 1, "
                        rf"got {batch.dtype} of shape {re.escape(str(batch.shape))}$")
            if len(batch) == 1:
                with pytest.raises(ContractViolationError, match=expected):
                    net.forward(params, batch[0])
                    pytest.fail(f"forward accepted {why}")
            with pytest.raises(ContractViolationError, match=expected):
                net.forward_core(params, batch)
                pytest.fail(f"forward_core accepted {why}")

    def test_single_pixel_difference_propagates(self):
        params = margin_params(net.full84_config(), 3)
        obs = probe_obs(params.config)[0]
        logits0, _ = net.forward(params, obs)
        bumped = obs.copy()
        bumped[1, 1, 0] += 13  # 13/256, about 0.05
        logits1, _ = net.forward(params, bumped)
        assert not np.allclose(logits0, logits1)

    def test_conv_matches_naive_convolution(self, rng):
        # independent oracle: direct nested-loop convolution
        cfg = net.NetConfig(
            name="probe", decimation=4, convs=(net.ConvSpec(3, 4, 2),), dense_units=4
        )
        params = net.init_params(cfg, 1)
        codes = probe_obs(cfg)
        _, _, cache = net.forward_core(params, codes)
        x = codes / 256  # code k stands for k/256
        fast = cache["convs"][0]["act"]
        w = params.arrays["conv1/w"]
        b = params.arrays["conv1/b"]
        size = cfg.conv_output_sizes()[0]
        slow = np.zeros((1, size, size, 3))
        for i in range(size):
            for j in range(size):
                patch = x[0, 2 * i : 2 * i + 4, 2 * j : 2 * j + 4, :]
                for f in range(3):
                    slow[0, i, j, f] = np.sum(patch * w[:, :, :, f]) + b[f]
        assert np.any(slow > 0) and np.any(slow < 0)  # the ReLU passes some, zeroes others
        assert np.allclose(fast, np.maximum(slow, 0.0), atol=1e-12)

    def test_batch_matches_single(self):
        params = net.init_params(net.lite21_config(), 9)
        obs = probe_obs(params.config, 3)
        logits_b, values_b, _ = net.forward_core(params, obs)
        for i in range(3):
            logits_s, value_s = net.forward(params, obs[i])
            assert np.allclose(logits_b[i], logits_s, atol=1e-12)
            assert values_b[i] == pytest.approx(value_s, abs=1e-12)


class TestGradients:
    def probe_loss(self, weights_logits, weight_value):
        def loss(params, obs):
            logits, values, _ = net.forward_core(params, obs)
            return float((logits * weights_logits).sum() + (values * weight_value).sum())

        return loss

    @pytest.mark.parametrize(
        "config,seed",
        [
            (tiny_net_config(), TINY_SEED),
            (net.NetConfig(name="wide", decimation=1, convs=(net.ConvSpec(2, 8, 4),), dense_units=2), STRIDE4_SEED),
        ],
        ids=["tiny-two-conv", "stride4-kernel8"],
    )
    def test_backward_matches_central_differences_per_layer(self, config, seed):
        params = margin_params(config, seed)
        obs = probe_obs(config)
        a = np.linspace(-1.0, 1.0, 9).reshape(1, 9)
        b = np.array([0.7])
        logits, values, cache = net.forward_core(params, obs)
        assert_relu_margin(params, cache)
        analytic = net.backward(params, cache, a, b)
        numeric = fd_gradient(lambda p: self.probe_loss(a, b)(p, obs), params)
        for name, _ in config.param_layout():
            ok, worst = grad_close(analytic[name], numeric[name])
            assert ok, f"{name}: rel err {worst:.2e}"

    def test_zero_upstream_gradient_gives_zero_grads(self):
        params = margin_params(tiny_net_config(), TINY_SEED)
        obs = probe_obs(params.config)
        _, _, cache = net.forward_core(params, obs)
        grads = net.backward(params, cache, np.zeros((1, 9)), np.zeros(1))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_value_head_gradient_independent_of_policy_upstream(self):
        params = margin_params(tiny_net_config(), TINY_SEED)
        obs = probe_obs(params.config)
        g1, g2 = (
            net.backward(params, net.forward_core(params, obs)[2], dlogits, np.ones(1))
            for dlogits in (np.zeros((1, 9)), np.full((1, 9), 3.0))
        )
        assert np.array_equal(g1["value/w"], g2["value/w"])
        assert np.array_equal(g1["value/b"], g2["value/b"])
        assert np.all(g1["policy/w"] == 0.0)

    def test_workspace_cache_is_used_up_by_backward(self):
        params = margin_params(tiny_net_config(), TINY_SEED)
        obs = probe_obs(params.config, 2)
        a, b = np.ones((2, 9)), np.ones(2)
        for workspace in (None, net.Workspace()):  # a fresh workspace, or the caller's
            _, _, cache = net.forward_core(params, obs, workspace)
            net.backward(params, cache, a, b)
            with pytest.raises(ContractViolationError, match="used up"):
                net.backward(params, cache, a, b)


def whole_minibatch_reference(params, obs, dlogits, dvalues):
    """(logits, values, grads) by the unblocked arithmetic: one patch matrix
    over the whole minibatch and one GEMM per conv layer forward, and
    ``cols.T @ dpre`` for each conv weight gradient."""
    cfg, arr = params.config, params.arrays

    def im2col(x, spec):
        windows = sliding_window_view(x, (spec.kernel, spec.kernel), axis=(1, 2))
        windows = windows[:, :: spec.stride, :: spec.stride]  # (N, OH, OW, C, kh, kw)
        flat = windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, spec.kernel**2 * x.shape[-1])
        return flat.astype(np.float64)

    n, inputs, acts, h = len(obs), [], [], obs
    for i, spec in enumerate(cfg.convs):
        pre = im2col(h, spec) @ arr[f"conv{i + 1}/w"].reshape(-1, spec.filters)
        if i == 0:
            pre *= net.CODE_SCALE
        pre += arr[f"conv{i + 1}/b"]
        size = cfg.conv_output_sizes()[i]
        inputs.append(h)
        h = np.maximum(pre, 0.0).reshape(n, size, size, spec.filters)
        acts.append(h)
    flat = h.reshape(n, -1)
    pre_dense = flat @ arr["dense/w"] + arr["dense/b"]
    hidden = np.maximum(pre_dense, 0.0)
    logits = hidden @ arr["policy/w"] + arr["policy/b"]
    values = (hidden @ arr["value/w"] + arr["value/b"])[:, 0]

    dvalues = dvalues.reshape(-1, 1)
    grads = {"policy/w": hidden.T @ dlogits, "policy/b": dlogits.sum(axis=0),
             "value/w": hidden.T @ dvalues, "value/b": dvalues.sum(axis=0)}
    dhidden = dlogits @ arr["policy/w"].T + dvalues @ arr["value/w"].T
    dpre_dense = dhidden * (pre_dense > 0.0)
    grads["dense/w"] = flat.T @ dpre_dense
    grads["dense/b"] = dpre_dense.sum(axis=0)
    dpost = (dpre_dense @ arr["dense/w"].T).reshape(h.shape)
    for i in range(len(cfg.convs) - 1, -1, -1):
        spec, w = cfg.convs[i], arr[f"conv{i + 1}/w"]
        dpre = dpost * (acts[i] > 0.0)
        dpre_mat = dpre.reshape(-1, spec.filters)
        grad_w = im2col(inputs[i], spec).T @ dpre_mat
        if i == 0:
            grad_w *= net.CODE_SCALE
        grads[f"conv{i + 1}/w"] = grad_w.reshape(w.shape)
        grads[f"conv{i + 1}/b"] = dpre_mat.sum(axis=0)
        if i > 0:  # one GEMM per kernel tap, added in (a, b) order onto zeros
            _, oh, ow, _ = dpre.shape
            s, dpost = spec.stride, np.zeros(inputs[i].shape)
            for a in range(spec.kernel):
                for b in range(spec.kernel):
                    tap = (dpre_mat @ w[a, b].T).reshape(n, oh, ow, -1)
                    dpost[:, a : a + s * oh : s, b : b + s * ow : s, :] += tap
    return logits, values, grads


class TestBlockedConvolutions:
    @pytest.mark.parametrize(
        "mode, rows",
        [("full84", 1), ("full84", 5), ("full84", 37), ("full84", 64), ("full84", 128),
         ("lite21", 64), ("lite21", 128)],
    )
    def test_bit_equal_to_whole_minibatch_reference(self, mode, rows, one_blas_thread):
        # full84 at 37 rows ends every conv layer's forward in a partial block
        cfg = net.net_config_for_mode(mode)
        params = net.init_params(cfg, 3)
        rng = np.random.default_rng(rows)
        obs = rng.integers(0, 256, size=(rows, cfg.core_res(), cfg.core_res(), 3), dtype=np.uint8)
        dlogits, dvalues = rng.normal(size=(rows, 9)), rng.normal(size=rows)
        ref_logits, ref_values, ref_grads = whole_minibatch_reference(params, obs, dlogits, dvalues)
        logits, values, cache = net.forward_core(params, obs)
        grads = net.backward(params, cache, dlogits, dvalues)

        def same(a, b):
            return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

        assert same(logits, ref_logits) and same(values, ref_values)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert same(grads[name], ref_grads[name]), name


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = net.init_params(tiny_net_config(), 0)
        state = net.init_adam_state(params)
        grads = {k: np.zeros_like(v) for k, v in params.arrays.items()}
        new_params, new_state = net.adam_update(params, grads, state, lr=0.0006)
        assert new_state.step == 1
        for k in params.arrays:
            assert np.array_equal(new_params.arrays[k], params.arrays[k])

    def test_first_step_bias_corrected_hand_value(self):
        # single parameter w=0 with gradient 1: step lands at -lr within eps
        params = zero_params(tiny_net_config())
        state = net.init_adam_state(params)
        grads = {k: np.zeros_like(v) for k, v in params.arrays.items()}
        grads["value/b"] = np.array([1.0])
        new_params, _ = net.adam_update(params, grads, state, lr=0.0006)
        assert new_params.arrays["value/b"][0] == pytest.approx(-0.0006, abs=1e-9)
        # untouched arrays stay exactly zero
        assert np.all(new_params.arrays["policy/w"] == 0.0)

    def test_two_steps_descend_a_quadratic(self):
        # loss = sum((w - 3)^2) over the value bias, gradient 2(w - 3)
        params = zero_params(tiny_net_config())
        state = net.init_adam_state(params)

        def loss(p):
            return float(np.sum((p.arrays["value/b"] - 3.0) ** 2))

        losses = [loss(params)]
        for _ in range(2):
            grads = {k: np.zeros_like(v) for k, v in params.arrays.items()}
            grads["value/b"] = 2.0 * (params.arrays["value/b"] - 3.0)
            params, state = net.adam_update(params, grads, state, lr=0.01)
            losses.append(loss(params))
        assert losses[2] < losses[1] < losses[0]

    def test_blocked_in_place_step_matches_reference_formula(self):
        # one array longer than a block and not a multiple of it, and a short one;
        # gradients mix signs and exact zeros
        rng = np.random.default_rng(11)
        shapes = {"big": (2 * net.ADAM_BLOCK + 37,), "small": (3, 5)}
        params = net.NetworkParams(
            tiny_net_config(), {k: rng.standard_normal(s) for k, s in shapes.items()}
        )
        state = net.init_adam_state(params)
        ref_p = {k: a.copy() for k, a in params.arrays.items()}
        ref_m = {k: np.zeros(s) for k, s in shapes.items()}
        ref_v = {k: np.zeros(s) for k, s in shapes.items()}
        lr = 0.0006
        for t in range(1, 4):
            grads = {}
            for k, s in shapes.items():
                g = rng.standard_normal(s)
                g[rng.random(s) < 0.2] = 0.0
                grads[k] = g
            bc1 = 1.0 - net.ADAM_BETA1**t
            bc2 = 1.0 - net.ADAM_BETA2**t
            for k, g in grads.items():
                ref_m[k] = net.ADAM_BETA1 * ref_m[k] + (1.0 - net.ADAM_BETA1) * g
                ref_v[k] = net.ADAM_BETA2 * ref_v[k] + (1.0 - net.ADAM_BETA2) * (g * g)
                ref_p[k] = ref_p[k] - lr * (ref_m[k] / bc1) / (np.sqrt(ref_v[k] / bc2) + net.ADAM_EPS)
            arrays_before = dict(params.arrays)
            new_params, new_state = net.adam_update(params, grads, state, lr)
            assert new_params is params and new_state is state and state.step == t
            for k in shapes:
                assert params.arrays[k] is arrays_before[k]  # updated in place
                assert np.array_equal(params.arrays[k], ref_p[k])
                assert np.array_equal(state.m[k], ref_m[k])
                assert np.array_equal(state.v[k], ref_v[k])

    def test_non_finite_gradient_leaves_state_untouched(self):
        params = net.init_params(tiny_net_config(), 0)
        state = net.init_adam_state(params)
        grads = {k: np.ones_like(v) for k, v in params.arrays.items()}
        grads["value/b"][0] = np.inf  # last in layout order: every other array is checked first
        before = params.copy()
        with pytest.raises(NonFiniteError):
            net.adam_update(params, grads, state, lr=0.0006)
        assert state.step == 0
        for k in params.arrays:
            assert np.array_equal(params.arrays[k], before.arrays[k])
            assert not state.m[k].any() and not state.v[k].any()

    def test_non_finite_gradient_rejected(self):
        params = net.init_params(tiny_net_config(), 0)
        state = net.init_adam_state(params)
        grads = {k: np.zeros_like(v) for k, v in params.arrays.items()}
        grads["dense/w"][0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            net.adam_update(params, grads, state, lr=0.0006)


class TestSampling:
    def test_uniform_logits_frequencies(self):
        rng = np.random.default_rng(4)
        counts = np.zeros(9)
        logits = np.zeros(9)
        n = 90_000
        for _ in range(n):
            counts[net.sample_action(logits, rng).index] += 1
        freqs = counts / n
        assert np.all(np.abs(freqs - 1.0 / 9.0) < 0.01)

    def test_saturated_logit_dominates(self):
        rng = np.random.default_rng(0)
        logits = np.zeros(9)
        logits[6] = 1000.0
        for _ in range(100):
            assert net.sample_action(logits, rng).index == 6

    def test_log_prob_normalization(self, rng):
        for _ in range(50):
            logits = rng.normal(scale=5.0, size=9)
            logp = net.log_softmax(logits)
            assert abs(np.exp(logp).sum() - 1.0) < 1e-9

    def test_sampling_deterministic_given_seed(self):
        logits = np.array([0.3, -1.0, 0.5, 0.0, 0.2, -0.4, 1.1, 0.0, -2.0])
        a = [net.sample_action(logits, np.random.default_rng(9)).index for _ in range(20)]
        b = [net.sample_action(logits, np.random.default_rng(9)).index for _ in range(20)]
        assert a == b != [a[0]] * 20 or len(set(a)) >= 1  # deterministic sequences match
        assert a == b

    def test_log_prob_consistency(self, rng):
        logits = rng.normal(size=9)
        s = net.sample_action(logits, rng)
        logp = net.log_softmax(logits)
        assert s.log_prob_vector[s.index] == pytest.approx(logp[s.index])

    def test_greedy_picks_argmax(self):
        logits = np.array([0.0, 2.0, -1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert net.greedy_action(logits).index == 1

    def test_non_finite_logits_rejected(self):
        with pytest.raises(NonFiniteError):
            net.sample_action(np.array([np.nan] + [0.0] * 8), np.random.default_rng(0))


class TestActionGrid:
    def test_center_index_is_coast_straight(self):
        cmd = net.action_to_command(4)
        assert (cmd.steer, cmd.throttle, cmd.brake) == (0.0, 0.0, 0.0)

    def test_grid_covers_steer_times_longitudinal(self):
        seen = set()
        for i in range(9):
            cmd = net.action_to_command(i)
            assert cmd.steer in (-0.5, 0.0, 0.5)
            assert (cmd.throttle, cmd.brake) in ((0.6, 0.0), (0.0, 0.0), (0.0, 0.6))
            seen.add((cmd.steer, cmd.throttle, cmd.brake))
        assert len(seen) == 9

    def test_out_of_range_index(self):
        with pytest.raises(ContractViolationError):
            net.action_to_command(9)
