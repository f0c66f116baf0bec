import math

import numpy as np
import pytest

from conftest import (
    assert_relu_margin,
    fd_gradient,
    grad_close,
    probe_obs,
    tiny_net_config,
    uniform_codes,
)

from advdrive import net, ppo
from advdrive.errors import PpoError
from advdrive.ppo import (
    PpoHyper,
    RolloutBatch,
    Trajectory,
    adapt_kl_coef,
    build_rollout_batch,
    compute_advantages,
    ppo_loss_grads,
    update_policy,
)

TINY_SEED = 48


def margin_params(config, seed, bias_boost=0.07):
    params = net.init_params(config, seed)
    for key in params.arrays:
        if key.endswith("/b"):
            params.arrays[key] += bias_boost
    return params


def make_trajectory(params, n, rewards=None, values=None, rng_seed=5):
    """Transitions whose log-probs come from `params` (on-policy by construction)."""
    rng = np.random.default_rng(rng_seed)
    obs = uniform_codes(rng, n, params.config.core_res())
    traj = Trajectory(agent_id="victim1")
    for t in range(n):
        logits, value = net.forward(params, obs[t])
        chosen = net.sample_action(logits, rng)
        traj.append(
            obs[t],
            chosen.index,
            chosen.log_prob_vector,
            value if values is None else values[t],
            rng.normal() if rewards is None else rewards[t],
        )
    return traj


class TestAdvantages:
    def test_hand_evaluated_discounted_returns(self):
        traj = Trajectory(agent_id="a")
        for r in [1.0, 1.0, 1.0]:
            traj.append(np.zeros((84, 84, 3)), 0, np.zeros(9), 0.0, r)
        adv, ret = compute_advantages(traj, gamma=0.99, lam=1.0)
        expected = [1.0 + 0.99 + 0.99**2, 1.0 + 0.99, 1.0]
        assert np.allclose(ret, expected, atol=1e-12)
        assert np.allclose(adv, expected, atol=1e-12)  # values are zero

    def test_zero_rewards_zero_values_zero_advantages(self):
        traj = Trajectory(agent_id="a")
        for _ in range(5):
            traj.append(np.zeros((84, 84, 3)), 0, np.zeros(9), 0.0, 0.0)
        adv, ret = compute_advantages(traj, gamma=0.99, lam=1.0)
        assert np.all(adv == 0.0) and np.all(ret == 0.0)

    def test_gamma_zero_is_one_step(self, rng):
        traj = Trajectory(agent_id="a")
        rewards = rng.normal(size=6)
        values = rng.normal(size=6)
        for t in range(6):
            traj.append(np.zeros((84, 84, 3)), 0, np.zeros(9), values[t], rewards[t])
        adv, ret = compute_advantages(traj, gamma=0.0, lam=1.0)
        assert np.array_equal(adv, rewards - values)
        assert np.allclose(ret, rewards, atol=1e-12)

    def test_lambda_one_returns_are_reward_to_go(self, rng):
        traj = Trajectory(agent_id="a")
        rewards = rng.normal(size=8)
        values = rng.normal(size=8)
        for t in range(8):
            traj.append(np.zeros((84, 84, 3)), 0, np.zeros(9), values[t], rewards[t])
        _, ret = compute_advantages(traj, gamma=0.9, lam=1.0)
        expected = np.zeros(8)
        acc = 0.0
        for t in range(7, -1, -1):
            acc = rewards[t] + 0.9 * acc
            expected[t] = acc
        assert np.allclose(ret, expected, atol=1e-12)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(PpoError):
            compute_advantages(Trajectory(agent_id="a"), 0.99, 1.0)


class TestRolloutBatch:
    def test_advantage_normalization(self):
        params = net.init_params(tiny_net_config(), 2)
        trajs = [make_trajectory(params, 20, rng_seed=s) for s in range(3)]
        batch = build_rollout_batch(trajs, 0.99, 1.0)
        assert abs(batch.advantages.mean()) < 1e-9
        assert abs(batch.advantages.std() - 1.0) < 1e-6
        assert len(batch) == 60

    def test_whole_episodes_only(self):
        params = net.init_params(tiny_net_config(), 2)
        t1 = make_trajectory(params, 7, rng_seed=1)
        t2 = make_trajectory(params, 9, rng_seed=2)
        batch = build_rollout_batch([t1, t2], 0.99, 1.0)
        assert len(batch) == 16


class TestLoss:
    def setup_method(self):
        self.params = margin_params(tiny_net_config(), TINY_SEED)
        self.hyper = PpoHyper()

    def identity_minibatch(self, n=4, adv=None):
        obs = probe_obs(self.params.config, n)
        logits, values, _ = net.forward_core(self.params, obs)
        logp = net.log_softmax(logits)
        actions = np.arange(n) % 9
        return RolloutBatch(
            obs=obs,
            actions=actions,
            log_prob_vecs_old=logp,
            advantages=np.ones(n) if adv is None else np.asarray(adv, dtype=float),
            returns=values.copy(),
        )

    @staticmethod
    def shift_taken(mb, shifts):
        """Add ``shifts`` to the taken actions' old log-probabilities, which
        scales each probability ratio by exp(-shift)."""
        mb.log_prob_vecs_old = mb.log_prob_vecs_old.copy()
        mb.log_prob_vecs_old[np.arange(len(mb)), mb.actions] += shifts

    def test_identity_policy_surrogate_is_minus_mean_advantage(self, rng):
        adv = rng.normal(size=6)
        mb = self.identity_minibatch(6, adv=adv)
        _, comps = ppo_loss_grads(self.params, mb, self.hyper, kl_coef=0.3)[:2]
        assert comps["surrogate"] == pytest.approx(-adv.mean(), abs=1e-12)
        assert comps["kl"] == pytest.approx(0.0, abs=1e-15)

    def test_clip_boundary_positive_advantage(self):
        mb = self.identity_minibatch(1, adv=[1.0])
        self.shift_taken(mb, -math.log(2.0))  # ratio = 2.0
        _, comps = ppo_loss_grads(self.params, mb, self.hyper, kl_coef=0.0)[:2]
        # min(2.0 * 1, 1.3 * 1) -> clipped value 1.3
        assert comps["surrogate"] == pytest.approx(-1.3, abs=1e-12)

    def test_clip_boundary_negative_advantage(self):
        mb = self.identity_minibatch(1, adv=[-1.0])
        self.shift_taken(mb, math.log(2.0))  # ratio = 0.5
        _, comps = ppo_loss_grads(self.params, mb, self.hyper, kl_coef=0.0)[:2]
        # min(0.5 * -1, 0.7 * -1) = -0.7: the clipped branch is the pessimistic one
        assert comps["surrogate"] == pytest.approx(0.7, abs=1e-12)

    def test_full_loss_matches_scalar_oracle(self):
        n = 3
        mb = self.identity_minibatch(n, adv=[0.5, -1.2, 2.0])
        self.shift_taken(mb, [0.0, math.log(2.0), -math.log(2.0)])
        kl_coef = 0.25
        loss, comps = ppo_loss_grads(self.params, mb, self.hyper, kl_coef)[:2]

        # independent recomputation with plain python/numpy arithmetic
        logits, values, _ = net.forward_core(self.params, mb.obs)
        surr_terms = []
        ent_terms = []
        kl_terms = []
        vf_terms = []
        for i in range(n):
            z = logits[i] - logits[i].max()
            p = np.exp(z) / np.exp(z).sum()
            logp = np.log(p)
            ratio = math.exp(logp[mb.actions[i]] - mb.log_prob_vecs_old[i, mb.actions[i]])
            clipped = min(max(ratio, 1 - 0.3), 1 + 0.3)
            surr_terms.append(min(ratio * mb.advantages[i], clipped * mb.advantages[i]))
            ent_terms.append(float(-(p * logp).sum()))
            q = np.exp(mb.log_prob_vecs_old[i])
            kl_terms.append(float((q * (mb.log_prob_vecs_old[i] - logp)).sum()))
            vf_terms.append((values[i] - mb.returns[i]) ** 2)
        expected = (
            -np.mean(surr_terms)
            + self.hyper.vf_coef * np.mean(vf_terms)
            - self.hyper.ent_coef * np.mean(ent_terms)
            + kl_coef * np.mean(kl_terms)
        )
        assert loss == pytest.approx(expected, abs=1e-9)

    @staticmethod
    def random_minibatch(rng, n, res):
        codes = rng.integers(0, 256, size=(n, res, res, 3), dtype=np.uint8)
        logp = net.log_softmax(rng.normal(size=(n, 9)))
        actions = rng.integers(0, 9, size=n)
        return RolloutBatch(
            obs=codes,
            actions=actions,
            log_prob_vecs_old=logp,
            advantages=rng.normal(size=n),
            returns=rng.normal(size=n),
        )

    def check_workspace_bit_equal(self, params, rng, rows):
        """Logits, values, loss, every gradient and their sign bits are the
        same in a fresh workspace per call and in one workspace reused over
        uint8 minibatches of the given row counts."""
        workspace = net.Workspace()

        def same(a, b):
            return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

        for n in rows:
            mb = self.random_minibatch(rng, n, params.config.core_res())
            logits, values, _ = net.forward_core(params, mb.obs)  # a fresh workspace
            logits_ws, values_ws, _ = net.forward_core(params, mb.obs, workspace)
            assert same(logits, logits_ws) and same(values, values_ws)
            loss, _, fresh = ppo_loss_grads(params, mb, self.hyper, 0.3)
            loss_ws, _, reused = ppo_loss_grads(params, mb, self.hyper, 0.3, workspace)
            assert loss_ws == loss
            assert fresh.keys() == reused.keys()
            for name in fresh:
                assert same(fresh[name], reused[name]), name
            assert any(np.any(g == 0.0) for g in fresh.values())  # dead ReLUs give exact zeros

    def test_workspace_gradients_bit_equal_over_consecutive_calls(self):
        params = margin_params(net.NETS["lite21"], TINY_SEED)
        self.check_workspace_bit_equal(params, np.random.default_rng(4), (8, 5))

    def test_full84_workspace_outputs_bit_equal_over_consecutive_calls(self):
        params = net.init_params(net.NETS["full84"], 6)
        self.check_workspace_bit_equal(params, np.random.default_rng(9), (64, 5))

    def workspace_bytes(self, mode):
        """Bytes a workspace holds after two 64-row minibatches of ``mode``."""
        cfg = net.net_config_for_mode(mode)
        params = net.init_params(cfg, 6)
        rng = np.random.default_rng(9)
        workspace = net.Workspace()
        for _ in range(2):
            mb = self.random_minibatch(rng, 64, cfg.core_res())
            ppo_loss_grads(params, mb, self.hyper, 0.3, workspace)
        return workspace.nbytes()

    def test_full84_workspace_footprint(self):
        # dense/w gradient 12.25 MiB, pre-activations 10.31, patch buffer 5.86
        # (one 10-image conv1 block; conv2's largest kernel-row matrix is
        # 5.06), mask 0.78
        assert self.workspace_bytes("full84") <= 29.21 * 2**20

    def test_lite21_workspace_footprint(self):
        # one block: patch matrix 2.97 MiB, pre-activations 0.47, the rest 0.07
        assert self.workspace_bytes("lite21") <= 3.51 * 2**20

    def test_non_finite_ratio_names_transition(self):
        mb = self.identity_minibatch(2)
        self.shift_taken(mb, [0.0, -np.inf])
        with pytest.raises(PpoError, match="transition 1"):
            ppo_loss_grads(self.params, mb, self.hyper, kl_coef=0.1)

    def test_loss_gradient_matches_central_differences(self):
        # ratios pushed off 1 and one transition into each clip branch
        mb = self.identity_minibatch(4, adv=[0.8, -1.1, 1.7, -0.4])
        self.shift_taken(mb, [0.0, math.log(2.0), -math.log(2.0), 0.1])
        # renormalized: the KL gradient p - q holds for a distribution q
        mb.log_prob_vecs_old = net.log_softmax(mb.log_prob_vecs_old)
        kl_coef = 0.2
        logits, _, cache = net.forward_core(self.params, mb.obs)
        taken = (np.arange(4), mb.actions)
        ratios = np.exp(net.log_softmax(logits)[taken] - mb.log_prob_vecs_old[taken])
        assert ratios[1] < 0.7 and ratios[2] > 1.3 and 0.7 < ratios[3] < 1.0
        assert_relu_margin(self.params, cache)
        _, _, analytic = ppo_loss_grads(self.params, mb, self.hyper, kl_coef)
        numeric = fd_gradient(
            lambda p: ppo_loss_grads(p, mb, self.hyper, kl_coef)[0], self.params
        )
        for name, _ in self.params.config.param_layout():
            ok, worst = grad_close(analytic[name], numeric[name])
            assert ok, f"{name}: rel err {worst:.2e}"


class TestAdaptiveKl:
    def test_increase_above_twice_target(self):
        assert adapt_kl_coef(0.3, 0.1, 0.03) == 0.3 * 1.5

    def test_decrease_below_half_target(self):
        assert adapt_kl_coef(0.3, 0.01, 0.03) == 0.3 * 0.5

    def test_unchanged_in_band(self):
        for kl in (0.015, 0.03, 0.0599):
            assert adapt_kl_coef(0.3, kl, 0.03) == 0.3


class TestUpdatePolicy:
    def test_on_policy_identity_at_start(self):
        params = net.init_params(tiny_net_config(), 3)
        batch = build_rollout_batch([make_trajectory(params, 16)], 0.99, 1.0)
        logits, _, _ = net.forward_core(params, batch.obs)
        logp = net.log_softmax(logits)
        taken = (np.arange(len(batch)), batch.actions)
        ratios = np.exp(logp[taken] - batch.log_prob_vecs_old[taken])
        assert np.all(np.abs(ratios - 1.0) <= 1e-9)

    def test_stale_batch_rejected(self):
        params_a = net.init_params(tiny_net_config(), 3)
        params_b = net.init_params(tiny_net_config(), 4)
        batch = build_rollout_batch([make_trajectory(params_a, 12)], 0.99, 1.0)
        with pytest.raises(PpoError, match="stale"):
            update_policy(
                params_b, net.init_adam_state(params_b), batch, PpoHyper(), 0.3,
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize("shift", [1e-6, -1e-6, np.nan])
    def test_unnormalized_row_rejected_after_the_on_policy_check(self, shift):
        params = net.init_params(tiny_net_config(), 3)
        batch = build_rollout_batch([make_trajectory(params, 12)], 0.99, 1.0)
        # rows 5 and 8 shift their untaken actions' log-probs, so every ratio
        # at the start stays 1 and only the KL term sees the shift
        for row in (5, 8):
            batch.log_prob_vecs_old[row, np.arange(net.N_ACTIONS) != batch.actions[row]] += shift

        def update(params):
            return update_policy(params, net.init_adam_state(params), batch, PpoHyper(), 0.3,
                                 np.random.default_rng(0))

        with pytest.raises(PpoError, match=r"^log_prob_vecs_old row 5 is not normalized"):
            update(params)
        with pytest.raises(PpoError, match="^stale rollout batch"):
            update(net.init_params(tiny_net_config(), 4))

    def test_zero_advantage_batch_does_not_reduce_entropy(self):
        params = net.init_params(tiny_net_config(), 3)
        traj = make_trajectory(params, 24, rewards=np.zeros(24), values=np.zeros(24))
        batch = build_rollout_batch([traj], 0.99, 1.0)
        assert np.all(batch.advantages == 0.0)

        logits0, _, _ = net.forward_core(params, batch.obs)
        entropy_before = float(net.entropy_from_logp(net.log_softmax(logits0)).mean())
        new_params, _, _, stats = update_policy(
            params, net.init_adam_state(params), batch, PpoHyper(), 0.3,
            np.random.default_rng(1),
        )
        logits1, _, _ = net.forward_core(new_params, batch.obs)
        entropy_after = float(net.entropy_from_logp(net.log_softmax(logits1)).mean())
        assert entropy_after >= entropy_before - 1e-12

    def test_kl_coef_adapts_through_update(self):
        # a hot learning rate moves the policy; thresholds bracket the measured
        # KL from both sides to exercise the 1.5x and 0.5x adaptations
        params = net.init_params(tiny_net_config(), 3)
        batch = build_rollout_batch([make_trajectory(params, 16)], 0.99, 1.0)
        hot = PpoHyper(lr=0.05, kl_target=0.004)
        _, _, kl_up, stats = update_policy(
            params.copy(), net.init_adam_state(params), batch, hot, 0.3,
            np.random.default_rng(2),
        )
        assert stats["mean_kl"] > 2 * hot.kl_target
        assert kl_up == 0.3 * 1.5

        lax = PpoHyper(lr=0.05, kl_target=1.0)
        _, _, kl_down, stats = update_policy(
            params.copy(), net.init_adam_state(params), batch, lax, 0.3,
            np.random.default_rng(2),
        )
        assert stats["mean_kl"] < lax.kl_target / 2
        assert kl_down == 0.3 * 0.5

    def test_forwards_never_exceed_a_minibatch(self, monkeypatch):
        params = net.init_params(tiny_net_config(), 3)
        batch = build_rollout_batch([make_trajectory(params, 40)], 0.99, 1.0)
        hyper = PpoHyper(minibatch=16, epochs_per_batch=2)
        rows = []
        forward_core = net.forward_core

        def recorder(p, x, workspace=None):
            rows.append(len(x))
            return forward_core(p, x, workspace)

        monkeypatch.setattr(net, "forward_core", recorder)
        _, _, _, stats = update_policy(
            params, net.init_adam_state(params), batch, hyper, 0.3, np.random.default_rng(0)
        )
        assert max(rows) == hyper.minibatch
        # the on-policy check and final KL each cover the 40 rows in chunks
        assert sum(rows) == 2 * len(batch) + hyper.epochs_per_batch * len(batch)
        assert len(rows) == 2 * 3 + stats["grad_steps"]

    def test_update_is_deterministic(self):
        params = net.init_params(tiny_net_config(), 3)
        batch = build_rollout_batch([make_trajectory(params, 20)], 0.99, 1.0)
        outs = []
        for _ in range(2):
            p, _, _, _ = update_policy(
                params.copy(), net.init_adam_state(params), batch, PpoHyper(), 0.3,
                np.random.default_rng(7),
            )
            outs.append(np.concatenate([p.arrays[k].ravel() for k in sorted(p.arrays)]))
        assert np.array_equal(outs[0], outs[1])
