"""On-policy PPO: complete-episode batches, GAE advantages, and a clipped
surrogate objective combined with an adaptive KL penalty, value loss, and
entropy bonus. Minibatch gradients flow through the hand-written network
backward pass and Adam.

A ``Trajectory`` is one agent's whole episode, so only its last step ends
it: GAE bootstraps 0 after that step and nowhere else. ``RolloutBatch`` is
the one shape of the per-step data an update reads: the whole batch that
``build_rollout_batch`` stacks, and each minibatch that its ``slice`` cuts.

Rollouts store observations as the raster renders them: uint8 palette
codes at the net's core resolution (code k is the channel value k/256), an
eighth of float64. ``update_policy`` gathers each minibatch's codes and
passes them to one ``net.Workspace`` that serves all of its forward and
backward passes; conv1 decodes them by scaling its GEMM results.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import net
from .errors import NonFiniteError, PpoError
from .net import AdamState, NetworkParams
from .schema import setting

ADV_NORM_EPS = 1e-8
ON_POLICY_TOLERANCE = 1e-9


@dataclass
class PpoHyper:
    gamma: float = setting(0.99, lo=0.0, hi=1.0)
    gae_lambda: float = setting(1.0, lo=0.0, hi=1.0)
    clip: float = setting(0.3, lo=1e-6, hi=1.0)
    kl_target: float = setting(0.03, lo=1e-9)
    kl_coef_init: float = setting(0.3, lo=1e-9)
    vf_coef: float = setting(1.0, lo=1e-9)
    ent_coef: float = setting(0.01, lo=1e-9)
    minibatch: int = setting(64, lo=1)
    epochs_per_batch: int = setting(8, lo=1)
    train_batch: int = setting(128, lo=1)
    lr: float = setting(0.0006, lo=1e-12)


@dataclass
class Trajectory:
    """One agent's transitions for one episode, in order; the episode ends
    after the last one."""

    agent_id: str
    obs: list = field(default_factory=list)  # each (R, R, 3) uint8 codes, R = net core resolution
    actions: list = field(default_factory=list)
    log_prob_vecs_old: list = field(default_factory=list)  # each (9,)
    values_old: list = field(default_factory=list)
    rewards: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rewards)

    def append(self, obs, action, log_prob_vec, value, reward):
        self.obs.append(obs)
        self.actions.append(int(action))
        self.log_prob_vecs_old.append(np.asarray(log_prob_vec, dtype=np.float64))
        self.values_old.append(float(value))
        self.rewards.append(float(reward))


def compute_advantages(
    traj: Trajectory, gamma: float, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """GAE(gamma, lam) over one whole episode; the value after its last step
    is 0. Returns = adv + values."""
    n = len(traj)
    if n == 0:
        raise PpoError("cannot compute advantages of an empty trajectory")
    rewards = np.asarray(traj.rewards, dtype=np.float64)
    values = np.asarray(traj.values_old, dtype=np.float64)
    advantages = np.zeros(n, dtype=np.float64)
    last = 0.0
    for t in range(n - 1, -1, -1):
        next_value = values[t + 1] if t + 1 < n else 0.0
        delta = rewards[t] + gamma * next_value - values[t]
        last = delta + gamma * lam * last
        advantages[t] = last
    return advantages, advantages + values


@dataclass
class RolloutBatch:
    """Per-step arrays of whole episodes stacked for one policy update, or of
    a minibatch sliced from them; advantages normalized over the whole batch."""

    obs: np.ndarray  # (N, R, R, 3) uint8 codes, R = net core resolution
    actions: np.ndarray  # (N,) int64
    log_prob_vecs_old: np.ndarray  # (N, 9); the taken action's entry is the one it was sampled with
    advantages: np.ndarray  # (N,), mean 0 / std 1 over the whole batch
    returns: np.ndarray  # (N,)

    def __len__(self) -> int:
        return len(self.actions)

    def slice(self, idx: np.ndarray) -> "RolloutBatch":
        return RolloutBatch(**{f.name: getattr(self, f.name)[idx] for f in fields(self)})


def build_rollout_batch(trajectories, gamma: float, lam: float) -> RolloutBatch:
    trajs = list(trajectories)
    if not trajs:
        raise PpoError("rollout batch needs at least one trajectory")
    parts = [compute_advantages(traj, gamma, lam) for traj in trajs]
    advantages = np.concatenate([adv for adv, _ in parts])
    return RolloutBatch(
        obs=np.stack([o for t in trajs for o in t.obs]),
        actions=np.array([a for t in trajs for a in t.actions], dtype=np.int64),
        log_prob_vecs_old=np.stack([v for t in trajs for v in t.log_prob_vecs_old]),
        advantages=(advantages - advantages.mean()) / (advantages.std() + ADV_NORM_EPS),
        returns=np.concatenate([ret for _, ret in parts]),
    )


def ppo_loss_grads(
    params: NetworkParams,
    mb: RolloutBatch,
    hyper: PpoHyper,
    kl_coef: float,
    workspace: net.Workspace | None = None,
) -> tuple[float, dict, dict]:
    """Scalar PPO loss, its components (all in loss convention except
    entropy and kl, which are reported as raw means) and exact parameter
    gradients for one minibatch.

    The forward and backward passes run in ``workspace``, or in a fresh one
    when none is given (see ``net.Workspace``); the ``dense/w`` gradient is
    one of its buffers, overwritten by the workspace's next use.
    """
    logits, values, cache = net.forward_core(params, mb.obs, workspace)
    logp = net.log_softmax(logits)
    n = len(mb)
    taken = (np.arange(n), mb.actions)
    ratio = np.exp(logp[taken] - mb.log_prob_vecs_old[taken])
    if not np.all(np.isfinite(ratio)):
        bad = int(np.flatnonzero(~np.isfinite(ratio))[0])
        raise NonFiniteError(f"non-finite probability ratio at transition {bad}")
    clipped_ratio = np.clip(ratio, 1.0 - hyper.clip, 1.0 + hyper.clip)
    unclipped = ratio * mb.advantages
    clipped = clipped_ratio * mb.advantages
    objective = np.minimum(unclipped, clipped)

    probs = np.exp(logp)
    entropy = -(probs * logp).sum(axis=1)
    q = np.exp(mb.log_prob_vecs_old)
    kl = (q * (mb.log_prob_vecs_old - logp)).sum(axis=1)
    vf_err = values - mb.returns

    components = {
        "surrogate": float(-objective.mean()),
        "vf": float((vf_err**2).mean()),
        "entropy": float(entropy.mean()),
        "kl": float(kl.mean()),
    }
    total = (
        components["surrogate"]
        + hyper.vf_coef * components["vf"]
        - hyper.ent_coef * components["entropy"]
        + kl_coef * components["kl"]
    )
    if not np.isfinite(total):
        raise NonFiniteError("non-finite PPO loss")

    onehot = np.zeros_like(logp)
    onehot[taken] = 1.0

    # surrogate: gradient flows only where the unclipped branch is active
    active = (unclipped <= clipped).astype(np.float64)
    coeff = -(active * ratio * mb.advantages) / n
    dlogits = coeff[:, None] * (onehot - probs)
    # entropy bonus: d(-ent_coef * mean(H)) with dH/dlogits = -p * (logp + H)
    dlogits += (hyper.ent_coef / n) * probs * (logp + entropy[:, None])
    # KL(old || new): gradient is p - q
    dlogits += (kl_coef / n) * (probs - q)

    dvalues = (2.0 * hyper.vf_coef / n) * vf_err
    grads = net.backward(params, cache, dlogits, dvalues)
    return float(total), components, grads


def adapt_kl_coef(kl_coef: float, mean_kl: float, kl_target: float) -> float:
    """RLlib-style two-sided adaptation: x1.5 above 2*target, x0.5 below target/2."""
    if mean_kl > 2.0 * kl_target:
        return kl_coef * 1.5
    if mean_kl < kl_target / 2.0:
        return kl_coef * 0.5
    return kl_coef


def _batch_log_probs(
    params: NetworkParams, obs: np.ndarray, rows: int, workspace: net.Workspace
) -> np.ndarray:
    """Log-probabilities for a whole batch, forwarded `rows` observations at a
    time through the workspace."""
    logits = [
        net.forward_core(params, obs[lo : lo + rows], workspace)[0]
        for lo in range(0, len(obs), rows)
    ]
    return net.log_softmax(np.concatenate(logits))


def update_policy(
    params: NetworkParams,
    adam_state: AdamState,
    batch: RolloutBatch,
    hyper: PpoHyper,
    kl_coef: float,
    rng: np.random.Generator,
) -> tuple[NetworkParams, AdamState, float, dict]:
    """Optimize one rollout batch: epochs of shuffled minibatches, Adam steps,
    then the adaptive-KL coefficient update measured over the whole batch.

    Takes ownership of `params` and `adam_state`: Adam updates them in place
    and they are returned as the new state. Pass copies to keep the originals.
    No forward pass sees more than `hyper.minibatch` observations, and all of
    them, with every backward pass, share one workspace owned by this call,
    so concurrent calls on different policies do not share state.

    Raises PpoError if the batch was not collected under `params`
    (probability ratios at the start must be 1 within 1e-9), and then if a
    row of `log_prob_vecs_old` is not normalized (its logsumexp must be 0
    within 1e-9; NaN is refused).
    """
    workspace = net.Workspace()
    logp_start = _batch_log_probs(params, batch.obs, hyper.minibatch, workspace)
    taken = (np.arange(len(batch)), batch.actions)
    ratio_start = np.exp(logp_start[taken] - batch.log_prob_vecs_old[taken])
    worst = float(np.abs(ratio_start - 1.0).max())
    if worst > ON_POLICY_TOLERANCE:
        raise PpoError(
            f"stale rollout batch: probability ratio deviates from 1 by {worst:.3e} at start"
        )
    # the KL gradient p - q in ppo_loss_grads holds only for normalized rows
    q = np.exp(batch.log_prob_vecs_old)
    log_norms = np.log(q.sum(axis=1))
    bad = np.flatnonzero(~(np.abs(log_norms) <= ON_POLICY_TOLERANCE))
    if bad.size:
        raise PpoError(f"log_prob_vecs_old row {bad[0]} is not normalized: its logsumexp is "
                       f"{log_norms[bad[0]]:.3e}, not 0 within {ON_POLICY_TOLERANCE:g}")

    last_loss = 0.0
    last_components: dict = {}
    grad_steps = 0
    for _ in range(hyper.epochs_per_batch):
        order = rng.permutation(len(batch))
        for lo in range(0, len(batch), hyper.minibatch):
            mb = batch.slice(order[lo : lo + hyper.minibatch])
            last_loss, last_components, grads = ppo_loss_grads(
                params, mb, hyper, kl_coef, workspace
            )
            params, adam_state = net.adam_update(params, grads, adam_state, hyper.lr)
            del grads  # released before the next backward
            grad_steps += 1

    logp_final = _batch_log_probs(params, batch.obs, hyper.minibatch, workspace)
    mean_kl = float((q * (batch.log_prob_vecs_old - logp_final)).sum(axis=1).mean())
    mean_entropy = float(net.entropy_from_logp(logp_final).mean())
    new_kl_coef = adapt_kl_coef(kl_coef, mean_kl, hyper.kl_target)

    stats = {
        "n_steps": len(batch),
        "grad_steps": grad_steps,
        "loss": last_loss,
        "surrogate": last_components.get("surrogate"),
        "vf": last_components.get("vf"),
        "mean_kl": mean_kl,
        "mean_entropy": mean_entropy,
        "kl_coef": kl_coef,
        "kl_coef_next": new_kl_coef,
    }
    return params, adam_state, new_kl_coef, stats
