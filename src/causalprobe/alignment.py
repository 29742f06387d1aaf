"""Subspace alignment loss with SVD orthogonality regularization.

The loss has two terms: a squared L2 pull of the observed-aligned columns
toward ground-truth context features, and an orthogonality term pushing the
unobserved columns toward a running mean of their scaled singular vectors,
capped at a configurable top eigenvalue. The second term is phased in by a
staircase schedule. Gradients are verified by central finite differences
with the running mean frozen.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class AlignmentBatch:
    """One training batch split into aligned columns and their targets."""

    observed: np.ndarray    # (b, n_obs) observed-aligned columns
    unobserved: np.ndarray  # (b, n_unobs) remaining columns
    context: np.ndarray     # (b, n_obs) ground-truth context features

    def __post_init__(self):
        obs = np.atleast_2d(np.asarray(self.observed, dtype=float))
        unobs = np.atleast_2d(np.asarray(self.unobserved, dtype=float))
        ctx = np.atleast_2d(np.asarray(self.context, dtype=float))
        if obs.shape != ctx.shape:
            raise ValueError("observed and context shapes differ")
        if obs.shape[0] != unobs.shape[0]:
            raise ValueError("batch sizes differ between observed and unobserved")
        if obs.shape[0] < 1:
            raise ValueError("batch must contain at least one row")
        object.__setattr__(self, "observed", obs)
        object.__setattr__(self, "unobserved", unobs)
        object.__setattr__(self, "context", ctx)


@dataclass(frozen=True)
class AlignmentState:
    """Schedule and running-mean state threaded through loss evaluations."""

    lambda_max: float
    total_iterations: int
    num_steps: int = 10
    ema_decay: float = 0.99
    iteration: int = 0
    alpha: float = 0.0
    running_eig: np.ndarray | None = None

    def __post_init__(self):
        if not 0 < self.lambda_max < math.inf:
            raise ValueError("lambda_max must be > 0 and finite")
        if not 0 < self.ema_decay < 1:
            raise ValueError("ema_decay must be in (0, 1)")
        if self.total_iterations < 1:
            raise ValueError("total_iterations must be >= 1")
        if self.running_eig is not None and not np.all(np.isfinite(self.running_eig)):
            raise ValueError("running_eig must be finite")


def thin_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD with a deterministic sign convention.

    Each column of U is flipped so its largest-magnitude entry is
    non-negative (the matching row of Vt is flipped too), which removes the
    per-column sign ambiguity so running means over U*S are well defined.
    Returns (u, s, vt) with s a descending 1-d vector.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    pivots = u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])]
    signs = np.where(pivots < 0, -1.0, 1.0)
    return u * signs, s, vt * signs[:, None]


def alpha_schedule(iteration: int, total_iterations: int, num_steps: int = 10) -> float:
    """Staircase from 0 to 1 in num_steps equal increments over the budget."""
    if not 0 <= iteration <= total_iterations:
        raise ValueError("iteration must lie in [0, total_iterations]")
    frac = iteration / total_iterations
    return min(math.floor(frac * num_steps) / num_steps, 1.0)


def _scaled_left_vectors(m: np.ndarray) -> np.ndarray:
    """U*s with the rectangular-Sigma convention: zero columns pad U*s up to
    the column count of m when the batch is shorter than the feature count,
    so the result always has m's shape."""
    u, s, _ = thin_svd(m)
    us = u * s
    if us.shape[1] < m.shape[1]:
        us = np.pad(us, ((0, 0), (0, m.shape[1] - us.shape[1])))
    return us


def _loss(batch: AlignmentBatch, state: AlignmentState, mean: np.ndarray) -> float:
    """The two-term loss against the running mean `mean`. The singular values'
    Frobenius norm is the matrix's own, so no SVD is needed here."""
    term1 = float(((batch.observed - batch.context) ** 2).sum())
    if state.alpha == 0.0:
        return term1
    sig_norm = float(np.linalg.norm(batch.unobserved))
    if sig_norm == 0.0:
        return term1
    target = state.lambda_max * mean / sig_norm
    term2 = float(((batch.unobserved - target) ** 2).sum())
    return term1 + state.alpha * term2


def frozen_loss(batch: AlignmentBatch, state: AlignmentState) -> float:
    """Loss with the current running mean held fixed (no state update)."""
    if state.running_eig is None:
        raise ValueError("frozen_loss needs a materialized running mean")
    return _loss(batch, state, state.running_eig)


def alignment_loss(batch: AlignmentBatch, state: AlignmentState) -> tuple[float, AlignmentState]:
    """Evaluate the two-term loss and advance the state.

    The running mean is an exponential moving average over the sign-fixed
    U*S of the unobserved columns, updated as part of this call (the first
    call adopts U*S directly); the loss uses the updated mean and the
    state's current alpha, then the iteration counter and schedule advance.
    """
    us = _scaled_left_vectors(batch.unobserved)
    if state.running_eig is None:
        mean = us
    else:
        if state.running_eig.shape != us.shape:
            raise ValueError("running mean shape disagrees with batch")
        mean = state.ema_decay * state.running_eig + (1.0 - state.ema_decay) * us
    loss = _loss(batch, state, mean)
    nxt = min(state.iteration + 1, state.total_iterations)
    new_state = replace(
        state,
        running_eig=mean,
        iteration=nxt,
        alpha=alpha_schedule(nxt, state.total_iterations, state.num_steps),
    )
    return loss, new_state


def loss_gradient_fd(
    batch: AlignmentBatch, state: AlignmentState, h: float = 1e-6
) -> tuple[np.ndarray, np.ndarray]:
    """Central finite differences of the frozen-mean loss.

    Returns (d loss / d observed, d loss / d unobserved). The running mean
    is not advanced inside the probes; a state without a materialized mean
    freezes the sign-fixed U*S of the unperturbed unobserved block.
    """
    if h <= 0:
        raise ValueError("h must be > 0")
    if state.running_eig is None:
        state = replace(state, running_eig=_scaled_left_vectors(batch.unobserved))

    def probe(k, idx, step):
        blocks = [batch.observed.copy(), batch.unobserved.copy()]
        blocks[k][idx] += step
        return frozen_loss(AlignmentBatch(*blocks, batch.context), state)

    grads = (np.zeros_like(batch.observed), np.zeros_like(batch.unobserved))
    for k, grad in enumerate(grads):
        for idx in np.ndindex(grad.shape):
            grad[idx] = (probe(k, idx, h) - probe(k, idx, -h)) / (2 * h)
    return grads
