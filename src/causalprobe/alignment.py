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
        if self.lambda_max <= 0:
            raise ValueError("lambda_max must be > 0")
        if not 0 < self.ema_decay < 1:
            raise ValueError("ema_decay must be in (0, 1)")
        if self.total_iterations < 1:
            raise ValueError("total_iterations must be >= 1")
        if self.running_eig is not None and not np.all(np.isfinite(self.running_eig)):
            raise ValueError("running_eig must be finite")

    def to_json_dict(self) -> dict:
        return {
            "lambda_max": self.lambda_max,
            "total_iterations": self.total_iterations,
            "num_steps": self.num_steps,
            "ema_decay": self.ema_decay,
            "iteration": self.iteration,
            "alpha": self.alpha,
            "running_eig": None if self.running_eig is None else self.running_eig.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AlignmentState":
        eig = doc.get("running_eig")
        return cls(
            lambda_max=doc["lambda_max"],
            total_iterations=doc["total_iterations"],
            num_steps=doc.get("num_steps", 10),
            ema_decay=doc.get("ema_decay", 0.99),
            iteration=doc.get("iteration", 0),
            alpha=doc.get("alpha", 0.0),
            running_eig=None if eig is None else np.asarray(eig, dtype=float),
        )


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
    for k in range(u.shape[1]):
        pivot = np.argmax(np.abs(u[:, k]))
        if u[pivot, k] < 0:
            u[:, k] = -u[:, k]
            vt[k, :] = -vt[k, :]
    return u, s, vt


def alpha_schedule(iteration: int, total_iterations: int, num_steps: int = 10) -> float:
    """Staircase from 0 to 1 in num_steps equal increments over the budget."""
    if not 0 <= iteration <= total_iterations:
        raise ValueError("iteration must lie in [0, total_iterations]")
    frac = iteration / total_iterations
    return min(math.floor(frac * num_steps) / num_steps, 1.0)


def _orthogonality_target(state: AlignmentState, mean: np.ndarray, sig_norm: float) -> np.ndarray:
    return state.lambda_max * mean / sig_norm


def _scaled_left_vectors(m: np.ndarray) -> np.ndarray:
    """U*s with the rectangular-Sigma convention: zero columns pad U*s up to
    the column count of m when the batch is shorter than the feature count,
    so the result always has m's shape."""
    u, s, _ = thin_svd(m)
    us = u * s
    if us.shape[1] < m.shape[1]:
        us = np.pad(us, ((0, 0), (0, m.shape[1] - us.shape[1])))
    return us


def frozen_loss(batch: AlignmentBatch, state: AlignmentState) -> float:
    """Loss with the current running mean held fixed (no state update).

    The singular-value Frobenius norm equals the Frobenius norm of the
    matrix itself, so no SVD is needed here.
    """
    if state.running_eig is None:
        raise ValueError("frozen_loss needs a materialized running mean")
    term1 = float(((batch.observed - batch.context) ** 2).sum())
    if state.alpha == 0.0:
        return term1
    sig_norm = float(np.sqrt((batch.unobserved ** 2).sum()))
    if sig_norm == 0.0:
        return term1
    target = _orthogonality_target(state, state.running_eig, sig_norm)
    term2 = float(((batch.unobserved - target) ** 2).sum())
    return term1 + state.alpha * term2


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
    term1 = float(((batch.observed - batch.context) ** 2).sum())
    sig_norm = float(np.linalg.norm(batch.unobserved))
    if state.alpha == 0.0 or sig_norm == 0.0:
        term2 = 0.0
    else:
        target = _orthogonality_target(state, mean, sig_norm)
        term2 = float(((batch.unobserved - target) ** 2).sum())
    loss = term1 + state.alpha * term2
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

    def probe(obs, unobs):
        return frozen_loss(AlignmentBatch(obs, unobs, batch.context), state)

    g_obs = np.zeros_like(batch.observed)
    for idx in np.ndindex(batch.observed.shape):
        plus = batch.observed.copy()
        minus = batch.observed.copy()
        plus[idx] += h
        minus[idx] -= h
        g_obs[idx] = (probe(plus, batch.unobserved) - probe(minus, batch.unobserved)) / (2 * h)
    g_unobs = np.zeros_like(batch.unobserved)
    for idx in np.ndindex(batch.unobserved.shape):
        plus = batch.unobserved.copy()
        minus = batch.unobserved.copy()
        plus[idx] += h
        minus[idx] -= h
        g_unobs[idx] = (probe(batch.observed, plus) - probe(batch.observed, minus)) / (2 * h)
    return g_obs, g_unobs
