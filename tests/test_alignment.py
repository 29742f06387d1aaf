from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalprobe import (
    AlignmentBatch,
    AlignmentState,
    alignment_loss,
    alpha_schedule,
    frozen_loss,
    loss_gradient_fd,
    thin_svd,
)
from causalprobe.alignment import _scaled_left_vectors


def make_state(**kwargs):
    args = dict(lambda_max=2.0, total_iterations=100)
    args.update(kwargs)
    return AlignmentState(**args)


def analytic_frozen_gradient(batch, state):
    """Independent derivation of the frozen-mean gradient, term by term."""
    g_obs = 2.0 * (batch.observed - batch.context)
    m = batch.unobserved
    f = np.sqrt((m**2).sum())
    r = state.running_eig
    c = state.lambda_max
    t = m - c * r / f
    g_unobs = state.alpha * (2.0 * t + 2.0 * c * (t * r).sum() * m / f**3)
    return g_obs, g_unobs


def scalar_loss_reference(observed, context, unobserved, mean, lambda_max, alpha):
    """Plain-loop evaluation of the two-term loss for cross-checking."""
    term1 = 0.0
    for a in range(observed.shape[0]):
        for b in range(observed.shape[1]):
            term1 += (observed[a, b] - context[a, b]) ** 2
    f = 0.0
    for a in range(unobserved.shape[0]):
        for b in range(unobserved.shape[1]):
            f += unobserved[a, b] ** 2
    f = f**0.5
    term2 = 0.0
    for a in range(unobserved.shape[0]):
        for b in range(unobserved.shape[1]):
            term2 += (unobserved[a, b] - lambda_max * mean[a, b] / f) ** 2
    return term1 + alpha * term2


def test_thin_svd_identity():
    u, s, vt = thin_svd(np.eye(4))
    assert np.allclose(s, np.ones(4))


def test_thin_svd_diagonal():
    u, s, vt = thin_svd(np.diag([3.0, 1.0]))
    assert np.allclose(s, [3.0, 1.0])


def test_thin_svd_reconstruction_and_signs():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 3))
    u, s, vt = thin_svd(m)
    err = np.linalg.norm(u @ np.diag(s) @ vt - m) / np.linalg.norm(m)
    assert err < 1e-10
    assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0)
    for k in range(u.shape[1]):
        assert u[np.argmax(np.abs(u[:, k])), k] >= 0


def test_thin_svd_rejects_non_finite():
    with pytest.raises(ValueError):
        thin_svd(np.array([[np.nan, 1.0]]))


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 24),
    cols=st.integers(1, 24),
    kind=st.sampled_from(["plain", "duplicate row", "duplicate column", "zero"]),
    power=st.sampled_from([0, -600, 600]),
    seed=st.integers(0, 2**16),
)
@example(rows=16, cols=512, kind="plain", power=0, seed=0)
@example(rows=16, cols=512, kind="duplicate row", power=0, seed=1)
@example(rows=1, cols=9, kind="plain", power=0, seed=2)
def test_scaled_left_vectors_equal_thin_svd_us(rows, cols, kind, power, seed):
    """The Gram-matrix U*S is thin_svd's U*S, zero-padded to m's columns,
    on tall, square and wide blocks. Gaussian blocks have distinct singular
    values and no tied pivots, so U*S is unique there; a duplicated row or
    column adds a zero singular value, whose U*S column is zero up to
    rounding. Blocks scaled by 2**+-600 check that the Gram neither
    overflows nor underflows; the scaling is exact, so the comparison
    runs on the unscaled block."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols))
    if kind == "duplicate row" and rows > 1:
        m[-1] = m[0]
    elif kind == "duplicate column" and cols > 1:
        m[:, -1] = m[:, 0]
    elif kind == "zero":
        m[:] = 0.0
    u, s, _ = thin_svd(m)
    expected = np.pad(u * s, ((0, 0), (0, cols - s.size)))
    us = _scaled_left_vectors(np.ldexp(m, power))
    assert us.shape == m.shape
    assert np.abs(np.ldexp(us, -power) - expected).max() <= 1e-12 * np.linalg.norm(m)
    assert np.all(us[np.abs(us).argmax(axis=0), np.arange(cols)] >= 0)
    m[rng.integers(rows), rng.integers(cols)] = rng.choice([np.nan, np.inf, -np.inf])
    for f in (thin_svd, _scaled_left_vectors):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            f(m)


def test_alpha_schedule_endpoints():
    assert alpha_schedule(0, 100) == 0.0
    assert alpha_schedule(100, 100) == 1.0
    assert alpha_schedule(55, 100, num_steps=10) == 0.5


def test_alpha_schedule_monotone():
    vals = [alpha_schedule(k, 200, 10) for k in range(201)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_loss_zero_at_fixed_point():
    rng = np.random.default_rng(1)
    b, k = 6, 3
    u0, _, _ = thin_svd(rng.normal(size=(b, k)))
    lam = 2.0
    sing = np.array([1.4, 1.2, 0.6])
    sing = sing / np.linalg.norm(sing) * lam  # distinct values, norm lambda_max
    m_u = u0 @ np.diag(sing)
    context = rng.normal(size=(b, 2))
    batch = AlignmentBatch(context.copy(), m_u, context)
    us = thin_svd(m_u)[0] * thin_svd(m_u)[1]
    state = make_state(lambda_max=lam, alpha=1.0, iteration=50, running_eig=us)
    loss, _ = alignment_loss(batch, state)
    assert loss == pytest.approx(0.0, abs=1e-18)


def test_loss_alpha_zero_reduces_to_l2():
    rng = np.random.default_rng(2)
    obs = rng.normal(size=(5, 3))
    ctx = rng.normal(size=(5, 3))
    batch = AlignmentBatch(obs, rng.normal(size=(5, 4)), ctx)
    state = make_state()
    loss, new_state = alignment_loss(batch, state)
    assert loss == pytest.approx(((obs - ctx) ** 2).sum())
    assert new_state.iteration == 1
    assert new_state.running_eig is not None


def test_loss_worked_two_by_two_case():
    ctx = np.zeros((2, 2))
    obs = np.ones((2, 2))  # M_o - C all ones -> first term 4
    m_u = np.array([[1.0, 0.5], [-0.25, 2.0]])
    state = make_state(alpha=0.7, iteration=70)
    loss, new_state = alignment_loss(AlignmentBatch(obs, m_u, ctx), state)
    u, s, _ = thin_svd(m_u)
    expected = scalar_loss_reference(obs, ctx, m_u, u * s, state.lambda_max, 0.7)
    assert loss == pytest.approx(expected, rel=1e-12)
    assert expected > 4.0  # first term alone is 4


def test_running_mean_ema_update():
    rng = np.random.default_rng(3)
    batch1 = AlignmentBatch(np.zeros((4, 2)), rng.normal(size=(4, 3)), np.zeros((4, 2)))
    batch2 = AlignmentBatch(np.zeros((4, 2)), rng.normal(size=(4, 3)), np.zeros((4, 2)))
    state = make_state(ema_decay=0.9)
    _, s1 = alignment_loss(batch1, state)
    us1 = thin_svd(batch1.unobserved)[0] * thin_svd(batch1.unobserved)[1]
    assert np.allclose(s1.running_eig, us1)  # first call adopts U*S directly
    _, s2 = alignment_loss(batch2, s1)
    us2 = thin_svd(batch2.unobserved)[0] * thin_svd(batch2.unobserved)[1]
    assert np.allclose(s2.running_eig, 0.9 * us1 + 0.1 * us2)


def test_alpha_non_decreasing_across_calls():
    rng = np.random.default_rng(4)
    state = make_state(total_iterations=20, num_steps=4)
    alphas = [state.alpha]
    for _ in range(25):
        batch = AlignmentBatch(
            rng.normal(size=(3, 2)), rng.normal(size=(3, 3)), rng.normal(size=(3, 2))
        )
        _, state = alignment_loss(batch, state)
        alphas.append(state.alpha)
    assert all(b >= a for a, b in zip(alphas, alphas[1:]))
    assert alphas[-1] == 1.0


def test_zero_unobserved_block_guard():
    batch = AlignmentBatch(np.ones((3, 2)), np.zeros((3, 3)), np.zeros((3, 2)))
    state = make_state(alpha=1.0, iteration=50)
    loss, _ = alignment_loss(batch, state)
    assert loss == pytest.approx(6.0)  # orthogonality term defined as 0


def test_loss_non_negative():
    rng = np.random.default_rng(5)
    state = make_state(alpha=0.5, iteration=50)
    for _ in range(10):
        batch = AlignmentBatch(
            rng.normal(size=(4, 2)), rng.normal(size=(4, 5)), rng.normal(size=(4, 2))
        )
        loss, state = alignment_loss(batch, state)
        assert loss >= 0.0 and np.isfinite(loss)


def test_frozen_loss_row_permutation_invariance():
    rng = np.random.default_rng(6)
    obs = rng.normal(size=(6, 2))
    ctx = rng.normal(size=(6, 2))
    unobs = rng.normal(size=(6, 4))
    mean = rng.normal(size=(6, 4))
    state = make_state(alpha=0.8, iteration=80, running_eig=mean)
    base = frozen_loss(AlignmentBatch(obs, unobs, ctx), state)
    perm = rng.permutation(6)
    state_p = make_state(alpha=0.8, iteration=80, running_eig=mean[perm])
    permuted = frozen_loss(AlignmentBatch(obs[perm], unobs[perm], ctx[perm]), state_p)
    assert permuted == pytest.approx(base, rel=1e-14)


def test_gradient_fd_alpha_zero():
    rng = np.random.default_rng(7)
    obs = rng.normal(size=(4, 3))
    ctx = rng.normal(size=(4, 3))
    unobs = rng.normal(size=(4, 5))
    batch = AlignmentBatch(obs, unobs, ctx)
    g_obs, g_unobs = loss_gradient_fd(batch, make_state(), h=1e-6)
    assert np.allclose(g_obs, 2 * (obs - ctx), atol=1e-6)
    assert np.allclose(g_unobs, 0.0)


def test_gradient_fd_matches_analytic_frozen():
    rng = np.random.default_rng(8)
    obs = rng.normal(size=(4, 2))
    ctx = rng.normal(size=(4, 2))
    unobs = rng.normal(size=(4, 3))
    mean = rng.normal(size=(4, 3))
    state = make_state(alpha=1.0, iteration=100, running_eig=mean)
    batch = AlignmentBatch(obs, unobs, ctx)
    g_obs, g_unobs = loss_gradient_fd(batch, state, h=1e-6)
    a_obs, a_unobs = analytic_frozen_gradient(batch, state)
    assert np.allclose(g_obs, a_obs, atol=1e-6)
    rel = np.linalg.norm(g_unobs - a_unobs) / np.linalg.norm(a_unobs)
    assert rel < 1e-4


def test_gradient_fd_validates_step():
    batch = AlignmentBatch(np.ones((2, 1)), np.ones((2, 2)), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        loss_gradient_fd(batch, make_state(), h=0.0)


@pytest.mark.parametrize("rows", [2, 6])  # 2 rows pad U*S with a zero column
def test_alignment_loss_is_the_frozen_loss_at_the_updated_mean(rows):
    rng = np.random.default_rng(9)
    state = make_state(num_steps=4, total_iterations=10)
    for step in range(12):  # alpha 0, then rising; step 5 has a zero block
        unobs = np.zeros((rows, 3)) if step == 5 else rng.normal(size=(rows, 3))
        batch = AlignmentBatch(rng.normal(size=(rows, 2)), unobs, rng.normal(size=(rows, 2)))
        loss, new = alignment_loss(batch, state)
        assert loss == frozen_loss(batch, replace(state, running_eig=new.running_eig))
        state = new


def test_batch_shape_validation():
    with pytest.raises(ValueError):
        AlignmentBatch(np.ones((2, 3)), np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        AlignmentBatch(np.ones((2, 3)), np.ones((3, 2)), np.ones((2, 3)))
