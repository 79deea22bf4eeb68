import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank.objectives import (
    KL_VAR_FLOOR,
    ObjectiveWeights,
    bpr_pair_loss,
    bpr_pair_loss_batch,
    fatr_reg,
    kl_loss_batch,
    kl_loss_user,
    reg_reo_penalty,
    reg_rsp_penalty,
)

from oracles import ref_bpr_pair_loss, ref_kl_loss_user


def test_bpr_hand_values():
    loss, d_pos, d_neg = bpr_pair_loss(1.0, 1.0)
    assert np.isclose(loss, np.log(2.0))
    assert np.isclose(d_pos, -0.5)
    assert np.isclose(d_neg, 0.5)

    # difference -1: loss = ln(1 + e) = 1.3132616875182228
    loss, d_pos, d_neg = bpr_pair_loss(0.0, 1.0)
    assert np.isclose(loss, 1.3132616875182228, atol=1e-12)
    assert np.isclose(d_pos, -0.7310585786300049, atol=1e-12)


def test_bpr_overflow_safe():
    loss_hi, d_hi, _ = bpr_pair_loss(800.0, 0.0)
    loss_lo, d_lo, _ = bpr_pair_loss(-800.0, 0.0)
    assert loss_hi == 0.0 and np.isclose(d_hi, 0.0)
    assert np.isclose(loss_lo, 800.0) and np.isclose(d_lo, -1.0)
    assert np.isfinite([loss_hi, loss_lo, d_hi, d_lo]).all()


def test_bpr_batch_matches_scalar():
    rng = np.random.default_rng(0)
    pos = rng.normal(size=(4, 1))
    neg = rng.normal(size=(4, 3))
    losses, g_pos = bpr_pair_loss_batch(pos, neg)
    for b in range(4):
        for r in range(3):
            l, dp, _ = bpr_pair_loss(pos[b, 0], neg[b, r])
            assert np.isclose(losses[b, r], l)
            assert np.isclose(g_pos[b, r], dp)


def test_bpr_gradient_finite_difference():
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(10):
        sp, sn = rng.normal(scale=2, size=2)
        _, d_pos, d_neg = bpr_pair_loss(sp, sn)
        fd_pos = (
            bpr_pair_loss(sp + h, sn)[0] - bpr_pair_loss(sp - h, sn)[0]
        ) / (2 * h)
        fd_neg = (
            bpr_pair_loss(sp, sn + h)[0] - bpr_pair_loss(sp, sn - h)[0]
        ) / (2 * h)
        assert abs(fd_pos - d_pos) < 1e-6
        assert abs(fd_neg - d_neg) < 1e-6


@settings(max_examples=60, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50))
def test_bpr_loss_positive_and_monotone(sp, sn):
    loss, d_pos, d_neg = bpr_pair_loss(sp, sn)
    assert loss >= 0.0
    # raising the positive score can only lower the loss, and conversely
    assert d_pos <= 0.0 <= d_neg


def test_kl_hand_value_normal_regime():
    # scores (0, 2): mean 1, population variance 1
    loss, grad = kl_loss_user(np.array([0.0, 2.0]))
    assert np.isclose(loss, 0.5, atol=1e-12)
    # d/ds_k = mu/n + (1 - 1/var) (s_k - mu)/n = 0.5 for both
    assert np.allclose(grad, [0.5, 0.5], atol=1e-12)


def test_kl_hand_value_floored_regime():
    scores = np.full(4, 2.0)
    loss, grad = kl_loss_user(scores)
    expected = (4.0 + KL_VAR_FLOOR - 1.0) / 2.0 - 0.5 * np.log(KL_VAR_FLOOR)
    assert np.isclose(loss, expected, atol=1e-12)
    # variance pinned at the floor: only the mean term moves
    assert np.allclose(grad, 0.5, atol=1e-12)


def test_kl_degenerate_sizes():
    loss, grad = kl_loss_user(np.array([3.0]))
    assert loss == 0.0 and np.all(grad == 0.0)
    loss, grad = kl_loss_user(np.array([]))
    assert loss == 0.0 and grad.size == 0


def test_kl_zero_at_standard_normal_moments():
    # mean 0, population variance exactly 1
    s = np.array([-1.0, 1.0])
    loss, _ = kl_loss_user(s)
    assert np.isclose(loss, 0.0, atol=1e-12)


def test_kl_gradient_finite_difference():
    rng = np.random.default_rng(2)
    h = 1e-6
    for trial in range(8):
        s = rng.normal(scale=1.5, size=rng.integers(2, 9))
        _, grad = kl_loss_user(s)
        for k in range(len(s)):
            up = s.copy()
            up[k] += h
            dn = s.copy()
            dn[k] -= h
            fd = (kl_loss_user(up)[0] - kl_loss_user(dn)[0]) / (2 * h)
            assert abs(fd - grad[k]) < 1e-5, (trial, k)


def test_kl_gradient_finite_difference_floored():
    # constant scores stay under the variance floor for tiny perturbations
    s = np.full(4, 2.0)
    _, grad = kl_loss_user(s)
    h = 1e-7
    for k in range(4):
        up = s.copy()
        up[k] += h
        dn = s.copy()
        dn[k] -= h
        fd = (kl_loss_user(up)[0] - kl_loss_user(dn)[0]) / (2 * h)
        assert abs(fd - grad[k]) < 1e-5


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-20, 20), min_size=2, max_size=10).map(np.array)
)
def test_kl_loss_nonnegative(scores):
    loss, _ = kl_loss_user(scores)
    assert loss >= -1e-12


def test_fatr_reg_hand_value():
    free = np.array([[1.0, 2.0]])  # (dim - groups, items) = (1, 2)
    sens = np.array([[3.0, 4.0]])  # (groups, items) = (1, 2)
    # cross-gram: sens @ free.T = [[11]]; loss = 0.5 * 121
    loss, grad = fatr_reg(free, sens)
    assert np.isclose(loss, 60.5)
    assert np.allclose(grad, [[33.0, 44.0]])


def test_fatr_reg_finite_difference():
    rng = np.random.default_rng(3)
    free = rng.normal(size=(3, 5))
    sens = (rng.random((2, 5)) < 0.5).astype(float)
    _, grad = fatr_reg(free, sens)
    h = 1e-6
    for r in range(3):
        for c in range(5):
            up = free.copy()
            up[r, c] += h
            dn = free.copy()
            dn[r, c] -= h
            fd = (fatr_reg(up, sens)[0] - fatr_reg(dn, sens)[0]) / (2 * h)
            denom = max(abs(fd), abs(grad[r, c]), 1e-8)
            assert abs(fd - grad[r, c]) / denom < 1e-5


def test_fatr_reg_orthogonal_blocks_vanish():
    sens = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    free = np.array([[1.0, -1.0, 0.0]])  # orthogonal to both rows
    loss, grad = fatr_reg(free, sens)
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_fatr_reg_shape_mismatch():
    with pytest.raises(ValueError):
        fatr_reg(np.zeros((2, 4)), np.zeros((1, 5)))


def test_reg_penalties_hand_values():
    g1 = np.array([1.0, 3.0])  # mean 2
    g2 = np.array([0.0])  # mean 0
    pen, grad1, grad2 = reg_rsp_penalty(g1, g2)
    assert np.isclose(pen, 2.0)  # 0.5 * (2 - 0)^2
    assert np.allclose(grad1, [1.0, 1.0])  # gap * 1/n1
    assert np.allclose(grad2, [-2.0])
    pen_b, gb1, gb2 = reg_reo_penalty(g1, g2)
    assert pen_b == pen and np.allclose(gb1, grad1)


def test_reg_penalty_empty_side():
    pen, grad1, grad2 = reg_rsp_penalty(np.array([1.0, 2.0]), np.array([]))
    assert pen == 0.0
    assert np.all(grad1 == 0.0) and grad2.size == 0


def test_reg_penalty_finite_difference():
    rng = np.random.default_rng(4)
    a = rng.normal(size=5)
    b = rng.normal(size=3)
    _, ga, gb = reg_rsp_penalty(a, b)
    h = 1e-6
    for k in range(5):
        up = a.copy()
        up[k] += h
        dn = a.copy()
        dn[k] -= h
        fd = (
            reg_rsp_penalty(up, b)[0] - reg_rsp_penalty(dn, b)[0]
        ) / (2 * h)
        assert abs(fd - ga[k]) < 1e-6
    for k in range(3):
        up = b.copy()
        up[k] += h
        dn = b.copy()
        dn[k] -= h
        fd = (
            reg_rsp_penalty(a, up)[0] - reg_rsp_penalty(a, dn)[0]
        ) / (2 * h)
        assert abs(fd - gb[k]) < 1e-6


def test_weights_gamma_default():
    w = ObjectiveWeights(lambda_theta=0.07)
    assert w.gamma_or_default() == 0.07
    w2 = ObjectiveWeights(lambda_theta=0.07, gamma=0.5)
    assert w2.gamma_or_default() == 0.5


def _ref_batch_kl(scores, users):
    """The mean of the scalar reference over the users with two or more
    scores, and its per-score gradient."""
    values, grad = [], np.zeros_like(scores)
    for u in np.unique(users):
        idx = np.flatnonzero(users == u)
        if len(idx) >= 2:
            value, grad[idx] = ref_kl_loss_user(scores[idx])
            values.append(value)
    if not values:
        return 0.0, grad
    return float(np.mean(values)), grad / len(values)


def test_kl_loss_batch_matches_scalar_reference():
    rng = np.random.default_rng(7)
    # users 0-3 random, 4 a singleton (skipped), 5 constant (variance floor)
    users = np.concatenate([rng.integers(0, 4, size=30), [4], np.full(5, 5)])
    scores = np.concatenate(
        [rng.normal(scale=1.5, size=30), [0.7], np.full(5, -1.3)]
    )
    perm = rng.permutation(len(users))
    users, scores = users[perm], scores[perm]
    value, grad = kl_loss_batch(scores, users)
    ref_value, ref_grad = _ref_batch_kl(scores, users)
    assert value == pytest.approx(ref_value, rel=1e-12)
    assert np.allclose(grad, ref_grad, rtol=1e-9, atol=1e-15)
    assert np.all(grad[users == 4] == 0.0)
    floored = users == 5
    assert np.allclose(grad[floored], -1.3 / 5 / 5, rtol=1e-12)


def test_kl_loss_batch_empty_and_all_skipped():
    value, grad = kl_loss_batch(np.array([]), np.array([], dtype=np.intp))
    assert value == 0.0 and grad.shape == (0,)
    value, grad = kl_loss_batch(np.array([1.0, 2.0]), np.array([0, 1]))
    assert value == 0.0 and np.all(grad == 0.0)


@pytest.mark.parametrize(
    "scores",
    [[], [3.0], [0.0, 2.0], [-1.0, 1.0], [2.0] * 4, [0.3, -1.2, 2.5, 0.9, -0.4]],
)
def test_kl_loss_user_matches_scalar_reference(scores):
    s = np.array(scores)
    loss, grad = kl_loss_user(s)
    ref_loss, ref_grad = ref_kl_loss_user(s)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-15)
    assert grad.shape == ref_grad.shape
    assert np.allclose(grad, ref_grad, rtol=1e-9, atol=1e-15)


def test_bpr_pair_loss_batch_matches_scalar_reference():
    rng = np.random.default_rng(8)
    # saturated pairs on both sides, an exact tie, and random pairs
    pos = np.concatenate([[800.0, -800.0, 0.0, 5.0], rng.normal(scale=3, size=8)])
    neg = np.concatenate([[0.0, 0.0, 800.0, 5.0], rng.normal(scale=3, size=8)])
    losses, g_pos = bpr_pair_loss_batch(pos, neg)
    for j in range(len(pos)):
        loss, d_pos, d_neg = ref_bpr_pair_loss(pos[j], neg[j])
        assert np.isclose(losses[j], loss, rtol=1e-14, atol=0.0)
        assert np.isclose(g_pos[j], d_pos, rtol=1e-14, atol=1e-300)
        assert np.isclose(-g_pos[j], d_neg, rtol=1e-14, atol=1e-300)
        assert bpr_pair_loss(pos[j], neg[j]) == pytest.approx(
            (loss, d_pos, d_neg), rel=1e-14, abs=1e-300
        )
    # the trainer's (B, 1) positives against (B, R) negatives
    losses, g_pos = bpr_pair_loss_batch(pos[:6, None], neg.reshape(6, 2))
    for b in range(6):
        for r in range(2):
            loss, d_pos, _ = ref_bpr_pair_loss(pos[b], neg[2 * b + r])
            assert np.isclose(losses[b, r], loss, rtol=1e-14, atol=0.0)
            assert np.isclose(g_pos[b, r], d_pos, rtol=1e-14, atol=1e-300)
