import numpy as np
import pytest

from fairrank.adversary import (
    AdversaryParams,
    _hidden_buffers,
    forward_scores,
    init_adversary,
    loglik_and_grads,
)
from fairrank.errors import ConfigError
from fairrank.util import Scratch

from oracles import ref_loglik_and_grads


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def test_init_shapes_and_glorot_bounds():
    psi = init_adversary(3, hidden_layers=2, hidden_width=7, seed=0)
    shapes = [w.shape for w in psi.weights]
    assert shapes == [(1, 7), (7, 7), (7, 3)]
    assert all(np.all(b == 0) for b in psi.biases)
    for w in psi.weights:
        limit = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        assert np.abs(w).max() <= limit
    assert psi.num_groups == 3
    assert psi.num_hidden_layers == 2


def test_init_zero_hidden_layers():
    psi = init_adversary(2, hidden_layers=0, seed=0)
    assert [w.shape for w in psi.weights] == [(1, 2)]
    probs = forward_scores(psi, np.array([1.5]))[0]
    z = 1.5 * psi.weights[0][0] + psi.biases[0]
    assert np.allclose(probs, _sigmoid(z))


def test_init_errors():
    with pytest.raises(ConfigError):
        init_adversary(0)
    with pytest.raises(ConfigError):
        init_adversary(2, hidden_layers=-1)
    with pytest.raises(ConfigError):
        init_adversary(2, hidden_layers=1, hidden_width=0)


def test_forward_hand_computed():
    # one hidden layer of width 2, one output: full arithmetic by hand
    psi = AdversaryParams(
        weights=[np.array([[1.0, -2.0]]), np.array([[0.5], [1.0]])],
        biases=[np.array([0.1, 0.2]), np.array([-0.3])],
    )
    x = 0.7
    h1 = max(0.0, 1.0 * x + 0.1)  # 0.8
    h2 = max(0.0, -2.0 * x + 0.2)  # relu(-1.2) = 0
    z = 0.5 * h1 + 1.0 * h2 - 0.3  # 0.1
    assert np.isclose(forward_scores(psi, np.array([x]))[0, 0], _sigmoid(0.1))
    assert np.isclose(h1, 0.8) and h2 == 0.0 and np.isclose(z, 0.1)


def test_zero_weights_give_half_probs():
    psi = init_adversary(4, hidden_layers=2, hidden_width=5, seed=0)
    for w in psi.weights:
        w[:] = 0.0
    probs = forward_scores(psi, np.array([-3.0, 0.0, 9.0]))
    assert np.allclose(probs, 0.5)


def test_adv_loss_hand_values():
    # no hidden layer: the output logits are the biases when the weights
    # are zero
    psi = AdversaryParams([np.zeros((1, 2))], [np.zeros(2)])
    labels = np.array([[1.0, 0.0]])
    # probabilities 0.5 each: log(0.5) + log(0.5)
    ll = loglik_and_grads(psi, np.array([0.3]), labels)[0]
    assert np.isclose(ll[0], 2 * np.log(0.5))
    # clamp keeps exact zeros and ones finite
    psi.biases[0][:] = [-1e3, 1e3]
    assert np.array_equal(forward_scores(psi, np.array([0.3])), [[0.0, 1.0]])
    ll = loglik_and_grads(psi, np.array([0.3]), labels)[0]
    assert np.isfinite(ll[0])
    assert ll[0] < -20


def _fd_check(psi, scores, labels, h=1e-6):
    ll, grads, d_score = loglik_and_grads(psi, scores, labels)
    total = ll.sum()
    blocks = psi.blocks()
    for name, arr in blocks.items():
        g = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = loglik_and_grads(psi, scores, labels)[0].sum()
            arr[idx] = orig - h
            dn = loglik_and_grads(psi, scores, labels)[0].sum()
            arr[idx] = orig
            fd = (up - dn) / (2 * h)
            denom = max(abs(fd), abs(g[idx]), 1e-8)
            assert abs(fd - g[idx]) / denom < 1e-4, (name, idx, fd, g[idx])
    for n in range(len(scores)):
        bumped = scores.copy()
        bumped[n] += h
        up = loglik_and_grads(psi, bumped, labels)[0][n]
        bumped[n] -= 2 * h
        dn = loglik_and_grads(psi, bumped, labels)[0][n]
        fd = (up - dn) / (2 * h)
        denom = max(abs(fd), abs(d_score[n]), 1e-8)
        assert abs(fd - d_score[n]) / denom < 1e-4


@pytest.mark.parametrize("layers", [0, 1, 3])
def test_gradients_match_finite_differences(layers):
    rng = np.random.default_rng(layers)
    psi = init_adversary(2, hidden_layers=layers, hidden_width=4, seed=layers)
    # move off the zero-bias point so no ReLU sits exactly at its kink
    for b in psi.biases:
        b += rng.normal(scale=0.3, size=b.shape)
    scores = rng.normal(scale=2.0, size=6)
    labels = (rng.random((6, 2)) < 0.5).astype(float)
    _fd_check(psi, scores, labels)


def test_scalar_backward_matches_batch():
    # a batch gives each sample's own score gradient and log-likelihood,
    # and parameter gradients of the batch sum
    rng = np.random.default_rng(3)
    psi = init_adversary(3, hidden_layers=2, hidden_width=5, seed=1)
    scores = rng.normal(size=4)
    labels = (rng.random((4, 3)) < 0.5).astype(float)
    ll_b, grads_b, d_score_b = loglik_and_grads(psi, scores, labels)
    summed = {name: np.zeros_like(g) for name, g in grads_b.items()}
    for n in range(4):
        ll, grads, d_score = loglik_and_grads(
            psi, scores[n : n + 1], labels[n : n + 1]
        )
        assert np.isclose(ll[0], ll_b[n])
        assert np.isclose(d_score[0], d_score_b[n])
        for name in grads:
            summed[name] += grads[name]
    for name in grads_b:
        assert np.allclose(summed[name], grads_b[name])


def test_gradient_ascent_increases_loglik():
    rng = np.random.default_rng(0)
    psi = init_adversary(2, hidden_layers=2, hidden_width=8, seed=0)
    scores = np.concatenate([rng.normal(-1, 0.3, 30), rng.normal(1, 0.3, 30)])
    labels = np.zeros((60, 2))
    labels[:30, 0] = 1.0
    labels[30:, 1] = 1.0
    prev = loglik_and_grads(psi, scores, labels)[0].sum()
    for _ in range(50):
        _, grads, _ = loglik_and_grads(psi, scores, labels)
        for name, arr in psi.blocks().items():
            arr += 0.01 * grads[name]
        now = loglik_and_grads(psi, scores, labels)[0].sum()
        assert now >= prev - 1e-9
        prev = now
    # separable labels: the adversary should beat chance clearly
    assert prev / 60 > 2 * np.log(0.5) * 0.5


def test_relu_kink_uses_zero_subgradient():
    # zero first-layer weights put every hidden pre-activation exactly at
    # the kink; its subgradient is taken as 0, so nothing flows back
    psi = init_adversary(2, hidden_layers=1, hidden_width=4, seed=0)
    psi.weights[0][:] = 0.0
    psi.biases[0][:] = 0.0
    scores = np.array([1.3, -0.4])
    labels = np.array([[1.0, 0.0], [1.0, 0.0]])
    _, grads, d_score = loglik_and_grads(psi, scores, labels)
    assert np.all(grads["w0"] == 0.0)
    assert np.all(grads["b0"] == 0.0)
    assert np.all(d_score == 0.0)
    # the output layer still learns (its bias gradient is nonzero)
    assert np.any(grads[f"b{psi.num_hidden_layers}"] != 0.0)


def _same_bits(a, b):
    """Equal dtype, shape and bytes: signed zeros count."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


def _oracle_case(layers, groups, n, seed=0):
    """A width-50 adversary with one dead unit per hidden layer, and a
    batch whose every seventh score is exactly zero."""
    rng = np.random.default_rng(seed)
    psi = init_adversary(groups, hidden_layers=layers, hidden_width=50,
                         seed=seed)
    for b in psi.biases:
        b += rng.normal(scale=0.3, size=b.shape)
    for b in psi.biases[:-1]:
        b[0] = -1e3
    scores = rng.normal(scale=2.0, size=n)
    scores[::7] = 0.0
    labels = (rng.random((n, groups)) < 0.5).astype(np.float64)
    return psi, scores, labels


def _assert_matches_reference(got, want, param_grads):
    ll, grads, d_score = got
    ll_r, grads_r, d_r = want
    assert _same_bits(ll, ll_r)
    assert _same_bits(d_score, d_r)
    if not param_grads:
        assert grads == {}
        return
    assert list(grads) == list(grads_r)
    for name in grads_r:
        assert _same_bits(grads[name], grads_r[name]), name


def _copies(result):
    ll, grads, d_score = result
    return ll.copy(), {k: g.copy() for k, g in grads.items()}, d_score.copy()


@pytest.mark.parametrize("layers", [0, 1, 4])
@pytest.mark.parametrize("groups", [1, 2, 3])
@pytest.mark.parametrize("param_grads", [True, False])
def test_loglik_matches_reference_bits(layers, groups, param_grads):
    work = Scratch()  # one workspace across every size, as a trainer keeps it
    for n in (1, 2, 1024, 5120, 2):
        psi, scores, labels = _oracle_case(layers, groups, n, seed=n)
        want = ref_loglik_and_grads(psi, scores, labels)
        fresh = loglik_and_grads(psi, scores, labels, param_grads)
        _assert_matches_reference(fresh, want, param_grads)
        first = loglik_and_grads(
            psi, scores, labels, param_grads=param_grads, work=work
        )
        kept = _copies(first)
        _assert_matches_reference(first, want, param_grads)
        # a second call on the same buffers leaves the first results be
        other = _oracle_case(layers, groups, n, seed=n + 1)
        loglik_and_grads(*other, param_grads=param_grads, work=work)
        _assert_matches_reference(first, kept, param_grads)
        if n == 5120:
            largest = dict(work.arrays)
    # one act and one mask array per hidden layer, which the 2-row call
    # after the 5120-row call reuses
    assert sorted(work.arrays) == sorted(
        (name, i) for name in ("act", "mask") for i in range(layers)
    )
    assert all(work.arrays[k] is a for k, a in largest.items())
    for i, (act, mask) in enumerate(_hidden_buffers(psi, 2, work)):
        assert np.shares_memory(act, largest[("act", i)])
        assert np.shares_memory(mask, largest[("mask", i)])
