"""Group discriminator: an MLP over a single scalar score.

The network reads one predicted score and emits an independent sigmoid
probability per group.  Its objective is the summed Bernoulli log-likelihood,
which the adversary maximizes; gradients for both the parameters and the
scalar input are derived by hand so the minimax training loop can push score
gradients back into the factor matrices.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .util import Scratch, sigmoid

PROB_CLAMP = 1e-12


@dataclass
class AdversaryParams:
    """Layer weights (fan_in, fan_out) and biases, hidden ReLU, sigmoid out."""

    weights: list
    biases: list

    @property
    def num_groups(self):
        return self.weights[-1].shape[1]

    @property
    def num_hidden_layers(self):
        return len(self.weights) - 1

    def blocks(self):
        out = {}
        for idx, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"w{idx}"] = w
            out[f"b{idx}"] = b
        return out

    def copy(self):
        return AdversaryParams(
            [w.copy() for w in self.weights], [b.copy() for b in self.biases]
        )


def init_adversary(num_groups, hidden_layers=4, hidden_width=50, seed=0):
    """Glorot-uniform weights, zero biases.

    hidden_layers counts ReLU layers; 0 gives a direct affine map from the
    score to the group logits.
    """
    if num_groups < 1:
        raise ConfigError("num_groups: must be >= 1")
    if hidden_layers < 0:
        raise ConfigError("hidden_layers: must be >= 0")
    if hidden_layers > 0 and hidden_width < 1:
        raise ConfigError("hidden_width: must be >= 1")
    sizes = [1] + [hidden_width] * hidden_layers + [num_groups]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return AdversaryParams(weights, biases)


def _hidden_buffers(psi, n, work):
    """(activation, ReLU mask) arrays of every hidden layer for n samples.

    The backward pass overwrites each activation with its layer's
    gradient once the activation has served its weight gradient.  work is
    a Scratch the caller owns (None: a fresh one); layer i asks it for
    ("act", i) and ("mask", i), so one set of arrays serves every batch
    size.
    """
    work = Scratch() if work is None else work
    bufs = []
    for i, w in enumerate(psi.weights[:-1]):
        shape = (n, w.shape[1])
        bufs.append((work(("act", i), shape), work(("mask", i), shape, bool)))
    return bufs


def _affine(h, w, b, out=None):
    # a single input column makes h @ w an outer product: the K = 1 gemm
    # rounds each entry as the elementwise product does, except that it
    # gives a zero product the sign +0.0, a difference adding the bias
    # erases unless the bias entry is -0.0 (Adam from a zero init never
    # makes one)
    if h.shape[1] == 1:
        z = np.multiply(h, w[0], out=out)
    else:
        z = np.matmul(h, w, out=out)
    z += b
    return z


def _forward(psi, h, bufs):
    """Runs h (B, 1) through the network, leaving each hidden layer's
    activation and ReLU mask in bufs; returns the output probabilities."""
    for w, b, (act, mask) in zip(psi.weights, psi.biases, bufs):
        _affine(h, w, b, out=act)
        np.greater(act, 0.0, out=mask)
        np.maximum(act, 0.0, out=act)
        h = act
    return sigmoid(_affine(h, psi.weights[-1], psi.biases[-1]))


def _as_column(scores):
    return np.asarray(scores, dtype=np.float64).reshape(-1, 1)


def forward_scores(psi, scores):
    """Group probabilities for a batch of scores, shape (B, A)."""
    h = _as_column(scores)
    return _forward(psi, h, _hidden_buffers(psi, len(h), None))


def loglik_and_grads(psi, scores, labels, param_grads=True, work=None):
    """Batched log-likelihood with its gradients.

    Args:
        psi: AdversaryParams.
        scores: (B,) input scores.
        labels: (B, A) 0/1 group memberships.
        param_grads: False skips the parameter gradients (the ranker's
            side needs only d loglik / d score) and returns an empty dict.
        work: optional Scratch for the hidden layers' arrays (see
            _hidden_buffers); no returned array shares memory with it.

    Returns:
        (ll, grads, d_score): per-sample log-likelihoods (B,); parameter
        gradients of the batch SUM keyed like psi.blocks(); per-sample
        d loglik / d score (B,).
    """
    g = np.asarray(labels, dtype=np.float64)
    h = _as_column(scores)
    bufs = _hidden_buffers(psi, len(h), work)
    probs = _forward(psi, h, bufs)
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    ll = np.sum(g * np.log(p) + (1.0 - g) * np.log1p(-p), axis=1)
    acts = [h] + [act for act, _ in bufs]
    # sigmoid output + Bernoulli log-likelihood: d ll / d z_out = g - probs
    dpre = g - probs
    grads = {}
    for idx in range(len(psi.weights) - 1, -1, -1):
        if param_grads:
            grads[f"w{idx}"] = acts[idx].T @ dpre
            grads[f"b{idx}"] = dpre.sum(axis=0)
        if idx == 0:
            break
        dh, mask = bufs[idx - 1]
        np.matmul(dpre, psi.weights[idx].T, out=dh)
        # a product, not np.where, so masked entries keep the signed
        # zeros the allocating pass gave them
        dh *= mask
        dpre = dh
    return ll, grads, (dpre @ psi.weights[0].T)[:, 0]
