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
from .util import sigmoid

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


def _forward(psi, scores):
    """Returns (activations, pre_acts, probs); activations[0] is the input."""
    h = np.asarray(scores, dtype=np.float64).reshape(-1, 1)
    acts = [h]
    pres = []
    for w, b in zip(psi.weights[:-1], psi.biases[:-1]):
        z = h @ w + b
        pres.append(z)
        h = np.maximum(z, 0.0)
        acts.append(h)
    z_out = h @ psi.weights[-1] + psi.biases[-1]
    return acts, pres, sigmoid(z_out)


def forward_scores(psi, scores):
    """Group probabilities for a batch of scores, shape (B, A)."""
    return _forward(psi, scores)[2]


def loglik_and_grads(psi, scores, labels):
    """Batched log-likelihood with all gradients.

    Args:
        psi: AdversaryParams.
        scores: (B,) input scores.
        labels: (B, A) 0/1 group memberships.

    Returns:
        (ll, grads, d_score): per-sample log-likelihoods (B,); parameter
        gradients of the batch SUM keyed like psi.blocks(); per-sample
        d loglik / d score (B,).
    """
    g = np.asarray(labels, dtype=np.float64)
    acts, pres, probs = _forward(psi, scores)
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    ll = np.sum(g * np.log(p) + (1.0 - g) * np.log1p(-p), axis=1)
    # sigmoid output + Bernoulli log-likelihood: d ll / d z_out = g - probs
    dz = g - probs
    grads = {}
    n_layers = len(psi.weights)
    grads[f"w{n_layers - 1}"] = acts[-1].T @ dz
    grads[f"b{n_layers - 1}"] = dz.sum(axis=0)
    dh = dz @ psi.weights[-1].T
    for idx in range(n_layers - 2, -1, -1):
        dpre = dh * (pres[idx] > 0.0)
        grads[f"w{idx}"] = acts[idx].T @ dpre
        grads[f"b{idx}"] = dpre.sum(axis=0)
        dh = dpre @ psi.weights[idx].T
    return ll, grads, dh[:, 0]
