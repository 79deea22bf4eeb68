"""Loss terms with analytic gradients.

Every term returns its value together with exact gradients wrt its inputs,
and has one implementation, the one the trainer runs: the one-pair and
one-user forms are calls of the batch forms.  The test suite checks each
against central finite differences.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .util import sigmoid

log = logging.getLogger(__name__)

KL_VAR_FLOOR = 1e-8


@dataclass
class ObjectiveWeights:
    """Scalar weights of the composite objectives.

    lambda_theta regularizes the pairwise ranking loss.  alpha and beta are
    required for the adversarial kinds; lambda_model weights the baseline
    penalty terms; gamma is the baseline L2 weight and falls back to
    lambda_theta when unset.  All weights must be non-negative.
    """

    lambda_theta: float = 0.1
    alpha: float = None
    beta: float = None
    lambda_model: float = None
    gamma: float = None

    def gamma_or_default(self):
        return self.lambda_theta if self.gamma is None else self.gamma


def bpr_pair_loss_batch(score_pos, score_neg):
    """-ln sigma(score_pos - score_neg) elementwise; returns (loss, d_pos),
    d_neg being -d_pos."""
    d = np.asarray(score_pos, dtype=np.float64) - np.asarray(
        score_neg, dtype=np.float64
    )
    return np.logaddexp(0.0, -d), -sigmoid(-d)


def bpr_pair_loss(score_pos, score_neg):
    """One pair's loss; returns (loss, d_pos, d_neg)."""
    loss, g_pos = bpr_pair_loss_batch(score_pos, score_neg)
    return float(loss), float(g_pos), float(-g_pos)


def kl_loss_batch(scores, inv):
    """Mean per-user score-normalization term over one batch.

    Each user's term is the moment-matched KL(Normal(mean, var) ||
    Normal(0, 1)) of its scores: (mean^2 + var - 1)/2 - ln(var)/2 with
    population variance, floored at KL_VAR_FLOOR; in the floored regime the
    gradient flows through the mean only.  Users with fewer than two scores
    are skipped.  ``inv`` numbers each score's user among the batch's U
    users, 0..U-1, as np.unique(users, return_inverse=True) does.

    Returns:
        (value, per-score gradient of the mean).
    """
    cnt = np.bincount(inv).astype(np.float64)
    mu = np.bincount(inv, weights=scores) / cnt
    var = np.bincount(inv, weights=scores * scores) / cnt - mu * mu
    var = np.maximum(var, 0.0)
    ok = cnt >= 2
    n_ok = int(ok.sum())
    if n_ok == 0:
        return 0.0, np.zeros_like(scores)
    floored = var < KL_VAR_FLOOR
    var_eff = np.maximum(var, KL_VAR_FLOOR)
    per_user = (mu * mu + var_eff - 1.0) / 2.0 - 0.5 * np.log(var_eff)
    value = float(per_user[ok].sum() / n_ok)
    centered = scores - mu[inv]
    var_term = np.where(floored[inv], 0.0, 1.0 - 1.0 / var_eff[inv])
    g = (mu[inv] + var_term * centered) / cnt[inv]
    g = np.where(ok[inv], g, 0.0) / n_ok
    return value, g


def kl_loss_user(scores):
    """One user's term; returns (loss, grad) with grad shaped like scores."""
    s = np.asarray(scores, dtype=np.float64)
    return kl_loss_batch(s, np.zeros(s.size, dtype=np.intp))


def fatr_reg(item_free, item_sensitive):
    """Half squared Frobenius norm of the cross-Gram between the sensitive
    and free item blocks (rows correlated across the item axis).

    Args:
        item_free: (d - A, M) trained block.
        item_sensitive: (A, M) frozen indicator block.

    Returns:
        (loss, grad wrt item_free), gradient shape (d - A, M).
    """
    qf = np.asarray(item_free, dtype=np.float64)
    qs = np.asarray(item_sensitive, dtype=np.float64)
    if qf.shape[1] != qs.shape[1]:
        raise ValueError(
            f"item axis mismatch: {qf.shape[1]} != {qs.shape[1]}"
        )
    cross = qs @ qf.T  # (A, d - A)
    loss = 0.5 * float(np.sum(cross * cross))
    grad = cross.T @ qs
    return loss, grad


def reg_rsp_penalty(scores_g1, scores_g2):
    """Half squared gap between the two groups' mean batch scores.

    Returns (loss, grad_g1, grad_g2); an empty side yields zero penalty.
    """
    a = np.asarray(scores_g1, dtype=np.float64)
    b = np.asarray(scores_g2, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        log.debug("gap penalty: a group is absent from the batch, penalty 0")
        return 0.0, np.zeros_like(a), np.zeros_like(b)
    gap = a.mean() - b.mean()
    return (
        float(0.5 * gap * gap),
        np.full_like(a, gap / a.size),
        np.full_like(b, -gap / b.size),
    )


# reg-reo takes the same gap over positive-pair scores only
reg_reo_penalty = reg_rsp_penalty
