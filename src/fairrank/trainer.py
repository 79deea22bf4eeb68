"""Training loops for the ranking models.

Three families share one engine:

* plain pairwise ranking ("bpr"): shuffled mini-batches of positives, each
  positive paired with freshly sampled negatives, sparse Adam updates with
  per-triple L2 on the touched rows;
* adversarial kinds ("dpr-rsp", "dpr-reo"): pairwise pretraining, then
  alternating rounds of one full discriminator sweep over the training
  positives (gradient ascent on its log-likelihood) and
  ``theta_batches_per_round`` factor mini-batches descending the combined
  objective with the discriminator frozen;
* penalized baselines ("fatr", "reg-rsp", "reg-reo"): the pairwise loop plus
  their respective penalty term and the per-user score-normalization term.

Randomness is split into independent streams (factor init, batch shuffling
and negative sampling, discriminator init, discriminator sweeps) so that an
adversarial run with zeroed adversary and normalization weights reproduces a
plain pairwise run bit for bit.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import adversary as adv
from .errors import ConfigError, DataError, TrainingDiverged
from .evaluation import f1_at_k, rank_topk
from .mf import AdamState, adam_step, init_params
from .objectives import (
    ObjectiveWeights,
    bpr_pair_loss_batch,
    fatr_reg,
    kl_loss_batch as _batch_kl,
    reg_rsp_penalty,
)
from .util import Scratch

log = logging.getLogger(__name__)

MODEL_KINDS = ("bpr", "dpr-rsp", "dpr-reo", "fatr", "reg-rsp", "reg-reo")
_DPR_KINDS = ("dpr-rsp", "dpr-reo")
_BASELINE_KINDS = ("fatr", "reg-rsp", "reg-reo")
# the weights a kind cannot run without, in the order they are checked
_REQUIRED_WEIGHTS = {
    **dict.fromkeys(_DPR_KINDS, ("alpha", "beta")),
    **dict.fromkeys(_BASELINE_KINDS, ("lambda_model", "beta")),
}

VAL_K = 15
_COLLAPSE_FRACTION = 0.1
_COLLAPSE_STREAK = 5


@dataclass
class TrainConfig:
    """Everything a training run depends on, seed included."""

    kind: str = "bpr"
    dim: int = 20
    lr_bpr: float = 0.01
    lr_adv: float = 0.005
    weights: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    negative_rate: int = 5
    batch_size: int = 1024
    epochs: int = 50
    pretrain_epochs: int = 10
    adv_layers: int = 4
    adv_hidden: int = 50
    theta_batches_per_round: int = 1
    eval_every: int = 5
    seed: int = 0

    def validate(self, num_groups=None):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"train.model: unknown kind '{self.kind}'")
        if not (self.lr_bpr > 0 and self.lr_adv > 0):
            raise ConfigError("train.lr_bpr/lr_adv: must be positive")
        minimums = {
            "dim": 1,
            "negative_rate": 1,
            "batch_size": 1,
            "epochs": 0,
            "pretrain_epochs": 0,
            "adv_layers": 0,
            "theta_batches_per_round": 1,
            "eval_every": 0,
        }
        if self.adv_layers > 0:  # the width is unused without hidden layers
            minimums["adv_hidden"] = 1
        for name, minimum in minimums.items():
            if getattr(self, name) < minimum:
                raise ConfigError(f"train.{name}: must be >= {minimum}")
        w = self.weights
        if not w.lambda_theta >= 0:
            raise ConfigError("train.lambda_theta: must be >= 0")
        for name in ("alpha", "beta", "lambda_model", "gamma"):
            v = getattr(w, name)
            if v is not None and not v >= 0:
                raise ConfigError(f"train.{name}: must be >= 0")
        for name in _REQUIRED_WEIGHTS.get(self.kind, ()):
            if getattr(w, name) is None:
                raise ConfigError(f"train.{name} required for kind {self.kind}")
        if num_groups is not None:
            if self.kind == "fatr" and num_groups >= self.dim:
                raise ConfigError(
                    f"train.dim: fatr needs num_groups < dim "
                    f"({num_groups} >= {self.dim})"
                )
            if self.kind in ("reg-rsp", "reg-reo") and num_groups != 2:
                raise ConfigError(
                    f"train.model: {self.kind} supports exactly 2 groups, "
                    f"got {num_groups}"
                )


@dataclass
class EpochRecord:
    epoch: int
    loss_bpr: float
    loss_adv: float
    loss_kl: float
    val_f1_15: float
    seconds: float


def _fmt(x):
    if x is None or (isinstance(x, float) and np.isnan(x)):
        return ""
    return repr(float(x))


@dataclass
class TrainLog:
    """Per-epoch records, serialized as CSV."""

    records: list = field(default_factory=list)

    CSV_HEADER = "epoch,loss_bpr,loss_adv,loss_kl,val_f1_15,seconds"

    def to_csv(self):
        lines = [self.CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.epoch},{_fmt(r.loss_bpr)},{_fmt(r.loss_adv)},"
                f"{_fmt(r.loss_kl)},{_fmt(r.val_f1_15)},{_fmt(r.seconds)}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class TrainResult:
    """Outcome of a run.

    params carries the best-validation-F1@15 snapshot when validation ran,
    otherwise the final parameters (final_params always holds the latter).
    """

    params: object
    final_params: object
    adversary: object
    log: TrainLog
    adv_samples_per_sweep: int = 0
    best_val_f1: float = float("nan")


def _sample_neg_matrix(dataset, users, count, rng):
    """(len(users), count) negatives, uniform with replacement outside each
    user's training positives.

    Rejected draws are redrawn, in C order, until every draw is a
    negative; each round looks up only the draws it just made.  A count
    of 0 draws nothing and needs no candidate.
    """
    m = dataset.num_items
    full = dataset.train_sizes[users] >= m
    if count and full.any():
        raise DataError(
            f"user {int(users[full].min())} has no candidate negative items"
        )
    out = rng.integers(0, m, size=(len(users), count))
    flat = out.reshape(-1)
    rep_users = np.repeat(users, count)
    redo = np.flatnonzero(dataset.in_train(rep_users, flat))
    while len(redo):
        flat[redo] = rng.integers(0, m, size=len(redo))
        redo = redo[dataset.in_train(rep_users[redo], flat[redo])]
    return out


class _BatchStream:
    """Cycling shuffled mini-batches of training positives.

    One shuffle per pass over the data; pulling ``batches_per_epoch``
    batches consumes exactly one pass no matter who pulls, which is what
    makes the adversarial schedule reduce to the plain one when its extra
    terms are zeroed.  Each batch carries ``negative_rate`` sampled
    negatives per positive.
    """

    def __init__(self, dataset, batch_size, negative_rate, rng):
        self.dataset = dataset
        self.batch_size = batch_size
        self.negative_rate = negative_rate
        self.rng = rng
        self.n = dataset.num_train_pairs
        if self.n == 0:
            raise DataError("no training pairs")
        self.batches_per_epoch = -(-self.n // batch_size)
        self._order = None
        self._cursor = 0

    def next_batch(self):
        if self._order is None or self._cursor >= self.n:
            self._order = self.rng.permutation(self.n)
            self._cursor = 0
        sel = self._order[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        users = self.dataset.pos_users[sel]
        items = self.dataset.pos_items[sel]
        negs = _sample_neg_matrix(
            self.dataset, users, self.negative_rate, self.rng
        )
        return users, items, negs


class _RowSlots:
    """np.unique(idx, return_inverse=True) for indices below ``size``,
    from a mark and a slot per possible row, made once."""

    def __init__(self, size):
        self.mark = np.zeros(size, dtype=bool)
        self.slot = np.empty(size, dtype=np.int64)

    def compact(self, idx):
        """(sorted distinct rows of idx, each entry's position among them)"""
        self.mark[idx] = True
        rows = np.flatnonzero(self.mark)
        self.mark[rows] = False
        self.slot[rows] = np.arange(len(rows))
        return rows, self.slot[idx]


def _scatter_rows(idx, vals, nrows, ncols, scratch, out):
    """Sum the rows of ``vals`` that share an ``idx`` entry, over the first
    ncols columns: the (nrows, ncols) scratch array named ``out``.

    Each row adds its contributions in the order ``vals`` lists them.  One
    bincount per column, over that column copied contiguous into the
    scratch "cols"; the column sums go through "sums".
    """
    cols = scratch("cols", (ncols, len(idx)))
    np.copyto(cols, vals[:, :ncols].T)
    sums = scratch("sums", (ncols, nrows))
    for c in range(ncols):
        sums[c] = np.bincount(idx, weights=cols[c], minlength=nrows)
    out = scratch(out, (nrows, ncols))
    np.copyto(out, sums.T)
    return out


class _Trainer:
    def __init__(self, config, dataset, catalog=None):
        config.validate(None if catalog is None else catalog.num_groups)
        if config.kind != "bpr" and catalog is None:
            raise ConfigError(
                f"train.model: kind {config.kind} requires group labels"
            )
        self.cfg = config
        self.ds = dataset
        self.catalog = catalog
        seeds = np.random.SeedSequence(config.seed).generate_state(4)
        # fatr: the group indicators are the last item columns, never trained
        frozen = catalog.memberships if config.kind == "fatr" else None
        self.params = init_params(
            dataset.num_users,
            dataset.num_items,
            config.dim,
            np.random.default_rng(int(seeds[0])),
            frozen=frozen,
        )
        n_free = config.dim - (0 if frozen is None else frozen.shape[1])
        self.theta = {
            "user_factors": self.params.user_factors,
            "item_factors": self.params.item_factors[:, :n_free],
        }
        self.adam_theta = AdamState(self.theta)
        self.stream = _BatchStream(
            dataset,
            config.batch_size,
            config.negative_rate,
            np.random.default_rng(int(seeds[1])),
        )
        self.psi = None
        self.adam_psi = None
        self.sweep_stream = None
        # alpha = 0 keeps the discriminator out of every factor step, so
        # it is neither built nor trained
        if config.kind in _DPR_KINDS and config.weights.alpha != 0.0:
            self.psi = adv.init_adversary(
                catalog.num_groups,
                config.adv_layers,
                config.adv_hidden,
                np.random.default_rng(int(seeds[2])),
            )
            self.adam_psi = AdamState(self.psi.blocks())
            # rsp's discriminator also sees one negative per positive
            self.sweep_stream = _BatchStream(
                dataset,
                config.batch_size,
                int(config.kind == "dpr-rsp"),
                np.random.default_rng(int(seeds[3])),
            )
        # the arrays the theta step and the discriminator reuse
        self.scratch = Scratch()
        self.plan = self._epoch_plan()
        if 0 < config.eval_every <= len(self.plan) and not len(dataset.val_items):
            raise ConfigError(
                f"train.eval_every: validating every {config.eval_every} "
                "epochs needs validation pairs, and the split has none "
                "(data val_ratio = 0); set eval_every = 0 or val_ratio > 0"
            )
        self.user_slots = _RowSlots(dataset.num_users)
        self.item_slots = _RowSlots(dataset.num_items)
        self.G = (
            catalog.memberships.astype(np.float64)
            if catalog is not None
            else None
        )
        self.log = TrainLog()
        self.best = None  # (val_f1, params copy, psi copy or None)
        self._streak = 0
        self.adv_samples_per_sweep = 0

    # ---- factor (theta) updates -------------------------------------

    def _theta_update(self, batch, alpha, beta, l2):
        """One descent step on the composite batch objective.

        Returns (pair_loss_mean, kl_value) with kl_value nan when beta == 0.
        Score instances are the b positives, then the b * r negatives in
        row order.  Its batch-sized arrays come from the trainer's scratch.
        """
        users, items, negs = batch
        p_mat = self.params.user_factors
        imat = self.params.item_factors
        b, r = negs.shape
        n = b * (r + 1)
        dim = p_mat.shape[1]
        n_free = self.theta["item_factors"].shape[1]
        w = self.scratch
        # the step touches the batch's users and its positive and negative
        # items; the gradient parts index those rows by position
        i_inst = w("i_inst", (n,), np.int64)
        i_inst[:b] = items
        i_inst[b:] = negs.reshape(-1)
        u_rows, u_pos = self.user_slots.compact(users)
        i_rows, i_pos = self.item_slots.compact(i_inst)
        pu = np.take(p_mat, users, axis=0, out=w("pu", (b, dim)), mode="clip")
        vi = np.take(imat, items, axis=0, out=w("vi", (b, dim)), mode="clip")
        vj = np.take(imat, negs, axis=0, out=w("vj", (b, r, dim)), mode="clip")
        bd = w("bd", (b, dim))
        s_inst = w("s_inst", (n,))
        s_pos = np.multiply(pu, vi, out=bd).sum(axis=1, out=s_inst[:b])
        s_neg = np.einsum("bd,brd->br", pu, vj, out=s_inst[b:].reshape(b, r))
        losses, g_pos = bpr_pair_loss_batch(s_pos[:, None], s_neg)
        pair_loss = float(losses.mean())
        terms = []  # (weighted value, dL/ds over a prefix of the instances)
        if alpha != 0.0 and self.psi is not None:
            terms.append(self._theta_adv_term(s_inst, i_inst, b, r, alpha))
        u_pos_neg = np.repeat(u_pos, r)  # each negative's user slot
        kl_value = float("nan")
        if beta != 0.0:
            kl_value, g_kl = _batch_kl(
                s_inst, np.concatenate([u_pos, u_pos_neg])
            )
            terms.append((beta * kl_value, beta * g_kl))
        if self.cfg.kind in ("reg-rsp", "reg-reo"):
            terms.append(self._gap_term(s_inst, i_inst, b))
        # the gradient parts, stacked in the order the scatter sums them:
        # the pair loss's rows, then those of each score term
        n_term_rows = sum(len(g) for _, g in terms)
        u_vals = w("u_vals", (b + n_term_rows, dim))
        i_vals = w("i_vals", (n + n_term_rows, dim))
        # scratch for the pair loss's parts, which are done with it before
        # the scatter fills it; sized for the scatter first
        w("cols", (dim, len(i_vals)))
        brd = w("cols", (b, r, dim))
        scale = 1.0 / (b * r)
        # the pair loss's parts: b user rows, b positive and b * r negative
        # item rows, each (product + l2 term) * scale
        diff = np.subtract(vi[:, None, :], vj, out=brd)
        diff *= g_pos[:, :, None]
        du = diff.sum(axis=1, out=bd)
        u_part = np.multiply(pu, l2 * r, out=u_vals[:b])
        u_part += du
        u_part *= scale
        di = np.multiply(g_pos.sum(axis=1)[:, None], pu, out=i_vals[:b])
        di += np.multiply(vi, l2 * r, out=bd)
        dj = i_vals[b:n].reshape(b, r, dim)
        np.multiply((-g_pos)[:, :, None], pu[:, None, :], out=dj)
        dj += np.multiply(vj, l2, out=brd)
        i_vals[:n] *= scale
        total = pair_loss
        u_idx = [u_pos]
        i_idx = [i_pos]
        nu, ni = b, n
        for value, g in terms:
            # a score term's parts: each instance's item row times dL/ds
            # for its user, its user row times dL/ds for its item; g covers
            # the b positives, or every instance
            k = len(g)
            ut = u_vals[nu : nu + k]
            it = i_vals[ni : ni + k]
            np.multiply(vi, g[:b, None], out=ut[:b])
            np.multiply(pu, g[:b, None], out=it[:b])
            if k > b:
                g_neg = g[b:].reshape(b, r, 1)
                np.multiply(vj, g_neg, out=ut[b:].reshape(b, r, dim))
                np.multiply(
                    pu[:, None, :], g_neg, out=it[b:].reshape(b, r, dim)
                )
                u_idx += [u_pos, u_pos_neg]
            else:
                u_idx.append(u_pos)
            i_idx.append(i_pos[:k])
            nu += k
            ni += k
            total += value
        item_dense = None
        if self.cfg.kind == "fatr":
            lam = self.cfg.weights.lambda_model
            reg_loss, reg_grad = fatr_reg(
                imat[:, :n_free].T, imat[:, n_free:].T
            )
            total += lam * reg_loss
            # the cross-Gram gradient reaches every item; item-major like
            # the factors
            item_dense = np.multiply(
                reg_grad.T, lam, out=w("item_dense", (len(imat), n_free))
            )
        if not np.isfinite(total):
            raise TrainingDiverged(
                f"batch loss is not finite ({total}); try a smaller "
                "learning rate"
            )
        g_items = _scatter_rows(
            np.concatenate(i_idx, out=w("i_idx", (ni,), np.int64)),
            i_vals,
            len(i_rows),
            n_free,
            w,
            "i_grad",
        )
        if item_dense is not None:
            item_dense[i_rows] += g_items
            i_rows, g_items = None, item_dense
        g_users = _scatter_rows(
            np.concatenate(u_idx, out=w("u_idx", (nu,), np.int64)),
            u_vals,
            len(u_rows),
            dim,
            w,
            "u_grad",
        )
        grads = {
            "user_factors": (u_rows, g_users),
            "item_factors": (i_rows, g_items),
        }
        adam_step(self.adam_theta, self.theta, grads, self.cfg.lr_bpr)
        return pair_loss, kl_value

    def _theta_adv_term(self, s_inst, i_inst, b, r, alpha):
        """alpha times the discriminator's mean log-likelihood on the batch:
        positives weighted r each, plus the negatives for dpr-rsp."""
        scale = 1.0 / (b * r)
        ll_i, _, dy_i = adv.loglik_and_grads(
            self.psi, s_inst[:b], self.G[i_inst[:b]],
            param_grads=False, work=self.scratch,
        )
        value = r * float(ll_i.sum()) * scale
        grads = [(alpha * r * scale) * dy_i]
        if self.cfg.kind == "dpr-rsp":
            ll_j, _, dy_j = adv.loglik_and_grads(
                self.psi, s_inst[b:], self.G[i_inst[b:]],
                param_grads=False, work=self.scratch,
            )
            value += float(ll_j.sum()) * scale
            grads.append((alpha * scale) * dy_j)
        return alpha * value, np.concatenate(grads)

    def _gap_term(self, s_inst, i_inst, b):
        """lambda_model times the squared gap between the two groups' mean
        scores: every instance for reg-rsp, positives only for reg-reo."""
        lam = self.cfg.weights.lambda_model
        n = len(s_inst) if self.cfg.kind == "reg-rsp" else b
        s_sel = s_inst[:n]
        in_g1 = self.G[i_inst[:n], 0] > 0
        in_g2 = self.G[i_inst[:n], 1] > 0
        pen, grad1, grad2 = reg_rsp_penalty(s_sel[in_g1], s_sel[in_g2])
        g_sel = np.zeros(n)
        g_sel[in_g1] += grad1
        g_sel[in_g2] += grad2
        g_sel *= lam
        return lam * pen, g_sel

    def _theta_batches(self, n_batches, alpha, beta, l2):
        pair_sum = 0.0
        kl_sum = 0.0
        kl_n = 0
        for _ in range(n_batches):
            pair, kl = self._theta_update(
                self.stream.next_batch(), alpha, beta, l2
            )
            pair_sum += pair
            if not np.isnan(kl):
                kl_sum += kl
                kl_n += 1
        return (
            pair_sum / n_batches,
            kl_sum / kl_n if kl_n else float("nan"),
        )

    # ---- discriminator (psi) sweep ----------------------------------

    def _psi_update(self, scores, labels):
        ll, grads, _ = adv.loglik_and_grads(
            self.psi, scores, labels, work=self.scratch
        )
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise TrainingDiverged(
                    f"discriminator gradient for block '{name}' is not "
                    "finite; try a smaller lr_adv"
                )
        # ascend the log-likelihood: descend its negated mean
        scaled = {
            k: (None, -(g / len(scores))) for k, g in grads.items()
        }
        adam_step(self.adam_psi, self.psi.blocks(), scaled, self.cfg.lr_adv)
        return float(ll.sum()), len(scores)

    def _psi_sweep(self):
        """One shuffled pass over all training positives updating the
        discriminator; rsp also visits one sampled negative per positive.

        Returns the mean per-sample log-likelihood seen during the sweep.
        """
        p_mat = self.params.user_factors
        imat = self.params.item_matrix()
        total = 0.0
        count = 0
        for _ in range(self.sweep_stream.batches_per_epoch):
            u_b, i_b, negs = self.sweep_stream.next_batch()
            for items in (i_b, *negs.T):
                s = (p_mat[u_b] * imat[items]).sum(axis=1)
                ll, n = self._psi_update(s, self.G[items])
                total += ll
                count += n
        self.adv_samples_per_sweep = count
        mean_ll = total / count
        self._check_collapse(mean_ll)
        return mean_ll

    def _check_collapse(self, mean_ll):
        threshold = -_COLLAPSE_FRACTION * self.catalog.num_groups * np.log(2.0)
        if mean_ll > threshold:
            self._streak += 1
            if self._streak == _COLLAPSE_STREAK:
                log.warning(
                    "possible adversary collapse: sweep log-likelihood above "
                    "%.4f for %d consecutive sweeps (groups are nearly "
                    "perfectly separable from scores)",
                    threshold,
                    _COLLAPSE_STREAK,
                )
        else:
            self._streak = 0

    # ---- orchestration ----------------------------------------------

    def _validate_now(self):
        ranking = rank_topk(self.params, self.ds, VAL_K, exclude="train")
        return f1_at_k(ranking, self.ds, k=VAL_K, split="val")

    def _finish_epoch(self, epoch, pair, sweep_ll, kl, seconds):
        val = float("nan")
        if self.cfg.eval_every > 0 and epoch % self.cfg.eval_every == 0:
            val = self._validate_now()
            if self.best is None or val > self.best[0]:
                self.best = (
                    val,
                    self.params.copy(),
                    self.psi.copy() if self.psi is not None else None,
                )
        self.log.records.append(
            EpochRecord(epoch, pair, sweep_ll, kl, val, seconds)
        )

    def _epoch_plan(self):
        """(sweep first?, theta batches, alpha, beta, l2) for each epoch."""
        cfg = self.cfg
        w = cfg.weights
        full = self.stream.batches_per_epoch
        if cfg.kind == "bpr":
            return [(False, full, 0.0, 0.0, w.lambda_theta)] * cfg.epochs
        if cfg.kind in _BASELINE_KINDS:
            l2 = w.gamma_or_default()
            return [(False, full, 0.0, w.beta, l2)] * cfg.epochs
        pretrain = (False, full, 0.0, 0.0, w.lambda_theta)
        rounds = (
            self.psi is not None,
            cfg.theta_batches_per_round,
            w.alpha,
            w.beta,
            w.lambda_theta,
        )
        return [pretrain] * cfg.pretrain_epochs + [rounds] * cfg.epochs

    def run(self):
        for epoch, (sweep, n_batches, alpha, beta, l2) in enumerate(
            self.plan, 1
        ):
            t0 = time.perf_counter()
            sweep_ll = self._psi_sweep() if sweep else float("nan")
            pair, kl = self._theta_batches(n_batches, alpha, beta, l2)
            self._finish_epoch(
                epoch, pair, sweep_ll, kl, time.perf_counter() - t0
            )
        best_f1, params, psi = self.best or (
            float("nan"), self.params, self.psi
        )
        return TrainResult(
            params, self.params, psi, self.log, self.adv_samples_per_sweep,
            best_f1,
        )


def train(config, dataset, catalog=None):
    """Train the model config.kind names; see the module docstring.

    catalog (item group labels) is required for every kind but "bpr".
    """
    return _Trainer(config, dataset, catalog).run()
