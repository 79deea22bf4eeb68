import hashlib

import numpy as np
import pytest

from fairrank import adversary as adv
from fairrank.data import InteractionDataset, split
from fairrank.errors import ConfigError, TrainingDiverged
from fairrank.evaluation import f1_at_k, rank_topk
from fairrank.mf import adam_step
from fairrank.objectives import ObjectiveWeights, kl_loss_user
from fairrank.trainer import (
    EpochRecord,
    TrainConfig,
    TrainLog,
    _batch_kl,
    _BatchStream,
    _Trainer,
    train,
)

from conftest import make_synth


def _weights(**kw):
    kw.setdefault("lambda_theta", 0.05)
    return ObjectiveWeights(**kw)


def _small_cfg(kind="bpr", **kw):
    base = dict(
        kind=kind,
        dim=8,
        epochs=4,
        batch_size=256,
        eval_every=0,
        seed=3,
        adv_layers=2,
        adv_hidden=10,
        pretrain_epochs=2,
    )
    base.update(kw)
    base.setdefault(
        "weights",
        _weights(alpha=10.0, beta=1.0)
        if kind.startswith("dpr")
        else (
            _weights(beta=0.0, lambda_model=1.0)
            if kind in ("fatr", "reg-rsp", "reg-reo")
            else _weights()
        ),
    )
    return TrainConfig(**base)


# ---- configuration validation ---------------------------------------


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (dict(kind="nope"), "unknown kind"),
        (dict(dim=0), "train.dim"),
        (dict(negative_rate=0), "negative_rate"),
        (dict(batch_size=0), "batch_size"),
        (dict(theta_batches_per_round=0), "theta_batches_per_round"),
        (dict(adv_layers=-1), "adv_layers"),
        (dict(epochs=-1), "^train.epochs: must be >= 0$"),
        (dict(pretrain_epochs=-1), "^train.pretrain_epochs: must be >= 0$"),
        (dict(eval_every=-1), "^train.eval_every: must be >= 0$"),
        (dict(adv_layers=1, adv_hidden=0), "^train.adv_hidden: must be >= 1$"),
    ],
)
def test_validate_basic_errors(mutate, fragment):
    cfg = _small_cfg()
    for k, v in mutate.items():
        setattr(cfg, k, v)
    with pytest.raises(ConfigError, match=fragment):
        cfg.validate()


def test_validate_required_weights():
    cfg = _small_cfg("dpr-rsp", weights=_weights(beta=1.0))
    with pytest.raises(ConfigError, match="alpha required for kind dpr-rsp"):
        cfg.validate()
    cfg = _small_cfg("dpr-reo", weights=_weights(alpha=1.0))
    with pytest.raises(ConfigError, match="beta required for kind dpr-reo"):
        cfg.validate()
    cfg = _small_cfg("fatr", weights=_weights(beta=0.0))
    with pytest.raises(ConfigError, match="lambda_model required"):
        cfg.validate()
    cfg = _small_cfg("reg-rsp", weights=_weights(lambda_model=1.0))
    with pytest.raises(ConfigError, match="beta required"):
        cfg.validate()


def test_validate_group_constraints():
    cfg = _small_cfg("fatr", dim=4)
    with pytest.raises(ConfigError, match="num_groups < dim"):
        cfg.validate(num_groups=4)
    cfg.validate(num_groups=2)
    cfg = _small_cfg("reg-rsp")
    with pytest.raises(ConfigError, match="exactly 2 groups"):
        cfg.validate(num_groups=3)


def test_kind_dispatch_guards(synth_dataset):
    ds, cat = synth_dataset
    with pytest.raises(ConfigError, match="unknown kind 'nope'"):
        train(_small_cfg("nope"), ds, cat)
    for kind in ("dpr-rsp", "dpr-reo", "fatr", "reg-rsp", "reg-reo"):
        with pytest.raises(ConfigError, match="requires group labels"):
            train(_small_cfg(kind), ds, None)


# ---- batch stream ---------------------------------------------------


def test_stream_covers_each_epoch_exactly(synth_dataset):
    ds, _ = synth_dataset
    stream = _BatchStream(ds, 128, 3, np.random.default_rng(0))
    for _ in range(3):  # three consecutive passes
        seen = []
        for _ in range(stream.batches_per_epoch):
            users, items, negs = stream.next_batch()
            assert negs.shape == (len(users), 3)
            assert not ds.in_train(
                np.repeat(users, 3), negs.ravel()
            ).any()
            seen.extend(zip(users.tolist(), items.tolist()))
        expected = sorted(
            zip(ds.pos_users.tolist(), ds.pos_items.tolist())
        )
        assert sorted(seen) == expected


# ---- optimization behavior ------------------------------------------


def test_forced_optimum_single_pair():
    # one user, two items, the only positive must outrank the only negative
    ds = InteractionDataset(1, 2, [np.array([0])], [[]], [[]])
    cfg = TrainConfig(
        kind="bpr",
        dim=4,
        lr_bpr=0.05,
        epochs=200,
        batch_size=1,
        negative_rate=1,
        eval_every=0,
        seed=0,
        weights=_weights(lambda_theta=1e-4),
    )
    res = train(cfg, ds)
    p = res.params
    s_pos = float(p.user_factors[0] @ p.item_factors[0])
    s_neg = float(p.user_factors[0] @ p.item_factors[1])
    assert s_pos - s_neg > 1.0


def test_training_deterministic(synth_dataset):
    ds, cat = synth_dataset
    cfg = _small_cfg("dpr-rsp", epochs=3, pretrain_epochs=1, eval_every=2)
    a = train(cfg, ds, cat)
    b = train(cfg, ds, cat)
    assert np.array_equal(a.params.user_factors, b.params.user_factors)
    assert np.array_equal(a.params.item_factors, b.params.item_factors)
    for wa, wb in zip(a.adversary.weights, b.adversary.weights):
        assert np.array_equal(wa, wb)
    c = train(_small_cfg("dpr-rsp", seed=4), ds, cat)
    assert not np.array_equal(a.params.user_factors, c.params.user_factors)


def test_bpr_loss_decreases(synth_dataset):
    ds, _ = synth_dataset
    res = train(_small_cfg(epochs=12), ds)
    losses = [r.loss_bpr for r in res.log.records]
    assert losses[-1] < losses[0] - 0.005


def test_bpr_beats_untrained_ranking():
    # The generator draws items by group popularity only, so items are
    # exchangeable within a group and the achievable F1 edge over a random
    # init is capped near the group-mixture optimum (about 1.2x here, not
    # more); the margin below leaves room for that ceiling.
    from fairrank.mf import init_params

    raw, cat = make_synth(num_users=2000, num_items=200, seed=101, per_user=20)
    ds = split(raw, seed=1)
    p0 = init_params(ds.num_users, ds.num_items, 20, np.random.default_rng(1))
    f_init = f1_at_k(rank_topk(p0, ds, 15, exclude="train"), ds, split="val")
    cfg = _small_cfg(epochs=30, dim=20, batch_size=1024, eval_every=0, seed=1)
    pt = train(cfg, ds).final_params
    f_tr = f1_at_k(rank_topk(pt, ds, 15, exclude="train"), ds, split="val")
    assert f_tr > 1.15 * f_init


@pytest.mark.parametrize("total", [1, 2, 4])
def test_dpr_with_zero_weights_reduces_to_bpr(synth_dataset, total):
    # alpha = beta = 0 and aligned batch counts: bit-identical factors
    ds, cat = synth_dataset
    bpe = -(-ds.num_train_pairs // 256)
    plain = train(_small_cfg(epochs=total), ds)
    mm = train(
        _small_cfg(
            "dpr-rsp",
            epochs=total - 1,
            pretrain_epochs=1,
            theta_batches_per_round=bpe,
            weights=_weights(alpha=0.0, beta=0.0),
        ),
        ds,
        cat,
    )
    assert np.array_equal(
        plain.params.user_factors, mm.params.user_factors
    )
    assert np.array_equal(
        plain.params.item_factors, mm.params.item_factors
    )
    for ra, rb in zip(plain.log.records, mm.log.records):
        assert ra.loss_bpr == rb.loss_bpr


def test_pretrain_only_equals_bpr(synth_dataset):
    ds, cat = synth_dataset
    plain = train(_small_cfg(epochs=2), ds)
    mm = train(
        _small_cfg("dpr-rsp", epochs=0, pretrain_epochs=2), ds, cat
    )
    assert np.array_equal(plain.params.user_factors, mm.params.user_factors)
    assert np.array_equal(plain.params.item_factors, mm.params.item_factors)


def test_sweep_sample_counts(synth_dataset):
    # rsp visits each positive and one sampled negative; reo positives only
    ds, cat = synth_dataset
    rsp = train(
        _small_cfg("dpr-rsp", epochs=1, pretrain_epochs=0), ds, cat
    )
    reo = train(
        _small_cfg(
            "dpr-reo",
            epochs=1,
            pretrain_epochs=0,
            weights=_weights(alpha=10.0, beta=1.0),
        ),
        ds,
        cat,
    )
    assert rsp.adv_samples_per_sweep == 2 * ds.num_train_pairs
    assert reo.adv_samples_per_sweep == ds.num_train_pairs


def test_minimax_directions(synth_dataset):
    ds, cat = synth_dataset
    cfg = _small_cfg(
        "dpr-rsp",
        lr_bpr=1e-4,
        lr_adv=1e-4,
        weights=_weights(alpha=50.0, beta=0.0),
    )
    tr = _Trainer(cfg, ds, cat)
    for _ in range(2):  # give the discriminator some signal
        tr._psi_sweep()
    users, items, negs = tr.stream.next_batch()

    def adv_term():
        p = tr.params.user_factors
        im = tr.params.item_matrix()
        s_i = (p[users] * im[items]).sum(axis=1)
        s_j = (p[np.repeat(users, negs.shape[1])] * im[negs.ravel()]).sum(
            axis=1
        )
        ll_i = adv.loglik_and_grads(tr.psi, s_i, tr.G[items])[0]
        ll_j = adv.loglik_and_grads(tr.psi, s_j, tr.G[negs.ravel()])[0]
        b, r = negs.shape
        return (r * ll_i.sum() + ll_j.sum()) / (b * r)

    # a factor step on the adversary term alone must push the
    # discriminator's log-likelihood down
    before = adv_term()
    b, r = negs.shape
    p_mat = tr.params.user_factors
    imat = tr.params.item_factors
    u_inst = np.concatenate([users, np.repeat(users, r)])
    i_inst = np.concatenate([items, negs.ravel()])
    s_inst = (p_mat[u_inst] * imat[i_inst]).sum(axis=1)
    _, g = tr._theta_adv_term(s_inst, i_inst, b, r, alpha=50.0)
    g_users = np.zeros_like(p_mat)
    g_items = np.zeros_like(imat)
    np.add.at(g_users, u_inst, g[:, None] * imat[i_inst])
    np.add.at(g_items, i_inst, g[:, None] * p_mat[u_inst])
    adam_step(
        tr.adam_theta,
        tr.theta,
        {"user_factors": (None, g_users), "item_factors": (None, g_items)},
        cfg.lr_bpr,
    )
    after = adv_term()
    assert after < before

    # and a discriminator step on frozen scores must push it up
    tr2 = _Trainer(cfg, ds, cat)
    rng = np.random.default_rng(0)
    scores = rng.normal(size=64)
    labels = tr2.G[rng.integers(0, ds.num_items, size=64)]
    ll_before = adv.loglik_and_grads(tr2.psi, scores, labels)[0].sum()
    tr2._psi_update(scores, labels)
    ll_after = adv.loglik_and_grads(tr2.psi, scores, labels)[0].sum()
    assert ll_after > ll_before


def _one_theta_step(kind, ds, cat):
    """A fresh trainer after one theta batch of 8 positives x 2 negatives,
    the parameters before it, and the batch."""
    cfg = _small_cfg(kind, batch_size=8, negative_rate=2)
    tr = _Trainer(cfg, ds, cat)
    before = tr.params.copy()
    batch = tr.stream.next_batch()
    w = cfg.weights
    tr._theta_update(batch, 0.0, 0.0, w.lambda_theta)
    return tr, before, batch


def _batch_masks(ds, users, items, negs):
    in_u = np.zeros(ds.num_users, dtype=bool)
    in_u[users] = True
    in_i = np.zeros(ds.num_items, dtype=bool)
    in_i[items] = True
    in_i[negs.ravel()] = True
    return in_u, in_i


def test_theta_step_touches_only_batch_rows(synth_dataset):
    ds, cat = synth_dataset
    tr, before, batch = _one_theta_step("bpr", ds, cat)
    in_u, in_i = _batch_masks(ds, *batch)
    assert 0 < in_u.sum() < ds.num_users and 0 < in_i.sum() < ds.num_items
    p = tr.params
    assert np.array_equal(p.user_factors[~in_u], before.user_factors[~in_u])
    assert np.array_equal(p.item_factors[~in_i], before.item_factors[~in_i])
    assert (p.user_factors != before.user_factors).any(axis=1)[in_u].all()
    assert (p.item_factors != before.item_factors).any(axis=1)[in_i].all()
    # lazy Adam stamps exactly the rows it moved
    assert np.array_equal(tr.adam_theta.last["user_factors"], in_u)
    assert np.array_equal(tr.adam_theta.last["item_factors"], in_i)


def test_fatr_theta_step_keeps_indicator_columns(synth_dataset):
    ds, cat = synth_dataset
    tr, before, batch = _one_theta_step("fatr", ds, cat)
    in_u, _ = _batch_masks(ds, *batch)
    a = cat.num_groups
    q, q0 = tr.params.item_factors, before.item_factors
    assert np.array_equal(q[:, -a:], q0[:, -a:])
    # the cross-Gram penalty reaches every item's trained columns
    assert (q[:, :-a] != q0[:, :-a]).any(axis=1).all()
    assert np.array_equal(
        tr.params.user_factors[~in_u], before.user_factors[~in_u]
    )
    assert np.array_equal(tr.adam_theta.last["user_factors"], in_u)
    assert (tr.adam_theta.last["item_factors"] == 1).all()


def test_fatr_keeps_indicator_block_frozen(synth_dataset):
    ds, cat = synth_dataset
    cfg = _small_cfg(
        "fatr", epochs=3, weights=_weights(beta=0.0, lambda_model=5.0)
    )
    res = train(cfg, ds, cat)
    assert np.array_equal(
        res.final_params.item_factors[:, -cat.num_groups :],
        cat.memberships.astype(np.float64),
    )


def test_fatr_penalty_shrinks_cross_gram(synth_dataset):
    ds, cat = synth_dataset

    def cross_norm(lambda_model):
        cfg = _small_cfg(
            "fatr",
            epochs=8,
            weights=_weights(beta=0.0, lambda_model=lambda_model),
        )
        q = train(cfg, ds, cat).final_params.item_factors
        a = cat.num_groups
        return float(np.linalg.norm(q[:, -a:].T @ q[:, :-a]))

    assert cross_norm(200.0) < 0.5 * cross_norm(0.0)


def test_reg_rsp_shrinks_group_score_gap(synth_dataset):
    ds, cat = synth_dataset

    def gap(kind, lambda_model=None):
        if kind == "bpr":
            cfg = _small_cfg(epochs=10)
        else:
            cfg = _small_cfg(
                kind,
                epochs=10,
                weights=_weights(beta=0.0, lambda_model=lambda_model),
            )
        p = train(cfg, ds, cat if kind != "bpr" else None).final_params
        s = p.user_factors @ p.item_matrix().T
        g0 = s[:, cat.memberships[:, 0] > 0].mean()
        g1 = s[:, cat.memberships[:, 1] > 0].mean()
        return abs(float(g0 - g1))

    assert gap("reg-rsp", 50.0) < 0.7 * gap("bpr")


def test_divergence_guard(synth_dataset):
    ds, _ = synth_dataset
    cfg = _small_cfg(epochs=3, lr_bpr=1e200)
    with pytest.raises(TrainingDiverged, match="not finite"):
        with np.errstate(all="ignore"):
            train(cfg, ds)


def test_discriminator_divergence_guard(synth_dataset):
    ds, cat = synth_dataset
    cfg = _small_cfg("dpr-rsp", epochs=3, lr_adv=1e200)
    with pytest.raises(TrainingDiverged, match="lr_adv"):
        with np.errstate(all="ignore"):
            train(cfg, ds, cat)


def test_adversary_collapse_warning(synth_dataset, caplog):
    ds, cat = synth_dataset
    cfg = _small_cfg(
        "dpr-rsp", adv_layers=1, adv_hidden=8, lr_adv=0.05, dim=2
    )
    tr = _Trainer(cfg, ds, cat)
    # make group membership perfectly readable from the score
    tr.params.user_factors[:] = [1.0, 0.0]
    tr.params.item_factors[:, 0] = np.where(
        cat.memberships[:, 0] > 0, 10.0, -10.0
    )
    tr.params.item_factors[:, 1] = 0.0
    with caplog.at_level("WARNING", logger="fairrank.trainer"):
        for _ in range(60):
            tr._psi_sweep()
    assert any("collapse" in r.message for r in caplog.records)


def test_validation_snapshot_is_best(synth_dataset):
    ds, _ = synth_dataset
    cfg = _small_cfg(epochs=6, eval_every=2)
    res = train(cfg, ds)
    vals = [r.val_f1_15 for r in res.log.records if not np.isnan(r.val_f1_15)]
    assert len(vals) == 3
    assert res.best_val_f1 == max(vals)
    ranking = rank_topk(res.params, ds, 15, exclude="train")
    assert f1_at_k(ranking, ds, k=15, split="val") == res.best_val_f1


def test_trainlog_csv_format():
    log = TrainLog(
        [
            EpochRecord(1, 0.5, float("nan"), float("nan"), 0.25, 1.5),
            EpochRecord(2, 0.4, -1.25, 3.5, float("nan"), 2.0),
        ]
    )
    lines = log.to_csv().strip().split("\n")
    assert lines[0] == "epoch,loss_bpr,loss_adv,loss_kl,val_f1_15,seconds"
    assert lines[1] == "1,0.5,,,0.25,1.5"
    assert lines[2] == "2,0.4,-1.25,3.5,,2.0"


def test_batch_kl_matches_per_user_reference():
    rng = np.random.default_rng(0)
    users = np.concatenate(
        [rng.integers(0, 5, size=39), [9]]  # user 9: a singleton, skipped
    )
    scores = rng.normal(size=40)
    value, grad = _batch_kl(scores, np.unique(users, return_inverse=True)[1])
    vals = []
    grad_ref = np.zeros(40)
    for u in np.unique(users):
        idx = np.flatnonzero(users == u)
        if len(idx) < 2:
            continue
        l, g = kl_loss_user(scores[idx])
        vals.append(l)
        grad_ref[idx] = g
    grad_ref /= len(vals)
    assert np.isclose(value, np.mean(vals))
    assert np.allclose(grad, grad_ref, atol=1e-12)
    assert np.all(grad[users == 9] == 0.0)


def test_kl_drives_moments_toward_standard_normal(synth_dataset):
    # strong beta, no adversary: per-user score moments approach (0, 1)
    ds, cat = synth_dataset

    def moment_error(beta):
        cfg = _small_cfg(
            "dpr-rsp",
            epochs=60,
            pretrain_epochs=2,
            theta_batches_per_round=4,
            weights=_weights(alpha=0.0, beta=beta),
        )
        p = train(cfg, ds, cat).final_params
        s = p.user_factors @ p.item_matrix().T
        return float(
            np.mean(np.abs(s.mean(axis=1)))
            + np.mean(np.abs(s.std(axis=1) - 1.0))
        )

    assert moment_error(30.0) < 0.5 * moment_error(0.0)


# ---- pinned trajectories --------------------------------------------


def _sha(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def _trajectory_digests(res):
    """(factors and ranking-side log, adversary and its log column)."""
    recs = res.log.records
    factors = _sha(
        [
            res.final_params.user_factors,
            res.final_params.item_factors,
            res.params.user_factors,
            res.params.item_factors,
            [(r.loss_bpr, r.loss_kl, r.val_f1_15) for r in recs],
        ]
    )
    if res.adversary is None:
        return factors, None
    psi = res.adversary
    return factors, _sha(
        psi.weights + psi.biases + [[r.loss_adv for r in recs]]
    )


# sha256 prefixes of short runs on the conftest corpus: 1 warm-start epoch,
# 3 rounds of 2 model batches, validation every 2 epochs.  Recorded with
# the allocating discriminator pass now in tests/oracles.py, on numpy 2.4
# with OpenBLAS 0.3.31; another BLAS may round some sums differently.
_PINNED_RUNS = {
    ("dpr-rsp", 0, 10.0, 1.0): ("de0242c6c00b4920", "eb1c10db98841ea7"),
    ("dpr-rsp", 4, 10.0, 1.0): ("4f14641a09f5b8f5", "d8eb1a5f21a8ea3c"),
    ("dpr-reo", 0, 10.0, 1.0): ("f9ee93acd5e21915", "910970a8841c4e51"),
    ("dpr-reo", 4, 10.0, 1.0): ("4dfacbffa07c91a7", "ab046a8f9b905c32"),
    ("dpr-reo", 4, 5.0, 2.0): ("a0969345abb6a972", "b907b200e7ef8b80"),
}


def _pinned_run(kind, layers, alpha, beta, ds, cat):
    cfg = _small_cfg(
        kind,
        epochs=3,
        pretrain_epochs=1,
        theta_batches_per_round=2,
        eval_every=2,
        adv_layers=layers,
        weights=_weights(alpha=alpha, beta=beta),
    )
    return train(cfg, ds, cat)


@pytest.mark.parametrize(
    "key",
    list(_PINNED_RUNS),
    ids=lambda k: f"{k[0]}-h{k[1]}-a{k[2]:g}-b{k[3]:g}",
)
def test_trajectory_matches_pinned_digest(synth_dataset, key):
    ds, cat = synth_dataset
    res = _pinned_run(*key, ds, cat)
    assert _trajectory_digests(res) == _PINNED_RUNS[key]


# the same digests for the kinds without a discriminator: 3 epochs of
# 4 batches (the last one holds 192 of 256 positives), validation every 2.
# Recorded with the theta step's Adam and negative sampler now in
# tests/oracles.py, on numpy 2.4 with OpenBLAS 0.3.31.
_PINNED_PLAIN_RUNS = {
    ("bpr", 0.0, None): "9248b2a8b717cbd0",
    ("fatr", 1.0, 1.0): "acfcf069c0fdf6e2",
    ("fatr", 0.0, 5.0): "46639338a1cb7cc8",
    ("reg-rsp", 1.0, 10.0): "b9acf75e99197b46",
    ("reg-reo", 0.5, 10.0): "a684592286914cb4",
}


@pytest.mark.parametrize(
    "key",
    list(_PINNED_PLAIN_RUNS),
    ids=lambda k: f"{k[0]}-b{k[1]:g}-l{k[2] or 0:g}",
)
def test_plain_trajectory_matches_pinned_digest(synth_dataset, key):
    ds, cat = synth_dataset
    kind, beta, lambda_model = key
    weights = (
        _weights()
        if kind == "bpr"
        else _weights(beta=beta, lambda_model=lambda_model)
    )
    cfg = _small_cfg(kind, epochs=3, eval_every=2, weights=weights)
    res = train(cfg, ds, None if kind == "bpr" else cat)
    assert _trajectory_digests(res) == (_PINNED_PLAIN_RUNS[key], None)


@pytest.mark.parametrize(
    "kind, alpha, beta, n_terms",
    [
        ("bpr", 0.0, 1.0, 0),  # bpr epochs run with beta 0
        ("fatr", 0.0, 0.0, 0),
        ("fatr", 0.0, 1.0, 1),
        ("reg-rsp", 0.0, 1.0, 2),
        ("dpr-rsp", 10.0, 1.0, 2),
        ("dpr-reo", 0.0, 1.0, 1),  # alpha 0 builds no discriminator
    ],
)
def test_theta_work_has_room_for_the_plans_score_terms(
    synth_dataset, kind, alpha, beta, n_terms
):
    ds, cat = synth_dataset
    weights = _weights(alpha=alpha, beta=beta, lambda_model=1.0)
    cfg = _small_cfg(kind, weights=weights)
    tr = _Trainer(cfg, ds, None if kind == "bpr" else cat)
    assert tr.score_terms == n_terms
    b = min(cfg.batch_size, ds.num_train_pairs)
    n = b * (cfg.negative_rate + 1)
    assert tr.theta_work.u_vals.shape == (b + n * n_terms, cfg.dim)
    assert tr.theta_work.i_vals.shape == (n + n * n_terms, cfg.dim)


def test_zero_alpha_run_matches_pinned_factors(synth_dataset):
    ds, cat = synth_dataset
    res = _pinned_run("dpr-reo", 4, 0.0, 10.0, ds, cat)
    assert _trajectory_digests(res)[0] == "4f2e896b1106aac0"
    # no discriminator is built, swept or stored
    assert res.adversary is None
    assert res.adv_samples_per_sweep == 0
    assert all(np.isnan(r.loss_adv) for r in res.log.records)
