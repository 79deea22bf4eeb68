"""Independent reference implementations, all plain Python loops.

These deliberately avoid the vectorized code paths in the package so the
two can disagree.
"""

import math
from dataclasses import dataclass

import numpy as np

from fairrank.adversary import PROB_CLAMP
from fairrank.util import sigmoid


def brute_rank(params, dataset, k, exclude):
    imat = params.item_matrix()
    lists = []
    for u in range(dataset.num_users):
        banned = set(int(i) for i in dataset.train_pos[u])
        if exclude == "train+val":
            banned |= set(int(i) for i in dataset.val_pos[u])
        scored = []
        for i in range(dataset.num_items):
            if i in banned:
                continue
            s = float(np.dot(params.user_factors[u], imat[i]))
            scored.append((-s, i))
        scored.sort()
        lists.append([i for _, i in scored[:k]])
    return lists


def brute_rsp(lists, dataset, catalog, k):
    a = catalog.num_groups
    num = [0.0] * a
    den = [0.0] * a
    for u in range(dataset.num_users):
        train_u = set(int(i) for i in dataset.train_pos[u])
        for i in lists[u][:k]:
            for g in range(a):
                num[g] += float(catalog.memberships[i, g])
        for i in range(dataset.num_items):
            if i not in train_u:
                for g in range(a):
                    den[g] += float(catalog.memberships[i, g])
    return [n / d for n, d in zip(num, den)]


def brute_reo(lists, dataset, catalog, k):
    a = catalog.num_groups
    num = [0.0] * a
    den = [0.0] * a
    for u in range(dataset.num_users):
        test_u = set(int(i) for i in dataset.test_pos[u])
        for i in lists[u][:k]:
            if i in test_u:
                for g in range(a):
                    num[g] += float(catalog.memberships[i, g])
        for i in test_u:
            for g in range(a):
                den[g] += float(catalog.memberships[i, g])
    return [n / d for n, d in zip(num, den)]


def brute_f1(lists, dataset, k):
    vals = []
    for u in range(dataset.num_users):
        truth = set(int(i) for i in dataset.test_pos[u])
        if not truth:
            continue
        hits = len(set(lists[u][:k]) & truth)
        p = hits / k
        r = hits / len(truth)
        vals.append(0.0 if p + r == 0 else 2 * p * r / (p + r))
    return sum(vals) / len(vals)


def brute_ndcg(lists, dataset, k):
    vals = []
    for u in range(dataset.num_users):
        truth = set(int(i) for i in dataset.test_pos[u])
        if not truth:
            continue
        dcg = 0.0
        for pos, i in enumerate(lists[u][:k]):
            if i in truth:
                dcg += 1.0 / math.log2(pos + 2)
        ideal = sum(
            1.0 / math.log2(r + 2) for r in range(min(k, len(truth)))
        )
        vals.append(dcg / ideal)
    return sum(vals) / len(vals)


def brute_js(a, b, bins, eps=1e-10):
    lo = min(min(a), min(b))
    hi = max(max(a), max(b))
    if lo == hi:
        return 0.0
    width = (hi - lo) / bins
    ca = [0] * bins
    cb = [0] * bins
    for x in a:
        ca[min(int((x - lo) / width), bins - 1)] += 1
    for x in b:
        cb[min(int((x - lo) / width), bins - 1)] += 1
    p = [c + eps for c in ca]
    q = [c + eps for c in cb]
    sp, sq = sum(p), sum(q)
    p = [x / sp for x in p]
    q = [x / sq for x in q]
    out = 0.0
    for x, y in zip(p, q):
        m = 0.5 * (x + y)
        out += 0.5 * x * math.log(x / m) + 0.5 * y * math.log(y / m)
    return out


# ---- reference evaluation: the full-matrix, per-user path -----------
#
# A verbatim copy of the evaluation code that scored every user against
# every item in one N x M matrix and looped over users in Python.  The
# blocked, vectorised `fairrank.evaluation` must reproduce its report
# text byte for byte.


@dataclass
class RefRanking:
    lists: list
    k: int
    exclude: str


def _ref_score_matrix(params):
    return params.user_factors @ params.item_matrix().T


def ref_rank_topk(params, dataset, k, exclude="train"):
    scores = _ref_score_matrix(params)
    m = dataset.num_items
    ids = np.arange(m)
    lists = []
    for u in range(dataset.num_users):
        s = scores[u].copy()
        s[dataset.train_pos[u]] = -np.inf
        if exclude == "train+val":
            s[dataset.val_pos[u]] = -np.inf
        eligible = int(np.isfinite(s).sum())
        take = min(k, eligible)
        order = np.lexsort((ids, -s))
        lists.append(order[:take].astype(np.int64))
    return RefRanking(lists, k, exclude)


def ref_prob_rsp(ranking, dataset, catalog, k):
    memb = catalog.memberships.astype(np.float64)
    num = np.zeros(catalog.num_groups)
    denom = dataset.num_users * catalog.item_counts.astype(np.float64)
    for u in range(dataset.num_users):
        num += memb[ranking.lists[u][:k]].sum(axis=0)
        denom -= memb[dataset.train_pos[u]].sum(axis=0)
    return num / denom


def ref_prob_reo(ranking, dataset, catalog, k):
    memb = catalog.memberships.astype(np.float64)
    num = np.zeros(catalog.num_groups)
    denom = np.zeros(catalog.num_groups)
    for u in range(dataset.num_users):
        top = ranking.lists[u][:k]
        if len(top):
            hits = top[dataset.in_test(np.full(len(top), u), top)]
            num += memb[hits].sum(axis=0)
        denom += memb[dataset.test_pos[u]].sum(axis=0)
    return num / denom


def ref_f1_at_k(ranking, dataset, k, split="test"):
    truth = dataset.test_pos if split == "test" else dataset.val_pos
    values = []
    for u in range(dataset.num_users):
        t = truth[u]
        if len(t) == 0:
            continue
        hits = int(np.isin(ranking.lists[u][:k], t).sum())
        p = hits / k
        r = hits / len(t)
        values.append(0.0 if p + r == 0 else 2 * p * r / (p + r))
    return float(np.mean(values))


def ref_ndcg_at_k(ranking, dataset, k):
    values = []
    for u in range(dataset.num_users):
        t = dataset.test_pos[u]
        if len(t) == 0:
            continue
        top = ranking.lists[u][:k]
        rel = np.isin(top, t).astype(np.float64)
        discounts = 1.0 / np.log2(np.arange(2, len(top) + 2))
        dcg = float((rel * discounts).sum())
        ideal = 1.0 / np.log2(np.arange(2, min(k, len(t)) + 2))
        values.append(dcg / ideal.sum())
    return float(np.mean(values))


def ref_js_divergence(samples_a, samples_b, bins=50):
    a = np.asarray(samples_a, dtype=np.float64).ravel()
    b = np.asarray(samples_b, dtype=np.float64).ravel()
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if lo == hi:
        return 0.0
    ca, _ = np.histogram(a, bins=bins, range=(lo, hi))
    cb, _ = np.histogram(b, bins=bins, range=(lo, hi))
    p = ca.astype(np.float64) + 1e-10
    q = cb.astype(np.float64) + 1e-10
    p /= p.sum()
    q /= q.sum()
    mid = 0.5 * (p + q)
    return float(
        0.5 * np.sum(p * np.log(p / mid)) + 0.5 * np.sum(q * np.log(q / mid))
    )


def ref_mean_js_value(counts, eps=1e-10):
    """_MeanJS.value as a loop over the pairs: row 2j of ``counts`` is
    pair j's first side, row 2j + 1 its second."""
    total = 0.0
    for pq in counts.reshape(-1, 2, counts.shape[1]):
        pq = pq + eps
        pq /= pq.sum(axis=1, keepdims=True)
        kl = (pq * np.log(pq / (0.5 * (pq[0] + pq[1])))).sum(axis=1)
        total += float(0.5 * kl[0] + 0.5 * kl[1])
    return total / (len(counts) // 2)


def _ref_eligible_scores(scores_row, train_items):
    mask = np.ones(scores_row.shape[0], dtype=bool)
    mask[train_items] = False
    return scores_row[mask]


def ref_user_divergence(params, dataset, sample_pairs=1000, seed=0):
    n = dataset.num_users
    scores = _ref_score_matrix(params)
    cache = {}

    def rep(u):
        if u not in cache:
            cache[u] = _ref_eligible_scores(scores[u], dataset.train_pos[u])
        return cache[u]

    total = 0.0
    count = 0
    rng = np.random.default_rng(seed)
    us = rng.integers(0, n, size=sample_pairs)
    vs = rng.integers(0, n, size=sample_pairs)
    clash = us == vs
    while clash.any():
        vs[clash] = rng.integers(0, n, size=int(clash.sum()))
        clash = us == vs
    for u, v in zip(us, vs):
        total += ref_js_divergence(rep(int(u)), rep(int(v)))
        count += 1
    return total / count


def ref_group_divergence(params, dataset, catalog, mode="all"):
    a_groups = catalog.num_groups
    scores = _ref_score_matrix(params)
    samples = []
    if mode == "all":
        elig = np.ones((dataset.num_users, dataset.num_items), dtype=bool)
        for u in range(dataset.num_users):
            elig[u, dataset.train_pos[u]] = False
        for a in range(a_groups):
            cols = catalog.memberships[:, a].astype(bool)
            samples.append(scores[:, cols][elig[:, cols]])
    else:
        for a in range(a_groups):
            cols = catalog.memberships[:, a].astype(bool)
            vals = []
            for u in range(dataset.num_users):
                t = dataset.test_pos[u]
                if len(t):
                    picked = t[cols[t]]
                    if len(picked):
                        vals.append(scores[u, picked])
            samples.append(
                np.concatenate(vals) if vals else np.empty(0)
            )
    total = 0.0
    count = 0
    for a in range(a_groups):
        for b in range(a + 1, a_groups):
            total += ref_js_divergence(samples[a], samples[b])
            count += 1
    return total / count


def _ref_all_split_pairs(dataset):
    pairs = [
        (u, int(i))
        for lists in (dataset.train_pos, dataset.val_pos, dataset.test_pos)
        for u, items in enumerate(lists)
        for i in items
    ]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def ref_group_ratio_stats(catalog, pairs):
    from fairrank.evaluation import relative_std

    memb = catalog.memberships.astype(np.float64)
    item_counts = catalog.item_counts.astype(np.float64)
    feedback = memb[np.asarray(pairs)[:, 1]].sum(axis=0)
    ratios = feedback / item_counts
    return item_counts, feedback, ratios, relative_std(ratios)


def ref_report_dict(report):
    """FairnessReport.to_dict as it was written field by field."""
    out = {
        "ks": list(report.ks),
        "group_names": list(report.group_names),
        "exclude": report.exclude,
        "group_probs": {
            "rsp": {str(k): list(v) for k, v in report.group_probs_rsp.items()},
            "reo": {str(k): list(v) for k, v in report.group_probs_reo.items()},
        },
        "js_user": report.js_user,
        "js_group_all": report.js_group_all,
        "js_group_pos": report.js_group_pos,
        "group_item_counts": list(report.group_item_counts),
        "group_feedback_counts": list(report.group_feedback_counts),
        "group_ratios": list(report.group_ratios),
        "ratio_relative_std": report.ratio_relative_std,
    }
    for k in report.ks:
        out[f"rsp@{k}"] = report.rsp[k]
        out[f"reo@{k}"] = report.reo[k]
        out[f"f1@{k}"] = report.f1[k]
        out[f"ndcg@{k}"] = report.ndcg[k]
    return out


def ref_report_tsv(report, model):
    """FairnessReport.to_tsv as it was written row by row."""
    lines = []
    for k in report.ks:
        lines.append(f"{k}\tf1\t{model}\t{report.f1[k]!r}")
        lines.append(f"{k}\tndcg\t{model}\t{report.ndcg[k]!r}")
        lines.append(f"{k}\trsp\t{model}\t{report.rsp[k]!r}")
        lines.append(f"{k}\treo\t{model}\t{report.reo[k]!r}")
    lines.append(f"-\tjs_user\t{model}\t{report.js_user!r}")
    lines.append(f"-\tjs_group_all\t{model}\t{report.js_group_all!r}")
    lines.append(f"-\tjs_group_pos\t{model}\t{report.js_group_pos!r}")
    return "\n".join(lines) + "\n"


def reference_evaluate_model(
    params, dataset, catalog, ks=(5, 10, 15), exclude="train+val",
    js_user_pairs=1000, js_seed=0,
):
    """The full-matrix evaluation, as a FairnessReport."""
    from fairrank.evaluation import FairnessReport, relative_std

    ks = sorted(int(k) for k in ks)
    ranking = ref_rank_topk(params, dataset, max(ks), exclude=exclude)
    probs_rsp, probs_reo, rsp, reo, f1, ndcg = {}, {}, {}, {}, {}, {}
    for k in ks:
        pr = ref_prob_rsp(ranking, dataset, catalog, k)
        pe = ref_prob_reo(ranking, dataset, catalog, k)
        probs_rsp[k] = [float(x) for x in pr]
        probs_reo[k] = [float(x) for x in pe]
        rsp[k] = relative_std(pr)
        reo[k] = relative_std(pe)
        f1[k] = ref_f1_at_k(ranking, dataset, k)
        ndcg[k] = ref_ndcg_at_k(ranking, dataset, k)
    item_counts, feedback, ratios, ratio_rsd = ref_group_ratio_stats(
        catalog, _ref_all_split_pairs(dataset)
    )
    return FairnessReport(
        ks=ks,
        group_names=list(catalog.group_names),
        exclude=exclude,
        group_probs_rsp=probs_rsp,
        group_probs_reo=probs_reo,
        rsp=rsp,
        reo=reo,
        f1=f1,
        ndcg=ndcg,
        js_user=ref_user_divergence(
            params, dataset, sample_pairs=js_user_pairs, seed=js_seed
        ),
        js_group_all=ref_group_divergence(params, dataset, catalog, "all"),
        js_group_pos=ref_group_divergence(
            params, dataset, catalog, "positive"
        ),
        group_item_counts=[int(x) for x in item_counts],
        group_feedback_counts=[int(x) for x in feedback],
        group_ratios=[float(x) for x in ratios],
        ratio_relative_std=float(ratio_rsd),
    )


# ---- split: the per-row Python grouping ------------------------------------


def ref_split(raw, ratios=(0.6, 0.2, 0.2), seed=0):
    """data.split as it grouped pairs with a loop over raw.pairs."""
    from fairrank.data import InteractionDataset
    from fairrank.errors import ConfigError

    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ConfigError("ratios: need three non-negative fractions")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios: must sum to 1, got {sum(ratios)}")
    rng = np.random.default_rng(seed)
    n_users, n_items = raw.num_users, raw.num_items
    per_user = [[] for _ in range(n_users)]
    for u, i in raw.pairs:
        per_user[u].append(i)
    train, val, test = [], [], []
    dropped = 0
    for u in range(n_users):
        items = np.array(per_user[u], dtype=np.int64)
        perm = rng.permutation(len(items))
        items = items[perm]
        # floor with epsilon so exact fractional products do not round down
        n_val = int(len(items) * ratios[1] + 1e-9)
        n_test = int(len(items) * ratios[2] + 1e-9)
        n_train = len(items) - n_val - n_test
        if n_train == 0:
            dropped += 1
            train.append(np.empty(0, dtype=np.int64))
            val.append(np.empty(0, dtype=np.int64))
            test.append(np.empty(0, dtype=np.int64))
            continue
        train.append(np.sort(items[:n_train]))
        val.append(np.sort(items[n_train : n_train + n_val]))
        test.append(np.sort(items[n_train + n_val :]))
    return InteractionDataset(
        n_users, n_items, train, val, test, raw.user_index, raw.item_index
    )


# ---- discriminator: the allocating forward/backward pass -----------------


def _ref_forward(psi, scores):
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


def ref_loglik_and_grads(psi, scores, labels):
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
    acts, pres, probs = _ref_forward(psi, scores)
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


# ---- the theta step's Adam and negative sampler, as first written -----------


def ref_adam_step(state, blocks, grads, lr):
    """mf.adam_step with a fancy-index gather and scatter per moment."""
    from fairrank.mf import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, (rows, g) in grads.items():
        g = np.asarray(g, dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for block '{name}'")
        sel = slice(None) if rows is None else rows
        k = t - state.last[name][sel]
        d1 = ADAM_BETA1 ** k
        d2 = ADAM_BETA2 ** k
        while d1.ndim < g.ndim:
            d1 = d1[..., None]
            d2 = d2[..., None]
        m = state.m[name]
        v = state.v[name]
        m[sel] = d1 * m[sel] + (1.0 - ADAM_BETA1) * g
        v[sel] = d2 * v[sel] + (1.0 - ADAM_BETA2) * g * g
        state.last[name][sel] = t
        mhat = m[sel] / bc1
        vhat = v[sel] / bc2
        blocks[name][sel] -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def ref_sample_neg_matrix(dataset, users, count, rng):
    """trainer._sample_neg_matrix re-querying every draw each round."""
    from fairrank.errors import DataError

    m = dataset.num_items
    uniq = np.unique(users)
    if (dataset.train_sizes[uniq] >= m).any():
        full = int(uniq[dataset.train_sizes[uniq] >= m][0])
        raise DataError(f"user {full} has no candidate negative items")
    out = rng.integers(0, m, size=(len(users), count))
    rep_users = np.repeat(users, count)
    bad = dataset.in_train(rep_users, out.ravel()).reshape(out.shape)
    while bad.any():
        out[bad] = rng.integers(0, m, size=int(bad.sum()))
        bad = dataset.in_train(rep_users, out.ravel()).reshape(out.shape)
    return out


# ---- data: the per-user synthetic draws and the line-scan loader ----------


def ref_generate_synthetic(spec):
    """data.generate_synthetic with one rng.choice call per user."""
    from fairrank.data import (
        GroupCatalog,
        RawInteractions,
        _allocate_counts,
    )
    from fairrank.errors import ConfigError

    spec.validate()
    counts = _allocate_counts(spec.group_item_shares, spec.num_items)
    if (counts < 1).any():
        raise ConfigError(
            "group_item_shares: every group needs at least one item"
        )
    item_group = np.repeat(np.arange(spec.num_groups), counts)
    memberships = np.zeros((spec.num_items, spec.num_groups), dtype=np.uint8)
    memberships[np.arange(spec.num_items), item_group] = 1
    weights = np.asarray(spec.group_popularity, dtype=np.float64)[item_group]
    p = weights / weights.sum()
    rng = np.random.default_rng(spec.seed)
    pairs = np.empty((spec.num_users * spec.interactions_per_user, 2), dtype=np.int64)
    k = spec.interactions_per_user
    for u in range(spec.num_users):
        items = rng.choice(spec.num_items, size=k, replace=False, p=p)
        pairs[u * k : (u + 1) * k, 0] = u
        pairs[u * k : (u + 1) * k, 1] = items
    raw = RawInteractions(
        pairs,
        {f"u{n}": n for n in range(spec.num_users)},
        {f"i{m}": m for m in range(spec.num_items)},
    )
    catalog = GroupCatalog(
        [f"g{a}" for a in range(spec.num_groups)], memberships
    )
    return raw, catalog


def _ref_read_rows(path, expected_header):
    import csv
    from pathlib import Path

    from fairrank.errors import DataError

    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != expected_header:
            raise DataError(
                f"{path}: expected header '{','.join(expected_header)}'"
            )
        # the line each row starts on: a quoted cell may span lines
        lineno = reader.line_num + 1
        for row in reader:
            if len(row) != len(expected_header):
                raise DataError(
                    f"{path}:{lineno}: expected {len(expected_header)} "
                    f"columns, got {len(row)}"
                )
            cells = [c.strip() for c in row]
            if any(not c for c in cells):
                raise DataError(f"{path}:{lineno}: empty field")
            yield lineno, cells
            lineno = reader.line_num + 1


def ref_load_interactions(path):
    """data.load_interactions as a csv.reader line scan with a seen set."""
    from fairrank.data import RawInteractions
    from fairrank.errors import DataError

    user_index, item_index = {}, {}
    seen = set()
    pairs = []
    for _, (u_raw, i_raw) in _ref_read_rows(path, ["user_id", "item_id"]):
        u = user_index.setdefault(u_raw, len(user_index))
        i = item_index.setdefault(i_raw, len(item_index))
        if (u, i) not in seen:
            seen.add((u, i))
            pairs.append((u, i))
    if not pairs:
        raise DataError(f"{path}: empty dataset")
    return RawInteractions(
        np.array(pairs, dtype=np.int64), user_index, item_index
    )


# ---- loss terms: the scalar pair and per-user forms, as first written -------


def ref_bpr_pair_loss(score_pos, score_neg):
    """-ln sigma(score_pos - score_neg); returns (loss, d_pos, d_neg)."""
    d = score_pos - score_neg
    loss = np.logaddexp(0.0, -d)
    g_pos = -sigmoid(-d)  # equals sigma(d) - 1
    return float(loss), float(g_pos), float(-g_pos)


def ref_kl_loss_user(scores):
    """Moment-matched KL(Normal(mean, var) || Normal(0, 1)) of one user's
    batch scores: (mean^2 + var - 1)/2 - ln(var)/2 with population variance.

    Fewer than two scores contributes nothing.  The variance is floored at
    1e-8; in the floored regime the gradient flows through the mean only.

    Returns:
        (loss, grad) with grad shaped like scores.
    """
    from fairrank.objectives import KL_VAR_FLOOR

    s = np.asarray(scores, dtype=np.float64)
    n = s.size
    if n < 2:
        return 0.0, np.zeros_like(s)
    mu = s.mean()
    var = s.var()
    if var < KL_VAR_FLOOR:
        loss = (mu * mu + KL_VAR_FLOOR - 1.0) / 2.0 - 0.5 * np.log(KL_VAR_FLOOR)
        grad = np.full_like(s, mu / n)
        return float(loss), grad
    loss = (mu * mu + var - 1.0) / 2.0 - 0.5 * np.log(var)
    grad = mu / n + (1.0 - 1.0 / var) * (s - mu) / n
    return float(loss), grad
