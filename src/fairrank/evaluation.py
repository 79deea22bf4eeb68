"""Top-k ranking, accuracy metrics, fairness probabilities, divergences.

All metrics work on a RankingResult: per-user top-k item lists ordered by
score descending with ties broken by ascending item id.
"""

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .data import _flatten
from .errors import DataError

log = logging.getLogger(__name__)

JS_BINS = 50
JS_EPS = 1e-10

EXCLUDE_TRAIN = "train"
EXCLUDE_TRAIN_VAL = "train+val"


@dataclass
class RankingResult:
    """Per-user ranked item lists.

    lists[u] holds up to k item ids; shorter when the user has fewer
    eligible items than k.
    """

    lists: list
    k: int
    exclude: str


def _score_matrix(params):
    return params.user_factors @ params.item_matrix().T


def rank_topk(params, dataset, k, exclude=EXCLUDE_TRAIN):
    """Top-k items per user, excluded items masked out.

    Args:
        params: MfParams.
        dataset: InteractionDataset matching the model dimensions.
        k: list length, >= 1.
        exclude: "train" or "train+val"; masked items never appear.

    Returns:
        RankingResult.  Ordering is score descending, item id ascending on
        ties.  Users with fewer than k eligible items get shorter lists
        (counted in a log line).
    """
    if k < 1:
        raise ValueError("k: must be >= 1")
    if exclude not in (EXCLUDE_TRAIN, EXCLUDE_TRAIN_VAL):
        raise ValueError(f"exclude: unknown mode '{exclude}'")
    if (
        params.num_users != dataset.num_users
        or params.num_items != dataset.num_items
    ):
        raise DataError(
            "parameter dimensions do not match dataset "
            f"({params.num_users}x{params.num_items} vs "
            f"{dataset.num_users}x{dataset.num_items})"
        )
    scores = _score_matrix(params)
    m = dataset.num_items
    ids = np.arange(m)
    lists = []
    short = 0
    for u in range(dataset.num_users):
        s = scores[u].copy()
        s[dataset.train_pos[u]] = -np.inf
        if exclude == EXCLUDE_TRAIN_VAL:
            s[dataset.val_pos[u]] = -np.inf
        eligible = int(np.isfinite(s).sum())
        take = min(k, eligible)
        if eligible < k:
            short += 1
        order = np.lexsort((ids, -s))
        lists.append(order[:take].astype(np.int64))
    if short:
        log.info("rank_topk: %d users had fewer than k=%d eligible items", short, k)
    return RankingResult(lists, k, exclude)


def prob_rsp(ranking, dataset, catalog, k=None):
    """Per-group probability of ranking a non-interacted item into the top-k.

    Numerator: group memberships summed over every ranked item.  Denominator:
    group memberships summed over each user's non-training items (train-only,
    regardless of how the ranking was masked).

    Returns:
        (A,) array of probabilities.

    Raises:
        DataError: if some group has no eligible items in the denominator.
    """
    k = ranking.k if k is None else k
    if k > ranking.k:
        raise ValueError(f"k={k} exceeds ranking depth {ranking.k}")
    memb = catalog.memberships.astype(np.float64)
    num = np.zeros(catalog.num_groups)
    denom = dataset.num_users * catalog.item_counts.astype(np.float64)
    for u in range(dataset.num_users):
        num += memb[ranking.lists[u][:k]].sum(axis=0)
        denom -= memb[dataset.train_pos[u]].sum(axis=0)
    if (denom <= 0).any():
        bad = catalog.group_names[int(np.argmin(denom))]
        raise DataError(f"group '{bad}' has no eligible items")
    return num / denom


def prob_reo(ranking, dataset, catalog, k=None):
    """Per-group probability of ranking a liked test item into the top-k
    (group-wise recall@k).

    Returns:
        (A,) array of probabilities.

    Raises:
        DataError: if some group has no test positives.
    """
    k = ranking.k if k is None else k
    if k > ranking.k:
        raise ValueError(f"k={k} exceeds ranking depth {ranking.k}")
    memb = catalog.memberships.astype(np.float64)
    num = np.zeros(catalog.num_groups)
    denom = np.zeros(catalog.num_groups)
    for u in range(dataset.num_users):
        top = ranking.lists[u][:k]
        if len(top):
            hits = top[dataset.in_test(np.full(len(top), u), top)]
            num += memb[hits].sum(axis=0)
        denom += memb[dataset.test_pos[u]].sum(axis=0)
    if (denom <= 0).any():
        bad = catalog.group_names[int(np.argmin(denom))]
        raise DataError(f"group '{bad}' has no test positives")
    return num / denom


def relative_std(values):
    """Population standard deviation divided by the mean."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("relative_std: empty input")
    mean = v.mean()
    if mean == 0.0:
        raise ValueError("relative_std: undefined for zero mean")
    return float(v.std() / mean)


def f1_at_k(ranking, dataset, k=None, split="test"):
    """Mean per-user F1@k against held-out positives.

    Precision divides by k, recall by the user's held-out count; users with
    an empty held-out set are skipped.
    """
    k = ranking.k if k is None else k
    if k > ranking.k:
        raise ValueError(f"k={k} exceeds ranking depth {ranking.k}")
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
    if not values:
        raise DataError(f"f1_at_k: no user has {split} items")
    return float(np.mean(values))


def ndcg_at_k(ranking, dataset, k=None):
    """Mean per-user NDCG@k with binary relevance and log2 discount."""
    k = ranking.k if k is None else k
    if k > ranking.k:
        raise ValueError(f"k={k} exceeds ranking depth {ranking.k}")
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
    if not values:
        raise DataError("ndcg_at_k: no user has test items")
    return float(np.mean(values))


def js_divergence(samples_a, samples_b, bins=JS_BINS):
    """Jensen-Shannon divergence between two score samples.

    Both samples are histogrammed over their joint min..max range with
    equal-width bins and add-eps smoothing; natural log, so the value lies
    in [0, ln 2].  A degenerate joint range returns 0.
    """
    a = np.asarray(samples_a, dtype=np.float64).ravel()
    b = np.asarray(samples_b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("js_divergence: empty sample")
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if lo == hi:
        return 0.0
    ca, _ = np.histogram(a, bins=bins, range=(lo, hi))
    cb, _ = np.histogram(b, bins=bins, range=(lo, hi))
    p = ca.astype(np.float64) + JS_EPS
    q = cb.astype(np.float64) + JS_EPS
    p /= p.sum()
    q /= q.sum()
    mid = 0.5 * (p + q)
    return float(
        0.5 * np.sum(p * np.log(p / mid)) + 0.5 * np.sum(q * np.log(q / mid))
    )


def _eligible_scores(scores_row, train_items):
    mask = np.ones(scores_row.shape[0], dtype=bool)
    mask[train_items] = False
    return scores_row[mask]


def user_divergence(
    params, dataset, sample_pairs=1000, seed=0, bins=JS_BINS, all_pairs=False
):
    """Mean JS divergence between sampled user pairs' score distributions.

    Each user is represented by their scores over non-training items.

    Args:
        sample_pairs: number of (u, v) pairs drawn uniformly with u != v.
        all_pairs: exhaustively average over all unordered pairs instead.
    """
    n = dataset.num_users
    if n < 2:
        raise DataError("user_divergence: need at least two users")
    scores = _score_matrix(params)
    cache = {}

    def rep(u):
        if u not in cache:
            cache[u] = _eligible_scores(scores[u], dataset.train_pos[u])
        return cache[u]

    total = 0.0
    count = 0
    if all_pairs:
        for u in range(n):
            for v in range(u + 1, n):
                total += js_divergence(rep(u), rep(v), bins=bins)
                count += 1
    else:
        rng = np.random.default_rng(seed)
        us = rng.integers(0, n, size=sample_pairs)
        vs = rng.integers(0, n, size=sample_pairs)
        clash = us == vs
        while clash.any():
            vs[clash] = rng.integers(0, n, size=int(clash.sum()))
            clash = us == vs
        for u, v in zip(us, vs):
            total += js_divergence(rep(int(u)), rep(int(v)), bins=bins)
            count += 1
    return total / count


def group_divergence(params, dataset, catalog, mode="all", bins=JS_BINS):
    """Mean pairwise JS divergence between per-group score samples.

    mode "all": each group is represented by the scores of every (user,
    item) pair with the item in the group and outside the user's training
    positives.  mode "positive": only test-set pairs.
    """
    if mode not in ("all", "positive"):
        raise ValueError(f"mode: unknown '{mode}'")
    a_groups = catalog.num_groups
    if a_groups < 2:
        raise DataError("group_divergence: need at least two groups")
    scores = _score_matrix(params)
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
    for a, s in enumerate(samples):
        if s.size == 0:
            raise DataError(
                f"group '{catalog.group_names[a]}' has no scores in mode "
                f"'{mode}'"
            )
    total = 0.0
    count = 0
    for a in range(a_groups):
        for b in range(a + 1, a_groups):
            total += js_divergence(samples[a], samples[b], bins=bins)
            count += 1
    return total / count


def group_ratio_stats(catalog, pairs):
    """Per-group item counts, feedback counts, and feedback/item ratios.

    Args:
        pairs: (P, 2) dense interaction pairs (typically the full dataset).

    Returns:
        (item_counts, feedback_counts, ratios, ratio_relative_std)
    """
    memb = catalog.memberships.astype(np.float64)
    item_counts = catalog.item_counts.astype(np.float64)
    if (item_counts == 0).any():
        bad = catalog.group_names[int(np.argmin(item_counts))]
        raise DataError(f"group '{bad}' has no items")
    feedback = memb[np.asarray(pairs)[:, 1]].sum(axis=0)
    ratios = feedback / item_counts
    return item_counts, feedback, ratios, relative_std(ratios)


@dataclass
class FairnessReport:
    """Aggregated accuracy and fairness metrics of one model.

    Serializes to JSON with flat per-k keys (``rsp@5`` etc.) plus the
    per-group probability table under ``group_probs``.
    """

    ks: list
    group_names: list
    exclude: str
    group_probs_rsp: dict
    group_probs_reo: dict
    rsp: dict
    reo: dict
    f1: dict
    ndcg: dict
    js_user: float
    js_group_all: float
    js_group_pos: float
    group_item_counts: list = field(default_factory=list)
    group_feedback_counts: list = field(default_factory=list)
    group_ratios: list = field(default_factory=list)
    ratio_relative_std: float = float("nan")

    def to_dict(self):
        out = {
            "ks": list(self.ks),
            "group_names": list(self.group_names),
            "exclude": self.exclude,
            "group_probs": {
                "rsp": {str(k): list(v) for k, v in self.group_probs_rsp.items()},
                "reo": {str(k): list(v) for k, v in self.group_probs_reo.items()},
            },
            "js_user": self.js_user,
            "js_group_all": self.js_group_all,
            "js_group_pos": self.js_group_pos,
            "group_item_counts": list(self.group_item_counts),
            "group_feedback_counts": list(self.group_feedback_counts),
            "group_ratios": list(self.group_ratios),
            "ratio_relative_std": self.ratio_relative_std,
        }
        for k in self.ks:
            out[f"rsp@{k}"] = self.rsp[k]
            out[f"reo@{k}"] = self.reo[k]
            out[f"f1@{k}"] = self.f1[k]
            out[f"ndcg@{k}"] = self.ndcg[k]
        return out

    @classmethod
    def from_dict(cls, d):
        ks = [int(k) for k in d["ks"]]
        return cls(
            ks=ks,
            group_names=list(d["group_names"]),
            exclude=d["exclude"],
            group_probs_rsp={
                int(k): list(v) for k, v in d["group_probs"]["rsp"].items()
            },
            group_probs_reo={
                int(k): list(v) for k, v in d["group_probs"]["reo"].items()
            },
            rsp={k: d[f"rsp@{k}"] for k in ks},
            reo={k: d[f"reo@{k}"] for k in ks},
            f1={k: d[f"f1@{k}"] for k in ks},
            ndcg={k: d[f"ndcg@{k}"] for k in ks},
            js_user=d["js_user"],
            js_group_all=d["js_group_all"],
            js_group_pos=d["js_group_pos"],
            group_item_counts=list(d["group_item_counts"]),
            group_feedback_counts=list(d["group_feedback_counts"]),
            group_ratios=list(d["group_ratios"]),
            ratio_relative_std=d["ratio_relative_std"],
        )

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def to_tsv(self, model):
        """Plot-ready rows: k<TAB>metric<TAB>model<TAB>value."""
        lines = []
        for k in self.ks:
            lines.append(f"{k}\tf1\t{model}\t{self.f1[k]!r}")
            lines.append(f"{k}\tndcg\t{model}\t{self.ndcg[k]!r}")
            lines.append(f"{k}\trsp\t{model}\t{self.rsp[k]!r}")
            lines.append(f"{k}\treo\t{model}\t{self.reo[k]!r}")
        lines.append(f"-\tjs_user\t{model}\t{self.js_user!r}")
        lines.append(f"-\tjs_group_all\t{model}\t{self.js_group_all!r}")
        lines.append(f"-\tjs_group_pos\t{model}\t{self.js_group_pos!r}")
        return "\n".join(lines) + "\n"


def _all_split_pairs(dataset):
    """Recombine train/val/test into one (P, 2) dense pair array."""
    return np.concatenate(
        [
            np.stack(_flatten(lists), axis=1)
            for lists in (dataset.train_pos, dataset.val_pos, dataset.test_pos)
        ]
    )


def evaluate_model(
    params,
    dataset,
    catalog,
    ks=(5, 10, 15),
    exclude=EXCLUDE_TRAIN_VAL,
    js_user_pairs=1000,
    js_seed=0,
):
    """Full evaluation of a trained model into a FairnessReport."""
    ks = sorted(int(k) for k in ks)
    ranking = rank_topk(params, dataset, max(ks), exclude=exclude)
    probs_rsp, probs_reo, rsp, reo, f1, ndcg = {}, {}, {}, {}, {}, {}
    for k in ks:
        pr = prob_rsp(ranking, dataset, catalog, k=k)
        pe = prob_reo(ranking, dataset, catalog, k=k)
        probs_rsp[k] = [float(x) for x in pr]
        probs_reo[k] = [float(x) for x in pe]
        rsp[k] = relative_std(pr)
        reo[k] = relative_std(pe)
        f1[k] = f1_at_k(ranking, dataset, k=k)
        ndcg[k] = ndcg_at_k(ranking, dataset, k=k)
    item_counts, feedback, ratios, ratio_rsd = group_ratio_stats(
        catalog, _all_split_pairs(dataset)
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
        js_user=user_divergence(
            params, dataset, sample_pairs=js_user_pairs, seed=js_seed
        ),
        js_group_all=group_divergence(params, dataset, catalog, mode="all"),
        js_group_pos=group_divergence(
            params, dataset, catalog, mode="positive"
        ),
        group_item_counts=[int(x) for x in item_counts],
        group_feedback_counts=[int(x) for x in feedback],
        group_ratios=[float(x) for x in ratios],
        ratio_relative_std=float(ratio_rsd),
    )
