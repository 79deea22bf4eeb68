"""Top-k ranking, accuracy metrics, fairness probabilities, divergences.

All metrics work on a RankingResult: per-user top-k item lists ordered by
score descending with ties broken by ascending item id.  Scores are made
BLOCK_ROWS users at a time: memory is O(BLOCK_ROWS * M), never N x M.
"""

import json
import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

JS_BINS = 50
JS_EPS = 1e-10

EXCLUDE_TRAIN = "train"
EXCLUDE_TRAIN_VAL = "train+val"

BLOCK_ROWS = 2048


@dataclass
class RankingResult:
    """Ranked lists: items[u, :lengths[u]] is user u's, the rest of the
    (N, min(k, M)) row is -1.  Shorter than k when u has fewer eligible items."""

    items: np.ndarray
    lengths: np.ndarray
    k: int
    exclude: str

    @cached_property
    def lists(self):
        """Per-user views items[u, :lengths[u]]."""
        return [row[:n] for row, n in zip(self.items, self.lengths)]


def _score_matrix(params, users=slice(None), out=None):
    """``users``' scores, in the leading rows of ``out`` when given."""
    u = params.user_factors[users]
    rows = None if out is None else out[: len(u)]
    return np.matmul(u, params.item_matrix().T, out=rows)


def _blocks(n):
    """[lo, hi) user ranges of BLOCK_ROWS rows.  A one-row tail joins the
    block before it: BLAS scores one row with gemv, which rounds unlike gemm."""
    edges = list(range(0, max(n - 1, 1), BLOCK_ROWS)) + [n]
    return zip(edges[:-1], edges[1:])


def _set_pairs(block, lo, hi, users, items, value):
    """Set users lo..hi-1's pairs of the user-major (users, items) arrays."""
    s, e = np.searchsorted(users, (lo, hi))
    block[users[s:e] - lo, items[s:e]] = value


def _get_pairs(block, lo, hi, users, items, out):
    """Copy users lo..hi-1's pairs into their slots of ``out``, which runs
    parallel to the user-major (users, items) arrays."""
    s, e = np.searchsorted(users, (lo, hi))
    out[s:e] = block[users[s:e] - lo, items[s:e]]


def _block_buffer(dataset):
    """Room for the largest block's scores (a merged tail adds one row)."""
    return np.empty((min(dataset.num_users, BLOCK_ROWS + 1), dataset.num_items))


def _train_nan_blocks(params, dataset, buf):
    """(lo, hi, scores) per block, scored into ``buf``, NaN on training pairs."""
    for lo, hi in _blocks(dataset.num_users):
        block = _score_matrix(params, slice(lo, hi), out=buf)
        _set_pairs(block, lo, hi, dataset.pos_users, dataset.pos_items, np.nan)
        yield lo, hi, block


def rank_topk(params, dataset, k, exclude=EXCLUDE_TRAIN, *, on_block=None):
    """Top-k items per user, excluded items masked out.

    Args:
        params: MfParams.
        dataset: InteractionDataset matching the model dimensions.
        k: list length, >= 1.
        exclude: "train" or "train+val"; masked items never appear.
        on_block: optional ``on_block(lo, hi, scores)``, called once per
            block with users lo..hi-1's (hi - lo, M) scores, training pairs
            NaN, before any masking.  It must only read: ``scores`` is a
            reused buffer that the next block overwrites.

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
    masked = [(dataset.pos_users, dataset.pos_items)]
    if exclude == EXCLUDE_TRAIN_VAL:
        masked.append((dataset.val_users, dataset.val_items))
    n = dataset.num_users
    depth = min(k, dataset.num_items) - 1
    items = np.full((n, depth + 1), -1, dtype=np.int64)
    lengths = np.empty(n, dtype=np.int64)
    buf = _block_buffer(dataset)
    work = np.empty_like(buf)
    for lo, hi, scores in _train_nan_blocks(params, dataset, buf):
        if on_block is not None:
            on_block(lo, hi, scores)
        for users, cols in masked:
            _set_pairs(scores, lo, hi, users, cols, -np.inf)
        # the key is -score; partition sorts NaN last, like a full sort
        part = np.negative(scores, out=work[: hi - lo])
        part.partition(depth, axis=1)
        # rows whose depth + 1 smallest keys are finite have a full list;
        # only the others need their finite scores counted
        take = np.full(hi - lo, depth + 1)
        few = ~np.isfinite(part[:, : depth + 1]).all(axis=1)
        take[few] = np.minimum(np.isfinite(scores[few]).sum(axis=1), k)
        lengths[lo:hi] = take
        kth = np.nan_to_num(part[:, depth], nan=np.inf)
        # key <= kth, with both sides negated; flat indices are C order
        hit = np.flatnonzero(scores >= -kth[:, None])
        rows, cols = np.divmod(hit, dataset.num_items)
        order = np.lexsort((cols, -scores[rows, cols], rows))
        cols = cols[order]  # rows, the first key, is already sorted
        rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
        keep = rank < take[rows]
        items[lo + rows[keep], rank[keep]] = cols[keep]
    short = int((lengths < k).sum())
    if short:
        log.info("rank_topk: %d users had fewer than k=%d eligible items", short, k)
    return RankingResult(items, lengths, k, exclude)


def _top(ranking, k):
    k = ranking.k if k is None else k
    if k > ranking.k:
        raise ValueError(f"k={k} exceeds ranking depth {ranking.k}")
    return k, ranking.items[:, :k]


def _hits(dataset, top, split="test"):
    """(N, k) bool: ranked item is a held-out ``split`` positive (not padding)."""
    users = np.arange(len(top))[:, None]
    member = dataset.in_test if split == "test" else dataset.in_val
    found = member(users, top)
    return found & (top >= 0)


def _group_sums(items, catalog):
    """Group memberships summed over ``items``; integer-valued, exact."""
    counts = np.bincount(items, minlength=catalog.num_items)
    return (counts @ catalog.memberships).astype(np.float64)


def _group_probs(ranked, denom, catalog, what):
    if (denom <= 0).any():
        bad = catalog.group_names[int(np.argmin(denom))]
        raise DataError(f"group '{bad}' has no {what}")
    return _group_sums(ranked, catalog) / denom


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
    k, top = _top(ranking, k)
    denom = dataset.num_users * catalog.item_counts.astype(np.float64)
    denom -= _group_sums(dataset.pos_items, catalog)
    return _group_probs(top[top >= 0], denom, catalog, "eligible items")


def prob_reo(ranking, dataset, catalog, k=None):
    """Per-group probability of ranking a liked test item into the top-k
    (group-wise recall@k).

    Returns:
        (A,) array of probabilities.

    Raises:
        DataError: if some group has no test positives.
    """
    k, top = _top(ranking, k)
    denom = _group_sums(dataset.test_items, catalog)
    return _group_probs(top[_hits(dataset, top)], denom, catalog, "test positives")


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
    an empty held-out set are skipped.  ``split`` is "test" or "val".
    """
    if split not in ("test", "val"):
        raise ValueError(f"split: must be 'test' or 'val', got '{split}'")
    k, top = _top(ranking, k)
    truth = dataset.test_pos if split == "test" else dataset.val_pos
    sizes = np.array([len(t) for t in truth])
    has = sizes > 0
    if not has.any():
        raise DataError(f"f1_at_k: no user has {split} items")
    hits = _hits(dataset, top, split).sum(axis=1)[has]
    p = hits / k
    r = hits / sizes[has]
    values = np.divide(2 * p * r, p + r, out=np.zeros_like(p), where=p + r != 0)
    return float(np.mean(values))


def ndcg_at_k(ranking, dataset, k=None):
    """Mean per-user NDCG@k with binary relevance and log2 discount."""
    k, top = _top(ranking, k)
    sizes = np.array([len(t) for t in dataset.test_pos])
    has = sizes > 0
    if not has.any():
        raise DataError("ndcg_at_k: no user has test items")
    rel = _hits(dataset, top)[has].astype(np.float64)
    lengths = np.minimum(ranking.lengths[has], k)
    ideal_len = np.minimum(sizes[has], k)
    dcg, ideal = np.empty((2, len(rel)))
    # each user's DCG sums exactly that user's list, as a row of its own
    # length: zero padding would change numpy's pairwise summation order
    for n in np.unique(np.concatenate((lengths, ideal_len))):
        discounts = 1.0 / np.log2(np.arange(2, n + 2))
        rows = lengths == n
        dcg[rows] = (rel[rows, :n] * discounts).sum(axis=1)
        ideal[ideal_len == n] = discounts.sum()
    return float(np.mean(dcg / ideal))


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
    return _js_from_counts(ca, cb)


def _js_from_counts(ca, cb):
    """JS divergence of two histograms over the same bins."""
    p = ca.astype(np.float64) + JS_EPS
    q = cb.astype(np.float64) + JS_EPS
    p /= p.sum()
    q /= q.sum()
    mid = 0.5 * (p + q)
    return float(
        0.5 * np.sum(p * np.log(p / mid)) + 0.5 * np.sum(q * np.log(q / mid))
    )


def user_divergence(params, dataset, sample_pairs=1000, seed=0, bins=JS_BINS):
    """Mean JS divergence between sampled user pairs' score distributions.

    ``sample_pairs`` (u, v) pairs are drawn uniformly with u != v.  Each user
    is represented by their scores over non-training items; only sampled
    users are scored.
    """
    n = dataset.num_users
    if n < 2:
        raise DataError("user_divergence: need at least two users")
    if sample_pairs < 1:
        raise ValueError("sample_pairs: must be >= 1")
    rng = np.random.default_rng(seed)
    us = rng.integers(0, n, size=sample_pairs)
    vs = rng.integers(0, n, size=sample_pairs)
    clash = us == vs
    while clash.any():
        vs[clash] = rng.integers(0, n, size=int(clash.sum()))
        clash = us == vs
    # u != v, so at least two rows are scored: never a gemv row
    users = np.unique(np.concatenate((us, vs)))
    full = users[dataset.train_sizes[users] >= dataset.num_items]
    if len(full):
        raise DataError(
            f"user_divergence: user {int(full[0])} has no non-training items"
        )
    rows = dict(zip(users.tolist(), _score_matrix(params, users)))

    def rep(u):
        # made per pair: a copy of every row at once would double the peak
        return np.delete(rows[u], dataset.train_pos[u])

    total = 0.0
    for u, v in zip(us.tolist(), vs.tolist()):
        total += js_divergence(rep(u), rep(v), bins=bins)
    return total / sample_pairs


def _group_members(catalog, items=slice(None)):
    """Per group, the positions in ``items`` (default: every item) of the
    items in that group."""
    in_group = catalog.memberships.astype(bool)[items]
    return [np.flatnonzero(in_group[:, a]) for a in range(catalog.num_groups)]


class _GroupJS:
    """Mean pairwise JS divergence between per-group score samples, fed a
    block at a time; ``cols[a]`` picks group a's columns of every block.

    Blocks are read twice: by ``widen`` for each group's min and max (NaN
    skipped), then by ``divergence`` for histogram counts over each group
    pair's joint range; the bin rule is per value, so counts add up.
    """

    def __init__(self, cols, catalog, mode, bins=JS_BINS):
        self.cols = cols
        self.names = catalog.group_names
        self.mode = mode
        self.bins = bins
        self.lo = np.full(len(cols), np.inf)
        self.hi = np.full(len(cols), -np.inf)

    def widen(self, x):
        x_lo = np.fmin.reduce(x, axis=0, initial=np.inf)
        x_hi = np.fmax.reduce(x, axis=0, initial=-np.inf)
        for a, c in enumerate(self.cols):
            self.lo[a] = np.fmin.reduce(x_lo[c], initial=self.lo[a])
            self.hi[a] = np.fmax.reduce(x_hi[c], initial=self.hi[a])

    def divergence(self, blocks, rows):
        """JS mean over a second read of the widened blocks, each at most
        ``rows`` rows."""
        if len(self.cols) < 2:
            raise DataError("group_divergence: need at least two groups")
        lo, hi = self.lo, self.hi
        if (lo > hi).any():
            bad = self.names[int(np.argmax(lo > hi))]
            raise DataError(f"group '{bad}' has no scores in mode '{self.mode}'")
        n = len(self.cols)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        ranges = [(min(lo[a], lo[b]), max(hi[a], hi[b])) for a, b in pairs]
        counts = {(a, r): 0 for p, r in zip(pairs, ranges) for a in p}
        work = np.empty(rows * max(len(c) for c in self.cols))
        own = [[r for b, r in counts if b == a] for a in range(n)]
        for x in blocks:
            for a, c in enumerate(self.cols):
                part = work[: len(x) * len(c)].reshape(len(x), len(c))
                # with out=, mode="raise" would copy through a bounce buffer
                np.take(x, c, axis=1, out=part, mode="clip")
                for r in own[a]:
                    counts[a, r] += np.histogram(part, self.bins, r)[0]
        js = [
            0.0 if r[0] == r[1] else _js_from_counts(counts[a, r], counts[b, r])
            for (a, b), r in zip(pairs, ranges)
        ]
        return sum(js) / len(js)


def _all_divergence(js, params, dataset, buf):
    """Finish mode "all" once ``js`` has widened over every block: score
    each block into ``buf`` again, for the counts."""
    blocks = (block for _, _, block in _train_nan_blocks(params, dataset, buf))
    return js.divergence(blocks, len(buf))


def _positive_divergence(scores, items, catalog, bins=JS_BINS):
    """Mode "positive" from the test pairs' ``scores`` and ``items``."""
    js = _GroupJS(_group_members(catalog, items), catalog, "positive", bins)
    js.widen(scores[None])
    return js.divergence([scores[None]], 1)


def group_divergence(params, dataset, catalog, mode="all", bins=JS_BINS):
    """Mean pairwise JS divergence between per-group score samples.

    mode "all": each group is represented by the scores of every (user,
    item) pair with the item in the group and outside the user's training
    positives.  mode "positive": only test-set pairs.
    """
    if mode not in ("all", "positive"):
        raise ValueError(f"mode: unknown '{mode}'")
    buf = _block_buffer(dataset)
    if mode == "all":
        js = _GroupJS(_group_members(catalog), catalog, mode, bins)
        for _, _, block in _train_nan_blocks(params, dataset, buf):
            js.widen(block)
        return _all_divergence(js, params, dataset, buf)
    users, items = dataset.test_users, dataset.test_items
    scores = np.empty(len(items))
    for lo, hi, block in _train_nan_blocks(params, dataset, buf):
        _get_pairs(block, lo, hi, users, items, scores)
    return _positive_divergence(scores, items, catalog, bins)


def group_ratio_stats(catalog, pairs):
    """Per-group item counts, feedback counts, and feedback/item ratios.

    Args:
        pairs: (P, 2) dense interaction pairs (typically the full dataset).

    Returns:
        (item_counts, feedback_counts, ratios, ratio_relative_std)
    """
    item_counts = catalog.item_counts.astype(np.float64)
    if (item_counts == 0).any():
        bad = catalog.group_names[int(np.argmin(item_counts))]
        raise DataError(f"group '{bad}' has no items")
    feedback = _group_sums(np.asarray(pairs)[:, 1], catalog)
    ratios = feedback / item_counts
    return item_counts, feedback, ratios, relative_std(ratios)


# per-k metrics in report.tsv row order, then the scalar and per-group fields
_PER_K_FIELDS = ("f1", "ndcg", "rsp", "reo")
_JS_FIELDS = ("js_user", "js_group_all", "js_group_pos")
_GROUP_FIELDS = ("group_item_counts", "group_feedback_counts", "group_ratios")


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
            "ratio_relative_std": self.ratio_relative_std,
            "group_probs": {
                m: {str(k): list(v) for k, v in getattr(self, f"group_probs_{m}").items()}
                for m in ("rsp", "reo")
            },
        }
        out.update({name: getattr(self, name) for name in _JS_FIELDS})
        out.update({name: list(getattr(self, name)) for name in _GROUP_FIELDS})
        for k in self.ks:
            out.update({f"{m}@{k}": getattr(self, m)[k] for m in _PER_K_FIELDS})
        return out

    @classmethod
    def from_dict(cls, d):
        ks = [int(k) for k in d["ks"]]
        return cls(
            ks=ks,
            group_names=list(d["group_names"]),
            exclude=d["exclude"],
            ratio_relative_std=d["ratio_relative_std"],
            **{
                f"group_probs_{m}": {
                    int(k): list(v) for k, v in d["group_probs"][m].items()
                }
                for m in ("rsp", "reo")
            },
            **{m: {k: d[f"{m}@{k}"] for k in ks} for m in _PER_K_FIELDS},
            **{name: d[name] for name in _JS_FIELDS},
            **{name: list(d[name]) for name in _GROUP_FIELDS},
        )

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def to_tsv(self, model):
        """Plot-ready rows: k<TAB>metric<TAB>model<TAB>value."""
        rows = [(k, m, getattr(self, m)[k]) for k in self.ks for m in _PER_K_FIELDS]
        rows += [("-", n, getattr(self, n)) for n in _JS_FIELDS]
        return "".join(f"{k}\t{m}\t{model}\t{v!r}\n" for k, m, v in rows)


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
    # the ranking's blocks also feed mode "all"'s ranges and the test-pair
    # scores; only mode "all"'s counts need a second pass
    js_all = _GroupJS(_group_members(catalog), catalog, "all")
    test_users, test_items = dataset.test_users, dataset.test_items
    test_scores = np.empty(len(test_items))
    largest = []

    def on_block(lo, hi, scores):
        js_all.widen(scores)
        _get_pairs(scores, lo, hi, test_users, test_items, test_scores)
        if not largest or len(scores) > len(largest[0]):
            largest[:] = [scores]  # the second pass reuses its buffer

    ranking = rank_topk(
        params, dataset, max(ks), exclude=exclude, on_block=on_block
    )
    rsp = {k: prob_rsp(ranking, dataset, catalog, k=k) for k in ks}
    reo = {k: prob_reo(ranking, dataset, catalog, k=k) for k in ks}
    pairs = [
        np.stack(split_pairs, axis=1)
        for split_pairs in (
            (dataset.pos_users, dataset.pos_items),
            (dataset.val_users, dataset.val_items),
            (dataset.test_users, dataset.test_items),
        )
    ]
    item_counts, feedback, ratios, ratio_rsd = group_ratio_stats(
        catalog, np.concatenate(pairs)
    )
    return FairnessReport(
        ks=ks,
        group_names=list(catalog.group_names),
        exclude=exclude,
        group_probs_rsp={k: [float(x) for x in p] for k, p in rsp.items()},
        group_probs_reo={k: [float(x) for x in p] for k, p in reo.items()},
        rsp={k: relative_std(p) for k, p in rsp.items()},
        reo={k: relative_std(p) for k, p in reo.items()},
        f1={k: f1_at_k(ranking, dataset, k=k) for k in ks},
        ndcg={k: ndcg_at_k(ranking, dataset, k=k) for k in ks},
        js_user=user_divergence(
            params, dataset, sample_pairs=js_user_pairs, seed=js_seed
        ),
        js_group_all=_all_divergence(js_all, params, dataset, largest[0]),
        js_group_pos=_positive_divergence(test_scores, test_items, catalog),
        group_item_counts=[int(x) for x in item_counts],
        group_feedback_counts=[int(x) for x in feedback],
        group_ratios=[float(x) for x in ratios],
        ratio_relative_std=float(ratio_rsd),
    )
