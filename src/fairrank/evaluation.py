"""Top-k ranking, accuracy metrics, fairness probabilities, divergences.

All metrics work on a RankingResult: per-user top-k item lists ordered by
score descending with ties broken by ascending item id.  Scores are made
a block of users at a time by one sweep, ``_sweep``, each block about
BLOCK_BYTES of float64 scores (at least two rows) with the training pairs
NaN, in one buffer: memory is O(BLOCK_BYTES + M) whatever N is, never
N x M.  The calling thread scores the blocks in order; the per-row work on
a block (ranking, group histograms, user score ranges) is split into up
to THREADS, and at most MAX_PARTS, parts of its rows that run at once,
each working in its own rows of a second block-sized buffer that the sweep
owns.  Every JS divergence, of users or of groups, is counted and summed
by one accumulator, ``_MeanJS``, whose integer counts add up to the same
numbers in any order, so the output does not depend on the parts.  Every
sample is sorted in its part and counted by binary search
of each range's bin edges, which bins every value as ``numpy.histogram``
does.
"""

import json
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

JS_BINS = 50
JS_EPS = 1e-10

EXCLUDE_TRAIN = "train"
EXCLUDE_TRAIN_VAL = "train+val"

BLOCK_BYTES = 8 << 20

# every CPU this process may run on
THREADS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)
# the most threads that share a block's rows.  The affinity mask ignores
# CPU quotas: on 2 CPUs, cutting each block into 8 parts made evaluation
# slower than one part did.
MAX_PARTS = 3

# every score is at most d * max|user factor| * max|item factor| in size;
# below this bound, scores and the widths of score ranges stay finite with
# room for rounding
SCORE_BOUND = np.finfo(np.float64).max / 4


@dataclass
class RankingResult:
    """Ranked lists: items[u, :lengths[u]] is user u's, the rest of the
    (N, min(k, M)) row is -1.  Shorter than k when u has fewer eligible items."""

    items: np.ndarray
    lengths: np.ndarray
    k: int
    exclude: str
    # (dataset, split) -> _hits at full depth
    _held_out: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def lists(self):
        """Per-user views items[u, :lengths[u]]."""
        return [row[:n] for row, n in zip(self.items, self.lengths)]


def _score_matrix(params, users=slice(None), out=None):
    """``users``' scores, in the leading rows of ``out`` when given."""
    u = params.user_factors[users]
    rows = None if out is None else out[: len(u)]
    return np.matmul(u, params.item_matrix().T, out=rows)


def _block_rows(m):
    """Rows of M = ``m`` scores per block: BLOCK_BYTES of float64, and at
    least two so that BLAS always runs gemm."""
    return max(2, BLOCK_BYTES // (8 * m))


def _blocks(n, m):
    """[lo, hi) ranges of ``_block_rows(m)`` of ``n`` rows.  A one-row tail
    joins the block before it: BLAS scores one row with gemv, which rounds
    unlike gemm."""
    edges = list(range(0, max(n - 1, 1), _block_rows(m))) + [n]
    return zip(edges[:-1], edges[1:])


def _block_pairs(dataset, split, users):
    """((rows, items), at) of the ascending ``users``' pairs in ``split``
    ("pos", "val" or "test"): rows counted in ``users``, ``at`` the pairs'
    positions in the split."""
    indptr = getattr(dataset, f"{split}_indptr")
    start = indptr[users]
    sizes = indptr[users + 1] - start
    # pair j of row r sits at start[r] + j, and j = j_total - (pairs before r)
    at = np.repeat(start - (np.cumsum(sizes) - sizes), sizes)
    at += np.arange(len(at))
    items = getattr(dataset, f"{split}_items")[at]
    rows = np.repeat(np.arange(len(users)), sizes)
    return (rows, items), at


def _block_buffer(n, m):
    """Room for the largest of ``_blocks(n, m)``."""
    return np.empty((max(hi - lo for lo, hi in _blocks(n, m)), m))


def _sweep(params, dataset, users=None, *, on_block=None, part=None):
    """Score ``users`` (ascending ids; every user by default) a block at a
    time, training pairs NaN, into one buffer that the next block overwrites.

    On the calling thread and in block order, each block users[a:b] is
    scored and handed to ``on_block(a, b, scores)``.  Then its rows are
    split into up to min(THREADS, MAX_PARTS) parts, and ``part(lo, hi,
    scores, work)`` runs once per part, for users[lo:hi]: their ``scores``
    and ``work``, the same rows of a second buffer, both C-contiguous.  The
    first part runs on the calling thread, the others on threads that live
    for the sweep.  All parts end before the next block is scored; an error
    a part raises is raised as it is, the first part's in row order when
    several fail.

    Every score block is made here, so this is the one gate on the model:
    DataError if ``params`` are not the dataset's shape, a factor is not
    finite, or the factors are large enough for a score to overflow, any of
    which would rank and score wrongly yet plausibly.
    """
    n, m = dataset.num_users, dataset.num_items
    if (params.num_users, params.num_items) != (n, m):
        raise DataError(
            "parameter dimensions do not match dataset "
            f"({params.num_users}x{params.num_items} vs {n}x{m})"
        )
    factors = {"user factors": params.user_factors, "item matrix": params.item_matrix()}
    big = []
    for name, x in factors.items():
        # max propagates NaN
        big.append(float(np.abs(x).max(initial=0.0)))
        if not np.isfinite(big[-1]):
            raise DataError(f"the {name} hold a non-finite value")
    bound = big[0] * big[1] * params.dim
    if bound > SCORE_BOUND:
        raise DataError(
            f"the factors are too large to score: d * max|user factor| * "
            f"max|item factor| = {bound:.3g} exceeds {SCORE_BOUND:.3g}"
        )
    n = n if users is None else len(users)
    buf, work = _block_buffer(n, m), _block_buffer(n, m)
    parts = min(THREADS, MAX_PARTS)
    with ThreadPoolExecutor(max(parts - 1, 1), "fairrank-eval") as pool:
        for a, b in _blocks(n, m):
            ids = np.arange(a, b) if users is None else users[a:b]
            scores = _score_matrix(params, ids, out=buf)
            scores[_block_pairs(dataset, "pos", ids)[0]] = np.nan
            if on_block is not None:
                on_block(a, b, scores)
            if part is None:
                continue
            t = min(parts, b - a)
            edges = [(b - a) * p // t for p in range(t + 1)]
            runs = [
                (a + i, a + j, scores[i:j], work[i:j])
                for i, j in zip(edges, edges[1:])
            ]
            futures = [pool.submit(part, *run) for run in runs[1:]]
            # on an error the pool's exit waits for the other parts
            part(*runs[0])
            for f in futures:
                f.result()


def _check_k(k):
    if k < 1:
        raise ValueError(f"k: must be >= 1, got {k}")


def rank_topk(params, dataset, k, exclude=EXCLUDE_TRAIN, *, on_block=None):
    """Top-k items per user, excluded items never ranked.

    Args:
        params: MfParams.
        dataset: InteractionDataset matching the model dimensions.
        k: list length, >= 1.
        exclude: "train" or "train+val".  Excluded pairs are NaN, which
            ranks nowhere: the training pairs from the sweep, the val pairs
            set here.
        on_block: optional ``on_block(lo, hi, scores)``, called once per
            block, in order and on the calling thread, with users lo..hi-1's
            (hi - lo, M) scores, training pairs NaN, val pairs not yet.  It
            must only read: ``scores`` is a reused buffer that the next block
            overwrites.

    Returns:
        RankingResult.  Ordering is score descending, item id ascending on
        ties.  Users with fewer than k eligible items get shorter lists
        (counted in a log line).
    """
    _check_k(k)
    if exclude not in (EXCLUDE_TRAIN, EXCLUDE_TRAIN_VAL):
        raise ValueError(f"exclude: unknown mode '{exclude}'")
    n = dataset.num_users
    depth = min(k, dataset.num_items) - 1
    items = np.full((n, depth + 1), -1, dtype=np.int64)
    lengths = np.empty(n, dtype=np.int64)

    def rank_rows(lo, hi, scores, work):
        if exclude == EXCLUDE_TRAIN_VAL:
            scores[_block_pairs(dataset, "val", np.arange(lo, hi))[0]] = np.nan
        # the key is -score; partition sorts NaN last, like a full sort
        part = np.negative(scores, out=work)
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

    _sweep(params, dataset, on_block=on_block, part=rank_rows)
    short = int((lengths < k).sum())
    if short:
        log.info("rank_topk: %d users had fewer than k=%d eligible items", short, k)
    return RankingResult(items, lengths, k, exclude)


def _top(ranking, dataset, k):
    """The first ``k`` columns of the ranking (all by default).  DataError
    if the ranking is not of ``dataset``: another user count, or an item id
    past its catalogue, would read other users' pairs or fail in numpy."""
    n, m = dataset.num_users, dataset.num_items
    last = int(ranking.items.max(initial=-1))
    if len(ranking.items) != n or last >= m:
        raise DataError(
            f"a ranking of {len(ranking.items)} users and item ids up to {last} "
            f"is not of the dataset's {n} users and {m} items"
        )
    k = ranking.k if k is None else k
    _check_k(k)
    if k > ranking.k:
        raise ValueError(f"k={k} exceeds ranking depth {ranking.k}")
    return k, ranking.items[:, :k]


def _hits(ranking, dataset, k, split="test"):
    """(N, k) bool: ranked item is a held-out ``split`` positive (not
    padding).  The whole ranking is tested once per dataset and split, and
    kept on it; each k reads the first k columns."""
    key = (dataset, split)
    if key not in ranking._held_out:
        member = dataset.in_test if split == "test" else dataset.in_val
        items = ranking.items
        hits = member(np.arange(len(items))[:, None], items)
        ranking._held_out[key] = hits & (items >= 0)
    return ranking._held_out[key][:, :k]


def _check_catalog(dataset, catalog):
    if catalog.num_items != dataset.num_items:
        raise DataError(
            f"group catalog covers {catalog.num_items} items, "
            f"dataset has {dataset.num_items}"
        )


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
        DataError: if the catalog's item count is not the dataset's, the
            ranking is not of the dataset, or some group has no eligible
            items in the denominator.
    """
    _check_catalog(dataset, catalog)
    k, top = _top(ranking, dataset, k)
    denom = dataset.num_users * catalog.item_counts.astype(np.float64)
    denom -= _group_sums(dataset.pos_items, catalog)
    return _group_probs(top[top >= 0], denom, catalog, "eligible items")


def prob_reo(ranking, dataset, catalog, k=None):
    """Per-group probability of ranking a liked test item into the top-k
    (group-wise recall@k).

    Returns:
        (A,) array of probabilities.

    Raises:
        DataError: if the catalog's item count is not the dataset's, the
            ranking is not of the dataset, or some group has no test
            positives.
    """
    _check_catalog(dataset, catalog)
    k, top = _top(ranking, dataset, k)
    denom = _group_sums(dataset.test_items, catalog)
    hits = _hits(ranking, dataset, k)
    return _group_probs(top[hits], denom, catalog, "test positives")


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
    k, _ = _top(ranking, dataset, k)
    sizes = np.diff(dataset.test_indptr if split == "test" else dataset.val_indptr)
    has = sizes > 0
    if not has.any():
        raise DataError(f"f1_at_k: no user has {split} items")
    hits = _hits(ranking, dataset, k, split).sum(axis=1)[has]
    p = hits / k
    r = hits / sizes[has]
    values = np.divide(2 * p * r, p + r, out=np.zeros_like(p), where=p + r != 0)
    return float(np.mean(values))


def ndcg_at_k(ranking, dataset, k=None):
    """Mean per-user NDCG@k with binary relevance and log2 discount."""
    k, _ = _top(ranking, dataset, k)
    sizes = np.diff(dataset.test_indptr)
    has = sizes > 0
    if not has.any():
        raise DataError("ndcg_at_k: no user has test items")
    rel = _hits(ranking, dataset, k)[has].astype(np.float64)
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
    in [0, ln 2].  A degenerate joint range returns 0.  ValueError on an
    empty sample, a value that is not finite or a ``bins`` that is not a
    positive integer; DataError on a joint range too narrow for ``bins``
    distinct bin edges.  The samples are left as they are.
    """
    if isinstance(bins, bool) or not isinstance(bins, (int, np.integer)) or bins < 1:
        raise ValueError(
            f"js_divergence: bins must be a positive integer, got {bins!r}"
        )
    # copies: add sorts its sample in place
    a = np.array(samples_a, dtype=np.float64).ravel()
    b = np.array(samples_b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("js_divergence: empty sample")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("js_divergence: a sample holds a NaN or an infinity")
    js = _MeanJS([a.min(), b.min()], [a.max(), b.max()], [(0, 1)], bins)
    js.add(0, a)
    js.add(1, b)
    return js.value()


class _MeanJS:
    """Mean JS divergence over ``pairs`` (a, b) of samples, sample a in
    [lo[a], hi[a]], every bound finite.  DataError if a joint range is too
    narrow for ``bins`` distinct edges, which ``numpy.histogram`` refuses.

    ``add`` and ``add_sorted`` count chunks of samples once per joint range
    of their sample's pairs and add the counts up under a lock, so threads
    may add at once.  ``add_sorted`` takes ascending rows and counts each
    range with one binary search of the ``np.linspace`` bin edges that
    ``numpy.histogram`` makes; ``add`` sorts its chunk flat and hands it on.
    The bin rule is ``numpy.histogram``'s and per value ([e_i, e_i+1), the
    last bin closed, NaN counted nowhere) and the counts are integers, so
    they are the same however a sample is cut into chunks and in whatever
    order the chunks come.  A pair whose joint range is one point is never
    counted: both its sides stay 0, so its divergence is exactly 0.
    """

    def __init__(self, lo, hi, pairs, bins=JS_BINS):
        self.sides = np.ravel(pairs)
        self.ranges = [(min(lo[a], lo[b]), max(hi[a], hi[b])) for a, b in pairs]
        first, last = np.array(self.ranges).reshape(-1, 2).T
        live = first != last
        # np.linspace takes another path for the whole batch once one step
        # is 0, as it is for a one-point range; a live range whose step is
        # 0 is refused below, so each kept row is numpy.histogram's np.linspace
        keys = np.zeros((len(first), bins + 1))
        keys[live] = np.linspace(first[live], last[live], bins + 1, axis=1)
        narrow = live & (keys[:, 1:] <= keys[:, :-1]).any(axis=1)
        if narrow.any():
            r = [float(x) for x in self.ranges[int(np.argmax(narrow))]]
            raise DataError(f"score range {r} is too narrow for {bins} bins")
        # values below the next float are those at or below the last edge
        keys[:, -1] = np.nextafter(keys[:, -1], np.inf)
        self.keys = keys
        # the sides of live pairs by sample: sample a's are
        # sorted_sides[starts[a]:starts[a + 1]]
        counted = np.flatnonzero(np.repeat(live, 2))
        self.sorted_sides = counted[np.argsort(self.sides[counted], kind="stable")]
        self.starts = np.searchsorted(
            self.sides[self.sorted_sides], np.arange(len(lo) + 1)
        )
        # row j of counts is side j % 2 of pair j // 2
        self.counts = np.zeros((len(self.sides), bins), dtype=np.int64)
        self.lock = threading.Lock()

    def add(self, a, x):
        """Count the values ``x`` of sample ``a``, sorting ``x`` in place."""
        x = x.reshape(-1)
        # NaN last, with the interpreter released
        x.sort()
        self.add_sorted(a, x[None])

    def add_sorted(self, a, x):
        """Count the rows of ``x``, samples a, a + 1, ..., each ascending
        with NaN last."""
        starts = self.starts[a : a + len(x) + 1]
        j = self.sorted_sides[starts[0] : starts[-1]]
        keys = self.keys[j // 2]
        below = np.empty(keys.shape, dtype=np.int64)
        starts = (starts - starts[0]).tolist()
        for row, s, e in zip(x, starts, starts[1:]):
            if s < e:
                below[s:e] = row.searchsorted(keys[s:e])
        counts = np.diff(below, axis=1)
        with self.lock:
            self.counts[j] += counts

    def value(self):
        pq = self.counts.reshape(-1, 2, self.counts.shape[1]) + JS_EPS
        pq /= pq.sum(axis=2, keepdims=True)
        kl = (pq * np.log(pq / (0.5 * (pq[:, :1] + pq[:, 1:])))).sum(axis=2)
        # summed left to right, pair by pair: np.sum would sum pairwise
        total = np.cumsum(0.5 * kl[:, 0] + 0.5 * kl[:, 1])[-1]
        return float(total) / len(self.ranges)


def user_divergence(params, dataset, sample_pairs=1000, seed=0):
    """Mean JS divergence between sampled user pairs' score distributions.

    ``sample_pairs`` (u, v) pairs are drawn uniformly with u != v.  Each user
    is represented by their scores over non-training items.  Only sampled
    users are scored, in blocks, twice, each block's rows split into parts:
    a first sweep takes each user's score range, and a second sorts each
    user's row and counts it over the joint ranges of its pairs.
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
    lo, hi = np.empty((2, len(users)))

    def ranges(a, b, scores, work):
        np.fmin.reduce(scores, axis=1, out=lo[a:b])
        np.fmax.reduce(scores, axis=1, out=hi[a:b])

    _sweep(params, dataset, users, part=ranges)
    # each pair's two rows in users
    sides = np.searchsorted(users, np.stack((us, vs), axis=1))
    js = _MeanJS(lo.tolist(), hi.tolist(), sides)

    def histograms(a, b, scores, work):
        # sorts NaN, the training pairs, last, with the interpreter released
        scores.sort(axis=1)
        js.add_sorted(a, scores)

    _sweep(params, dataset, users, part=histograms)
    return js.value()


def _group_members(catalog, items=slice(None)):
    """Per group, the positions in ``items`` (default: every item) of the
    items in that group."""
    in_group = catalog.memberships.astype(bool)[items]
    return [np.flatnonzero(in_group[:, a]) for a in range(catalog.num_groups)]


class _GroupJS:
    """Both modes of ``group_divergence`` from one read of the scored
    blocks; the instance is ``rank_topk``'s ``on_block``.

    Each block widens every group's range and gives up its test pairs'
    scores.  ``all`` then scores the blocks a second time for each group's
    histogram counts, a block's rows split into parts, each part copying a
    group's columns into its rows of the work buffer, where ``add`` sorts
    them; ``positive`` works from the gathered test-pair scores.
    """

    def __init__(self, params, dataset, catalog):
        _check_catalog(dataset, catalog)
        self.params, self.dataset, self.catalog = params, dataset, catalog
        self.cols = _group_members(catalog)
        self.lo = np.full(len(self.cols), np.inf)
        self.hi = -self.lo
        self.test_scores = np.empty(len(dataset.test_items))

    def __call__(self, lo, hi, scores):
        x_lo = np.fmin.reduce(scores, axis=0, initial=np.inf)
        x_hi = np.fmax.reduce(scores, axis=0, initial=-np.inf)
        for a, c in enumerate(self.cols):
            self.lo[a] = np.fmin.reduce(x_lo[c], initial=self.lo[a])
            self.hi[a] = np.fmax.reduce(x_hi[c], initial=self.hi[a])
        pairs, at = _block_pairs(self.dataset, "test", np.arange(lo, hi))
        self.test_scores[at] = scores[pairs]

    def all(self):
        js = self._mean_js(self.lo, self.hi, "all")

        def histograms(lo, hi, x, work):
            for a, c in enumerate(self.cols):
                part = work.reshape(-1)[: len(x) * len(c)].reshape(len(x), len(c))
                # with out=, mode="raise" would copy through a bounce buffer
                np.take(x, c, axis=1, out=part, mode="clip")
                js.add(a, part)

        _sweep(self.params, self.dataset, part=histograms)
        return js.value()

    def positive(self):
        scores = self.test_scores
        cols = _group_members(self.catalog, self.dataset.test_items)
        lo = np.array([np.fmin.reduce(scores[c], initial=np.inf) for c in cols])
        hi = np.array([np.fmax.reduce(scores[c], initial=-np.inf) for c in cols])
        js = self._mean_js(lo, hi, "positive")
        for a, c in enumerate(cols):
            js.add(a, scores[c])
        return js.value()

    def _mean_js(self, lo, hi, mode):
        """A _MeanJS over every group pair, group a in [lo[a], hi[a]]."""
        n = len(lo)
        if n < 2:
            raise DataError("group_divergence: need at least two groups")
        if (lo > hi).any():
            bad = self.catalog.group_names[int(np.argmax(lo > hi))]
            raise DataError(f"group '{bad}' has no scores in mode '{mode}'")
        return _MeanJS(lo, hi, [(a, b) for a in range(n) for b in range(a + 1, n)])


def group_divergence(params, dataset, catalog, mode="all"):
    """Mean pairwise JS divergence between per-group score samples.

    mode "all": each group is represented by the scores of every (user,
    item) pair with the item in the group and outside the user's training
    positives.  mode "positive": only test-set pairs.
    """
    if mode not in ("all", "positive"):
        raise ValueError(f"mode: unknown '{mode}'")
    js = _GroupJS(params, dataset, catalog)
    _sweep(params, dataset, on_block=js)
    return js.all() if mode == "all" else js.positive()


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


def _spread(metric, k, probs):
    if not probs.any():
        raise DataError(f"{metric}@{k}: undefined, every group's probability is 0")
    return relative_std(probs)


def evaluate_model(
    params,
    dataset,
    catalog,
    ks=(5, 10, 15),
    exclude=EXCLUDE_TRAIN_VAL,
    js_user_pairs=1000,
):
    """Full evaluation of a trained model into a FairnessReport."""
    ks = sorted({int(k) for k in ks})
    if not ks:
        raise ValueError("ks: must list at least one k")
    _check_k(ks[0])
    # the ranking's blocks also feed both group divergences
    js_group = _GroupJS(params, dataset, catalog)
    ranking = rank_topk(
        params, dataset, max(ks), exclude=exclude, on_block=js_group
    )
    rsp = {k: prob_rsp(ranking, dataset, catalog, k=k) for k in ks}
    reo = {k: prob_reo(ranking, dataset, catalog, k=k) for k in ks}
    codes = np.concatenate((dataset.pos_codes, dataset.val_codes, dataset.test_codes))
    item_counts, feedback, ratios, ratio_rsd = group_ratio_stats(
        catalog, np.stack(np.divmod(codes, dataset.num_items), axis=1)
    )
    return FairnessReport(
        ks=ks,
        group_names=list(catalog.group_names),
        exclude=exclude,
        group_probs_rsp={k: [float(x) for x in p] for k, p in rsp.items()},
        group_probs_reo={k: [float(x) for x in p] for k, p in reo.items()},
        rsp={k: _spread("rsp", k, p) for k, p in rsp.items()},
        reo={k: _spread("reo", k, p) for k, p in reo.items()},
        f1={k: f1_at_k(ranking, dataset, k=k) for k in ks},
        ndcg={k: ndcg_at_k(ranking, dataset, k=k) for k in ks},
        js_user=user_divergence(params, dataset, sample_pairs=js_user_pairs),
        js_group_all=js_group.all(),
        js_group_pos=js_group.positive(),
        group_item_counts=[int(x) for x in item_counts],
        group_feedback_counts=[int(x) for x in feedback],
        group_ratios=[float(x) for x in ratios],
        ratio_relative_std=float(ratio_rsd),
    )
