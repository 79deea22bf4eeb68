import json
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fairrank import evaluation
from fairrank.data import (
    GroupCatalog,
    InteractionDataset,
    SyntheticSpec,
    generate_synthetic,
    split,
)
from fairrank.errors import DataError
from fairrank.evaluation import (
    JS_BINS,
    FairnessReport,
    evaluate_model,
    f1_at_k,
    group_divergence,
    group_ratio_stats,
    js_divergence,
    ndcg_at_k,
    prob_reo,
    prob_rsp,
    rank_topk,
    relative_std,
    user_divergence,
)
from fairrank.mf import MfParams, init_params

import oracles
from conftest import random_catalog, random_dataset
from oracles import (
    brute_f1,
    brute_js,
    brute_ndcg,
    brute_rank,
    brute_reo,
    brute_rsp,
    ref_report_dict,
    ref_rank_topk,
    ref_report_tsv,
    ref_user_divergence,
    reference_evaluate_model,
)


def _params_from_scores(scores):
    """Rank-preserving factorization: user picks a row of the score table."""
    n, m = scores.shape
    p = np.eye(n)
    return MfParams(p, np.asarray(scores, dtype=np.float64).T)


def _dataset(n, m, train, val=None, test=None):
    empty = [[] for _ in range(n)]
    return InteractionDataset(
        n, m, train, val or [[] for _ in range(n)], test or [[] for _ in range(n)]
    )


def test_rank_topk_tie_breaks_ascending_id():
    scores = np.array([[1.0, 2.0, 2.0, 0.0]])
    params = _params_from_scores(scores)
    ds = _dataset(1, 4, [[]])
    ranking = rank_topk(params, ds, 3, exclude="train")
    assert ranking.lists[0].tolist() == [1, 2, 0]


def test_rank_topk_exclusion_modes():
    scores = np.array([[5.0, 4.0, 3.0, 2.0, 1.0]])
    params = _params_from_scores(scores)
    ds = _dataset(1, 5, [np.array([0])], val=[np.array([1])])
    train_only = rank_topk(params, ds, 3, exclude="train")
    assert train_only.lists[0].tolist() == [1, 2, 3]
    both = rank_topk(params, ds, 3, exclude="train+val")
    assert both.lists[0].tolist() == [2, 3, 4]


def test_rank_topk_short_lists():
    scores = np.array([[1.0, 2.0, 3.0]])
    params = _params_from_scores(scores)
    ds = _dataset(1, 3, [np.array([0, 1])])
    ranking = rank_topk(params, ds, 5, exclude="train")
    assert ranking.lists[0].tolist() == [2]


def test_rank_topk_depth_beyond_catalog_stays_bounded():
    # a k far above the item count pads to M columns, not to k
    scores = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    params = _params_from_scores(scores)
    ds = _dataset(2, 3, [np.array([0]), []])
    ranking = rank_topk(params, ds, 10**15, exclude="train")
    assert ranking.items.tolist() == [[2, 1, -1], [0, 1, 2]]
    assert ranking.lengths.tolist() == [2, 3]
    assert [l.tolist() for l in ranking.lists] == [[2, 1], [0, 1, 2]]


def test_rank_topk_validation():
    params = init_params(2, 3, 2, seed=0)
    ds = _dataset(2, 3, [[], []])
    with pytest.raises(ValueError):
        rank_topk(params, ds, 0)
    with pytest.raises(ValueError):
        rank_topk(params, ds, 2, exclude="none")
    wrong = _dataset(2, 4, [[], []])
    with pytest.raises(DataError, match="do not match"):
        rank_topk(params, wrong, 2)


@pytest.mark.parametrize(
    "metric, k",
    [
        ("f1", 0),
        ("f1", -1),
        ("f1", -3),
        ("ndcg", 0),
        ("rsp", -1),
        ("reo", 0),
        ("evaluate", (0, 5)),
        ("evaluate", ()),
    ],
)
def test_metrics_refuse_k_below_one(metric, k):
    # a k below 1 would slice the ranking from its end, or to nothing
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, 40, 12)
    cat = random_catalog(rng, 12, 2)
    params = init_params(40, 12, 4, seed=1)
    ranking = rank_topk(params, ds, 5)
    calls = {
        "f1": lambda: f1_at_k(ranking, ds, k=k),
        "ndcg": lambda: ndcg_at_k(ranking, ds, k=k),
        "rsp": lambda: prob_rsp(ranking, ds, cat, k=k),
        "reo": lambda: prob_reo(ranking, ds, cat, k=k),
        "evaluate": lambda: evaluate_model(params, ds, cat, ks=k),
    }
    want = "^ks: must list" if k == () else "^k: must be >= 1, got"
    with pytest.raises(ValueError, match=want):
        calls[metric]()


def test_evaluate_model_counts_a_repeated_k_once():
    # ks (5, 5, 10) gave report.tsv a second copy of every k = 5 row
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, 40, 12)
    cat = random_catalog(rng, 12, 2)
    params = init_params(40, 12, 4, seed=1)
    twice = evaluate_model(params, ds, cat, ks=(5, 5, 10), js_user_pairs=50)
    assert twice.ks == [5, 10] and len(twice.to_tsv("m").splitlines()) == 11
    once = evaluate_model(params, ds, cat, ks=(10, 5), js_user_pairs=50)
    assert twice.to_json() == once.to_json()


def test_evaluate_model_tests_each_ranked_item_once(monkeypatch):
    # prob_reo, f1_at_k and ndcg_at_k each tested the top k for every k
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, 40, 30)
    cat = random_catalog(rng, 30, 2)
    params = init_params(40, 30, 4, seed=1)
    want = evaluate_model(params, ds, cat, js_user_pairs=50).to_json()
    shapes = []
    in_test = type(ds).in_test

    def counted(self, users, items):
        shapes.append(np.broadcast(users, items).shape)
        return in_test(self, users, items)

    monkeypatch.setattr(type(ds), "in_test", counted)
    assert evaluate_model(params, ds, cat, js_user_pairs=50).to_json() == want
    assert shapes == [(40, 15)]


def test_ranking_hits_are_kept_per_dataset():
    # one ranking read against two datasets of the same shape
    rng = np.random.default_rng(3)
    ds, other = random_dataset(rng, 30, 20), random_dataset(rng, 30, 20)
    params = init_params(30, 20, 4, seed=2)
    ranking = rank_topk(params, ds, 10)
    got = [f1_at_k(ranking, d, k=5) for d in (ds, other, ds)]
    fresh = [f1_at_k(rank_topk(params, ds, 10), d, k=5) for d in (ds, other)]
    assert got == [fresh[0], fresh[1], fresh[0]]
    assert got[0] != got[1]


@pytest.mark.parametrize("other", [(40, 30), (60, 45)], ids=["users", "items"])
@pytest.mark.parametrize("metric", ["f1", "ndcg", "rsp", "reo"])
def test_metrics_refuse_a_ranking_of_another_dataset(metric, other):
    # another dataset's ranking gave plausible numbers or a bare numpy error:
    # an item id past M was read as one of the next user's pairs
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, 60, 30)
    cat = random_catalog(rng, 30, 2)
    ranking = rank_topk(init_params(*other, 4, seed=1), random_dataset(rng, *other), 10)
    assert len(ranking.items) != 60 or ranking.items.max() >= 30
    calls = {
        "f1": lambda: f1_at_k(ranking, ds),
        "ndcg": lambda: ndcg_at_k(ranking, ds),
        "rsp": lambda: prob_rsp(ranking, ds, cat),
        "reo": lambda: prob_reo(ranking, ds, cat),
    }
    want = "is not of the dataset's 60 users and 30 items$"
    with pytest.raises(DataError, match=want):
        calls[metric]()


def test_prob_rsp_hand_example():
    # 2 users, 4 items, groups {0,1}/{2,3}; both users rank 2 items
    scores = np.array([[9.0, 1.0, 8.0, 0.0], [0.0, 9.0, 1.0, 8.0]])
    params = _params_from_scores(scores)
    ds = _dataset(2, 4, [np.array([3]), np.array([0])])
    cat = GroupCatalog(
        ["a", "b"],
        np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.uint8),
    )
    ranking = rank_topk(params, ds, 2, exclude="train")
    # user0 top2 of {0,1,2}: [0, 2]; user1 top2 of {1,2,3}: [1, 3]
    probs = prob_rsp(ranking, ds, cat)
    # group a: hits 2 (items 0 and 1) over eligible 2+1; group b: 2 over 1+2
    assert np.allclose(probs, [2 / 3, 2 / 3])


def test_prob_reo_hand_example():
    scores = np.array([[9.0, 1.0, 8.0, 0.0], [0.0, 9.0, 1.0, 8.0]])
    params = _params_from_scores(scores)
    ds = _dataset(
        2,
        4,
        [np.array([3]), np.array([0])],
        test=[np.array([0]), np.array([1, 2])],
    )
    cat = GroupCatalog(
        ["a", "b"],
        np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.uint8),
    )
    ranking = rank_topk(params, ds, 2, exclude="train")
    probs = prob_reo(ranking, ds, cat)
    # group a test positives: items 0 (u0, ranked) and 1 (u1, ranked) -> 2/2
    # group b: item 2 (u1, not in u1 top2) -> 0/1
    assert np.allclose(probs, [1.0, 0.0])


def test_prob_rsp_denominator_ignores_ranking_mask():
    # masking val items in the ranking must not change the rsp denominator
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, 6, 12)
    cat = random_catalog(rng, 12, 2)
    params = init_params(6, 12, 4, seed=1)
    r_train = rank_topk(params, ds, 4, exclude="train")
    r_both = rank_topk(params, ds, 4, exclude="train+val")
    a = prob_rsp(r_train, ds, cat)
    b = prob_rsp(r_both, ds, cat)
    # numerators differ, but both divide by the train-only denominator;
    # recompute b's numerator against the oracle denominator to check
    oracle = brute_rsp([l.tolist() for l in r_both.lists], ds, cat, 4)
    assert np.allclose(b, oracle)
    assert a.shape == b.shape


def test_metrics_match_brute_force_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(6, 16))
        ds = random_dataset(rng, n, m, max_pos=4)
        cat = random_catalog(rng, m, int(rng.integers(2, 4)))
        params = init_params(n, m, int(rng.integers(2, 5)), seed=trial)
        k = int(rng.integers(1, 6))
        exclude = "train" if trial % 2 else "train+val"
        ranking = rank_topk(params, ds, k, exclude=exclude)
        oracle_lists = brute_rank(params, ds, k, exclude)
        assert [l.tolist() for l in ranking.lists] == oracle_lists
        assert np.allclose(
            prob_rsp(ranking, ds, cat), brute_rsp(oracle_lists, ds, cat, k)
        )
        has_test = any(len(t) for t in ds.test_pos)
        group_test = (
            cat.memberships[
                np.concatenate(ds.test_pos).astype(int)
            ].sum(axis=0)
            if has_test
            else np.zeros(cat.num_groups)
        )
        if has_test and (group_test > 0).all():
            assert np.allclose(
                prob_reo(ranking, ds, cat),
                brute_reo(oracle_lists, ds, cat, k),
            )
            assert np.isclose(
                f1_at_k(ranking, ds), brute_f1(oracle_lists, ds, k)
            )
            assert np.isclose(
                ndcg_at_k(ranking, ds), brute_ndcg(oracle_lists, ds, k)
            )


def test_relative_std_hand_value():
    # values 2 and 6: mean 4, population std 2
    assert np.isclose(relative_std([2.0, 6.0]), 0.5)
    with pytest.raises(ValueError):
        relative_std([])
    with pytest.raises(ValueError):
        relative_std([1.0, -1.0])


def test_f1_hand_value():
    scores = np.array([[4.0, 3.0, 2.0, 1.0]])
    params = _params_from_scores(scores)
    ds = _dataset(1, 4, [[]], test=[np.array([0, 3])])
    ranking = rank_topk(params, ds, 2, exclude="train")
    # top2 = [0,1]; hits=1; p=1/2, r=1/2, f1=1/2
    assert np.isclose(f1_at_k(ranking, ds), 0.5)


def test_f1_skips_users_without_truth():
    scores = np.array([[4.0, 3.0], [2.0, 1.0]])
    params = _params_from_scores(scores)
    ds = _dataset(2, 2, [[], []], test=[np.array([0]), np.array([])])
    ranking = rank_topk(params, ds, 1, exclude="train")
    assert np.isclose(f1_at_k(ranking, ds), 2 * 1 * 1 / 2)
    empty = _dataset(2, 2, [[], []])
    with pytest.raises(DataError, match="no user has test items"):
        f1_at_k(rank_topk(params, empty, 1), empty)


def test_f1_rejects_unknown_split():
    scores = np.array([[4.0, 3.0], [2.0, 1.0]])
    params = _params_from_scores(scores)
    ds = _dataset(2, 2, [[], []], test=[np.array([0]), np.array([1])])
    ranking = rank_topk(params, ds, 1, exclude="train")
    with pytest.raises(ValueError, match="^split: must be 'test' or 'val'"):
        f1_at_k(ranking, ds, split="train")


def test_ndcg_hand_value():
    scores = np.array([[4.0, 3.0, 2.0, 1.0]])
    params = _params_from_scores(scores)
    ds = _dataset(1, 4, [[]], test=[np.array([1, 3])])
    ranking = rank_topk(params, ds, 2, exclude="train")
    # top2 = [0,1]: hit at position 2 -> dcg = 1/log2(3); ideal = 1 + 1/log2(3)
    want = (1 / np.log2(3)) / (1 + 1 / np.log2(3))
    assert np.isclose(ndcg_at_k(ranking, ds), want)


def test_js_divergence_properties():
    rng = np.random.default_rng(0)
    a = rng.normal(size=500)
    assert js_divergence(a, a) == pytest.approx(0.0, abs=1e-9)
    b = rng.normal(loc=50.0, size=500)
    assert js_divergence(a, b) == pytest.approx(np.log(2.0), rel=1e-3)
    assert js_divergence(a, rng.normal(size=500)) < 0.2
    # symmetry
    c = rng.normal(loc=1.0, size=300)
    assert np.isclose(js_divergence(a, c), js_divergence(c, a))
    # degenerate range
    assert js_divergence([1.0, 1.0], [1.0]) == 0.0
    with pytest.raises(ValueError):
        js_divergence([], [1.0])


@pytest.mark.parametrize(
    "a,b",
    [([1.0, 2.0], [np.nan, np.nan]), ([np.nan, 1.0], [1.0, 2.0]),
     ([np.inf, 1.0], [1.0, 2.0]), ([1.0, 2.0], [-np.inf, 0.0])],
    ids=["all-nan", "one-nan", "inf", "minus-inf"],
)
def test_js_divergence_refuses_non_finite_samples(a, b):
    # an all-NaN sample once gave a plausible 0.608, others a bare numpy error
    with pytest.raises(ValueError, match="^js_divergence: a sample holds a NaN"):
        js_divergence(a, b)


def test_js_divergence_matches_hand_binning():
    # interior values, 4 bins over [0, 4): unambiguous bin assignment
    a = [0.5, 0.5, 1.5, 2.5]
    b = [0.5, 3.5, 3.5, 4.0]
    got = js_divergence(a, b, bins=4)
    want = brute_js(a, b, bins=4)
    assert np.isclose(got, want, atol=1e-12)


def test_js_divergence_leaves_its_samples_untouched():
    # np.asarray(...).ravel() returns both as views, and the counting sorts
    # what it is handed in place
    rng = np.random.default_rng(4)
    a = rng.normal(size=300)
    b = rng.normal(loc=0.5, size=(20, 15))
    a0, b0 = a.copy(), b.copy()
    js_divergence(a, b)
    assert np.array_equal(a, a0)
    assert np.array_equal(b, b0)


@pytest.mark.parametrize("bins", [0, -3, 2.5, True])
def test_js_divergence_refuses_a_bad_bins(bins):
    # numpy's histogram refused some of these in its own words; the sorted
    # counting would fail on reshape or allocation, or count one bin
    want = rf"^js_divergence: bins must be a positive integer, got {bins!r}$"
    with pytest.raises(ValueError, match=want):
        js_divergence([0.0, 1.0], [0.5, 2.0], bins=bins)


def test_user_divergence_basics():
    rng = np.random.default_rng(1)
    ds = random_dataset(rng, 8, 20)
    params = init_params(8, 20, 4, seed=0)
    a = user_divergence(params, ds, sample_pairs=200, seed=3)
    b = user_divergence(params, ds, sample_pairs=200, seed=3)
    assert a == b
    assert 0.0 <= a <= np.log(2.0)
    one = random_dataset(rng, 1, 20)
    with pytest.raises(DataError, match="two users"):
        user_divergence(init_params(1, 20, 4, seed=0), one)


def test_user_divergence_rejects_zero_pairs():
    rng = np.random.default_rng(1)
    ds = random_dataset(rng, 4, 10)
    with pytest.raises(ValueError, match="^sample_pairs: must be >= 1$"):
        user_divergence(init_params(4, 10, 3, seed=0), ds, sample_pairs=0)


def test_user_divergence_identical_users_zero():
    # identical score rows: every pairwise divergence is 0
    scores = np.tile(np.linspace(0, 1, 10), (3, 1))
    params = _params_from_scores(scores)
    ds = _dataset(3, 10, [[], [], []])
    assert user_divergence(params, ds, sample_pairs=50, seed=0) == pytest.approx(
        0.0, abs=1e-9
    )


def test_group_divergence_modes():
    rng = np.random.default_rng(2)
    ds = random_dataset(rng, 8, 20)
    cat = random_catalog(rng, 20, 3)
    params = init_params(8, 20, 4, seed=0)
    d_all = group_divergence(params, ds, cat, mode="all")
    assert 0.0 <= d_all <= np.log(2.0)
    with pytest.raises(ValueError):
        group_divergence(params, ds, cat, mode="bogus")
    # positive mode needs test pairs in every group; our random data has them
    d_pos = group_divergence(params, ds, cat, mode="positive")
    assert 0.0 <= d_pos <= np.log(2.0)


def test_group_ratio_stats_hand_fixture(small_raw, small_catalog):
    items, feedback, ratios, spread = group_ratio_stats(
        small_catalog, small_raw.pairs
    )
    # red={apple,cherry}: feedback 3+2; yellow={banana}: 3;
    # brown={date}: 1; dark={cherry}: 2
    assert items.tolist() == [2, 1, 1, 1]
    assert feedback.tolist() == [5, 3, 1, 2]
    assert np.allclose(ratios, [2.5, 3.0, 1.0, 2.0])
    vals = np.array([2.5, 3.0, 1.0, 2.0])
    assert np.isclose(spread, vals.std() / vals.mean())


def _hit_rich_params(rng, ds):
    """Score table boosting each user's test items so reo has hits."""
    scores = rng.normal(size=(ds.num_users, ds.num_items))
    for u in range(ds.num_users):
        scores[u, ds.test_pos[u]] += 10.0
    return _params_from_scores(scores)


def test_report_round_trip():
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, 10, 25)
    cat = random_catalog(rng, 25, 2)
    params = _hit_rich_params(rng, ds)
    report = evaluate_model(
        params, ds, cat, ks=(3, 5), exclude="train", js_user_pairs=50
    )
    d = report.to_dict()
    for key in (
        "rsp@3", "rsp@5", "reo@3", "f1@5", "ndcg@3",
        "js_user", "js_group_all", "js_group_pos", "group_probs",
    ):
        assert key in d
    assert set(d["group_probs"]["rsp"].keys()) == {"3", "5"}
    back = FairnessReport.from_json(report.to_json())
    assert back.to_dict() == d
    # stable serialization
    assert report.to_json() == FairnessReport.from_json(report.to_json()).to_json()


def test_report_tsv_shape():
    rng = np.random.default_rng(4)
    ds = random_dataset(rng, 8, 20)
    cat = random_catalog(rng, 20, 2)
    params = _hit_rich_params(rng, ds)
    report = evaluate_model(params, ds, cat, ks=(5,), js_user_pairs=20)
    lines = report.to_tsv("bpr").strip().split("\n")
    # 4 per-k metrics + 3 divergence rows
    assert len(lines) == 7
    for line in lines:
        cells = line.split("\t")
        assert len(cells) == 4
        assert cells[2] == "bpr"
        float(cells[3])  # parses
    assert lines[0].startswith("5\tf1\tbpr\t")
    assert lines[4].split("\t")[0] == "-"


def test_evaluate_model_prefix_consistency():
    # per-k values from one deep ranking equal fresh rankings at each k
    rng = np.random.default_rng(5)
    ds = random_dataset(rng, 9, 22)
    cat = random_catalog(rng, 22, 2)
    params = _hit_rich_params(rng, ds)
    report = evaluate_model(params, ds, cat, ks=(2, 6), js_user_pairs=20)
    for k in (2, 6):
        ranking = rank_topk(params, ds, k, exclude="train+val")
        assert np.allclose(report.group_probs_rsp[k], prob_rsp(ranking, ds, cat))
        assert report.f1[k] == pytest.approx(f1_at_k(ranking, ds))


@pytest.mark.parametrize(
    "where,value",
    [("item_factors", np.nan), ("item_factors", -np.inf), ("user_factors", np.nan)],
)
def test_evaluate_model_rejects_non_finite_params(where, value):
    # one bad item row once gave plausible divergences and left it unranked
    rng = np.random.default_rng(5)
    ds = random_dataset(rng, 9, 22)
    cat = random_catalog(rng, 22, 2)
    params = init_params(9, 22, 4, seed=1)
    evaluate_model(params, ds, cat, ks=(2,), js_user_pairs=20)
    getattr(params, where)[3] = value
    name = "item matrix" if where == "item_factors" else "user factors"
    with pytest.raises(DataError, match=f"the {name} hold a non-finite value"):
        evaluate_model(params, ds, cat, ks=(2,), js_user_pairs=20)


_DIVERGENCES = {
    "group-all": lambda p, ds, cat: group_divergence(p, ds, cat, mode="all"),
    "group-positive": lambda p, ds, cat: group_divergence(
        p, ds, cat, mode="positive"
    ),
    "user": lambda p, ds, cat: user_divergence(p, ds, sample_pairs=50),
}


@pytest.mark.parametrize(
    "bad,match",
    [("extra-users", "do not match"), ("nan-item", "item matrix hold a non-finite")],
    ids=["extra-users", "nan-item"],
)
@pytest.mark.parametrize("divergence", sorted(_DIVERGENCES))
def test_divergences_alone_refuse_bad_models(divergence, bad, match):
    # called on their own, not through evaluate_model: a plausible
    # divergence would hide the mismatch
    rng = np.random.default_rng(6)
    ds = random_dataset(rng, 30, 20)
    cat = random_catalog(rng, 20, 2)
    fn = _DIVERGENCES[divergence]
    fn(init_params(30, 20, 4, seed=2), ds, cat)
    if bad == "extra-users":
        params = init_params(35, 20, 4, seed=2)
    else:
        params = init_params(30, 20, 4, seed=2)
        params.item_factors[7] = np.nan
    with pytest.raises(DataError, match=match):
        fn(params, ds, cat)


_SCORERS = dict(
    _DIVERGENCES,
    rank=lambda p, ds, cat: rank_topk(p, ds, 5),
    evaluate=lambda p, ds, cat: evaluate_model(p, ds, cat, js_user_pairs=50),
)


@pytest.mark.parametrize("scorer", sorted(_SCORERS))
def test_scorers_refuse_factors_whose_scores_overflow(scorer):
    # finite factors, but item 5 scores +-inf for most users: ranking put it
    # first, user_divergence died with numpy's bare ValueError
    rng = np.random.default_rng(6)
    ds = random_dataset(rng, 30, 20)
    cat = random_catalog(rng, 20, 2)
    fn = _SCORERS[scorer]
    params = init_params(30, 20, 4, seed=2)
    params.user_factors *= 1e200
    params.item_factors[5] *= 1e200
    with np.errstate(over="ignore"):
        assert np.isinf(evaluation._score_matrix(params)[:, 5]).any()
    with pytest.raises(DataError, match="^the factors are too large to score"):
        fn(params, ds, cat)
    # just inside the bound, every score and score range is finite
    params = init_params(30, 20, 4, seed=2)
    root = np.sqrt(evaluation.SCORE_BOUND / 4) * 0.999
    params.user_factors *= root / np.abs(params.user_factors).max()
    params.item_factors[5] *= root / np.abs(params.item_factors).max()
    fn(params, ds, cat)


def test_sorted_counts_equal_np_histogram():
    # rows hold every bin edge of their pairs' ranges, the last one too,
    # values beyond the ranges, +-0.0 and NaN; row 3 is one value repeated;
    # row 4 is all NaN; rows 3 and 4 make a range of one point, rows 5 and 6
    # one 64 floats wide
    rng = np.random.default_rng(12)
    eps = np.finfo(np.float64).eps
    lo = [-1.3, -0.0, 0.0, 0.5, 0.5, 1.0, 1.0]
    hi = [2.7, 0.3, 1e-3, 0.5, 0.5, 1.0 + 32 * eps, 1.0 + 64 * eps]
    pairs = [(0, 1), (0, 2), (1, 2), (2, 0), (0, 3), (3, 4), (1, 4), (5, 6)]
    js = evaluation._MeanJS(lo, hi, pairs)
    rows = np.full((7, 700), np.nan)
    for a in (0, 1, 2, 5, 6):
        planted = [0.0, -0.0]
        for (u, v), r in zip(pairs, js.ranges):
            if a in (u, v):
                planted += np.linspace(*r, JS_BINS + 1).tolist()
        width = hi[a] - lo[a]
        planted += rng.uniform(lo[a] - width, hi[a] + width, size=100).tolist()
        rows[a, : len(planted)] = rng.permutation(planted)
    rows[3] = 0.5
    x = np.sort(rows, axis=1)
    js.add_sorted(0, x[:2])
    js.add_sorted(2, x[2:])
    for j, a in enumerate(np.ravel(pairs)):
        r = js.ranges[j // 2]
        if r[0] == r[1]:
            assert not js.counts[j].any(), (j, r)
        else:
            assert np.array_equal(js.counts[j], np.histogram(rows[a], JS_BINS, r)[0])
    assert js.counts[4 * 2 + 1].max() == 700  # the repeated value, one bin
    assert js.counts[0].sum() >= JS_BINS + 1  # every edge, the last one too
    # add counts the same rows unsorted, in uneven chunks, one of them empty
    # and one 2-D, and sorts each chunk in place
    chunked = evaluation._MeanJS(lo, hi, pairs)
    for a, row in enumerate(rows):
        chunks = np.split(row.copy(), [3, 250, 250, 256])
        chunks[-1] = chunks[-1].reshape(12, 37)
        for chunk in chunks[::-1]:
            chunked.add(a, chunk)
            flat = chunk.ravel()
            assert np.array_equal(np.sort(flat), flat, equal_nan=True)
    for j, a in enumerate(np.ravel(pairs)):
        r = chunked.ranges[j // 2]
        if r[0] == r[1]:
            assert not chunked.counts[j].any(), (j, r)
        else:
            want = np.histogram(rows[a], JS_BINS, r)[0]
            assert np.array_equal(chunked.counts[j], want), (j, r)


@pytest.mark.parametrize(
    "num_pairs, most", [(1, 0), (1, 10**6), (6, 3), (1200, 0), (1200, 10**6)]
)
def test_mean_js_value_equals_the_pair_loop(num_pairs, most):
    # one pass over every pair, summed left to right as the loop sums, so
    # every report digit stays
    rng = np.random.default_rng(num_pairs + most)
    samples = max(2, num_pairs // 10)
    pairs = [rng.choice(samples, size=2, replace=False) for _ in range(num_pairs)]
    js = evaluation._MeanJS([0.0] * samples, [1.0] * samples, pairs)
    for spread in (most, rng.integers(0, most + 1, size=2 * num_pairs)[:, None]):
        js.counts[:] = rng.integers(0, spread + 1, size=js.counts.shape)
        assert js.value().hex() == oracles.ref_mean_js_value(js.counts).hex()


def test_ranges_too_narrow_for_the_bins_are_refused():
    # 51 edges over fewer floats repeat some; np.histogram refused them with
    # a bare ValueError, and counting by them would give plausible numbers
    one = 1.0 + 16 * np.finfo(np.float64).eps
    want = r"^score range \[1.0, 1.0000000000000036\] is too narrow"
    with pytest.raises(DataError, match=want):
        js_divergence([1.0], [one])
    scores = np.array([[1.0, one, 1.0], [one, 1.0, 1.0]])
    two = _dataset(2, 3, [[], []])
    with pytest.raises(DataError, match="too narrow for 50 bins$"):
        user_divergence(_params_from_scores(scores), two, 20)
    assert js_divergence([1.0], [1.0 + 64 * np.finfo(np.float64).eps]) > 0


def test_evaluate_model_zero_spread_is_a_data_error():
    # every user's test item scores last, so no top-1 list holds a test hit
    # and every group's reo@1 probability is 0
    scores = np.tile(np.arange(6.0, 0.0, -1.0), (4, 1))
    train = [[0], [1], [0], [1]]
    test = [[5], [4], [4], [5]]
    ds = _dataset(4, 6, train, test=test)
    cat = GroupCatalog(["a", "b"], np.array([[1, 0], [0, 1]] * 3, dtype=np.uint8))
    params = _params_from_scores(scores)
    want = "^reo@1: undefined, every group's probability is 0$"
    with pytest.raises(DataError, match=want):
        evaluate_model(params, ds, cat, ks=(1,), js_user_pairs=20)
    # relative_std itself keeps its ValueError
    with pytest.raises(ValueError, match="zero mean"):
        relative_std([0.0, 0.0])


def _identity_corpus(num_users, num_items, num_groups, seed):
    """Synthetic split with edge users: every fifth user holds all their
    held-out items in test and has 6 or 7 eligible items, list lengths where
    zero padding to 15 changes numpy's NDCG sums; users 1 and 2 have no test
    items (user 2 no val items either)."""
    raw, catalog = generate_synthetic(
        SyntheticSpec(
            num_users=num_users,
            num_items=num_items,
            num_groups=num_groups,
            group_item_shares=(1.0 / num_groups,) * num_groups,
            group_popularity=tuple(np.linspace(1.0, 0.3, num_groups)),
            interactions_per_user=12,
            seed=seed,
        )
    )
    ds = split(raw, seed=seed)
    train, val, test = list(ds.train_pos), list(ds.val_pos), list(ds.test_pos)
    for u in range(0, num_users, 5):
        extra = 2 + u % 2
        test[u] = np.sort(np.concatenate([val[u], test[u]]))
        val[u] = np.empty(0, dtype=np.int64)
        free = np.setdiff1d(np.arange(num_items), test[u])
        train[u] = free[: len(free) - extra]
    train[1] = np.sort(np.concatenate([train[1], test[1]]))
    test[1] = np.empty(0, dtype=np.int64)
    train[2] = np.sort(np.concatenate([train[2], val[2], test[2]]))
    val[2] = test[2] = np.empty(0, dtype=np.int64)
    return InteractionDataset(num_users, num_items, train, val, test), catalog


_IDENTITY_CORPORA = {
    "2groups": _identity_corpus(150, 40, 2, seed=3),
    "3groups": _identity_corpus(97, 60, 3, seed=8),
}


def _identity_models(ds):
    rng = np.random.default_rng(ds.num_users)
    random_init = init_params(ds.num_users, ds.num_items, 6, seed=5)
    # one decimal: many exact ties, broken by ascending item id
    tied = np.round(rng.normal(size=(ds.num_users, ds.num_items)), 1)
    return {"random": random_init, "tied": _params_from_scores(tied)}


def _set_rows(monkeypatch, rows, m):
    """Set the byte budget so that blocks of M = ``m`` scores hold ``rows``."""
    monkeypatch.setattr(evaluation, "BLOCK_BYTES", rows * 8 * m)


@pytest.mark.parametrize("rows", [2, 3, 64])
def test_blocks_cover_users_without_single_row_blocks(rows, monkeypatch):
    # BLAS scores a lone row with gemv, which rounds unlike a block's gemm
    _set_rows(monkeypatch, rows, 40)
    # at 10**6 items the same budget buys the floor of two rows a block
    for m, want in ((40, rows), (10**6, 2)):
        assert evaluation._block_rows(m) == want
        for n in range(1, 3 * rows + 3):
            blocks = list(evaluation._blocks(n, m))
            assert [lo for lo, _ in blocks] == [0] + [
                hi for _, hi in blocks[:-1]
            ]
            assert blocks[-1][1] == n
            sizes = [hi - lo for lo, hi in blocks]
            assert max(sizes) <= want + 1
            assert min(sizes) >= min(n, 2)
            assert len(evaluation._block_buffer(n, m)) >= max(sizes)


def _sparse_dataset(rng, n, m):
    """Random splits in which about a third of each split's lists are empty."""
    lists = []
    for _ in range(3):
        sizes = rng.integers(1, 5, size=n) * (rng.random(n) > 0.33)
        lists.append([np.sort(rng.choice(m, size=k, replace=False)) for k in sizes])
    return InteractionDataset(n, m, *lists)


def _ref_block_pairs(ds, split, users):
    lists = {"pos": ds.train_pos, "val": ds.val_pos, "test": ds.test_pos}[split]
    start = getattr(ds, f"{split}_indptr")
    rows, items, at = [], [], []
    for r, u in enumerate(users.tolist()):
        for j, item in enumerate(lists[u].tolist()):
            rows.append(r)
            items.append(item)
            at.append(int(start[u]) + j)
    return rows, items, at


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_pairs_match_a_per_user_reference(seed):
    rng = np.random.default_rng(seed)
    n = 30
    ds = _sparse_dataset(rng, n, 9)
    selections = [np.arange(0), np.arange(n), np.array([0]), np.array([n - 1])]
    selections += [np.arange(a, b) for a, b in ((0, 7), (5, 6), (11, 30))]
    for size in (1, 2, 7, 15, 29):
        picked = np.sort(rng.choice(n, size=size, replace=False))
        selections += [picked, np.union1d(picked, [0, n - 1])]
    for split in ("pos", "val", "test"):
        sizes = np.diff(getattr(ds, f"{split}_indptr"))
        assert (sizes == 0).any() and (sizes > 0).any()
        for users in selections:
            (rows, items), at = evaluation._block_pairs(ds, split, users)
            want_rows, want_items, want_at = _ref_block_pairs(ds, split, users)
            assert rows.tolist() == want_rows, (split, users)
            assert items.tolist() == want_items, (split, users)
            assert at.tolist() == want_at, (split, users)


def test_block_rows_follow_the_byte_budget():
    # 2 rows of 10**6 items, where 2048 would ask for 16 GB a buffer
    m = 10**6
    assert evaluation._block_rows(m) == 2
    assert evaluation._block_buffer(10**5, m).nbytes <= 3 * 8 * m
    assert evaluation._block_rows(5000) == 209
    assert evaluation._block_rows(2000) == 524
    # no cap: 2000 users of 200 items are one block
    assert evaluation._block_rows(200) == 5242


# block sizes: tiny, odd, mid, the whole corpus, and N - 1, which leaves a
# one-row remainder that must join the block before it
@pytest.mark.parametrize("block", [2, 3, 64, "n", "n-1"])
@pytest.mark.parametrize("exclude", ["train", "train+val"])
@pytest.mark.parametrize("corpus", sorted(_IDENTITY_CORPORA))
def test_evaluate_model_matches_reference_bytes(
    corpus, exclude, block, monkeypatch
):
    ds, cat = _IDENTITY_CORPORA[corpus]
    n = ds.num_users
    rows = {"n": n, "n-1": n - 1}.get(block, block)
    _set_rows(monkeypatch, rows, ds.num_items)
    for name, params in _identity_models(ds).items():
        kwargs = dict(ks=(1, 5, 15), exclude=exclude, js_user_pairs=200)
        got = evaluate_model(params, ds, cat, **kwargs)
        want = reference_evaluate_model(params, ds, cat, **kwargs)
        assert got.to_json() == want.to_json(), name
        assert got.to_json() == json.dumps(
            ref_report_dict(want), indent=2, sort_keys=True
        ), name
        assert got.to_tsv("m") == ref_report_tsv(want, "m"), name
        ranking = evaluation.rank_topk(params, ds, 15, exclude=exclude)
        assert [l.tolist() for l in ranking.lists] == [
            l.tolist() for l in ref_rank_topk(params, ds, 15, exclude).lists
        ], name


@pytest.mark.parametrize("rows", [2, 5, 33])
@pytest.mark.parametrize("corpus", sorted(_IDENTITY_CORPORA))
def test_evaluate_model_matches_reference_bytes_under_byte_budget(
    corpus, rows, monkeypatch
):
    # 7 bytes short of an extra row buy no row
    ds, cat = _IDENTITY_CORPORA[corpus]
    monkeypatch.setattr(evaluation, "BLOCK_BYTES", rows * 8 * ds.num_items + 7)
    assert evaluation._block_rows(ds.num_items) == rows
    for name, params in _identity_models(ds).items():
        kwargs = dict(ks=(1, 5, 15), js_user_pairs=200)
        got = evaluate_model(params, ds, cat, **kwargs)
        want = reference_evaluate_model(params, ds, cat, **kwargs)
        assert got.to_json() == want.to_json(), name


_BLOCKS = [2, 3, 64, "n", "n-1"]


def _block_rows(block, n):
    return {"n": n, "n-1": n - 1}.get(block, block)


@pytest.mark.parametrize("block", _BLOCKS)
def test_evaluate_model_scores_each_block_twice(block, monkeypatch):
    # a sweep feeds the ranking, mode "all"'s ranges and the test pairs, and
    # a second sweep counts mode "all"'s histograms; between them
    # user_divergence scores its sampled users in blocks twice, once for
    # their ranges and once for their histograms
    ds, cat = _IDENTITY_CORPORA["3groups"]
    n, m = ds.num_users, ds.num_items
    _set_rows(monkeypatch, _block_rows(block, n), m)
    calls = []
    score = evaluation._score_matrix

    def counted(params, users=slice(None), out=None):
        calls.append(users)
        return score(params, users, out=out)

    monkeypatch.setattr(evaluation, "_score_matrix", counted)
    params = _identity_models(ds)["random"]
    evaluate_model(params, ds, cat, js_user_pairs=50)
    sampled = np.unique(np.concatenate(_sampled_pairs(n, 50, 0)))
    sweep = [np.arange(lo, hi) for lo, hi in evaluation._blocks(n, m)]
    users = [sampled[lo:hi] for lo, hi in evaluation._blocks(len(sampled), m)]
    assert len(calls) == 2 * len(sweep) + 2 * len(users)
    for got, want in zip(calls, sweep + users + users + sweep):
        assert isinstance(got, np.ndarray) and (np.diff(got) > 0).all()
        assert np.array_equal(got, want)


@pytest.mark.parametrize("block", _BLOCKS)
def test_rank_topk_on_block_sees_unmasked_scores(block, monkeypatch):
    ds, _ = _IDENTITY_CORPORA["3groups"]
    n = ds.num_users
    _set_rows(monkeypatch, _block_rows(block, n), ds.num_items)
    params = _identity_models(ds)["random"]
    seen = []
    got = rank_topk(
        params, ds, 15, exclude="train+val",
        on_block=lambda lo, hi, scores: seen.append((lo, hi, scores.copy())),
    )
    assert [lo for lo, _, _ in seen] == [0] + [hi for _, hi, _ in seen[:-1]]
    assert seen[-1][1] == n
    for lo, hi, scores in seen:
        want = evaluation._score_matrix(params, slice(lo, hi))
        train = np.zeros(want.shape, dtype=bool)
        for u in range(lo, hi):
            train[u - lo, ds.train_pos[u]] = True
        assert np.isnan(scores[train]).all()
        assert np.array_equal(scores[~train], want[~train])
    plain = rank_topk(params, ds, 15, exclude="train+val")
    assert np.array_equal(got.items, plain.items)
    assert np.array_equal(got.lengths, plain.lengths)


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("corpus", sorted(_IDENTITY_CORPORA))
def test_group_divergence_equals_evaluate_model(corpus, block, monkeypatch):
    ds, cat = _IDENTITY_CORPORA[corpus]
    _set_rows(monkeypatch, _block_rows(block, ds.num_users), ds.num_items)
    for params in _identity_models(ds).values():
        report = evaluate_model(params, ds, cat, js_user_pairs=20)
        assert group_divergence(params, ds, cat, "all") == report.js_group_all
        assert (
            group_divergence(params, ds, cat, "positive") == report.js_group_pos
        )


def test_rank_topk_non_finite_scores_match_reference(monkeypatch):
    # +inf scores sort first, -inf and NaN are never ranked: a list can end
    # short of k although the catalogue has room
    rng = np.random.default_rng(9)
    n, m = 23, 9
    table = np.round(rng.normal(size=(n, m)), 1)
    r = rng.random((n, m))
    table[r < 0.15] = np.inf
    table[(r >= 0.15) & (r < 0.3)] = -np.inf
    table[(r >= 0.3) & (r < 0.45)] = np.nan

    def scores(params, users=slice(None), out=None):
        rows = table[users]
        if out is None:
            return rows.copy()
        out[: len(rows)] = rows
        return out[: len(rows)]

    monkeypatch.setattr(evaluation, "_score_matrix", scores)
    monkeypatch.setattr(oracles, "_ref_score_matrix", scores)
    ds = random_dataset(rng, n, m, max_pos=4)
    params = init_params(n, m, 2, seed=0)
    for rows in (2, 3, 64):
        _set_rows(monkeypatch, rows, m)
        for k in (1, 4, 15):
            for exclude in ("train", "train+val"):
                got = rank_topk(params, ds, k, exclude=exclude)
                want = ref_rank_topk(params, ds, k, exclude)
                assert [l.tolist() for l in got.lists] == [
                    l.tolist() for l in want.lists
                ], (rows, k, exclude)


def test_user_divergence_user_without_eligible_items():
    # user 0 trained on the whole catalogue: no score sample to compare
    train = [np.arange(5)] + [np.array([u % 5]) for u in range(1, 6)]
    ds = _dataset(6, 5, train)
    params = init_params(6, 5, 3, seed=0)
    with pytest.raises(DataError, match="^user_divergence: user 0 has no"):
        user_divergence(params, ds, sample_pairs=100, seed=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("corpus", sorted(_IDENTITY_CORPORA))
def test_user_divergence_equals_reference(corpus, seed):
    ds, _ = _IDENTITY_CORPORA[corpus]
    for name, params in _identity_models(ds).items():
        got = user_divergence(params, ds, sample_pairs=300, seed=seed)
        assert got == ref_user_divergence(
            params, ds, sample_pairs=300, seed=seed
        ), name


def _sampled_pairs(n, sample_pairs, seed):
    """user_divergence's draw of (u, v) pairs, u != v."""
    rng = np.random.default_rng(seed)
    us = rng.integers(0, n, size=sample_pairs)
    vs = rng.integers(0, n, size=sample_pairs)
    clash = us == vs
    while clash.any():
        vs[clash] = rng.integers(0, n, size=int(clash.sum()))
        clash = us == vs
    return us, vs


@pytest.mark.parametrize("rows", [2, 3, 64])
@pytest.mark.parametrize("corpus", sorted(_IDENTITY_CORPORA))
def test_user_divergence_in_blocks_equals_reference(corpus, rows, monkeypatch):
    ds, _ = _IDENTITY_CORPORA[corpus]
    n, m = ds.num_users, ds.num_items
    _set_rows(monkeypatch, rows, m)
    scored = []
    score = evaluation._score_matrix

    def counted(params, users=slice(None), out=None):
        got = score(params, users, out=out)
        scored.append(len(got))
        return got

    monkeypatch.setattr(evaluation, "_score_matrix", counted)
    models = _identity_models(ds)
    # every third user scores every item 0.5: two such users make a pair
    # whose joint range is one point
    flat = np.round(np.random.default_rng(1).normal(size=(n, m)), 1)
    flat[::3] = 0.5
    models["flat"] = _params_from_scores(flat)
    for seed in (0, 1, 2):
        us, vs = _sampled_pairs(n, 300, seed)
        users = np.unique(np.concatenate((us, vs)))
        block = np.empty(n, dtype=np.int64)
        for i, (lo, hi) in enumerate(evaluation._blocks(len(users), m)):
            block[users[lo:hi]] = i
        assert (block[us] != block[vs]).any()
        assert ((us % 3 == 0) & (vs % 3 == 0)).any()
        for name, params in models.items():
            got = user_divergence(params, ds, sample_pairs=300, seed=seed)
            assert got == ref_user_divergence(
                params, ds, sample_pairs=300, seed=seed
            ), (name, seed)
    # a block is at most the rule's rows, plus a one-row tail it took in
    assert max(scored) <= evaluation._block_rows(m) + 1 == rows + 1


def test_evaluate_model_memory_follows_the_byte_budget():
    # one (2048, M) block would be 62.5 MiB here, and one matrix of the
    # 1446 sampled users 44 MiB
    rng = np.random.default_rng(0)
    n, m = 3000, 4000
    ds = random_dataset(rng, n, m)
    cat = random_catalog(rng, m, 2)
    params = init_params(n, m, 8, seed=0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        report = evaluate_model(params, ds, cat)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    ranking = n * max(report.ks) * 8
    assert peak <= 4 * evaluation.BLOCK_BYTES + ranking


def test_user_divergence_equals_reference_on_degenerate_ranges():
    # users 0 and 1 score every non-training item 0.5, so their joint range
    # is one point; their training items score elsewhere and must not count
    rng = np.random.default_rng(4)
    scores = np.round(rng.normal(size=(6, 8)), 1)
    scores[:2] = 0.5
    scores[0, 2], scores[1, 5] = 3.0, -2.0
    train = [np.array([2]), np.array([5])] + [
        np.sort(rng.choice(8, size=2, replace=False)) for _ in range(4)
    ]
    ds = _dataset(6, 8, train)
    params = _params_from_scores(scores)
    for seed in (0, 1, 2):
        got = user_divergence(params, ds, sample_pairs=200, seed=seed)
        assert got == ref_user_divergence(
            params, ds, sample_pairs=200, seed=seed
        )
    two = _dataset(2, 8, train[:2])
    assert user_divergence(_params_from_scores(scores[:2]), two, 20) == 0.0


@pytest.mark.parametrize("catalog_items", [25, 15])
def test_catalog_must_cover_the_datasets_items(catalog_items):
    # the first 20 rows of the 25-item catalog are the matching catalog's:
    # unchecked, prob_rsp would return plausible numbers for them
    rng = np.random.default_rng(2)
    ds = random_dataset(rng, 30, 20)
    memberships = random_catalog(rng, 25, 2).memberships[:catalog_items]
    cat = GroupCatalog(["g0", "g1"], memberships)
    params = init_params(30, 20, 4, seed=0)
    ranking = rank_topk(params, ds, 5)
    want = f"^group catalog covers {catalog_items} items, dataset has 20$"
    for call in (
        lambda: prob_rsp(ranking, ds, cat),
        lambda: prob_reo(ranking, ds, cat),
        lambda: group_divergence(params, ds, cat, "all"),
        lambda: group_divergence(params, ds, cat, "positive"),
        lambda: evaluate_model(params, ds, cat, js_user_pairs=20),
    ):
        with pytest.raises(DataError, match=want):
            call()


def test_threads_follow_the_cpu_affinity():
    if hasattr(os, "sched_getaffinity"):
        assert evaluation.THREADS == len(os.sched_getaffinity(0))
    assert evaluation.THREADS >= 1


_THREADS = [1, 2, 3, 8]


@pytest.fixture
def short_switches():
    """A short interpreter switch interval, so that threads interleave often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("corpus", sorted(_IDENTITY_CORPORA))
def test_outputs_do_not_depend_on_the_thread_count(
    corpus, block, monkeypatch, short_switches
):
    # block rows 2 and 3 leave parts of one row and blocks with fewer rows
    # than threads
    ds, cat = _IDENTITY_CORPORA[corpus]
    _set_rows(monkeypatch, _block_rows(block, ds.num_users), ds.num_items)
    kwargs = dict(ks=(1, 5, 15), js_user_pairs=200)
    for name, params in _identity_models(ds).items():
        want = reference_evaluate_model(params, ds, cat, **kwargs).to_json()
        want_lists = [
            l.tolist() for l in ref_rank_topk(params, ds, 15, "train").lists
        ]
        seen = set()
        for threads in _THREADS:
            monkeypatch.setattr(evaluation, "THREADS", threads)
            got = evaluate_model(params, ds, cat, **kwargs)
            assert got.to_json() == want, (name, threads)
            ranking = rank_topk(params, ds, 15, exclude="train")
            assert [l.tolist() for l in ranking.lists] == want_lists
            seen.add(
                (
                    group_divergence(params, ds, cat, "all"),
                    group_divergence(params, ds, cat, "positive"),
                    user_divergence(params, ds, sample_pairs=200),
                )
            )
        assert seen == {(got.js_group_all, got.js_group_pos, got.js_user)}, name


def test_mean_js_counts_lose_no_update_across_threads(short_switches):
    # more adding threads than CPUs, each chunk of a sample counted once;
    # numpy adds rows of this many bins with the interpreter lock released
    rng = np.random.default_rng(3)
    pairs = [(0, 1), (0, 2), (1, 2)]
    lo, hi = [-4.0, -3.0, -2.0], [4.0, 5.0, 6.0]
    chunks = [
        (a, rng.uniform(lo[a], hi[a], size=50)) for a in (0, 1, 2) for _ in range(300)
    ]
    bins = 20000
    alone = evaluation._MeanJS(lo, hi, pairs, bins)
    for a, x in chunks:
        alone.add(a, x)
    shared = evaluation._MeanJS(lo, hi, pairs, bins)
    with ThreadPoolExecutor(4 * evaluation.THREADS + 4) as pool:
        futures = [pool.submit(shared.add, a, x) for a, x in chunks]
        for f in futures:
            f.result(timeout=60)
    assert np.array_equal(shared.counts, alone.counts)
    assert shared.counts.sum() == 2 * 50 * len(chunks)
    assert shared.value() == alone.value()


def test_evaluate_model_memory_holds_the_byte_budget_at_any_thread_count(
    monkeypatch,
):
    # the bound of test_evaluate_model_memory_follows_the_byte_budget; each
    # part's scratch is its own rows, and the histograms that run at once
    # hold one more block at most, so more threads add less than a block
    rng = np.random.default_rng(0)
    n, m = 3000, 4000
    ds = random_dataset(rng, n, m)
    cat = random_catalog(rng, m, 2)
    params = init_params(n, m, 8, seed=0)
    peaks = {}
    for threads in (1, 2, 8):
        monkeypatch.setattr(evaluation, "THREADS", threads)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = evaluate_model(params, ds, cat)
            peaks[threads] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        ranking = n * max(report.ks) * 8
        assert peaks[threads] <= 4 * evaluation.BLOCK_BYTES + ranking, threads
        assert peaks[threads] <= peaks[1] + evaluation.BLOCK_BYTES, threads


@pytest.mark.parametrize("block", [3, 64, "n"])
def test_scoring_and_on_block_stay_on_the_calling_thread(block, monkeypatch):
    # the per-layer hooks wrap _score_matrix and on_block with a span stack
    # that is not thread-safe; parts run elsewhere
    ds, cat = _IDENTITY_CORPORA["3groups"]
    n, m = ds.num_users, ds.num_items
    _set_rows(monkeypatch, _block_rows(block, n), m)
    monkeypatch.setattr(evaluation, "THREADS", 3)
    calls, blocks, adders = [], [], set()
    score = evaluation._score_matrix
    on_block = evaluation._GroupJS.__call__
    add = evaluation._MeanJS.add

    def scored(params, users=slice(None), out=None):
        calls.append((threading.get_ident(), users))
        return score(params, users, out=out)

    def handed(self, lo, hi, scores):
        blocks.append((threading.get_ident(), lo, hi))
        return on_block(self, lo, hi, scores)

    def added(self, a, x):
        adders.add(threading.get_ident())
        return add(self, a, x)

    monkeypatch.setattr(evaluation, "_score_matrix", scored)
    monkeypatch.setattr(evaluation._GroupJS, "__call__", handed)
    monkeypatch.setattr(evaluation._MeanJS, "add", added)
    evaluate_model(_identity_models(ds)["random"], ds, cat, js_user_pairs=50)
    main = threading.get_ident()
    sampled = np.unique(np.concatenate(_sampled_pairs(n, 50, 0)))
    sweep = [np.arange(lo, hi) for lo, hi in evaluation._blocks(n, m)]
    users = [sampled[lo:hi] for lo, hi in evaluation._blocks(len(sampled), m)]
    assert {ident for ident, _ in calls} == {main}
    assert len(calls) == 2 * len(sweep) + 2 * len(users)
    for (_, got), want in zip(calls, sweep + users + users + sweep):
        assert np.array_equal(got, want)
    assert blocks == [(main, lo, hi) for lo, hi in evaluation._blocks(n, m)]
    # the group histograms did run in parts on other threads
    assert main in adders and len(adders) > 1


def test_sweep_raises_a_parts_error_unchanged(monkeypatch):
    ds, _ = _IDENTITY_CORPORA["2groups"]
    params = _identity_models(ds)["random"]
    _set_rows(monkeypatch, 12, ds.num_items)
    monkeypatch.setattr(evaluation, "THREADS", 4)
    before = threading.active_count()
    # blocks of 12 rows in MAX_PARTS parts of 4
    for failing in (0, 1, 2):
        err = RuntimeError(f"part {failing}")
        done = []

        def part(lo, hi, i, scores):
            done.append(lo)
            if lo // 4 % 3 == failing and lo >= 24:
                raise err

        with pytest.raises(RuntimeError) as caught:
            evaluation._sweep(params, ds, part=part)
        assert caught.value is err
        # the failing block's parts all ended; no later block was swept
        assert sorted(done) == list(range(0, 36, 4))
        assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 2, 3, 8, 64])
def test_sweep_cuts_a_block_into_at_most_max_parts(threads, monkeypatch):
    # more parts than MAX_PARTS would hold more histograms at once than one
    # block's bytes, and run slower where the CPUs are fewer than THREADS
    ds, _ = _IDENTITY_CORPORA["2groups"]
    params = _identity_models(ds)["random"]
    _set_rows(monkeypatch, 12, ds.num_items)
    monkeypatch.setattr(evaluation, "THREADS", threads)
    t = min(threads, evaluation.MAX_PARTS)
    runs, idents = [], set()

    def part(lo, hi, scores, work):
        runs.append((lo, hi, len(scores)))
        idents.add(threading.get_ident())

    evaluation._sweep(params, ds, part=part)
    want = []
    for a, b in evaluation._blocks(ds.num_users, ds.num_items):
        edges = [(b - a) * p // min(t, b - a) for p in range(min(t, b - a) + 1)]
        want += [(a + i, a + j, j - i) for i, j in zip(edges, edges[1:])]
    assert sorted(runs) == want
    assert len(idents) <= t


def test_sweep_gives_each_part_its_rows_of_one_work_block(monkeypatch):
    # the sweep owns the parts' second buffer: each part gets its own rows
    # of it, laid out as its scores, and mode "all" copies group columns
    # there rather than into a buffer of its own
    ds, cat = _IDENTITY_CORPORA["3groups"]
    params = _identity_models(ds)["random"]
    _set_rows(monkeypatch, 12, ds.num_items)
    monkeypatch.setattr(evaluation, "THREADS", 3)
    js = evaluation._GroupJS(params, ds, cat)
    evaluation._sweep(params, ds, on_block=js)
    sweep, add = evaluation._sweep, evaluation._MeanJS.add
    runs, working, added = [], {}, []

    def watched(params, dataset, users=None, *, on_block=None, part=None):
        def handed(lo, hi, scores, work):
            runs.append((lo, hi, scores, work))
            working[threading.get_ident()] = work
            return part(lo, hi, scores, work)

        return sweep(params, dataset, users, on_block=on_block, part=handed)

    def adding(self, a, x):
        added.append(np.shares_memory(x, working[threading.get_ident()]))
        return add(self, a, x)

    monkeypatch.setattr(evaluation, "_sweep", watched)
    monkeypatch.setattr(evaluation._MeanJS, "add", adding)
    js.all()
    assert len(added) == len(runs) * cat.num_groups and all(added)
    base = runs[0][3].base
    for a, b in evaluation._blocks(ds.num_users, ds.num_items):
        parts = [run for run in runs if a <= run[0] < b]
        assert sorted((lo, hi) for lo, hi, _, _ in parts) == [
            (a + (b - a) * p // 3, a + (b - a) * (p + 1) // 3) for p in range(3)
        ]
        for lo, hi, scores, work in parts:
            assert work.flags.c_contiguous
            assert work.shape == scores.shape == (hi - lo, ds.num_items)
            assert np.shares_memory(work, base)
            assert not np.shares_memory(work, scores)
        for p, (_, _, _, work) in enumerate(parts):
            for _, _, _, other in parts[p + 1 :]:
                assert not np.shares_memory(work, other)


def test_evaluate_model_raises_a_parts_error_unchanged(monkeypatch):
    ds, cat = _IDENTITY_CORPORA["3groups"]
    params = _identity_models(ds)["random"]
    _set_rows(monkeypatch, 8, ds.num_items)
    monkeypatch.setattr(evaluation, "THREADS", 2)
    before = threading.active_count()
    want = evaluate_model(params, ds, cat, js_user_pairs=50).to_json()
    assert threading.active_count() == before
    main = threading.main_thread()
    err = FloatingPointError("in a part")
    pairs = evaluation._block_pairs

    def failing(dataset, split, users):
        if split == "val" and threading.current_thread() is not main:
            raise err
        return pairs(dataset, split, users)

    monkeypatch.setattr(evaluation, "_block_pairs", failing)
    with pytest.raises(FloatingPointError) as caught:
        evaluate_model(params, ds, cat, js_user_pairs=50)
    assert caught.value is err
    assert threading.active_count() == before
    monkeypatch.setattr(evaluation, "_block_pairs", pairs)
    assert evaluate_model(params, ds, cat, js_user_pairs=50).to_json() == want
