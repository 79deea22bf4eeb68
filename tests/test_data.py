import numpy as np
import pytest

from fairrank.data import (
    SyntheticSpec,
    generate_synthetic,
    load_groups,
    load_interactions,
    split,
)
from fairrank.errors import ConfigError, DataError
from fairrank.trainer import TrainConfig, _sample_neg_matrix

from conftest import DATA_DIR, make_synth
from oracles import ref_sample_neg_matrix, ref_split


def test_load_interactions_dedup_and_first_seen(small_raw):
    # 10 file rows, one duplicate
    assert small_raw.pairs.shape == (9, 2)
    assert small_raw.num_users == 5
    assert small_raw.num_items == 4
    assert small_raw.user_index == {
        "alice": 0, "bob": 1, "carol": 2, "dan": 3, "erin": 4
    }
    assert small_raw.item_index == {
        "apple": 0, "banana": 1, "cherry": 2, "date": 3
    }
    # alice holds apple, banana, cherry exactly once
    alice = small_raw.pairs[small_raw.pairs[:, 0] == 0][:, 1]
    assert sorted(alice.tolist()) == [0, 1, 2]


def test_load_interactions_bom(tmp_path):
    p = tmp_path / "x.csv"
    p.write_bytes(b"\xef\xbb\xbfuser_id,item_id\na,b\n")
    raw = load_interactions(str(p))
    assert raw.pairs.shape == (1, 2)


def test_load_interactions_errors(tmp_path):
    with pytest.raises(DataError, match="file not found"):
        load_interactions(str(tmp_path / "absent.csv"))

    bad_header = tmp_path / "h.csv"
    bad_header.write_text("user,item\na,b\n")
    with pytest.raises(DataError, match="header"):
        load_interactions(str(bad_header))

    bad_cols = tmp_path / "c.csv"
    bad_cols.write_text("user_id,item_id\na,b,c\n")
    with pytest.raises(DataError, match=r":2: expected 2 columns, got 3"):
        load_interactions(str(bad_cols))

    empty_field = tmp_path / "e.csv"
    empty_field.write_text("user_id,item_id\na,\n")
    with pytest.raises(DataError, match="empty field"):
        load_interactions(str(empty_field))

    header_only = tmp_path / "o.csv"
    header_only.write_text("user_id,item_id\n")
    with pytest.raises(DataError, match="empty dataset"):
        load_interactions(str(header_only))


def test_load_groups_hand_values(small_raw, small_catalog):
    cat = small_catalog
    assert cat.group_names == ["red", "yellow", "brown", "dark"]
    expected = np.array(
        [
            [1, 0, 0, 0],  # apple
            [0, 1, 0, 0],  # banana
            [1, 0, 0, 1],  # cherry: two groups
            [0, 0, 1, 0],  # date
        ],
        dtype=np.uint8,
    )
    assert np.array_equal(cat.memberships, expected)
    assert cat.item_counts.tolist() == [2, 1, 1, 1]


def test_load_groups_errors(tmp_path, small_raw):
    unknown = tmp_path / "g.csv"
    unknown.write_text("item_id,group\nmango,red\n")
    with pytest.raises(DataError, match="'mango' not in interaction index"):
        load_groups(str(unknown), small_raw.item_index)

    partial = tmp_path / "p.csv"
    partial.write_text("item_id,group\napple,red\n")
    with pytest.raises(DataError, match="no group"):
        load_groups(str(partial), small_raw.item_index)


def _split_sizes(n, ratios):
    n_val = int(n * ratios[1] + 1e-9)
    n_test = int(n * ratios[2] + 1e-9)
    return n - n_val - n_test, n_val, n_test


def test_split_per_user_sizes_and_partition(small_raw):
    ds = split(small_raw, seed=0)
    per_user = {}
    for u, i in small_raw.pairs:
        per_user.setdefault(int(u), set()).add(int(i))
    for u, items in per_user.items():
        tr = set(ds.train_pos[u].tolist())
        va = set(ds.val_pos[u].tolist())
        te = set(ds.test_pos[u].tolist())
        n_tr, n_va, n_te = _split_sizes(len(items), (0.6, 0.2, 0.2))
        assert (len(tr), len(va), len(te)) == (n_tr, n_va, n_te)
        assert tr | va | te == items
        assert not (tr & va or tr & te or va & te)


def test_split_size_oracle_all_counts():
    # the floor-with-remainder rule, checked for every count 1..10
    expected = {
        1: (1, 0, 0), 2: (2, 0, 0), 3: (3, 0, 0), 4: (4, 0, 0),
        5: (3, 1, 1), 6: (4, 1, 1), 7: (5, 1, 1), 8: (6, 1, 1),
        9: (7, 1, 1), 10: (6, 2, 2),
    }
    for n, want in expected.items():
        assert _split_sizes(n, (0.6, 0.2, 0.2)) == want


def test_split_deterministic_and_seed_sensitive():
    raw, _ = make_synth()
    a = split(raw, seed=3)
    b = split(raw, seed=3)
    c = split(raw, seed=4)
    assert all(
        np.array_equal(x, y) for x, y in zip(a.train_pos, b.train_pos)
    )
    assert any(
        not np.array_equal(x, y) for x, y in zip(a.train_pos, c.train_pos)
    )


def test_split_bad_ratios(small_raw):
    with pytest.raises(ConfigError, match="sum to 1"):
        split(small_raw, ratios=(0.5, 0.2, 0.2))
    with pytest.raises(ConfigError, match="non-negative"):
        split(small_raw, ratios=(1.5, -0.25, -0.25))


def test_split_drops_zero_train_users(small_raw, caplog):
    # degenerate ratios: a 2-item user loses everything to val/test
    with caplog.at_level("INFO"):
        ds = split(small_raw, ratios=(0.0, 0.5, 0.5), seed=0)
    dropped = [
        u
        for u in range(ds.num_users)
        if len(ds.train_pos[u]) == 0
        and len(ds.val_pos[u]) == 0
        and len(ds.test_pos[u]) == 0
    ]
    assert dropped  # bob, carol (2 items), maybe others
    assert any("dropped" in r.message for r in caplog.records)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("ratios", [(0.6, 0.2, 0.2), (0.0, 0.5, 0.5)])
@pytest.mark.parametrize("corpus", ["small", "synth"])
def test_split_matches_reference_grouping(corpus, ratios, seed, small_raw):
    # generate_synthetic lists pairs user by user; shuffled rows interleave
    # the users, so only a stable grouping keeps each user's file order
    raw = small_raw
    if corpus == "synth":
        raw, _ = make_synth(num_users=90, num_items=50, seed=seed)
        order = np.random.default_rng(seed).permutation(len(raw.pairs))
        raw.pairs = raw.pairs[order]
    got = split(raw, ratios=ratios, seed=seed)
    want = ref_split(raw, ratios=ratios, seed=seed)
    for name in ("train_pos", "val_pos", "test_pos"):
        for g, w in zip(getattr(got, name), getattr(want, name), strict=True):
            assert g.dtype == w.dtype and np.array_equal(g, w), name
    assert (got.user_index, got.item_index) == (want.user_index, want.item_index)


def test_membership_helpers(small_raw):
    ds = split(small_raw, seed=0)
    train_set = {
        (u, int(i)) for u in range(ds.num_users) for i in ds.train_pos[u]
    }
    test_set = {
        (u, int(i)) for u in range(ds.num_users) for i in ds.test_pos[u]
    }
    users, items = [], []
    for u in range(ds.num_users):
        for i in range(ds.num_items):
            users.append(u)
            items.append(i)
    users = np.array(users)
    items = np.array(items)
    got_train = ds.in_train(users, items)
    got_test = ds.in_test(users, items)
    for n in range(len(users)):
        assert got_train[n] == ((int(users[n]), int(items[n])) in train_set)
        assert got_test[n] == ((int(users[n]), int(items[n])) in test_set)


def test_sample_negatives(small_raw):
    ds = split(small_raw, seed=0)
    rng = np.random.default_rng(0)
    users = np.repeat(np.arange(ds.num_users), 2)
    negs = _sample_neg_matrix(ds, users, 50, rng)
    assert negs.shape == (len(users), 50)
    assert not ds.in_train(np.repeat(users, 50), negs.ravel()).any()
    assert ((negs >= 0) & (negs < ds.num_items)).all()
    # the sampler draws negative_rate per positive; zero is rejected up front
    with pytest.raises(ConfigError, match="negative_rate"):
        TrainConfig(negative_rate=0).validate()


def test_sample_negatives_exhausted():
    from fairrank.data import InteractionDataset

    ds = InteractionDataset(2, 3, [np.arange(3), np.array([1])], [[]] * 2,
                            [[]] * 2)
    with pytest.raises(DataError, match="user 0 has no candidate negative"):
        _sample_neg_matrix(ds, np.array([1, 0]), 1, np.random.default_rng(1))


def _dense_corpus(num_users=40, num_items=30, seed=0):
    """Every user has trained on 24 to 29 of the 30 items, so most uniform
    draws are rejected and the sampler redraws for many rounds."""
    from fairrank.data import InteractionDataset

    rng = np.random.default_rng(seed)
    train = [
        np.sort(rng.choice(num_items, size=int(n), replace=False))
        for n in rng.integers(24, num_items, size=num_users)
    ]
    empty = [np.empty(0, dtype=np.int64)] * num_users
    return InteractionDataset(num_users, num_items, train, empty, empty)


@pytest.mark.parametrize("count", [1, 5])
def test_sample_negatives_match_reference_stream(count):
    ds = _dense_corpus()
    users = np.random.default_rng(3).integers(0, ds.num_users, size=200)
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(3):  # successive batches share one stream
        negs = _sample_neg_matrix(ds, users, count, rng)
        ref = ref_sample_neg_matrix(ds, users, count, ref_rng)
        assert negs.dtype == ref.dtype
        assert np.array_equal(negs, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert not ds.in_train(np.repeat(users, count), negs.ravel()).any()


def test_sample_negatives_exhausted_names_smallest_user():
    from fairrank.data import InteractionDataset

    full = np.arange(4)
    train = [np.array([0]), full, np.array([2]), full, np.array([1, 3])]
    empty = [np.empty(0, dtype=np.int64)] * 5
    ds = InteractionDataset(5, 4, train, empty, empty)
    users = np.array([4, 3, 0, 1, 3])
    with pytest.raises(DataError) as ref_err:
        ref_sample_neg_matrix(ds, users, 2, np.random.default_rng(0))
    with pytest.raises(DataError) as err:
        _sample_neg_matrix(ds, users, 2, np.random.default_rng(0))
    assert str(err.value) == str(ref_err.value)
    assert str(err.value) == "user 1 has no candidate negative items"


def test_synthetic_shapes_and_blocks():
    raw, cat = make_synth(num_users=50, num_items=40, per_user=8, seed=2)
    assert raw.num_users == 50
    assert len(raw.pairs) == 50 * 8
    # 75/25 item allocation in contiguous blocks
    assert cat.item_counts.tolist() == [30, 10]
    assert cat.memberships[:30, 0].all() and cat.memberships[30:, 1].all()
    assert cat.memberships.sum() == 40  # one group per item
    # no duplicate items within a user
    for u in range(50):
        items = raw.pairs[raw.pairs[:, 0] == u][:, 1]
        assert len(set(items.tolist())) == len(items)


def test_synthetic_popularity_skew():
    raw, cat = make_synth(num_users=300, num_items=60, per_user=10, seed=5)
    counts = np.zeros(2)
    for _, i in raw.pairs:
        counts += cat.memberships[int(i)]
    per_item = counts / cat.item_counts
    # group 0 items are three times as popular; sampling without
    # replacement damps the ratio, so just require a clear gap
    assert per_item[0] > 1.5 * per_item[1]


def test_synthetic_determinism():
    a, _ = make_synth(seed=9)
    b, _ = make_synth(seed=9)
    c, _ = make_synth(seed=10)
    assert np.array_equal(a.pairs, b.pairs)
    assert not np.array_equal(a.pairs, c.pairs)


def test_synthetic_validate_errors():
    good = dict(
        num_users=10,
        num_items=10,
        num_groups=2,
        group_item_shares=(0.5, 0.5),
        group_popularity=(1.0, 0.5),
        interactions_per_user=3,
    )
    SyntheticSpec(**good).validate()
    with pytest.raises(ConfigError, match="sum to 1"):
        SyntheticSpec(**{**good, "group_item_shares": (0.6, 0.6)}).validate()
    with pytest.raises(ConfigError, match="infeasible"):
        SyntheticSpec(**{**good, "interactions_per_user": 11}).validate()
    with pytest.raises(ConfigError):
        SyntheticSpec(**{**good, "group_popularity": (1.0, 0.0)}).validate()
