import os
import tracemalloc

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
from oracles import (
    ref_generate_synthetic,
    ref_load_interactions,
    ref_sample_neg_matrix,
    ref_split,
)


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


@pytest.mark.parametrize(
    "ratios", [(np.nan, 0.5, 0.5), (0.5, np.nan, 0.5), (0.5, 0.5, np.inf)]
)
def test_split_rejects_non_finite_ratios(small_raw, ratios):
    # NaN passed the sum check: one case dropped every user, one crashed
    with pytest.raises(ConfigError, match="finite, non-negative"):
        split(small_raw, ratios=ratios)


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
    # ref_split builds its dataset with the list constructor
    want = ref_split(raw, ratios=ratios, seed=seed)
    for name in ("train_pos", "val_pos", "test_pos"):
        for g, w in zip(getattr(got, name), getattr(want, name), strict=True):
            assert g.dtype == w.dtype and np.array_equal(g, w), name
    for name in _FLAT_FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        assert (g.dtype, g.shape) == (w.dtype, w.shape), name
        assert g.tobytes() == w.tobytes(), name
    assert (got.user_index, got.item_index) == (want.user_index, want.item_index)


_FLAT_FIELDS = [
    f"{split}_{a}"
    for split in ("pos", "val", "test")
    for a in ("users", "items", "indptr")
] + ["train_sizes"]


def test_list_constructor_sorts_rows_into_flat_views():
    from fairrank.data import InteractionDataset

    # user 1 holds nothing; rows arrive unsorted, as lists and arrays
    train = [[4, 0, 2], [], np.array([3, 1])]
    val = [[1], [], []]
    test = [np.array([5, 3]), [0], [5]]
    ds = InteractionDataset(3, 6, train, val, test)
    ordered = InteractionDataset(
        3, 6, *([sorted(row) for row in lists] for lists in (train, val, test))
    )
    for name in _FLAT_FIELDS:
        assert getattr(ds, name).tobytes() == getattr(ordered, name).tobytes()
    assert ds.pos_indptr.tolist() == [0, 3, 3, 5]
    assert ds.train_sizes.tolist() == [3, 0, 2]
    assert [row.tolist() for row in ds.train_pos] == [[0, 2, 4], [], [1, 3]]
    assert [row.tolist() for row in ds.test_pos] == [[3, 5], [0], [5]]
    for rows, items in (
        (ds.train_pos, ds.pos_items),
        (ds.val_pos, ds.val_items),
        (ds.test_pos, ds.test_items),
    ):
        assert not items.flags.writeable
        for row in rows:
            assert not row.flags.writeable
            if len(row):
                assert np.shares_memory(row, items)
    assert ds.train_pos is ds.train_pos  # built once
    users, items = np.divmod(np.arange(3 * 6), 6)
    for member in ("in_train", "in_val", "in_test"):
        got = getattr(ds, member)(users, items)
        assert np.array_equal(got, getattr(ordered, member)(users, items))
    assert ds.in_train(users, items).sum() == 5


@pytest.mark.parametrize(
    "lists",
    [[[0], [1]], [[0], [6], []], [[0], [-1], []]],
    ids=["one-list-short", "item-too-large", "negative-item"],
)
def test_list_constructor_rejects_lists_that_do_not_fit(lists):
    from fairrank.data import InteractionDataset

    empty = [[]] * 3
    with pytest.raises(DataError) as err:
        InteractionDataset(3, 6, lists, empty, empty)
    assert str(err.value) == "dataset: each split needs 3 lists of items in [0, 6)"


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


# (users, items, groups, item shares, popularity, per user)
_SYNTH_SPECS = {
    "k1": (30, 20, 2, (0.75, 0.25), (0.75, 0.25), 1),
    "k_m_minus_1": (20, 15, 2, (0.75, 0.25), (0.75, 0.25), 14),
    "k_m": (10, 12, 2, (0.75, 0.25), (0.75, 0.25), 12),
    "one_user": (1, 50, 2, (0.75, 0.25), (0.75, 0.25), 10),
    "one_group": (40, 30, 1, (1.0,), (1.0,), 8),
    "three_groups": (60, 45, 3, (0.5, 0.3, 0.2), (1.0, 0.5, 0.2), 9),
    "rare_group": (50, 40, 2, (0.5, 0.5), (1.0, 0.001), 10),
    "rare_group_full": (8, 20, 3, (0.4, 0.4, 0.2), (1.0, 0.5, 0.001), 20),
    "bpr_m_shape": (250, 2000, 2, (0.75, 0.25), (0.75, 0.25), 20),
    "dpr_rsp_s_shape": (200, 200, 2, (0.75, 0.25), (0.75, 0.25), 30),
    "fatr_l_shape": (150, 5000, 2, (0.75, 0.25), (0.75, 0.25), 20),
}


@pytest.mark.parametrize("seed", [0, 1, 17])
@pytest.mark.parametrize("name", sorted(_SYNTH_SPECS))
def test_synthetic_matches_per_user_choice(name, seed):
    n, m, a, shares, popularity, k = _SYNTH_SPECS[name]
    spec = SyntheticSpec(n, m, a, shares, popularity, k, seed=seed)
    raw, cat = generate_synthetic(spec)
    ref_raw, ref_cat = ref_generate_synthetic(spec)
    assert raw.pairs.dtype == ref_raw.pairs.dtype
    assert raw.pairs.shape == ref_raw.pairs.shape
    assert raw.pairs.tobytes() == ref_raw.pairs.tobytes()
    assert list(raw.user_index.items()) == list(ref_raw.user_index.items())
    assert list(raw.item_index.items()) == list(ref_raw.item_index.items())
    assert cat.group_names == ref_cat.group_names
    assert cat.memberships.dtype == ref_cat.memberships.dtype
    assert cat.memberships.tobytes() == ref_cat.memberships.tobytes()


def _load_both(path):
    """(result, DataError text) of load_interactions and of the line scan."""
    out = []
    for load in (load_interactions, ref_load_interactions):
        try:
            out.append((load(str(path)), None))
        except DataError as exc:
            out.append((None, str(exc)))
    return out


def _assert_same_load(path):
    (got, got_err), (want, want_err) = _load_both(path)
    assert got_err == want_err
    if want is not None:
        assert got.pairs.dtype == want.pairs.dtype
        assert got.pairs.shape == want.pairs.shape
        assert got.pairs.tobytes() == want.pairs.tobytes()
        assert list(got.user_index.items()) == list(want.user_index.items())
        assert list(got.item_index.items()) == list(want.item_index.items())
    return got, want_err


_LOADER_INPUTS = {
    "plain": b"user_id,item_id\na,x\nb,y\na,y\n",
    "bom": b"\xef\xbb\xbfuser_id,item_id\na,x\nb,y\n",
    "crlf": b"user_id,item_id\r\na,x\r\nb,y\r\n",
    "bare_cr": b"user_id,item_id\ra,x\rb,y\r",
    "quoted_comma": b'user_id,item_id\n"a,1",x\nb,y\n',
    "quoted_plain": b'user_id,item_id\n"a",x\na,"x"\n',
    "spaces": b"user_id,item_id\n a ,x\na,  x\n",
    "tabs": b"user_id,item_id\n\ta,x\t\na,x\n",
    "nbsp": "user_id,item_id\n\xa0a,x\na,x\xa0\n".encode(),
    "ideographic_space": "user_id,item_id\na　,x\na,x\n".encode(),
    "vertical_tab": b"user_id,item_id\na\x0b,x\na,\x1cx\n",
    "nul": b"user_id,item_id\na\x00,x\nb,y\n",
    "blank_line": b"user_id,item_id\na,x\n\nb,y\n",
    "blank_last_line": b"user_id,item_id\na,x\nb,y\n\n",
    "no_trailing_newline": b"user_id,item_id\na,x\nb,y",
    "duplicates": b"user_id,item_id\na,x\nb,y\na,x\nb,y\nb,x\na,x\n",
    "header_spaces": b" user_id , item_id \na,x\nb,y\n",
    "header_crlf_only": b"user_id,item_id\r\na,x\nb,y\n",
    "bad_header": b"user,item\na,x\n",
    "one_cell": b"user_id,item_id\na,x\nb\n",
    "three_cells": b"user_id,item_id\na,x\nb,y,z\n",
    "three_then_one": b"user_id,item_id\na,x,y\nb\n",
    "one_then_three": b"user_id,item_id\na\nb,x,y\n",
    "empty_first_cell": b"user_id,item_id\na,x\n,y\n",
    "empty_second_cell": b"user_id,item_id\na,x\nb,\n",
    "header_only": b"user_id,item_id\n",
    "header_only_no_newline": b"user_id,item_id",
    "empty_file": b"",
    "unicode_ids": "user_id,item_id\nélodie,ü\nzoë,ü\n".encode(),
    # two users: bytes compared as S2 and S1 would merge them
    "nul_suffix": b'user_id,item_id\n"a\x00",x\na,x\n',
}


@pytest.mark.parametrize("name", sorted(_LOADER_INPUTS))
def test_load_interactions_matches_line_scan(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(_LOADER_INPUTS[name])
    _assert_same_load(path)


def _write_pairs_csv(path, pairs):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_id,item_id\n")
        for u, i in pairs:
            fh.write(f"u{u},i{i}\n")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_load_interactions_matches_line_scan_on_shuffled_corpus(
    seed, tmp_path
):
    raw, _ = make_synth(num_users=70, num_items=40, per_user=9, seed=seed)
    rng = np.random.default_rng(seed)
    # shuffled rows with a tenth of them repeated
    rows = np.concatenate([raw.pairs, raw.pairs[: len(raw.pairs) // 10]])
    rows = rows[rng.permutation(len(rows))]
    path = tmp_path / "shuffled.csv"
    _write_pairs_csv(path, rows)
    got, err = _assert_same_load(path)
    assert err is None and len(got.pairs) == len(raw.pairs)


def test_load_interactions_plain_file_takes_bulk_path(monkeypatch, tmp_path):
    import fairrank.data as data

    raw, _ = make_synth(num_users=30, num_items=20, per_user=5, seed=4)
    plain = tmp_path / "plain.csv"
    _write_pairs_csv(plain, np.concatenate([raw.pairs, raw.pairs[:7]]))
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(plain.read_bytes().replace(b"\n", b"\r\n"))
    want = ref_load_interactions(str(plain))

    def no_line_scan(*args, **kwargs):
        raise AssertionError("line scan used")

    monkeypatch.setattr(data, "_read_rows", no_line_scan)
    got = load_interactions(str(plain))
    assert got.pairs.tobytes() == want.pairs.tobytes()
    assert list(got.user_index.items()) == list(want.user_index.items())
    assert list(got.item_index.items()) == list(want.item_index.items())
    # anything but plain "\n" line ends goes to the line scan
    with pytest.raises(AssertionError, match="line scan used"):
        load_interactions(str(crlf))


def test_load_interactions_non_ascii_file_takes_line_scan(monkeypatch, tmp_path):
    import fairrank.data as data

    path = tmp_path / "accents.csv"
    path.write_text(
        "user_id,item_id\nzoë,café\nbob,café\nzoë,thé\nzoë,café\n",
        encoding="utf-8",
    )
    want = ref_load_interactions(str(path))
    got = load_interactions(str(path))
    assert got.pairs.tobytes() == want.pairs.tobytes()
    assert list(got.user_index.items()) == list(want.user_index.items())
    assert list(got.item_index.items()) == list(want.item_index.items())

    def no_line_scan(*args, **kwargs):
        raise AssertionError("line scan used")

    monkeypatch.setattr(data, "_read_rows", no_line_scan)
    with pytest.raises(AssertionError, match="line scan used"):
        load_interactions(str(path))


def _load_peak_ratio(path):
    """load_interactions' traced peak allocation over the file's bytes."""
    tracemalloc.start()
    try:
        load_interactions(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / path.stat().st_size


# a str per cell made the loader peak at 16.5x the bytes of a plain file
MAX_LOAD_PEAK_RATIO = 10


def test_load_interactions_peak_memory_is_bounded(tmp_path):
    rng = np.random.default_rng(0)
    pairs = np.stack(
        (np.repeat(np.arange(5000), 20), rng.integers(0, 2000, 100_000)), axis=1
    )
    path = tmp_path / "big.csv"
    _write_pairs_csv(path, pairs)
    assert _load_peak_ratio(path) < MAX_LOAD_PEAK_RATIO


def test_load_interactions_long_id(monkeypatch, tmp_path):
    import fairrank.data as data

    # one 4096-byte id among 20k rows: cells padded to the longest id would
    # take 20k x 4 KiB
    rng = np.random.default_rng(1)
    rows = [f"u{u},i{i}\n" for u, i in rng.integers(0, [3000, 700], (20_000, 2))]
    long_id = "L" * 4096
    rows[7000] = f"{long_id},i5\n"
    rows[15000] = f"u3,{long_id}\n"
    path = tmp_path / "long.csv"
    path.write_text("user_id,item_id\n" + "".join(rows), encoding="utf-8")
    monkeypatch.setattr(data, "_read_rows", _no_line_scan)
    got, _ = _assert_same_load(path)
    assert long_id in got.user_index and long_id in got.item_index
    assert _load_peak_ratio(path) < MAX_LOAD_PEAK_RATIO


def _write_rows(path, rows, line_end="\n"):
    body = "".join(f"{u},{i}{line_end}" for u, i in rows)
    path.write_bytes(f"user_id,item_id{line_end}{body}".encode())


@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["bulk", "line_scan"])
def test_load_interactions_ids_of_one_to_three_words(line_end, monkeypatch, tmp_path):
    import fairrank.data as data

    # 7 to 17 bytes: ids are numbered by 64-bit words, so these take one,
    # two and three; each width's ids share their first 8 or 16 bytes
    ids = [f"{n:07d}" for n in range(30)] + [f"{n:08d}" for n in range(30)]
    ids += [f"abcdefgh{n % 10}" for n in range(10)]
    ids += [f"abcdefgh{n:0{w - 8}d}" for w in (15, 16) for n in range(30)]
    ids += [f"abcdefghijklmnop{n % 10}" for n in range(10)]
    ids += ["abcdefghijklmno", "abcdefghijklmnop"]
    rng = np.random.default_rng(7)
    rows = [(ids[u], ids[i]) for u, i in rng.integers(0, len(ids), (3000, 2))]
    path = tmp_path / "widths.csv"
    _write_rows(path, rows, line_end)
    if line_end == "\n":
        monkeypatch.setattr(data, "_read_rows", _no_line_scan)
    got, err = _assert_same_load(path)
    assert err is None
    assert {len(i) for i in got.user_index} == {7, 8, 9, 15, 16, 17}


def test_load_interactions_nul_ended_id_is_not_its_prefix(tmp_path):
    # 8 bytes and the same 8 plus a NUL: zero-padded to two words, the
    # longer one reads as the shorter one's bytes and its padding
    path = tmp_path / "nul.csv"
    path.write_bytes(
        b'user_id,item_id\n"abcdefgh\x00",x\nabcdefgh,x\n'
        b'abcdefgh,"y\x00"\n"abcdefgh\x00",y\n'
    )
    got, err = _assert_same_load(path)
    assert err is None
    assert list(got.user_index) == ["abcdefgh\x00", "abcdefgh"]
    assert list(got.item_index) == ["x", "y\x00", "y"]


def test_load_interactions_matches_line_scan_on_shuffled_wide_ids(
    monkeypatch, tmp_path
):
    import fairrank.data as data

    # reviewer-like 14-byte users and ASIN-like 10-byte items, rows in no
    # order, a tenth of them repeated
    rng = np.random.default_rng(8)
    users = [f"A{x:013d}" for x in rng.integers(0, 10**13, 400)]
    items = [f"B{x:09d}" for x in rng.integers(0, 10**9, 300)]
    rows = rng.integers(0, [400, 300], (6000, 2))
    rows = np.concatenate([rows, rows[:600]])[rng.permutation(6600)]
    path = tmp_path / "wide.csv"
    _write_rows(path, [(users[u], items[i]) for u, i in rows])
    monkeypatch.setattr(data, "_read_rows", _no_line_scan)
    got, err = _assert_same_load(path)
    assert err is None and got.num_users > 300 and got.num_items > 250


def test_load_interactions_ids_sharing_a_long_prefix(monkeypatch, tmp_path):
    import fairrank.data as data

    # 40-byte ids that differ in their last byte only: four words equal in
    # every cell, then one that splits them
    prefix = "http://example.com/catalogue/items/x/y/"
    rng = np.random.default_rng(9)
    rows = [
        (f"{prefix}{chr(48 + u)}", f"{prefix}{chr(48 + i)}")
        for u, i in rng.integers(0, [60, 40], (20_000, 2))
    ]
    path = tmp_path / "prefix.csv"
    _write_rows(path, rows)
    monkeypatch.setattr(data, "_read_rows", _no_line_scan)
    got, err = _assert_same_load(path)
    assert err is None and got.num_users == 60 and got.num_items == 40
    assert _load_peak_ratio(path) < MAX_LOAD_PEAK_RATIO


def test_load_interactions_word_keys_that_would_overflow(monkeypatch, tmp_path):
    import fairrank.data as data

    # 17-byte hex ids, three distinct first words: the second word spans
    # far more than the key bound over 3, so it is numbered first; when
    # 3 times its distinct count is past the bound too, the load is refused
    rng = np.random.default_rng(10)
    ids = [f"{a:08x}{b:09x}" for a, b in rng.integers(0, [3, 2**36], (200, 2))]
    path = tmp_path / "hex.csv"
    _write_rows(path, [(ids[u], "x") for u in rng.integers(0, 200, 1000)])
    monkeypatch.setattr(data, "_INT64_KEYS", 1 << 20)
    got, err = _assert_same_load(path)
    assert err is None and got.num_users > 150
    monkeypatch.setattr(data, "_INT64_KEYS", 256)
    with pytest.raises(DataError, match="ids of 17 bytes: too many to number"):
        load_interactions(str(path))


def test_line_scan_reports_the_line_a_row_starts_on(tmp_path):
    # a quoted cell spans lines 2 and 3, so the one-cell row is line 4
    path = tmp_path / "ml.csv"
    path.write_bytes(b'user_id,item_id\n"a\nb",x\nc\n')
    _, err = _assert_same_load(path)
    assert err == f"{path}:4: expected 2 columns, got 1"
    path.write_bytes(b'user_id,item_id\n"a\nb",x\n"c\nd",y,z\n')
    _, err = _assert_same_load(path)
    assert err == f"{path}:4: expected 2 columns, got 3"


def test_load_groups_unknown_item_line_after_a_multiline_cell(tmp_path, small_raw):
    path = tmp_path / "g.csv"
    path.write_bytes(b'item_id,group\napple,"red\nand green"\nmango,red\n')
    with pytest.raises(DataError, match=r"g\.csv:4: item 'mango' not in"):
        load_groups(str(path), small_raw.item_index)


@pytest.mark.parametrize("top", [2**20, 2**63 - 1], ids=["packed", "argsort"])
def test_first_ids_matches_unique(top):
    from fairrank.data import _first_ids

    # keys below 2**20 leave room for their positions; keys up to 2**63,
    # and negative ones, do not
    rng = np.random.default_rng(12)
    keys = rng.integers(0, top, 500)[rng.integers(0, 500, 5000)]
    if top > 2**20:
        keys[::7] = -keys[::7]
    _, index, inverse = np.unique(keys, return_index=True, return_inverse=True)
    first = _first_ids(keys)
    assert first.tolist() == index.tolist()
    assert keys.tolist() == inverse.tolist()


@pytest.mark.parametrize("newline", [False, True], ids=["bulk", "line_scan"])
def test_load_interactions_id_wider_than_int16(newline, monkeypatch, tmp_path):
    import fairrank.data as data

    # one id of 2**16 + 11 bytes, which an int16 width would mistake for
    # the 11 bytes of the other users; one id may hold a newline
    rng = np.random.default_rng(13)
    long_id = "L" * (2**16 + 11)
    users = [f"user-{n:06d}" for n in range(3000)] + [long_id]
    users += ['"a\nb"'] if newline else []
    rows = rng.integers(0, [len(users), 50], (12_000, 2))
    rows[:len(users), 0] = rng.permutation(len(users))
    path = tmp_path / "names.csv"
    _write_rows(path, [(users[u], f"i{i}") for u, i in rows])
    if not newline:
        monkeypatch.setattr(data, "_read_rows", _no_line_scan)
    got, err = _assert_same_load(path)
    assert err is None and got.num_users == len(users)
    assert long_id in got.user_index
    assert ("a\nb" in got.user_index) == newline


def test_loaders_reject_unreadable_files(tmp_path, small_raw):
    not_utf8 = tmp_path / "latin.csv"
    not_utf8.write_bytes(b"user_id,item_id\na,x\nb,\xff\xfey\n")
    with pytest.raises(DataError, match=r"latin\.csv: not UTF-8 text"):
        load_interactions(str(not_utf8))
    with pytest.raises(DataError, match=r"latin\.csv: not UTF-8 text"):
        load_groups(str(not_utf8), small_raw.item_index)
    folder = tmp_path / "folder.csv"
    folder.mkdir()
    with pytest.raises(DataError, match=r"folder\.csv: cannot read"):
        load_interactions(str(folder))
    with pytest.raises(DataError, match=r"folder\.csv: cannot read"):
        load_groups(str(folder), small_raw.item_index)


def _no_line_scan(*args, **kwargs):
    raise AssertionError("line scan used")


def test_load_groups_plain_file_takes_bulk_path(monkeypatch, tmp_path, small_raw):
    import fairrank.data as data

    plain = os.path.join(DATA_DIR, "groups_small.csv")
    crlf = tmp_path / "crlf.csv"
    with open(plain, "rb") as fh:
        crlf.write_bytes(fh.read().replace(b"\n", b"\r\n"))
    want = load_groups(str(crlf), small_raw.item_index)
    monkeypatch.setattr(data, "_read_rows", _no_line_scan)
    got = load_groups(plain, small_raw.item_index)
    assert got.group_names == want.group_names == ["red", "yellow", "brown", "dark"]
    assert got.memberships.dtype == want.memberships.dtype
    assert got.memberships.tobytes() == want.memberships.tobytes()
    with pytest.raises(AssertionError, match="line scan used"):
        load_groups(str(crlf), small_raw.item_index)


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n"], ids=["plain", "crlf"])
def test_load_groups_unknown_item_names_its_line(line_end, tmp_path, small_raw):
    path = tmp_path / "g.csv"
    rows = [b"item_id,group", b"apple,red", b"banana,red", b"mango,red", b"kiwi,red"]
    path.write_bytes(line_end.join(rows) + line_end)
    with pytest.raises(DataError, match=r"g\.csv:4: item 'mango' not in"):
        load_groups(str(path), small_raw.item_index)


def test_load_groups_reads_whole_file_before_mapping_items(tmp_path, small_raw):
    # a malformed row is found before an unknown item on an earlier row
    path = tmp_path / "g.csv"
    path.write_text("item_id,group\nmango,red\napple\n")
    with pytest.raises(DataError, match=r"g\.csv:3: expected 2 columns, got 1"):
        load_groups(str(path), small_raw.item_index)


def test_load_groups_refuses_one_cell_header(tmp_path, small_raw):
    path = tmp_path / "g.csv"
    path.write_text('"item_id,group"\napple,red\n')
    with pytest.raises(DataError, match="expected header 'item_id,group'"):
        load_groups(str(path), small_raw.item_index)
