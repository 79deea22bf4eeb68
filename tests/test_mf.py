import json
import os

import numpy as np
import pytest

from fairrank.adversary import init_adversary
from fairrank.errors import ConfigError, DataError
from fairrank.evaluation import _score_matrix
from fairrank.mf import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    INIT_STD,
    AdamState,
    MfParams,
    adam_step,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

from conftest import DATA_DIR
from oracles import ref_adam_step


def test_init_shapes_and_distribution():
    p = init_params(400, 300, 16, seed=0)
    assert p.user_factors.shape == (400, 16)
    assert p.item_factors.shape == (300, 16)
    flat = np.concatenate(
        [p.user_factors.ravel(), p.item_factors.ravel()]
    )
    n = flat.size
    # N(0, 0.01): mean within 5 sigma of the mean estimator, std within 5%
    assert abs(flat.mean()) < 5 * 0.01 / np.sqrt(n)
    assert abs(flat.std() - 0.01) < 0.05 * 0.01


def test_init_deterministic():
    a = init_params(10, 8, 4, seed=3)
    b = init_params(10, 8, 4, seed=3)
    c = init_params(10, 8, 4, seed=4)
    assert np.array_equal(a.user_factors, b.user_factors)
    assert not np.array_equal(a.user_factors, c.user_factors)


def test_init_fatr():
    memb = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.uint8)
    p = init_params(5, 3, 6, seed=0, frozen=memb)
    assert p.user_factors.shape == (5, 6)
    assert p.item_factors.shape == (3, 6)
    # the indicator block fills the last columns of the item matrix
    assert np.array_equal(p.item_factors[:, 4:], memb.astype(float))
    # the trained columns come from a (dim - A, M) draw after the users
    rng = np.random.default_rng(0)
    users = rng.normal(0.0, INIT_STD, size=(5, 6))
    free = rng.normal(0.0, INIT_STD, size=(4, 3))
    assert np.array_equal(p.user_factors, users)
    assert np.array_equal(p.item_factors[:, :4], free.T)
    with pytest.raises(ConfigError, match="num_groups < dim"):
        init_params(5, 3, 2, seed=0, frozen=memb)


def test_score_matches_matmul():
    memb = np.array([[1, 0], [0, 1], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    for p in (
        init_params(6, 5, 3, seed=1),
        init_params(6, 5, 4, seed=1, frozen=memb),
    ):
        full = _score_matrix(p)
        assert full.shape == (6, 5)
        for u in range(6):
            for i in range(5):
                want = float(np.dot(p.user_factors[u], p.item_factors[i]))
                assert np.isclose(full[u, i], want, rtol=1e-12, atol=0)


def test_adam_first_step_closed_form():
    w = np.zeros((3, 2))
    g = np.array([[1.0, -2.0], [0.5, 0.0], [-3.0, 4.0]])
    state = AdamState({"w": w})
    adam_step(state, {"w": w}, {"w": (None, g.copy())}, lr=0.1)
    # t=1: m_hat = g, v_hat = g^2  =>  delta = -lr * g / (|g| + eps)
    expected = -0.1 * g / (np.abs(g) + ADAM_EPS)
    expected[g == 0] = 0.0
    assert np.allclose(w, expected, atol=1e-12)


def _dense_reference(updates, shape, lr):
    """Eager-decay Adam: moments of every row decay every step, parameter
    deltas apply only to rows with gradient."""
    w = np.zeros(shape)
    m = np.zeros(shape)
    v = np.zeros(shape)
    t = 0
    for rows, g in updates:
        t += 1
        full = np.zeros(shape)
        if rows is None:
            full[:] = g
            touched = np.arange(shape[0])
        else:
            np.add.at(full, rows, g)
            touched = np.unique(rows)
        m[:] = ADAM_BETA1 * m + (1 - ADAM_BETA1) * full
        v[:] = ADAM_BETA2 * v + (1 - ADAM_BETA2) * full * full
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        w[touched] -= lr * (m_hat[touched] / (np.sqrt(v_hat[touched]) + ADAM_EPS))
    return w


def test_adam_lazy_matches_dense_reference():
    rng = np.random.default_rng(0)
    shape = (12, 4)
    updates = []
    for step in range(60):
        if step % 7 == 3:
            updates.append((None, rng.normal(size=shape)))
        else:
            rows = np.unique(rng.integers(0, shape[0], size=5))
            updates.append((rows, rng.normal(size=(len(rows), shape[1]))))
    w = np.zeros(shape)
    state = AdamState({"w": w})
    for rows, g in updates:
        adam_step(state, {"w": w}, {"w": (rows, g.copy())}, lr=0.05)
    ref = _dense_reference(updates, shape, lr=0.05)
    assert np.allclose(w, ref, atol=1e-10, rtol=0)


def test_adam_long_run_stays_finite():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(4, 3))
    state = AdamState({"w": w})
    for _ in range(10_000):
        g = rng.normal(scale=1e6, size=(2, 3))
        rows = np.unique(rng.integers(0, 4, size=2))
        adam_step(state, {"w": w}, {"w": (rows, g[: len(rows)])}, lr=0.01)
    assert np.isfinite(w).all()
    # per-step movement is bounded by roughly lr regardless of scale
    assert np.abs(w).max() < 0.01 * 10_000 * 1.1


def test_adam_rejects_non_finite():
    w = np.zeros((2, 2))
    state = AdamState({"w": w})
    g = np.array([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite gradient for block 'w'"):
        adam_step(state, {"w": w}, {"w": (None, g)}, lr=0.1)


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _adam_twins(make_blocks):
    """Two independent (blocks, AdamState) pairs over equal arrays."""
    out = []
    for _ in range(2):
        blocks = make_blocks()
        out.append((blocks, AdamState(blocks)))
    return out


def _check_adam_against_reference(make_blocks, updates, lr):
    (blocks, state), (ref_blocks, ref_state) = _adam_twins(make_blocks)
    for grads in updates:
        adam_step(state, blocks, grads, lr)
        ref_adam_step(ref_state, ref_blocks, grads, lr)
        for name in blocks:
            assert _same_bytes(blocks[name], ref_blocks[name]), name
            assert _same_bytes(state.m[name], ref_state.m[name]), name
            assert _same_bytes(state.v[name], ref_state.v[name]), name
            assert _same_bytes(state.last[name], ref_state.last[name]), name
    return blocks


def _row_updates(rng, n_rows, n_cols, steps, key="w", dense_every=0):
    """Sparse steps over random row subsets, so each row's last-touched
    step differs from its neighbours'; every ``dense_every``-th step is
    dense."""
    updates = []
    for step in range(steps):
        if dense_every and step % dense_every == dense_every - 1:
            rows = None
            g = rng.normal(size=(n_rows, n_cols))
        else:
            rows = np.unique(rng.integers(0, n_rows, size=n_rows // 3))
            scale = 10.0 ** rng.integers(-3, 3)
            g = rng.normal(scale=scale, size=(len(rows), n_cols))
        updates.append({key: (rows, g)})
    return updates


def test_adam_dense_matches_reference_bytes():
    rng = np.random.default_rng(5)
    updates = [{"w": (None, rng.normal(size=(7, 3)))} for _ in range(20)]
    _check_adam_against_reference(
        lambda: {"w": np.random.default_rng(1).normal(size=(7, 3))},
        updates,
        lr=0.01,
    )


def test_adam_row_subsets_match_reference_bytes():
    rng = np.random.default_rng(6)
    updates = _row_updates(rng, 40, 5, 80, dense_every=9)
    # two blocks in one step, as the theta step sends users and items
    for i, up in enumerate(_row_updates(rng, 25, 5, 80, key="u")):
        updates[i].update(up)
    _check_adam_against_reference(
        lambda: {
            "w": np.random.default_rng(2).normal(size=(40, 5)),
            "u": np.random.default_rng(3).normal(size=(25, 5)),
        },
        updates,
        lr=0.05,
    )


def test_adam_non_contiguous_view_matches_reference_bytes():
    # FATR trains item_factors[:, :n_free] and leaves the last columns be
    n_items, dim, n_free = 30, 6, 4
    bases = []

    def make_blocks():
        base = np.random.default_rng(4).normal(size=(n_items, dim))
        bases.append(base)
        return {"item_factors": base[:, :n_free]}

    rng = np.random.default_rng(7)
    updates = _row_updates(
        rng, n_items, n_free, 50, key="item_factors", dense_every=4
    )
    _check_adam_against_reference(make_blocks, updates, lr=0.02)
    assert not bases[0][:, :n_free].flags.c_contiguous
    assert _same_bytes(bases[0], bases[1])
    frozen = np.random.default_rng(4).normal(size=(n_items, dim))[:, n_free:]
    assert _same_bytes(np.ascontiguousarray(bases[0][:, n_free:]), frozen)


def test_adam_psi_blocks_match_reference_bytes():
    rng = np.random.default_rng(8)
    template = init_adversary(2, 3, 6, seed=0).blocks()
    updates = [
        {k: (None, rng.normal(size=a.shape)) for k, a in template.items()}
        for _ in range(25)
    ]
    _check_adam_against_reference(
        lambda: init_adversary(2, 3, 6, seed=0).blocks(), updates, lr=0.005
    )


def test_adam_non_finite_sparse_update_touches_nothing():
    # the check runs before the block it guards is touched
    w = np.ones((3, 2))
    state = AdamState({"w": w})
    g = np.zeros((2, 2))
    g[1, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite gradient for block 'w'"):
        adam_step(state, {"w": w}, {"w": (np.array([0, 2]), g)}, lr=0.1)
    assert (w == 1.0).all() and (state.m["w"] == 0.0).all()
    assert (state.last["w"] == 0).all()


def test_adam_scratch_grows_with_the_largest_update_of_a_step():
    # sized once per step for its largest update, with an eighth to spare,
    # so a step touching a few more rows reuses it
    blocks = {"u": np.zeros((10, 2)), "w": np.zeros((100, 2))}
    state = AdamState(blocks)
    assert [a.size for a in state.work] == [0, 0, 0]
    adam_step(
        state,
        blocks,
        {
            "u": (None, np.ones((10, 2))),
            "w": (np.arange(40), np.ones((40, 2))),
        },
        lr=0.1,
    )
    work = state.work
    assert [a.size for a in work] == [90, 90, 90]
    adam_step(state, blocks, {"w": (np.arange(45), np.ones((45, 2)))}, 0.1)
    assert state.work is work
    adam_step(state, blocks, {"w": (np.arange(50), np.ones((50, 2)))}, 0.1)
    assert [a.size for a in state.work] == [112, 112, 112]


def test_checkpoint_round_trip(tmp_path):
    p = init_params(7, 5, 3, seed=2)
    path = tmp_path / "ck"
    save_checkpoint(str(path), p, config_hash="abc123")
    loaded, psi, h = load_checkpoint(str(path))
    assert h == "abc123"
    assert psi is None
    assert np.array_equal(loaded.user_factors, p.user_factors)
    assert np.array_equal(loaded.item_factors, p.item_factors)


def test_checkpoint_round_trip_fatr_and_adversary(tmp_path):
    memb = np.array([[1, 0], [0, 1], [0, 1]], dtype=np.uint8)
    p = init_params(4, 3, 5, seed=0, frozen=memb)
    psi = init_adversary(2, hidden_layers=2, hidden_width=6, seed=1)
    path = tmp_path / "ck"
    save_checkpoint(str(path), p, adversary=psi)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["kind"] == "mf"
    loaded, psi2, _ = load_checkpoint(str(path))
    assert isinstance(loaded, MfParams)
    assert np.array_equal(loaded.user_factors, p.user_factors)
    assert np.array_equal(loaded.item_factors, p.item_factors)
    assert psi2.num_groups == 2
    for a, b in zip(psi.weights, psi2.weights):
        assert np.array_equal(a, b)
    for a, b in zip(psi.biases, psi2.biases):
        assert np.array_equal(a, b)


def test_checkpoint_bytes_deterministic(tmp_path):
    p = init_params(6, 4, 2, seed=5)
    a = tmp_path / "a"
    b = tmp_path / "b"
    save_checkpoint(str(a), p, config_hash="x")
    save_checkpoint(str(b), p, config_hash="x")
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_errors(tmp_path):
    garbage = tmp_path / "g"
    garbage.write_bytes(b"not json at all\n\x00\x01")
    with pytest.raises(DataError, match="not a checkpoint"):
        load_checkpoint(str(garbage))
    garbage.write_bytes(b"[1]\n")
    with pytest.raises(DataError, match="not a checkpoint"):
        load_checkpoint(str(garbage))
    garbage.write_bytes(
        b'{"magic": "fairrank-checkpoint", "version": 1,'
        b' "arrays": [{"name": "user_factors"}]}\n'
    )
    with pytest.raises(DataError, match="malformed checkpoint header"):
        load_checkpoint(str(garbage))

    p = init_params(3, 3, 2, seed=0)
    path = tmp_path / "ck"
    save_checkpoint(str(path), p)
    data = path.read_bytes()
    truncated = tmp_path / "t"
    truncated.write_bytes(data[:-8])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(str(truncated))

    header = json.loads(data.split(b"\n", 1)[0])
    header["version"] = 99
    bumped = tmp_path / "v"
    bumped.write_bytes(
        json.dumps(header, sort_keys=True).encode() + b"\n"
        + data.split(b"\n", 1)[1]
    )
    with pytest.raises(DataError, match="version"):
        load_checkpoint(str(bumped))


def _raw_arrays(path):
    """Arrays of a checkpoint file, parsed without the package's loader."""
    data = open(path, "rb").read()
    head, body = data.split(b"\n", 1)
    out = {}
    offset = 0
    for meta in json.loads(head)["arrays"]:
        n = int(np.prod(meta["shape"]))
        out[meta["name"]] = np.frombuffer(
            body[offset : offset + 8 * n], dtype="<f8"
        ).reshape(meta["shape"])
        offset += 8 * n
    assert offset == len(body)
    return out


def test_load_v1_fatr_checkpoint():
    # written by the FATR code before its item factors became ordinary
    # item-matrix columns: 4 users x 3 items, dim 5, groups [[1,0],[0,1],
    # [0,1]], seed 0, plus init_adversary(2, 1, 3, seed=1)
    path = os.path.join(DATA_DIR, "fatr_v1.ckpt")
    raw = _raw_arrays(path)
    params, psi, config_hash = load_checkpoint(path)
    assert isinstance(params, MfParams)
    assert config_hash == "fatr-v1"
    assert np.array_equal(params.user_factors, raw["user_factors"])
    assert np.array_equal(
        params.item_factors,
        np.hstack([raw["item_free"].T, raw["item_sensitive"].T]),
    )
    # the same factors a fresh init draws for that seed
    memb = np.array([[1, 0], [0, 1], [0, 1]], dtype=np.uint8)
    fresh = init_params(4, 3, 5, seed=0, frozen=memb)
    assert np.array_equal(params.user_factors, fresh.user_factors)
    assert np.array_equal(params.item_factors, fresh.item_factors)
    ref = init_adversary(2, hidden_layers=1, hidden_width=3, seed=1)
    for a, b in zip(psi.weights + psi.biases, ref.weights + ref.biases):
        assert np.array_equal(a, b)
    assert len(psi.weights) == len(ref.weights) == 2
