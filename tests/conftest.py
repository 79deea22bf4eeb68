import json
import os

import numpy as np
import pytest

from fairrank.data import (
    GroupCatalog,
    InteractionDataset,
    SyntheticSpec,
    generate_synthetic,
    load_groups,
    load_interactions,
    split,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture
def small_raw():
    return load_interactions(os.path.join(DATA_DIR, "interactions_small.csv"))


@pytest.fixture
def small_catalog(small_raw):
    return load_groups(
        os.path.join(DATA_DIR, "groups_small.csv"), small_raw.item_index
    )


def make_synth(num_users=120, num_items=60, seed=1, per_user=12):
    """Small two-group corpus: group 0 holds 75% of items and is three
    times as popular."""
    spec = SyntheticSpec(
        num_users=num_users,
        num_items=num_items,
        num_groups=2,
        group_item_shares=(0.75, 0.25),
        group_popularity=(0.75, 0.25),
        interactions_per_user=per_user,
        seed=seed,
    )
    return generate_synthetic(spec)


@pytest.fixture(scope="session")
def synth_dataset():
    raw, catalog = make_synth()
    return split(raw, seed=7), catalog


def random_dataset(rng, num_users, num_items, max_pos=6):
    """Random InteractionDataset with direct control over the splits."""
    train, val, test = [], [], []
    for _ in range(num_users):
        k = rng.integers(1, max_pos + 1)
        items = rng.choice(num_items, size=min(k + 2, num_items), replace=False)
        train.append(np.sort(items[:k]))
        rest = items[k:]
        val.append(np.sort(rest[: len(rest) // 2]))
        test.append(np.sort(rest[len(rest) // 2 :]))
    user_index = {f"u{n}": n for n in range(num_users)}
    item_index = {f"i{m}": m for m in range(num_items)}
    return InteractionDataset(
        num_users, num_items, train, val, test, user_index, item_index
    )


def random_catalog(rng, num_items, num_groups):
    """Random catalog where every item has at least one group."""
    memberships = (rng.random((num_items, num_groups)) < 0.4).astype(np.uint8)
    none = memberships.sum(axis=1) == 0
    memberships[none, rng.integers(0, num_groups, size=int(none.sum()))] = 1
    for a in range(num_groups):
        if memberships[:, a].sum() == 0:
            memberships[rng.integers(0, num_items), a] = 1
    return GroupCatalog([f"g{a}" for a in range(num_groups)], memberships)


# checkpoint array shapes that are fractional, negative, or larger than the
# file and than memory, with the error each must raise
BAD_CHECKPOINT_SHAPES = {
    "fractional": ([2.9, 3], "malformed checkpoint header"),
    "negative": ([-1, 4], "malformed checkpoint header"),
    "beyond-int64": ([10**12, 10**12], "truncated checkpoint"),
    "beyond-memory": ([10**7, 10**6], "truncated checkpoint"),
}


def with_first_shape(data, shape):
    """Checkpoint bytes whose header declares ``shape`` for the first
    array."""
    head, body = data.split(b"\n", 1)
    header = json.loads(head)
    header["arrays"][0]["shape"] = shape
    return json.dumps(header, sort_keys=True).encode() + b"\n" + body
