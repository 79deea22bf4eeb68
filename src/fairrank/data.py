"""Implicit-feedback ingestion, group labels, splitting, and synthetic data.

Interactions are positive-only (user, item) pairs.  External string ids are
mapped to dense integer indices in first-seen order; everything downstream
works on the dense ids.
"""

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

DEFAULT_RATIOS = (0.6, 0.2, 0.2)


@dataclass
class RawInteractions:
    """Deduplicated positive pairs plus the id maps that produced them.

    Attributes:
        pairs: (P, 2) int64 array of dense (user, item) pairs.
        user_index: external user id -> dense index, insertion ordered.
        item_index: external item id -> dense index, insertion ordered.
    """

    pairs: np.ndarray
    user_index: dict
    item_index: dict

    @property
    def num_users(self):
        return len(self.user_index)

    @property
    def num_items(self):
        return len(self.item_index)


def _read_rows(path, expected_header):
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
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected_header):
                raise DataError(
                    f"{path}:{lineno}: expected {len(expected_header)} "
                    f"columns, got {len(row)}"
                )
            cells = [c.strip() for c in row]
            if any(not c for c in cells):
                raise DataError(f"{path}:{lineno}: empty field")
            yield lineno, cells


def load_interactions(path):
    """Read a `user_id,item_id` CSV into dense-indexed positive pairs.

    Duplicate rows collapse to a single pair.  Dense indices are assigned in
    first-seen order, so reloading the same file reproduces the same maps.

    Args:
        path: CSV file with header ``user_id,item_id``.

    Returns:
        RawInteractions with deduplicated pairs.

    Raises:
        DataError: on a missing file, malformed row, or an empty dataset.
    """
    user_index, item_index = {}, {}
    seen = set()
    pairs = []
    for _, (u_raw, i_raw) in _read_rows(path, ["user_id", "item_id"]):
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


@dataclass
class GroupCatalog:
    """Item group memberships as an (M, A) 0/1 matrix.

    Groups are ordered by first appearance in the label file.  An item may
    belong to several groups; every item belongs to at least one.
    """

    group_names: list
    memberships: np.ndarray

    @property
    def num_groups(self):
        return len(self.group_names)

    @property
    def num_items(self):
        return self.memberships.shape[0]

    @property
    def item_counts(self):
        """Number of items carrying each group label, shape (A,)."""
        return self.memberships.sum(axis=0)


def load_groups(path, item_index):
    """Read an `item_id,group` CSV into a GroupCatalog.

    Args:
        path: CSV file with header ``item_id,group``.
        item_index: external item id -> dense index map from the
            interactions this catalog must cover.

    Returns:
        GroupCatalog over the ``len(item_index)`` interaction items.

    Raises:
        DataError: for an item id absent from ``item_index``, or when any
            interaction item ends up with no group label.
    """
    names = {}
    assignments = []
    for lineno, (i_raw, g_raw) in _read_rows(path, ["item_id", "group"]):
        if i_raw not in item_index:
            raise DataError(
                f"{path}:{lineno}: item '{i_raw}' not in interaction index"
            )
        g = names.setdefault(g_raw, len(names))
        assignments.append((item_index[i_raw], g))
    num_items = len(item_index)
    memberships = np.zeros((num_items, len(names)), dtype=np.uint8)
    for i, g in assignments:
        memberships[i, g] = 1
    uncovered = int(np.sum(memberships.sum(axis=1) == 0))
    if uncovered:
        first = int(np.flatnonzero(memberships.sum(axis=1) == 0)[0])
        raise DataError(
            f"{path}: {uncovered} interaction items have no group "
            f"(first dense index: {first})"
        )
    return GroupCatalog(list(names), memberships)


def _flatten(lists):
    """Per-user item lists -> (users, items) int64 arrays, user-major."""
    users = np.repeat(
        np.arange(len(lists), dtype=np.int64), [len(a) for a in lists]
    )
    items = (
        np.concatenate(lists) if len(lists) else np.empty(0, dtype=np.int64)
    ).astype(np.int64)
    return users, items


@dataclass
class InteractionDataset:
    """Per-user train/val/test item lists over dense indices.

    The three lists partition each user's positives.  Sorted per-user arrays
    keep membership queries logarithmic; encoded pair codes support bulk
    lookups.  Each split is also held flattened, user-major: ``pos_users``/
    ``pos_items`` (train), ``val_users``/``val_items`` and ``test_users``/
    ``test_items``.
    """

    num_users: int
    num_items: int
    train_pos: list
    val_pos: list
    test_pos: list
    user_index: dict = field(default_factory=dict)
    item_index: dict = field(default_factory=dict)

    def __post_init__(self):
        m = self.num_items
        self.train_sizes = np.array(
            [len(a) for a in self.train_pos], dtype=np.int64
        )
        # enumeration order: user ascending, item ascending within user
        self.pos_users, self.pos_items = _flatten(self.train_pos)
        self.val_users, self.val_items = _flatten(self.val_pos)
        self.test_users, self.test_items = _flatten(self.test_pos)
        self._train_codes = np.sort(self.pos_users * m + self.pos_items)
        self._val_codes = np.sort(self.val_users * m + self.val_items)
        self._test_codes = np.sort(self.test_users * m + self.test_items)

    @property
    def num_train_pairs(self):
        return len(self.pos_users)

    def _member(self, codes_sorted, users, items):
        q = (
            np.asarray(users, dtype=np.int64) * self.num_items
            + np.asarray(items, dtype=np.int64)
        )
        if len(codes_sorted) == 0:
            return np.zeros(q.shape, dtype=bool)
        pos = np.searchsorted(codes_sorted, q)
        pos = np.minimum(pos, len(codes_sorted) - 1)
        return codes_sorted[pos] == q

    def in_train(self, users, items):
        """Vectorized membership test against training positives."""
        return self._member(self._train_codes, users, items)

    def in_val(self, users, items):
        """Vectorized membership test against validation positives."""
        return self._member(self._val_codes, users, items)

    def in_test(self, users, items):
        """Vectorized membership test against test positives."""
        return self._member(self._test_codes, users, items)


def split(raw, ratios=DEFAULT_RATIOS, seed=0):
    """Per-user random partition of positives into train/val/test.

    Validation and test sizes are floored; train takes the remainder, so a
    user with a single interaction keeps it for training.  Users left with
    no training items (possible only under degenerate ratios) are cleared
    from all three splits and counted in a log line.

    Args:
        raw: RawInteractions (each listed user has >= 1 pair).
        ratios: (train, val, test) fractions summing to 1.
        seed: RNG seed; fixes the partition.

    Returns:
        InteractionDataset carrying the id maps from ``raw``.
    """
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ConfigError("ratios: need three non-negative fractions")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios: must sum to 1, got {sum(ratios)}")
    rng = np.random.default_rng(seed)
    n_users, n_items = raw.num_users, raw.num_items
    # each user's items in file order, which the stable sort keeps
    users = raw.pairs[:, 0]
    grouped = raw.pairs[np.argsort(users, kind="stable"), 1].astype(np.int64)
    ends = np.cumsum(np.bincount(users, minlength=n_users))
    per_user = np.split(grouped, ends[:-1])
    train, val, test = [], [], []
    dropped = 0
    for u in range(n_users):
        items = per_user[u]
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
    if dropped:
        log.info("split: dropped %d users with no training items", dropped)
    return InteractionDataset(
        n_users, n_items, train, val, test, raw.user_index, raw.item_index
    )


@dataclass
class SyntheticSpec:
    """Parameters of the biased synthetic implicit-feedback generator."""

    num_users: int
    num_items: int
    num_groups: int
    group_item_shares: tuple
    group_popularity: tuple
    interactions_per_user: int
    seed: int = 0

    def validate(self):
        if self.num_users < 1 or self.num_items < 1 or self.num_groups < 1:
            raise ConfigError("synthetic: sizes must be positive")
        if len(self.group_item_shares) != self.num_groups:
            raise ConfigError(
                "group_item_shares: need one share per group"
            )
        if abs(sum(self.group_item_shares) - 1.0) > 1e-9:
            raise ConfigError("group_item_shares: must sum to 1")
        if len(self.group_popularity) != self.num_groups:
            raise ConfigError("group_popularity: need one value per group")
        if any(not (0.0 < p <= 1.0) for p in self.group_popularity):
            raise ConfigError("group_popularity: values must lie in (0, 1]")
        if self.interactions_per_user > self.num_items:
            raise ConfigError(
                "interactions_per_user: infeasible, exceeds num_items"
            )
        if self.interactions_per_user < 1:
            raise ConfigError("interactions_per_user: must be >= 1")


def _allocate_counts(shares, total):
    exact = np.asarray(shares, dtype=np.float64) * total
    base = np.floor(exact).astype(np.int64)
    rem = total - int(base.sum())
    if rem:
        order = np.argsort(-(exact - base), kind="stable")
        base[order[:rem]] += 1
    return base


def generate_synthetic(spec):
    """Generate skewed feedback: item draw weight follows group popularity.

    Items are assigned to groups in contiguous index blocks sized by
    ``group_item_shares``.  Each user receives ``interactions_per_user``
    distinct items drawn without replacement with probability proportional
    to the item's group popularity, which produces per-group
    feedback-per-item ratios ordered like ``group_popularity``.

    Returns:
        (RawInteractions, GroupCatalog) with identity-style id maps
        (``u0``..``uN-1``, ``i0``..``iM-1``).
    """
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
