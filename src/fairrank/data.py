"""Implicit-feedback ingestion, group labels, splitting, and synthetic data.

Interactions are positive-only (user, item) pairs.  External string ids are
mapped to dense integer indices in first-seen order; everything downstream
works on the dense ids.
"""

import codecs
import csv
import io
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .util import reading

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


def _read_bytes(path, error):
    """The whole file's bytes, a leading UTF-8 BOM dropped.

    Raises:
        error: naming the path, when the file is missing or cannot be read.
    """
    with reading(Path(path), error) as fh:
        data = fh.read()
    return data[len(codecs.BOM_UTF8):] if data.startswith(codecs.BOM_UTF8) else data


def _decoded(path, data, error):
    """``data`` as UTF-8 text, line ends as written.

    Raises:
        error: naming the path, when ``data`` is not UTF-8.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{Path(path)}: not UTF-8 text ({exc.reason})") from None


def read_text(path, error):
    """The whole file as text, a leading BOM dropped, line ends as written:
    the CSV files' rule, for the config file.

    Raises:
        error: naming the path, when the file is missing, cannot be read,
            or is not UTF-8.
    """
    return _decoded(path, _read_bytes(path, error), error)


def _read_rows(path, expected_header, text):
    """The stripped cells of the rows after the header, row by row."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None or [c.strip() for c in header] != expected_header:
        raise DataError(f"{path}: expected header '{','.join(expected_header)}'")
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(expected_header):
            raise DataError(
                f"{path}:{lineno}: expected {len(expected_header)} "
                f"columns, got {len(row)}"
            )
        cells = [c.strip() for c in row]
        if any(not c for c in cells):
            raise DataError(f"{path}:{lineno}: empty field")
        yield from cells


# what csv.reader and str.strip would act on in ASCII text: quotes, NUL,
# and whitespace other than the "\n" line ends (str.strip drops every
# isspace character)
_SPECIAL = b'"\x00' + bytes(
    c for c in range(128) if chr(c).isspace() and c != ord("\n")
)
_COMMA, _NEWLINE = ord(","), ord("\n")


def _offset_dtype(top):
    """int32 when offsets up to ``top`` fit in it, else int64."""
    return np.int32 if top <= np.iinfo(np.int32).max else np.int64


def _plain_bounds(data, header):
    """The cell bounds (see ``_cells``) of a plain two-column file, or None
    when the line scan must read it.

    Plain means: the header line is exactly ``header``'s names joined by a
    comma, the body is ASCII with no quote, NUL or whitespace other than
    the newlines ending its lines, and every line holds exactly two
    non-empty cells.  On such a file the line scan's rows are these cells,
    stripping changes nothing, and no row fails.
    """
    head = (",".join(header) + "\n").encode()
    start = len(head)
    if not data.startswith(head) or len(data) == start:
        return None
    if not data.isascii() or any(c in data for c in _SPECIAL):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    end = len(data) - (data[-1] == _NEWLINE)
    is_sep = raw[start:end] == _COMMA
    is_sep |= raw[start:end] == _NEWLINE
    seps = np.flatnonzero(is_sep)
    del is_sep
    if len(seps) % 2 == 0:
        return None
    bounds = np.empty(len(seps) + 2, dtype=_offset_dtype(end + 1))
    bounds[0], bounds[-1] = start, end + 1
    np.add(seps, start + 1, out=bounds[1:-1], casting="unsafe")
    del seps
    # separators must run comma, newline, comma, ..., comma, with a cell
    # of at least one character before, between and after them
    if (
        (np.diff(bounds) < 2).any()
        or (raw[bounds[1:-1:2] - 1] != _COMMA).any()
        or (raw[bounds[2:-1:2] - 1] != _NEWLINE).any()
    ):
        return None
    return bounds


def _cells(path, header):
    """(buf, bounds): the body cells of a two-column CSV, row by row (row n
    is line n + 2), as bytes: cell k is ``buf[bounds[k]:bounds[k + 1] - 1]``.

    The file is read once, as bytes.  A plain file's cells are found in
    bulk in those bytes (see ``_plain_bounds``).  Any other file goes to
    the line scan, which also judges and reports malformed rows; its
    stripped cells are encoded as UTF-8 and joined by a newline.
    """
    data = _read_bytes(path, DataError)
    bounds = _plain_bounds(data, header)
    if bounds is not None:
        return data, bounds
    text = _decoded(path, data, DataError)
    del data
    cells = [c.encode() for c in _read_rows(path, header, text)]
    del text
    ends = np.cumsum([len(c) + 1 for c in cells], dtype=np.int64)
    top = int(ends[-1]) if len(ends) else 0
    bounds = np.concatenate(([0], ends)).astype(_offset_dtype(top))
    return b"\n".join(cells), bounds


# cell bytes per gather step of _dense_ids: its index temporary is 4 bytes
# a cell byte (int32 offsets), so 1 MiB at most
_GATHER = 1 << 18


def _dense_ids(buf, bounds, column):
    """(ids, index) of column ``column`` of the two-column cells ``buf,
    bounds`` (see ``_cells``): the dense id of each cell, and the external
    id -> dense id map, ids assigned in first-seen order.

    No Python object is made per cell: only the distinct cells are decoded.
    The cells are compared as bytes, one width at a time.  Each width's
    cells are gathered into the rows of a (count, width) ``uint8`` matrix,
    viewed as ``S{width}`` and numbered by ``np.unique``.  So the matrices
    hold the column's bytes and no padding, whatever one long id's width;
    and cells that differ only by trailing NULs, which ``S`` comparison
    ignores, have different widths and are never compared.
    """
    starts = bounds[column:-1:2]
    widths = bounds[column + 1 :: 2] - starts
    widths -= 1
    raw = np.frombuffer(buf, dtype=np.uint8)
    by_width = np.argsort(widths, kind="stable")
    cuts = np.flatnonzero(np.diff(widths[by_width])) + 1
    ids = np.empty(len(starts), dtype=np.int64)
    firsts = [np.empty(0, dtype=np.int64)]
    num_ids = 0
    for rows in np.split(by_width, cuts) if len(by_width) else ():
        w = int(widths[rows[0]])
        keys = np.empty((len(rows), w), dtype=np.uint8)
        step = max(1, _GATHER // w)
        for lo in range(0, len(rows), step):
            at = starts[rows[lo : lo + step]]
            keys[lo : lo + step] = raw[at[:, None] + np.arange(w, dtype=at.dtype)]
        _, first, inverse = np.unique(
            keys.view(f"S{w}").ravel(), return_index=True, return_inverse=True
        )
        del keys
        inverse += num_ids
        ids[rows] = inverse
        firsts.append(rows[first])
        num_ids += len(first)
    # renumber: the id of each distinct cell is the rank of its first cell
    first = np.concatenate(firsts)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(num_ids)
    ids = rank[ids]
    first = first[order]
    names = [
        buf[a : a + w].decode()
        for a, w in zip(starts[first].tolist(), widths[first].tolist())
    ]
    return ids, dict(zip(names, range(num_ids)))


def load_interactions(path):
    """Read a `user_id,item_id` CSV into dense-indexed positive pairs.

    Duplicate rows collapse to a single pair.  Dense indices are assigned in
    first-seen order, so reloading the same file reproduces the same maps.

    Args:
        path: CSV file with header ``user_id,item_id``.

    Returns:
        RawInteractions with deduplicated pairs.

    Raises:
        DataError: on a missing or unreadable file, malformed row, or an
            empty dataset.
    """
    buf, bounds = _cells(path, ["user_id", "item_id"])
    if len(bounds) == 1:
        raise DataError(f"{path}: empty dataset")
    users, user_index = _dense_ids(buf, bounds, 0)
    items, item_index = _dense_ids(buf, bounds, 1)
    del buf, bounds
    # first occurrence of each pair, in file order
    _, first = np.unique(users * len(item_index) + items, return_index=True)
    first.sort()
    pairs = np.stack((users[first], items[first]), axis=1)
    return RawInteractions(pairs, user_index, item_index)


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
        DataError: on an unreadable file or malformed row, for an item id
            absent from ``item_index``, or when an item has no group label.
    """
    buf, bounds = _cells(path, ["item_id", "group"])
    # the file's own item ids, then each one's interaction index
    local, items = _dense_ids(buf, bounds, 0)
    item_ids = np.array([item_index.get(i, -1) for i in items], dtype=np.int64)
    item_ids = item_ids[local]
    unknown = np.flatnonzero(item_ids < 0)
    if len(unknown):
        row = unknown[0]
        raise DataError(
            f"{path}:{row + 2}: item '{list(items)[local[row]]}' "
            "not in interaction index"
        )
    group_ids, names = _dense_ids(buf, bounds, 1)
    memberships = np.zeros((len(item_index), len(names)), dtype=np.uint8)
    memberships[item_ids, group_ids] = 1
    uncovered = np.flatnonzero(memberships.sum(axis=1) == 0)
    if len(uncovered):
        raise DataError(
            f"{path}: {len(uncovered)} interaction items have no group "
            f"(first dense index: {uncovered[0]})"
        )
    return GroupCatalog(list(names), memberships)


def _frozen(a):
    a.flags.writeable = False
    return a


def _rows(items, indptr):
    """Per-user views ``items[indptr[u]:indptr[u + 1]]``."""
    bounds = indptr.tolist()
    return tuple(items[a:b] for a, b in zip(bounds, bounds[1:]))


class InteractionDataset:
    """Train (``pos_*``), val (``val_*``) and test (``test_*``) positives.

    Each split is held once, as sorted pair codes ``user * M + item``
    (``pos_codes``), and read through arrays made from them: the pairs
    ``pos_users``/``pos_items``, user-major, and row offsets ``pos_indptr``
    (length N + 1), so user u's items are ``pos_items[pos_indptr[u]:
    pos_indptr[u + 1]]``, ascending.  ``train_sizes`` counts them;
    ``train_pos``/``val_pos``/``test_pos`` are the rows as views.
    """

    def __init__(self, num_users, num_items, train_pos, val_pos, test_pos,
                 user_index=None, item_index=None):
        """From per-user item lists, one per user and split, in any order."""
        keys = []
        for label, lists in enumerate((train_pos, val_pos, test_pos)):
            items = np.concatenate([[], *lists]).astype(np.int64)
            if len(lists) != num_users or ((items < 0) | (items >= num_items)).any():
                raise DataError(f"dataset: each split needs {num_users} lists "
                                f"of items in [0, {num_items})")
            users = np.repeat(np.arange(num_users), [len(a) for a in lists])
            keys.append((label * num_users + users) * num_items + items)
        keys = np.sort(np.concatenate(keys))
        self._build(num_users, num_items, keys, user_index, item_index)

    def _build(self, n, m, keys, user_index, item_index):
        """Every field from ``keys``: the sorted codes ``(split * N + user)
        * M + item`` of all pairs, split 0 train, 1 val, 2 test."""
        self.num_users, self.num_items = n, m
        self.user_index, self.item_index = user_index or {}, item_index or {}
        bounds = np.searchsorted(keys, np.arange(3 * n + 1) * m)

        def part(label):
            indptr = bounds[label * n : (label + 1) * n + 1]
            codes = keys[indptr[0] : indptr[-1]] - label * n * m
            return map(_frozen, (codes, *np.divmod(codes, m), indptr - indptr[0]))

        self.pos_codes, self.pos_users, self.pos_items, self.pos_indptr = part(0)
        self.val_codes, self.val_users, self.val_items, self.val_indptr = part(1)
        self.test_codes, self.test_users, self.test_items, self.test_indptr = part(2)
        self.train_sizes = _frozen(np.diff(self.pos_indptr))

    train_pos = cached_property(lambda self: _rows(self.pos_items, self.pos_indptr))
    val_pos = cached_property(lambda self: _rows(self.val_items, self.val_indptr))
    test_pos = cached_property(lambda self: _rows(self.test_items, self.test_indptr))

    @property
    def num_train_pairs(self):
        return len(self.pos_users)

    def _member(self, codes, users, items):
        items = np.asarray(items, dtype=np.int64)
        q = np.asarray(users, dtype=np.int64) * self.num_items + items
        if len(codes) == 0:
            return np.zeros(q.shape, dtype=bool)
        return codes[np.minimum(np.searchsorted(codes, q), len(codes) - 1)] == q

    def in_train(self, users, items):
        """Vectorized membership test against training positives."""
        return self._member(self.pos_codes, users, items)

    def in_val(self, users, items):
        """Vectorized membership test against validation positives."""
        return self._member(self.val_codes, users, items)

    def in_test(self, users, items):
        """Vectorized membership test against test positives."""
        return self._member(self.test_codes, users, items)


def split(raw, ratios=DEFAULT_RATIOS, seed=0):
    """Per-user random partition of positives into train/val/test.

    Validation and test sizes are floored; train takes the remainder, so a
    user with a single interaction keeps it for training.  Users left with
    no training items (possible only under degenerate ratios) are cleared
    from all three splits and counted in a log line.

    Args:
        raw: RawInteractions (each listed user has >= 1 pair).
        ratios: (train, val, test) finite fractions summing to 1.
        seed: RNG seed; fixes the partition.

    Returns:
        InteractionDataset carrying the id maps from ``raw``.
    """
    if len(ratios) != 3 or not all(0 <= r < math.inf for r in ratios):
        raise ConfigError("ratios: need three finite, non-negative fractions")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios: must sum to 1, got {sum(ratios)}")
    rng = np.random.default_rng(seed)
    n_users, n_items = raw.num_users, raw.num_items
    # each user's pairs in file order, which the stable sort keeps
    users = raw.pairs[:, 0]
    grouped = np.argsort(users, kind="stable")
    counts = np.bincount(users, minlength=n_users)
    ends = np.cumsum(counts)
    first = np.repeat(ends - counts, counts)
    # slot: at each position of a user's permutation, the user's pair, in
    # file order, that it holds.  Shuffling each user's run of 0..count-1 in
    # place draws what rng.permutation(count) draws, and one such draw per
    # user, in user order, fixes every split.
    slot = np.arange(len(grouped))
    slot -= first
    for s, e in zip((ends - counts).tolist(), ends.tolist()):
        rng.shuffle(slot[s:e])
    slot += first
    # each pair-length temporary is dropped once spent: split's peak is a
    # few of them, not ten
    del first
    src = grouped[slot]
    del grouped, slot
    # floor with epsilon so exact fractional products do not round down
    n_val = (counts * ratios[1] + 1e-9).astype(np.int64)
    n_test = (counts * ratios[2] + 1e-9).astype(np.int64)
    n_train = counts - n_val - n_test
    # a user's first n_train positions train, the next n_val validate and
    # the rest test; each position's key is (label * N + user) * M + item
    keys = users[src].astype(np.int64, copy=False)
    keys *= n_items
    keys += raw.pairs[src, 1]
    del src
    sizes = np.stack((n_train, n_val, n_test), axis=1).ravel()
    keys += np.repeat(np.tile(np.arange(3) * n_users * n_items, n_users), sizes)
    dropped = int((n_train == 0).sum())
    if dropped:
        log.info("split: dropped %d users with no training items", dropped)
        keys = keys[np.repeat(n_train > 0, counts)]
    keys.sort()
    # the list constructor's `_build`, without the lists
    ds = InteractionDataset.__new__(InteractionDataset)
    ds._build(n_users, n_items, keys, raw.user_index, raw.item_index)
    return ds


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


# most doubles one window of first-round draws may take
_MAX_WINDOW_DRAWS = 1 << 16


def _choice_per_user(rng, p, num_users, k):
    """(num_users, k) items, row u what ``rng.choice(len(p), k,
    replace=False, p=p)`` returns as user u's call in a per-user loop.

    ``Generator.choice`` draws k uniforms, maps them through the cdf of
    ``p`` and keeps each item's first occurrence; while fewer than k are
    distinct, it zeroes the found items' weights, renormalises and draws
    the shortfall.  This replays that loop over the same ``rng.random``
    stream, taking every user's first round in windows: a window's rows
    are searched at once and accepted up to the first row with a repeat,
    which finishes with the later rounds, and the next window starts after
    it.  The window doubles while rows come back clean and shrinks to the
    clean run's length after a repeat.  Uniforms come from one buffer
    filled in large draws, so ``rng`` ends up past the last one used; the
    caller's generator is local and read no further.
    """
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    out = np.empty((num_users, k), dtype=np.int64)
    buf = np.empty(0)
    pos = 0

    def peek(n):
        nonlocal buf, pos
        if len(buf) - pos < n:
            fresh = rng.random(max(n, _MAX_WINDOW_DRAWS) - (len(buf) - pos))
            buf = np.concatenate([buf[pos:], fresh])
            pos = 0
        return buf[pos : pos + n]

    def first_occurrences(new):
        _, first = np.unique(new, return_index=True)
        first.sort()
        return new.take(first)

    max_window = max(1, _MAX_WINDOW_DRAWS // k)
    u, window = 0, 1
    while u < num_users:
        w = min(window, num_users - u)
        rows = cdf.searchsorted(peek(w * k).reshape(w, k), side="right")
        clean = w
        if k > 1:
            ordered = np.sort(rows, axis=1)
            repeat = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            if repeat.any():
                clean = int(repeat.argmax())
        out[u : u + clean] = rows[:clean]
        pos += clean * k
        u += clean
        if clean == w:
            window = min(2 * window, max_window)
            continue
        # user u's first round drew a repeat: numpy's later rounds
        found = out[u]
        new = first_occurrences(rows[clean])
        n_uniq = len(new)
        found[:n_uniq] = new
        pos += k
        weights = p.copy()
        while n_uniq < k:
            x = peek(k - n_uniq)
            pos += k - n_uniq
            weights[found[:n_uniq]] = 0
            round_cdf = np.cumsum(weights)
            round_cdf /= round_cdf[-1]
            new = first_occurrences(round_cdf.searchsorted(x, side="right"))
            found[n_uniq : n_uniq + len(new)] = new
            n_uniq += len(new)
        u += 1
        window = max(1, clean)
    return out


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
    k = spec.interactions_per_user
    items = _choice_per_user(rng, p, spec.num_users, k)
    users = np.repeat(np.arange(spec.num_users, dtype=np.int64), k)
    pairs = np.stack((users, items.ravel()), axis=1)
    raw = RawInteractions(
        pairs,
        {f"u{n}": n for n in range(spec.num_users)},
        {f"i{m}": m for m in range(spec.num_items)},
    )
    catalog = GroupCatalog(
        [f"g{a}" for a in range(spec.num_groups)], memberships
    )
    return raw, catalog
