"""Matrix-factorization parameters, Adam updates, checkpoints."""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
INIT_STD = 0.01

_CKPT_MAGIC = "fairrank-checkpoint"
_CKPT_VERSION = 1


@dataclass
class MfParams:
    """Dense user/item factor matrices; score is the plain inner product."""

    user_factors: np.ndarray  # (N, d)
    item_factors: np.ndarray  # (M, d)

    @property
    def num_users(self):
        return self.user_factors.shape[0]

    @property
    def num_items(self):
        return self.item_factors.shape[0]

    @property
    def dim(self):
        return self.user_factors.shape[1]

    def item_matrix(self):
        return self.item_factors

    def arrays(self):
        return {
            "user_factors": self.user_factors,
            "item_factors": self.item_factors,
        }

    def copy(self):
        return MfParams(self.user_factors.copy(), self.item_factors.copy())


def init_params(num_users, num_items, dim, seed, frozen=None):
    """Normal(0, 0.01) entries; bit-identical matrices for a given seed.

    frozen: optional (num_items, A) block (FATR's group indicators) that
    fills the last A item columns.  The other columns are then drawn as a
    (dim - A, num_items) block and transposed, the stream FATR has always
    used, so a seed gives the same factors as before the layouts merged.
    """
    if dim < 1:
        raise ConfigError("dim: must be >= 1")
    rng = np.random.default_rng(seed)
    p = rng.normal(0.0, INIT_STD, size=(num_users, dim))
    if frozen is None:
        q = rng.normal(0.0, INIT_STD, size=(num_items, dim))
    else:
        num_frozen = frozen.shape[1]
        if num_frozen >= dim:
            raise ConfigError(
                f"dim: fatr needs num_groups < dim, got {num_frozen} >= {dim}"
            )
        q_free = rng.normal(0.0, INIT_STD, size=(dim - num_frozen, num_items))
        q = np.hstack([q_free.T, frozen.astype(np.float64)])
    return MfParams(p, q)


class AdamState:
    """Adam moments stored per leading-dim row, decayed lazily.

    A row untouched for k steps catches up with a single beta**k decay when
    it is next updated, which reproduces the moment trajectory of an eager
    implementation that decays every row each step but only applies
    parameter deltas to touched rows.

    ``work`` holds three flat scratch arrays shared by every block: an
    update of g.size entries uses their first g.size.  A step with a larger
    update than any before grows them, with an eighth to spare, so that a
    later step touching a few more rows does not grow (and page in) them
    again.
    """

    def __init__(self, blocks):
        self.step = 0
        self.m = {k: np.zeros_like(a) for k, a in blocks.items()}
        self.v = {k: np.zeros_like(a) for k, a in blocks.items()}
        self.last = {
            k: np.zeros(a.shape[0], dtype=np.int64) for k, a in blocks.items()
        }
        self.work = [np.empty(0) for _ in range(3)]


def adam_step(state, blocks, grads, lr):
    """One global Adam step over the listed gradients, in place.

    A sparse update gathers the rows of m, v and the block once each, updates
    them in scratch rows and writes each back once; a dense one updates the
    arrays in place.  Both round exactly as
    ``m = b1**k * m + (1 - b1) * g``, ``v = b2**k * v + ((1 - b2) * g) * g``,
    ``block -= (lr * m / bc1) / (sqrt(v / bc2) + eps)``.

    Args:
        state: AdamState built over ``blocks``.
        blocks: name -> parameter array (mutated).
        grads: name -> (rows, g).  ``rows`` is a unique int array selecting
            leading-dim rows (g holds just those rows), or None for a dense
            update of the whole block.
        lr: step size.

    Raises:
        ValueError: if a gradient contains a non-finite entry.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    need = max((np.size(g) for _, g in grads.values()), default=0)
    if state.work[0].size < need:
        state.work = [np.empty(need + need // 8) for _ in range(3)]
    for name, (rows, g) in grads.items():
        g = np.asarray(g, dtype=np.float64)
        # min and max propagate NaN, so both are finite only if all of g is
        if g.size and not (np.isfinite(g.min()) and np.isfinite(g.max())):
            raise ValueError(f"non-finite gradient for block '{name}'")
        block, m, v = blocks[name], state.m[name], state.v[name]
        work = [w[: g.size].reshape(g.shape) for w in state.work]
        sel = slice(None) if rows is None else rows
        k = t - state.last[name][sel]
        if rows is None:
            mg, vg = m, v
        else:
            # mode="clip" writes straight into out; rows are in range
            mg = np.take(m, rows, axis=0, out=work[0], mode="clip")
            vg = np.take(v, rows, axis=0, out=work[1], mode="clip")
        tmp = work[2]
        d1 = ADAM_BETA1 ** k
        d2 = ADAM_BETA2 ** k
        while d1.ndim < g.ndim:
            d1 = d1[..., None]
            d2 = d2[..., None]
        mg *= d1
        mg += np.multiply(1.0 - ADAM_BETA1, g, out=tmp)
        vg *= d2
        np.multiply(1.0 - ADAM_BETA2, g, out=tmp)
        vg += np.multiply(tmp, g, out=tmp)
        if rows is not None:
            m[rows] = mg
            v[rows] = vg
        state.last[name][sel] = t
        mhat = np.divide(mg, bc1, out=tmp)
        vhat = np.divide(vg, bc2, out=work[1])
        np.sqrt(vhat, out=vhat)
        vhat += ADAM_EPS
        mhat *= lr
        mhat /= vhat
        if rows is None:
            block -= mhat
        else:
            pg = np.take(block, rows, axis=0, out=work[0], mode="clip")
            pg -= mhat
            block[rows] = pg


def save_checkpoint(path, params, config_hash="", adversary=None):
    """Write a versioned, byte-deterministic dump of the model.

    Layout: magic JSON header line describing every array, then the raw
    little-endian float64 bytes in header order.  Round-trips losslessly.
    """
    arrays = dict(params.arrays())
    adv_meta = None
    if adversary is not None:
        for idx, w in enumerate(adversary.weights):
            arrays[f"adv_w{idx}"] = w
        for idx, b in enumerate(adversary.biases):
            arrays[f"adv_b{idx}"] = b
        adv_meta = {"num_layers": len(adversary.weights)}
    header = {
        "magic": _CKPT_MAGIC,
        "version": _CKPT_VERSION,
        "kind": "mf",
        "num_users": params.num_users,
        "num_items": params.num_items,
        "dim": params.dim,
        "config_hash": config_hash,
        "adversary": adv_meta,
        "arrays": [
            {"name": k, "shape": list(a.shape)} for k, a in arrays.items()
        ],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for a in arrays.values():
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Inverse of save_checkpoint.

    Also reads checkpoints of kind "fatr", which stored the item factors as
    a transposed trained block and a transposed indicator block.

    Returns:
        (params, adversary or None, config_hash)

    Raises:
        DataError: if the file is not a complete, well-formed checkpoint.
    """
    from .adversary import AdversaryParams

    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: not a checkpoint file") from exc
        if not isinstance(header, dict) or header.get("magic") != _CKPT_MAGIC:
            raise DataError(f"{path}: not a checkpoint file")
        if header.get("version") != _CKPT_VERSION:
            raise DataError(
                f"{path}: unsupported checkpoint version {header.get('version')}"
            )
        try:
            metas = [
                (meta["name"], tuple(int(n) for n in meta["shape"]))
                for meta in header["arrays"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed checkpoint header") from exc
        arrays = {}
        for name, shape in metas:
            n = int(np.prod(shape)) if shape else 1
            buf = fh.read(n * 8)
            if len(buf) != n * 8:
                raise DataError(f"{path}: truncated checkpoint")
            arrays[name] = (
                np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
            )
        if fh.read(1):
            raise DataError(f"{path}: unexpected bytes after the last array")
    fatr = header.get("kind") == "fatr"
    if fatr:
        needed = ["user_factors", "item_free", "item_sensitive"]
    else:
        needed = ["user_factors", "item_factors"]
    n_layers = 0
    if header.get("adversary"):
        n_layers = header["adversary"]["num_layers"]
    needed += [f"adv_{p}{i}" for p in "wb" for i in range(n_layers)]
    missing = [name for name in needed if name not in arrays]
    if missing:
        raise DataError(f"{path}: checkpoint lacks {', '.join(missing)}")
    if fatr:
        items = np.hstack([arrays["item_free"].T, arrays["item_sensitive"].T])
    else:
        items = arrays["item_factors"]
    params = MfParams(arrays["user_factors"], items)
    adversary = None
    if n_layers:
        adversary = AdversaryParams(
            [arrays[f"adv_w{i}"] for i in range(n_layers)],
            [arrays[f"adv_b{i}"] for i in range(n_layers)],
        )
    return params, adversary, header.get("config_hash", "")
