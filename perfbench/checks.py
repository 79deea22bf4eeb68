"""Output checks behind ``attempted``/``failed`` and ``failed_frac``.

Each check returns a list of failure messages and the number of checks it
attempted; a failure never stops the run, it is counted.
"""

import hashlib
import json
import math
import os

import numpy as np

TOPK_SAMPLE_USERS = 64
# relative tolerance for near-ties: a brute-force score and the program's
# score matrix may round the same dot product differently
TIE_RTOL = 1e-12


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _factor_matrices(params):
    """(user, item) factor matrices read from the stored arrays, without
    the program's own scoring code."""
    arrays = params.arrays()
    users = arrays["user_factors"]
    if "item_factors" in arrays:
        return users, arrays["item_factors"]
    return users, np.vstack([arrays["item_free"], arrays["item_sensitive"]]).T


def topk(params, dataset, ranking, k, exclude_val, seed):
    """Brute-force top-k for a seeded sample of users against ``ranking``.

    Order: score descending, item id ascending on ties; train (and val when
    ``exclude_val``) items masked.  An exact list match passes; otherwise the
    list passes only if it is a valid top-k whose scores equal the
    brute-force top-k scores within ``TIE_RTOL`` (a rounding-level tie).
    """
    users_mat, items_mat = _factor_matrices(params)
    n = dataset.num_users
    rng = np.random.default_rng(seed)
    sample = rng.choice(n, size=min(TOPK_SAMPLE_USERS, n), replace=False)
    ids = np.arange(dataset.num_items)
    failures = []
    for u in sorted(int(x) for x in sample):
        scores = items_mat @ users_mat[u]
        masked = np.zeros(dataset.num_items, dtype=bool)
        masked[dataset.train_pos[u]] = True
        if exclude_val:
            masked[dataset.val_pos[u]] = True
        order = np.lexsort((ids, -scores))
        want = [int(i) for i in order if not masked[i]][:k]
        got = [int(i) for i in np.asarray(ranking.lists[u]) if i >= 0]
        if got == want:
            continue
        scale = max(1.0, float(np.abs(scores).max()))
        ok = (
            len(got) == len(want)
            and len(set(got)) == len(got)
            and not masked[got].any()
            and np.allclose(
                scores[got], scores[want], rtol=0.0, atol=TIE_RTOL * scale
            )
        )
        if not ok:
            failures.append(f"top-{k} of user {u}: got {got}, want {want}")
    return failures, len(sample)


def reference_f1(dataset, k, exclude_val):
    """F1@k of two rankings that learn nothing per user, on this split.

    ``random``: the expected F1@k of a uniformly random top-k over each
    user's unmasked items, with ``random_sd`` the standard deviation of
    that mean over users (hits are hypergeometric).  F1 = 2·hits/(k+t)
    for a user with t test items, so its expectation is exact.
    ``popularity``: F1@k of ranking every user's unmasked items by training
    count, descending, item id ascending on ties.  Users without test items
    are skipped, as ``f1_at_k`` does.
    """
    counts = np.bincount(dataset.pos_items, minlength=dataset.num_items)
    order = np.lexsort((np.arange(dataset.num_items), -counts))
    mean = var = pop = 0.0
    n = 0
    for u in range(dataset.num_users):
        t = len(dataset.test_pos[u])
        if t == 0:
            continue
        masked = [dataset.train_pos[u]]
        if exclude_val:
            masked.append(dataset.val_pos[u])
        masked = np.concatenate(masked)
        c = dataset.num_items - len(masked)
        take = min(k, c)
        f = t / c
        mean += 2.0 * take * f / (k + t)
        if c > 1:
            hyper = take * f * (1.0 - f) * (c - take) / (c - 1)
            var += hyper * (2.0 / (k + t)) ** 2
        head = order[: k + len(masked)]
        top = head[~np.isin(head, masked)][:k]
        pop += 2.0 * np.isin(top, dataset.test_pos[u]).sum() / (k + t)
        n += 1
    return {
        "random": mean / n,
        "random_sd": var**0.5 / n,
        "popularity": pop / n,
    }


def trained_level(quality, reference, params, window):
    """The model sits where training puts it on this workload, not where a
    model that learned nothing would.

    Three figures, each against the workload's window of trained levels
    (``workloads.py``): F1@15 as a multiple of the random-ranking F1@15 on
    the same split, RSP@15, and the RMS of the user factors, which stays at
    its initial scale when no training step runs.

    Args:
        quality: the pass's ``f1_at_15`` and ``rsp_at_15``.
        reference: ``reference_f1`` of the same split.
        params: the loaded model.
        window: ``{figure: (lo, hi)}`` for the three figures.
    """
    users, _ = _factor_matrices(params)
    values = {
        "f1_vs_random": quality["f1_at_15"] / reference["random"],
        "rsp_at_15": quality["rsp_at_15"],
        "user_factor_rms": float(np.sqrt(np.mean(np.square(users)))),
    }
    failures = [
        f"{name} = {values[name]:.4g} outside the trained level [{lo}, {hi}]"
        for name, (lo, hi) in window.items()
        if not lo <= values[name] <= hi
    ]
    return failures, len(window)


def _named_arrays(params, adversary):
    out = {f"params.{k}": v for k, v in params.arrays().items()}
    if adversary is not None:
        for k, v in adversary.blocks().items():
            out[f"adversary.{k}"] = v
    return out


def checkpoint_roundtrip(saved, loaded, path, resave, resave_path):
    """The loaded model equals the saved one bit for bit, and saving it
    again reproduces the checkpoint file byte for byte.

    Args:
        saved, loaded: (params, adversary or None) pairs.
        resave: callable writing ``loaded`` to ``resave_path``.
    """
    failures = []
    a = _named_arrays(*saved)
    b = _named_arrays(*loaded)
    if sorted(a) != sorted(b):
        failures.append(f"checkpoint arrays {sorted(a)} != {sorted(b)}")
    for name in sorted(set(a) & set(b)):
        x = np.ascontiguousarray(a[name], dtype="<f8")
        y = np.ascontiguousarray(b[name], dtype="<f8")
        if x.shape != y.shape or x.tobytes() != y.tobytes():
            failures.append(f"checkpoint array {name} changed on reload")
    resave(resave_path)
    if sha256_file(path) != sha256_file(resave_path):
        failures.append("re-saving the loaded checkpoint changed its bytes")
    return failures, len(a) + 1


def report_ranges(report, num_groups):
    """Every report metric is finite and inside its range."""
    d = report.to_dict()
    rsd_max = math.sqrt(max(num_groups - 1, 1))
    bounds = {}
    for k in d["ks"]:
        bounds[f"f1@{k}"] = (0.0, 1.0)
        bounds[f"ndcg@{k}"] = (0.0, 1.0)
        bounds[f"rsp@{k}"] = (0.0, rsd_max)
        bounds[f"reo@{k}"] = (0.0, rsd_max)
        for fam in ("rsp", "reo"):
            for a, p in enumerate(d["group_probs"][fam][str(k)]):
                bounds[f"group_probs.{fam}.{k}.{a}"] = (0.0, 1.0, p)
    for name in ("js_user", "js_group_all", "js_group_pos"):
        bounds[name] = (0.0, math.log(2.0) + 1e-12)
    bounds["ratio_relative_std"] = (0.0, rsd_max)
    failures = []
    for name, spec in bounds.items():
        lo, hi = spec[0], spec[1]
        value = spec[2] if len(spec) == 3 else d[name]
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            failures.append(f"report {name} = {value!r} is not finite")
        elif not lo <= value <= hi:
            failures.append(f"report {name} = {value!r} outside [{lo}, {hi}]")
    return failures, len(bounds)


def digests_agree(first, other):
    """Digests of two runs of the same code and inputs are equal."""
    failures = [
        f"{name} digest {other.get(name, '')[:12]} != {first[name][:12]}"
        for name in sorted(first)
        if other.get(name) != first[name]
    ]
    return failures, len(first)


def stored_digests(path, key, digests):
    """Compare against the digests an earlier run of the same code and seed
    stored under ``key`` in the JSON file ``path``; store them if absent.

    Returns (failures, attempted); nothing is attempted on the first run.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    if key in table:
        return digests_agree(table[key], digests)
    table[key] = digests
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return [], 0
