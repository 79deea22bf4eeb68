"""Per-layer metrics: the hooks that measure them and how they are derived.

Layers are fairrank's modules.  ``cli`` and ``config`` are thin glue and
are not measured.  Each metric lists the end-to-end metric it should move
and on which workload (``LAYER_MAP``); later changes claim gains against
these names.
"""

import statistics
import sys

from spans import Hooks, timed

S, COUNT, RATIO = "s", "count", "ratio"

# name -> (unit, better)
PER_LAYER = {
    "data.generate_synthetic.s": (S, "lower"),
    "data.load.s": (S, "lower"),
    "data.split.s": (S, "lower"),
    "data.in_train.calls": (COUNT, "lower"),
    "data.in_train.queries": (COUNT, "lower"),
    "data.in_train.s": (S, "lower"),
    "data.neg.accept_frac": (RATIO, "higher"),
    "mf.adam_step.theta.calls": (COUNT, "lower"),
    "mf.adam_step.theta.s": (S, "lower"),
    "mf.adam_step.theta.rows": (COUNT, "lower"),
    "mf.adam_step.psi.calls": (COUNT, "lower"),
    "mf.adam_step.psi.s": (S, "lower"),
    "mf.item_matrix.calls": (COUNT, "lower"),
    "mf.item_matrix.s": (S, "lower"),
    "mf.checkpoint.save_s": (S, "lower"),
    "mf.checkpoint.load_s": (S, "lower"),
    "mf.checkpoint.bytes": ("bytes", "lower"),
    "objectives.bpr_pair_loss_batch.s": (S, "lower"),
    "objectives.fatr_reg.calls": (COUNT, "lower"),
    "objectives.fatr_reg.s": (S, "lower"),
    "adversary.loglik_and_grads.sweep.calls": (COUNT, "lower"),
    "adversary.loglik_and_grads.sweep.samples": (COUNT, "lower"),
    "adversary.loglik_and_grads.sweep.s": (S, "lower"),
    "adversary.loglik_and_grads.theta.calls": (COUNT, "lower"),
    "adversary.loglik_and_grads.theta.samples": (COUNT, "lower"),
    "adversary.loglik_and_grads.theta.s": (S, "lower"),
    "adversary.param_grads_used_frac": (RATIO, "higher"),
    "trainer.train.s": (S, "lower"),
    "trainer.self_s": (S, "lower"),
    "trainer.theta_batches": (COUNT, "lower"),
    "trainer.sweep_samples": (COUNT, "lower"),
    "trainer.epoch_s.p50": (S, "lower"),
    "trainer.epoch_s.max": (S, "lower"),
    "trainer.epoch_s.count": (COUNT, "higher"),
    "evaluation.evaluate_model.s": (S, "lower"),
    "evaluation.rank_topk.s": (S, "lower"),
    "evaluation.prob_rsp.s": (S, "lower"),
    "evaluation.prob_reo.s": (S, "lower"),
    "evaluation.f1_at_k.s": (S, "lower"),
    "evaluation.ndcg_at_k.s": (S, "lower"),
    "evaluation.user_divergence.s": (S, "lower"),
    "evaluation.group_divergence.all.s": (S, "lower"),
    "evaluation.group_divergence.positive.s": (S, "lower"),
    "evaluation.js_divergence.calls": (COUNT, "lower"),
    "evaluation.self_s": (S, "lower"),
    "evaluation.score_matrix_builds": (COUNT, "lower"),
    "evaluation.score_matrix_mb": ("MiB", "lower"),
    "evaluation.reo_at_15": (RATIO, "lower"),
    "pipeline.total.s": (S, "lower"),
    "trace.overhead_s": (S, "lower"),
}

# metric prefix -> (end-to-end metric it should move, workloads)
LAYER_MAP = {
    "data.generate_synthetic/load/split": ("setup_s", ["fatr-l"]),
    "data.in_train, data.neg.accept_frac": ("train_s", ["bpr-m", "dpr-rsp-s"]),
    "mf.adam_step.theta": ("train_s", ["bpr-m", "fatr-l"]),
    "mf.adam_step.psi": ("train_s", ["dpr-rsp-s"]),
    "mf.item_matrix": ("train_s", ["fatr-l"]),
    "mf.checkpoint": ("total_s", ["bpr-m", "dpr-rsp-s", "fatr-l"]),
    "objectives.bpr_pair_loss_batch, objectives.fatr_reg": (
        "train_s",
        ["bpr-m", "fatr-l"],
    ),
    "adversary": ("train_s", ["dpr-rsp-s"]),
    "trainer.self_s": ("train_s", ["bpr-m", "fatr-l"]),
    "evaluation": ("eval_s, peak_rss_mb", ["fatr-l", "bpr-m"]),
}

EVAL_FUNCS = (
    "rank_topk",
    "prob_rsp",
    "prob_reo",
    "f1_at_k",
    "ndcg_at_k",
    "user_divergence",
)

# metric -> hook label (or labels) it cannot be measured without
_NEEDS = {
    "data.in_train.calls": "InteractionDataset.in_train",
    "data.in_train.queries": "InteractionDataset.in_train",
    "data.in_train.s": "InteractionDataset.in_train",
    "data.neg.accept_frac": (
        "InteractionDataset.in_train",
        "fairrank.trainer._sample_neg_matrix",
    ),
    "mf.adam_step.theta.calls": "fairrank.trainer.adam_step",
    "mf.adam_step.theta.s": "fairrank.trainer.adam_step",
    "mf.adam_step.theta.rows": "fairrank.trainer.adam_step",
    "mf.adam_step.psi.calls": "fairrank.trainer.adam_step",
    "mf.adam_step.psi.s": "fairrank.trainer.adam_step",
    "trainer.theta_batches": "fairrank.trainer.adam_step",
    "mf.item_matrix.calls": "MfParams.item_matrix",
    "mf.item_matrix.s": "MfParams.item_matrix",
    "objectives.bpr_pair_loss_batch.s": "fairrank.trainer.bpr_pair_loss_batch",
    "objectives.fatr_reg.calls": "fairrank.trainer.fatr_reg",
    "objectives.fatr_reg.s": "fairrank.trainer.fatr_reg",
    "evaluation.js_divergence.calls": "fairrank.evaluation.js_divergence",
    "evaluation.score_matrix_builds": "fairrank.evaluation._score_matrix",
    "evaluation.score_matrix_mb": "fairrank.evaluation._score_matrix",
    "evaluation.group_divergence.all.s": "fairrank.evaluation.group_divergence",
    "evaluation.group_divergence.positive.s": (
        "fairrank.evaluation.group_divergence"
    ),
}
for _side in ("sweep", "theta"):
    for _what in ("calls", "samples", "s"):
        _NEEDS[f"adversary.loglik_and_grads.{_side}.{_what}"] = (
            "fairrank.adversary.loglik_and_grads"
        )
_NEEDS["adversary.param_grads_used_frac"] = "fairrank.adversary.loglik_and_grads"
_NEEDS["trainer.sweep_samples"] = "fairrank.adversary.loglik_and_grads"
for _fn in EVAL_FUNCS:
    _NEEDS[f"evaluation.{_fn}.s"] = f"fairrank.evaluation.{_fn}"

_PSI_BLOCK_PREFIXES = ("w", "b")


def _is_psi_block(key):
    return key[:1] in _PSI_BLOCK_PREFIXES and key[1:].isdigit()


def _factor_rows(block, rows, n_users, n_items):
    """User/item factor vectors an Adam update touches.

    A dense update (rows None) touches every vector of the block; FATR
    keeps its item block transposed, so the vector axis is whichever axis
    has the user or item count.
    """
    if rows is not None:
        return len(rows)
    shape = block.shape
    if shape[0] not in (n_users, n_items) and len(shape) > 1:
        return shape[1]
    return shape[0]


def _loglik_side():
    """"sweep" or "theta" from the trainer methods calling
    loglik_and_grads (named after psi/the sweep or theta), or
    "unattributed" when no caller is named after either."""
    # this <- timed label callback <- wrapper <- caller
    frame = sys._getframe(3)
    for _ in range(3):
        if frame is None:
            break
        name = frame.f_code.co_name
        if "psi" in name or "sweep" in name:
            return "sweep"
        if "theta" in name:
            return "theta"
        frame = frame.f_back
    return "unattributed"


def install(tracer, fairrank, n_users, n_items):
    """Hook every program function a per-layer metric needs.

    Args:
        fairrank: namespace with the imported ``data``, ``mf``, ``trainer``,
            ``adversary`` and ``evaluation`` modules.
    Returns:
        Hooks; call ``restore`` when the traced pipeline ends.
    """
    hooks = Hooks()
    count = tracer.count

    def in_train_args(args, kwargs):
        count("in_train.queries", len(args[2]))

    hooks.install(
        fairrank.data.InteractionDataset,
        "in_train",
        "InteractionDataset.in_train",
        lambda fn: timed(tracer, "data.in_train", fn, in_train_args),
    )

    def count_negatives(fn):
        # a counter, not a span, so that in_train stays a direct child of
        # the trainer's spans
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            count("neg.drawn", out.size)
            return out

        return wrapper

    hooks.install(
        fairrank.trainer,
        "_sample_neg_matrix",
        "fairrank.trainer._sample_neg_matrix",
        count_negatives,
    )

    def adam_label(args, kwargs):
        grads = args[2]
        if all(_is_psi_block(k) for k in grads):
            return "mf.adam_step.psi"
        blocks = args[1]
        count(
            "adam.theta.rows",
            sum(
                _factor_rows(blocks[k], rows, n_users, n_items)
                for k, (rows, _) in grads.items()
            ),
        )
        return "mf.adam_step.theta"

    hooks.install(
        fairrank.trainer,
        "adam_step",
        "fairrank.trainer.adam_step",
        lambda fn: timed(tracer, adam_label, fn),
    )
    for cls_name in ("MfParams", "FatrParams"):
        hooks.install(
            getattr(fairrank.mf, cls_name, None),
            "item_matrix",
            f"{cls_name}.item_matrix",
            lambda fn: timed(tracer, "mf.item_matrix", fn),
        )
    for fn_name in ("bpr_pair_loss_batch", "fatr_reg"):
        hooks.install(
            fairrank.trainer,
            fn_name,
            f"fairrank.trainer.{fn_name}",
            lambda fn, n=fn_name: timed(tracer, f"objectives.{n}", fn),
        )

    def loglik_label(args, kwargs):
        side = _loglik_side()
        count(f"loglik.{side}.samples", len(args[1]))
        count(f"loglik.{side}.calls")
        return f"adversary.loglik_and_grads.{side}"

    hooks.install(
        fairrank.adversary,
        "loglik_and_grads",
        "fairrank.adversary.loglik_and_grads",
        lambda fn: timed(tracer, loglik_label, fn),
    )
    for fn_name in EVAL_FUNCS + ("js_divergence", "_score_matrix"):
        hooks.install(
            fairrank.evaluation,
            fn_name,
            f"fairrank.evaluation.{fn_name}",
            lambda fn, n=fn_name: timed(tracer, f"evaluation.{n}", fn),
        )

    def group_label(args, kwargs):
        mode = kwargs.get("mode", args[3] if len(args) > 3 else "all")
        return f"evaluation.group_divergence.{mode}"

    hooks.install(
        fairrank.evaluation,
        "group_divergence",
        "fairrank.evaluation.group_divergence",
        lambda fn: timed(tracer, group_label, fn),
    )
    return hooks


def _ratio(num, den):
    # an empty base wastes nothing
    return num / den if den else 1.0


def derive(tracer, run_id, n_users, n_items, p):
    """Per-layer values of one traced pass ``p`` (a PassResult); None
    where the pass could not attribute what the metric counts."""
    total, self_s, calls = tracer.summarize(run_id)
    c = tracer.counts
    sweep_n = c["loglik.sweep.samples"]
    theta_n = c["loglik.theta.samples"]
    # a call no caller name attributes makes the sweep/theta split unknown
    split_known = c["loglik.unattributed.calls"] == 0
    builds = calls["evaluation._score_matrix"]
    epochs = sorted(p.epoch_seconds)
    out = {
        "data.generate_synthetic.s": total["data.generate_synthetic"],
        "data.load.s": total["data.load"],
        "data.split.s": total["data.split"],
        "data.in_train.calls": calls["data.in_train"],
        "data.in_train.queries": c["in_train.queries"],
        "data.in_train.s": total["data.in_train"],
        "data.neg.accept_frac": _ratio(c["neg.drawn"], c["in_train.queries"]),
        "mf.adam_step.theta.calls": calls["mf.adam_step.theta"],
        "mf.adam_step.theta.s": total["mf.adam_step.theta"],
        "mf.adam_step.theta.rows": c["adam.theta.rows"],
        "mf.adam_step.psi.calls": calls["mf.adam_step.psi"],
        "mf.adam_step.psi.s": total["mf.adam_step.psi"],
        "mf.item_matrix.calls": calls["mf.item_matrix"],
        "mf.item_matrix.s": total["mf.item_matrix"],
        "mf.checkpoint.save_s": total["mf.save_checkpoint"],
        "mf.checkpoint.load_s": total["mf.load_checkpoint"],
        "mf.checkpoint.bytes": p.checkpoint_bytes,
        "objectives.bpr_pair_loss_batch.s": total[
            "objectives.bpr_pair_loss_batch"
        ],
        "objectives.fatr_reg.calls": calls["objectives.fatr_reg"],
        "objectives.fatr_reg.s": total["objectives.fatr_reg"],
        "adversary.param_grads_used_frac": (
            _ratio(sweep_n, sweep_n + theta_n) if split_known else None
        ),
        "trainer.train.s": total["trainer.train"],
        "trainer.self_s": self_s["trainer.train"],
        "trainer.theta_batches": calls["mf.adam_step.theta"],
        "trainer.sweep_samples": sweep_n if split_known else None,
        "trainer.epoch_s.p50": statistics.median(epochs) if epochs else 0.0,
        "trainer.epoch_s.max": epochs[-1] if epochs else 0.0,
        "trainer.epoch_s.count": len(epochs),
        "evaluation.evaluate_model.s": total["evaluation.evaluate_model"],
        "evaluation.group_divergence.all.s": total[
            "evaluation.group_divergence.all"
        ],
        "evaluation.group_divergence.positive.s": total[
            "evaluation.group_divergence.positive"
        ],
        "evaluation.js_divergence.calls": calls["evaluation.js_divergence"],
        "evaluation.self_s": self_s["evaluation.evaluate_model"],
        "evaluation.score_matrix_builds": builds,
        "evaluation.score_matrix_mb": builds * n_users * n_items * 8 / 2**20,
        "evaluation.reo_at_15": p.quality["reo_at_15"],
        # the traced pass's total_s: the CSV write is left out, as untraced
        "pipeline.total.s": p.total_s,
    }
    for side in ("sweep", "theta"):
        name = f"adversary.loglik_and_grads.{side}"
        out[f"{name}.calls"] = calls[name] if split_known else None
        out[f"{name}.samples"] = (
            c[f"loglik.{side}.samples"] if split_known else None
        )
        out[f"{name}.s"] = total[name] if split_known else None
    for fn in EVAL_FUNCS:
        out[f"evaluation.{fn}.s"] = total[f"evaluation.{fn}"]
    return out


def missing_metrics(missing_hooks):
    """Per-layer metrics that cannot be measured because a hook is gone.

    The item_matrix metrics need only one of the two parameter classes.
    """
    gone = set(missing_hooks)
    if "FatrParams.item_matrix" in gone and "MfParams.item_matrix" not in gone:
        gone.discard("FatrParams.item_matrix")
    return sorted(
        m
        for m, hooks in _NEEDS.items()
        if gone & ({hooks} if isinstance(hooks, str) else set(hooks))
    )
