"""Command-line interface.

Subcommands: train, eval, audit, sweep, synth.  Exit codes: 0 on success,
1 on domain errors (bad data, invalid configuration, divergence), 2 on
usage errors (unknown flags, malformed invocations).
"""

import argparse
import copy
import logging
import os
import sys

import numpy as np

from .config import _SCHEMA, _assign, load_config
from .data import (
    generate_synthetic,
    load_groups,
    load_interactions,
    split,
)
from .errors import ConfigError, DataError, FairrankError, UsageError
from .evaluation import (
    evaluate_model,
    group_ratio_stats,
    prob_rsp,
    rank_topk,
    relative_std,
)
from .mf import load_checkpoint, save_checkpoint
from .trainer import train

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_dataset(cfg, need_groups=False):
    if cfg.interactions is None:
        raise ConfigError("config [data] interactions: required")
    raw = load_interactions(cfg.interactions)
    dataset = split(raw, cfg.ratios, seed=cfg.train.seed)
    if cfg.groups is None and need_groups:
        raise ConfigError("config [data] groups: required")
    catalog = None if cfg.groups is None else load_groups(cfg.groups, raw.item_index)
    return raw, dataset, catalog


def _config(args, **kwargs):
    """The config file, with a --seed override of the training seed."""
    cfg = load_config(args.config, **kwargs)
    if args.seed is not None:
        cfg.train.seed = args.seed
    return cfg


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _check_dims(params, dataset):
    if (
        params.num_users != dataset.num_users
        or params.num_items != dataset.num_items
    ):
        raise DataError(
            f"checkpoint holds {params.num_users} users x "
            f"{params.num_items} items but the dataset has "
            f"{dataset.num_users} x {dataset.num_items}"
        )


def cmd_train(args):
    cfg = _config(args)
    if args.out is not None:
        cfg.output_dir = args.out
    _, dataset, catalog = _load_dataset(
        cfg, need_groups=cfg.train.kind != "bpr"
    )
    result = train(cfg.train, dataset, catalog)
    run_dir = os.path.join(cfg.output_dir, f"run-{cfg.config_hash()}")
    os.makedirs(run_dir, exist_ok=True)
    ckpt_path = os.path.join(run_dir, "checkpoint")
    save_checkpoint(
        ckpt_path,
        result.params,
        config_hash=cfg.config_hash(),
        adversary=result.adversary,
    )
    _write_text(os.path.join(run_dir, "trainlog.csv"), result.log.to_csv())
    _write_text(os.path.join(run_dir, "config.resolved"), cfg.resolved_text())
    if not np.isnan(result.best_val_f1):
        log.info("best validation f1@15: %r", result.best_val_f1)
    print(f"checkpoint: {ckpt_path}")
    print(run_dir)
    return 0


def cmd_eval(args):
    cfg = _config(args)
    _, dataset, catalog = _load_dataset(cfg, need_groups=True)
    params, _, _ = load_checkpoint(args.checkpoint)
    _check_dims(params, dataset)
    report = evaluate_model(
        params,
        dataset,
        catalog,
        ks=cfg.eval_ks,
        exclude=cfg.eval_exclude,
        js_user_pairs=cfg.js_user_pairs,
    )
    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    _write_text(json_path, report.to_json())
    _write_text(os.path.join(out_dir, "report.tsv"), report.to_tsv(cfg.train.kind))
    for k in cfg.eval_ks:
        print(
            f"k={k}\tf1={report.f1[k]:.6g}\trsp={report.rsp[k]:.6g}\t"
            f"reo={report.reo[k]:.6g}"
        )
    print(f"report: {json_path}")
    return 0


def cmd_audit(args):
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    raw = load_interactions(args.interactions)
    catalog = load_groups(args.groups, raw.item_index)
    items, feedback, ratios, spread = group_ratio_stats(catalog, raw.pairs)
    print("group\titems\tfeedback\tratio")
    for a, name in enumerate(catalog.group_names):
        print(f"{name}\t{int(items[a])}\t{int(feedback[a])}\t{ratios[a]:.6g}")
    print(f"feedback ratio relative spread: {spread:.6g}")
    if args.checkpoint is not None:
        params, _, _ = load_checkpoint(args.checkpoint)
        # every interaction is history; val and test stay empty
        dataset = split(raw, (1.0, 0.0, 0.0))
        _check_dims(params, dataset)
        ranking = rank_topk(params, dataset, args.k, exclude="train")
        probs = prob_rsp(ranking, dataset, catalog)
        print(f"top-{args.k} exposure probability by group:")
        for name, p in zip(catalog.group_names, probs):
            print(f"{name}\t{float(p)!r}")
        print(f"exposure relative spread: {relative_std(probs)!r}")
    return 0


def cmd_sweep(args):
    parts = [p.strip() for p in args.values.split(",") if p.strip()]
    if len(parts) < 2:
        raise UsageError("sweep needs at least 2 comma-separated values")
    # a value is parsed and set as the [train] key of that name would be
    path, parse = _SCHEMA["train"][args.parameter]
    values = []
    for part in parts:
        try:
            values.append(parse(part))
        except ValueError as exc:
            raise UsageError(
                f"invalid value '{part}' for parameter {args.parameter}: {exc}"
            ) from None
    cfg = _config(args, validate_train=False)
    _, dataset, catalog = _load_dataset(cfg, need_groups=True)
    fair = "reo" if cfg.train.kind in ("dpr-reo", "reg-reo") else "rsp"
    rows = []
    for value in values:
        run = _assign(copy.deepcopy(cfg), path, value)
        log.info("sweep: %s = %r", args.parameter, value)
        result = train(run.train, dataset, catalog)
        report = evaluate_model(
            result.params,
            dataset,
            catalog,
            ks=(15,),
            exclude=cfg.eval_exclude,
            js_user_pairs=cfg.js_user_pairs,
        )
        rows.append((value, report.f1[15], getattr(report, fair)[15]))
    print(f"value\tf1@15\t{fair}@15")
    for value, f1, spread in rows:
        print(f"{value!r}\t{f1!r}\t{spread!r}")
    return 0


def cmd_synth(args):
    cfg = load_config(args.config)
    if cfg.synthetic is None:
        raise ConfigError("config [synthetic]: required for synth")
    if args.seed is not None:
        cfg.synthetic.seed = args.seed
    raw, catalog = generate_synthetic(cfg.synthetic)
    os.makedirs(args.out, exist_ok=True)
    # id maps list their ids in dense-id order
    user_names = np.array(list(raw.user_index), dtype=object)
    item_names = np.array(list(raw.item_index), dtype=object)
    rows = zip(user_names[raw.pairs[:, 0]], item_names[raw.pairs[:, 1]])
    ipath = os.path.join(args.out, "interactions.csv")
    _write_text(ipath, "user_id,item_id\n" + "".join(f"{u},{i}\n" for u, i in rows))
    # only items that occur in the interactions survive a reload, so the
    # group file is restricted to them
    used = np.unique(raw.pairs[:, 1])
    item_rows, groups = np.nonzero(catalog.memberships[used])
    group_names = np.array(catalog.group_names, dtype=object)
    rows = zip(item_names[used[item_rows]], group_names[groups])
    gpath = os.path.join(args.out, "groups.csv")
    _write_text(gpath, "item_id,group\n" + "".join(f"{i},{g}\n" for i, g in rows))
    log.info(
        "synth: %d interactions, %d users, %d of %d items used",
        len(raw.pairs),
        raw.num_users,
        len(used),
        cfg.synthetic.num_items,
    )
    print(f"interactions: {ipath}")
    print(f"groups: {gpath}")
    return 0


def build_parser():
    parser = _Parser(
        prog="fairrank",
        description="fairness-aware ranking from implicit feedback",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True, help="INI experiment file")
    p.add_argument("--out", help="output directory (default from config)")
    p.add_argument("--seed", type=int, help="override the training seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", help="report directory (default: beside the checkpoint)")
    p.add_argument("--seed", type=int, help="override the split seed")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "audit", help="group statistics of a dataset, optionally of a model"
    )
    p.add_argument("--interactions", required=True)
    p.add_argument("--groups", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--k", type=int, default=15)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "sweep", help="train and compare along one hyperparameter"
    )
    p.add_argument("--config", required=True)
    p.add_argument(
        "--parameter",
        required=True,
        choices=("alpha", "beta", "adv_layers"),
    )
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".", help="directory for the CSV files")
    p.add_argument("--seed", type=int, help="override the generator seed")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except FairrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
