"""One pass of the user's pipeline, timed stage by stage and checked.

The order is the one ``fairrank synth``, ``fairrank train`` and
``fairrank eval`` use: generate_synthetic -> write the CSVs ->
load_interactions/load_groups -> split -> train -> save_checkpoint ->
load_checkpoint -> evaluate_model -> write report.json.  ``evaluate_saved``
repeats the last step on its own, as a later ``fairrank eval`` would.
"""

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import checks
from workloads import (
    EVAL_EXCLUDE,
    EVAL_KS,
    ITEM_SHARES,
    JS_USER_PAIRS,
    POPULARITY,
    RATIOS,
    shape,
    train_kwargs,
)


@dataclass
class PassResult:
    setup_s: float
    train_s: float
    eval_s: float
    total_s: float
    quality: dict
    digests: dict
    epoch_seconds: list
    checkpoint_bytes: int
    reference_f1: dict = None
    failures: list = field(default_factory=list)
    attempted: int = 0


def write_corpus(raw, catalog, out_dir):
    """Write the two CSV files exactly as ``fairrank synth`` does."""
    inv_user = {v: k for k, v in raw.user_index.items()}
    inv_item = {v: k for k, v in raw.item_index.items()}
    ipath = os.path.join(out_dir, "interactions.csv")
    with open(ipath, "w", encoding="utf-8") as fh:
        fh.write("user_id,item_id\n")
        for u, i in raw.pairs:
            fh.write(f"{inv_user[int(u)]},{inv_item[int(i)]}\n")
    used = np.unique(raw.pairs[:, 1])
    gpath = os.path.join(out_dir, "groups.csv")
    with open(gpath, "w", encoding="utf-8") as fh:
        fh.write("item_id,group\n")
        for i in used:
            for a in np.flatnonzero(catalog.memberships[int(i)]):
                fh.write(f"{inv_item[int(i)]},{catalog.group_names[a]}\n")
    return ipath, gpath


@contextmanager
def captured_ranking(evaluation, k, store):
    """Keep the ranking evaluate_model computes, for the top-k check.

    The wrapper only stores the return value, so it adds one Python call
    to an untraced pass.
    """
    original = evaluation.rank_topk

    def capture(params, dataset, depth, *args, **kwargs):
        out = original(params, dataset, depth, *args, **kwargs)
        if depth == k:
            store.append(out)
        return out

    evaluation.rank_topk = capture
    try:
        yield
    finally:
        evaluation.rank_topk = original


class Pipeline:
    def __init__(self, fr, workload, seed, smoke, workdir, tracer):
        """
        Args:
            fr: namespace holding the imported fairrank modules.
            workdir: scratch directory for the CSVs, checkpoint and report.
        """
        self.fr = fr
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.write_s = 0.0
        # no trained level is known for toy corpora
        self.quality_window = None if smoke else workload.quality_window
        users, items, per_user = shape(workload, smoke)
        self.spec = fr.data.SyntheticSpec(
            users, items, 2, ITEM_SHARES, POPULARITY, per_user, seed=seed
        )
        kwargs = train_kwargs(workload, smoke)
        weights = fr.objectives.ObjectiveWeights(**kwargs.pop("weights", {}))
        self.train_config = fr.trainer.TrainConfig(
            seed=seed, weights=weights, **kwargs
        )

    def setup(self):
        """Data preparation before training; returns ((dataset, catalog),
        seconds).

        The seconds cover generate, load and split.  Writing the CSVs is
        the benchmark's copy of ``fairrank synth``'s writer, not program
        code, so its time (``write_s``) is left out of ``setup_s`` and
        ``total_s``.
        """
        data, span = self.fr.data, self.tracer.span
        t0 = time.perf_counter()
        with span("data.generate_synthetic"):
            raw, catalog = data.generate_synthetic(self.spec)
        t1 = time.perf_counter()
        ipath, gpath = write_corpus(raw, catalog, self.workdir)
        t2 = time.perf_counter()
        self.write_s = t2 - t1
        with span("data.load"):
            raw = data.load_interactions(ipath)
            catalog = data.load_groups(gpath, raw.item_index)
        with span("data.split"):
            dataset = data.split(raw, RATIOS, seed=self.seed)
        return (dataset, catalog), time.perf_counter() - t0 - self.write_s

    def evaluate(self, params, dataset, catalog):
        return self.fr.evaluation.evaluate_model(
            params,
            dataset,
            catalog,
            ks=EVAL_KS,
            exclude=EVAL_EXCLUDE,
            js_user_pairs=JS_USER_PAIRS,
        )

    def evaluate_saved(self, dataset, catalog):
        """Evaluate the checkpoint an earlier pass left in the workdir.

        Returns (seconds of evaluate_model, sha256 of the report file),
        the digest for comparison with the pass's ``report.json``.
        """
        params, _, _ = self.fr.mf.load_checkpoint(
            os.path.join(self.workdir, "checkpoint")
        )
        t0 = time.perf_counter()
        report = self.evaluate(params, dataset, catalog)
        seconds = time.perf_counter() - t0
        path = os.path.join(self.workdir, "report-eval.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        return seconds, checks.sha256_file(path)

    def run(self):
        """One full pass; checks run after the timed region."""
        fr, span = self.fr, self.tracer.span
        ckpt = os.path.join(self.workdir, "checkpoint")
        report_path = os.path.join(self.workdir, "report.json")
        rankings = []
        t0 = time.perf_counter()
        with span("pipeline"):
            (dataset, catalog), setup_s = self.setup()
            t1 = time.perf_counter()
            with span("trainer.train"):
                result = fr.trainer.train(self.train_config, dataset, catalog)
            train_s = time.perf_counter() - t1
            with span("mf.save_checkpoint"):
                fr.mf.save_checkpoint(ckpt, result.params, adversary=result.adversary)
            with span("mf.load_checkpoint"):
                params, adversary, _ = fr.mf.load_checkpoint(ckpt)
            t3 = time.perf_counter()
            with captured_ranking(fr.evaluation, max(EVAL_KS), rankings):
                with span("evaluation.evaluate_model"):
                    report = self.evaluate(params, dataset, catalog)
            t4 = time.perf_counter()
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
        total_s = time.perf_counter() - t0 - self.write_s

        k = max(EVAL_KS)
        out = PassResult(
            setup_s=setup_s,
            train_s=train_s,
            eval_s=t4 - t3,
            total_s=total_s,
            quality={
                "f1_at_15": report.f1[k],
                "rsp_at_15": report.rsp[k],
                "reo_at_15": report.reo[k],
            },
            digests={
                "checkpoint": checks.sha256_file(ckpt),
                "report.json": checks.sha256_file(report_path),
            },
            epoch_seconds=[r.seconds for r in result.log.records],
            checkpoint_bytes=os.path.getsize(ckpt),
        )

        def resave(path):
            fr.mf.save_checkpoint(path, params, adversary=adversary)

        results = [
            checks.checkpoint_roundtrip(
                (result.params, result.adversary),
                (params, adversary),
                ckpt,
                resave,
                ckpt + ".resaved",
            ),
            checks.report_ranges(report, catalog.num_groups),
        ]
        if self.quality_window is not None:
            out.reference_f1 = checks.reference_f1(
                dataset, k, EVAL_EXCLUDE == "train+val"
            )
            results.append(
                checks.trained_level(
                    out.quality, out.reference_f1, params, self.quality_window
                )
            )
        if rankings:
            results.append(
                checks.topk(
                    params,
                    dataset,
                    rankings[-1],
                    k,
                    EVAL_EXCLUDE == "train+val",
                    self.seed,
                )
            )
        else:
            results.append(
                (["evaluate_model did not call rank_topk with k=15"], 1)
            )
        for failures, attempted in results:
            out.failures.extend(failures)
            out.attempted += attempted
        return out
