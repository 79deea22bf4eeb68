"""fairrank benchmark: the synth -> train -> eval pipeline per workload.

Run from the root of a source checkout (it imports ``src/fairrank``):

    python3 perfbench/run.py --workload bpr-m --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload
    python3 perfbench/run.py --workload all --smoke       # toy sizes

Each pass of the pipeline runs in a fresh worker process, as each
``fairrank`` command does: in a process's first pass dpr-rsp-s trains
about a quarter slower than in later ones, with seconds of extra system
time, so passes sharing a process would not be alike.  ``--trace 0``
times untraced passes and reports the end-to-end metrics; ``--trace 1``
alternates an untraced pass with a pass whose layers are wrapped in
spans and reports the per-layer metrics, including the tracing overhead.
Passes repeat until the next one would overrun ``--seconds`` (at least
one runs).  An untraced run follows each pass, and fills the end of the
run, with eval workers that do what ``fairrank eval`` does with the
pass's checkpoint, while they fit in ``--seconds``; each adds a set-up
and an evaluation sample.  Times are medians over samples, and set-up
samples are topped up to three with set-up-only workers.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The environment, every pass and every check
failure go to ``.perfbench_out/`` in the checkout, spans of traced passes
included.
"""

import os
import sys

# Pin BLAS threads before numpy loads (workers inherit the environment):
# one thread keeps runs steady on a shared machine, and the score matrices
# here are too thin (d = 20) to gain from more.
BLAS_THREADS = 1
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

OUT_DIR = ".perfbench_out"
# set-up samples per untraced run; a workload whose pass is too long to
# repeat (fatr-l) tops them up with set-up-only workers
MIN_SETUPS = 3
# a run must end within 180 s; workers get what is left of this
RUN_LIMIT_S = 170

# name -> (unit, better).  failed_frac is carried by attempted/failed, and
# reo@15 rests on too few group-2 test hits to be steady across seeds, so
# it is a per-layer metric (evaluation.reo_at_15) rather than a gated one.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "eval_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "f1_at_15": ("ratio", "higher"),
    "rsp_at_15": ("ratio", "lower"),
}


class SourceMissing(Exception):
    pass


def import_fairrank(root):
    """Import fairrank from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    pkg = importlib.import_module("fairrank")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(
        os.path.abspath(src), "fairrank"
    ):
        raise SourceMissing(f"fairrank imported from {pkg.__file__}, not {src}")
    modules = ("data", "mf", "objectives", "adversary", "trainer", "evaluation")
    return SimpleNamespace(
        **{m: importlib.import_module(f"fairrank.{m}") for m in modules}
    )


def source_digest(root):
    """sha256 over the program and benchmark sources."""
    h = hashlib.sha256()
    bench = os.path.dirname(os.path.abspath(__file__))
    for base in (os.path.join(root, "src", "fairrank"), bench):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(".py"):
                    path = os.path.join(dirpath, fn)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def environment(root):
    import numpy as np

    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=30,
        )
        commit = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": commit,
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ---- worker: one pass, evaluation or set-up in this process ---------


def worker(args, root):
    """Run one worker and write its result as JSON to ``args.worker_out``.

    ``untraced`` and ``traced`` run a full pass.  ``eval`` sets up the data
    and evaluates the checkpoint a pass left, as ``fairrank eval`` does;
    ``setup`` only sets up.  Both give a set-up sample.
    """
    from layers import derive, install
    from pipeline import Pipeline
    from spans import Tracer
    from workloads import WORKLOADS, shape

    fr = import_fairrank(root)
    workload = WORKLOADS[args.workload]
    tracer = Tracer(enabled=args.worker == "traced")
    pipe = Pipeline(fr, workload, args.seed, args.smoke, args.worker_dir, tracer)
    out = {}
    if args.worker in ("setup", "eval"):
        (dataset, catalog), out["setup_s"] = pipe.setup()
        if args.worker == "eval":
            out["eval_s"], out["report_sha256"] = pipe.evaluate_saved(
                dataset, catalog
            )
    elif args.worker == "untraced":
        out["pass"] = vars(pipe.run())
    else:
        n_users, n_items, _ = shape(workload, args.smoke)
        tracer.run_id = os.path.basename(args.worker_out)
        hooks = install(tracer, fr, n_users, n_items)
        try:
            p = pipe.run()
        finally:
            hooks.restore()
        out["pass"] = vars(p)
        out["per_layer"] = derive(tracer, tracer.run_id, n_users, n_items, p)
        out["missing_hooks"] = hooks.missing
        tracer.write_jsonl(args.worker_out + ".spans.jsonl")
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.worker_out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def spawn(args, root, kind, out_path, workdir, deadline):
    """Run one worker to completion and return what it wrote."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--worker", kind,
        "--worker-out", out_path,
        "--worker-dir", workdir,
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(
        cmd,
        cwd=root,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{kind} worker exited with {proc.returncode}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


# ---- parent: repeat passes, aggregate, check, report ----------------


def run_workload(args, root):
    import checks
    from layers import PER_LAYER, missing_metrics

    out_dir = os.path.join(root, OUT_DIR)
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = environment(root)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + (
        "-smoke" if args.smoke else ""
    )

    def out_path(kind, n):
        return os.path.join(out_dir, f"{tag}.{kind}{n}.json")

    untraced, traced, evals = [], [], []
    rounds, eval_walls = [], []
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S

    def fits(walls):
        """One more worker like those that took ``walls`` s ends in time."""
        return time.perf_counter() - start + statistics.mean(walls) <= args.seconds

    def eval_worker():
        # until one has run, take a pass less its training as the estimate
        walls = eval_walls or [rounds[-1] - untraced[-1]["pass"]["train_s"]]
        if args.trace or not fits(walls):
            return False
        t0 = time.perf_counter()
        path = out_path("eval", len(evals))
        evals.append(spawn(args, root, "eval", path, workdir, deadline))
        eval_walls.append(time.perf_counter() - t0)
        return True

    try:
        # untraced runs put an evaluation after each pass and fill the end
        # of the run with more, so that eval_s samples the whole run
        while True:
            n = len(untraced)
            t0 = time.perf_counter()
            untraced.append(
                spawn(args, root, "untraced", out_path("pass", n), workdir, deadline)
            )
            if args.trace:
                traced.append(
                    spawn(args, root, "traced", out_path("traced", n), workdir, deadline)
                )
            rounds.append(time.perf_counter() - t0)
            eval_worker()
            if not fits(rounds):
                break
        while eval_worker():
            pass
        setups = [w["pass"]["setup_s"] for w in untraced]
        setups += [e["setup_s"] for e in evals]
        while not args.trace and len(setups) < MIN_SETUPS:
            path = out_path("setup", len(setups))
            extra = spawn(args, root, "setup", path, workdir, deadline)
            setups.append(extra["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = [w["pass"] for w in untraced + traced]
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    first = passes[0]["digests"]
    for p in passes[1:]:
        f, n = checks.digests_agree(first, p["digests"])
        failures += f
        attempted += n
    for e in evals:
        f, n = checks.digests_agree(
            {"report.json": first["report.json"]},
            {"report.json": e["report_sha256"]},
        )
        failures += f
        attempted += n
    key = f"{env['source_sha256']}/{args.workload}/{args.seed}/{args.smoke}"
    f, n = checks.stored_digests(os.path.join(out_dir, "digests.json"), key, first)
    failures += f
    attempted += n

    med = statistics.median
    if args.trace:
        missing = missing_metrics(traced[0]["missing_hooks"])
        values = {}
        for name in traced[0]["per_layer"]:
            vals = [w["per_layer"][name] for w in traced]
            # None: the pass could not attribute the metric's calls
            values[name] = None if None in vals else med(vals)
        # each traced pass against the untraced pass just before it
        values["trace.overhead_s"] = med(
            [
                t["pass"]["total_s"] - u["pass"]["total_s"]
                for u, t in zip(untraced, traced)
            ]
        )
        metrics = {
            name: (
                {"value": None, "unit": unit, "missing": True}
                if name in missing or values[name] is None
                else {"value": values[name], "unit": unit}
            )
            for name, (unit, _) in PER_LAYER.items()
        }
    else:
        quality = untraced[0]["pass"]["quality"]
        eval_samples = [w["pass"]["eval_s"] for w in untraced]
        eval_samples += [e["eval_s"] for e in evals]
        values = {
            "setup_s": med(setups),
            "train_s": med([w["pass"]["train_s"] for w in untraced]),
            "eval_s": med(eval_samples),
            "total_s": med([w["pass"]["total_s"] for w in untraced]),
            "peak_rss_mb": med([w["peak_rss_mb"] for w in untraced]),
            "f1_at_15": quality["f1_at_15"],
            "rsp_at_15": quality["rsp_at_15"],
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in END_TO_END.items()
        }

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "setups_s": setups,
        "evals": evals,
        "untraced": untraced,
        "traced": traced,
        "result": result,
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(
        "environment: "
        + ", ".join(f"{k}={v}" for k, v in env.items() if k != "source_sha256")
    )
    print(
        f"{args.workload}: {len(untraced)} untraced + {len(traced)} traced "
        f"passes, {len(setups)} set-up samples"
        + ("" if args.trace else f", {len(untraced) + len(evals)} evaluations")
    )
    rows = [(n, m["value"], m["unit"]) for n, m in metrics.items()]
    rows.append(("failed_frac", len(failures) / attempted, "ratio"))
    if not args.trace:
        reo = untraced[0]["pass"]["quality"]["reo_at_15"]
        rows.append(("reo_at_15 (not gated)", reo, "ratio"))
    for name, value, unit in rows:
        print(f"  {name:42s} {value!s:>24} {unit}")
    print(json.dumps(result))
    return 0


def run_all(args, root):
    """Every workload in turn, each through its own parent process."""
    from workloads import WORKLOADS

    summary = {}
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="workload name or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size corpora")
    parser.add_argument(
        "--worker",
        choices=("untraced", "traced", "eval", "setup"),
        help=argparse.SUPPRESS,
    )
    parser.add_argument("--worker-out", help=argparse.SUPPRESS)
    parser.add_argument("--worker-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fairrank", "__init__.py")):
        print(
            f"error: no src/fairrank in {root}; run from the root of a "
            "fairrank checkout",
            file=sys.stderr,
        )
        return 2
    try:
        if args.worker:
            return worker(args, root)
        if args.workload == "all":
            return run_all(args, root)
        return run_workload(args, root)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
