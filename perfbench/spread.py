"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload fatr-l --seeds 0-4
    python3 perfbench/spread.py --workload all --seeds 0-9 --out spread.json

For every end-to-end metric it prints the median over seeds and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json.  Runs are sequential, one fresh
process each, from the current directory (a fairrank checkout).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="name or 'all'")
    parser.add_argument("--seeds", default="0-9", help="'0-9' or '1,5,7'")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run's result here (JSON)")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = (
        [w["name"] for w in bench["workloads"]]
        if args.workload == "all"
        else [args.workload]
    )
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}
    runs = {}
    summary = {}
    status = 0
    for name in names:
        runs[name] = {}
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload",
                name,
                "--seed",
                str(seed),
                "--seconds",
                str(bench["run_seconds"]),
                "--trace",
                str(args.trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[name][seed] = result
            print(
                f"{name} seed {seed}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}",
                flush=True,
            )
        results = list(runs[name].values())
        print(f"{name}: {len(results)} runs")
        summary[name] = {}
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in results]
            if any(v is None for v in vals):
                print(f"  {metric:42s} missing")
                continue
            row = {"median": statistics.median(vals), "runs": len(vals)}
            flag = ""
            if len(vals) >= 2:
                row["spread"] = spread(vals)
                if bound is not None:
                    flag = (
                        "ok"
                        if row["spread"] < bound / 3
                        else ("WIDE" if row["spread"] < bound else "OVER")
                    )
            summary[name][metric] = row
            print(
                f"  {metric:42s} median {row['median']:<14.6g} "
                f"spread {row.get('spread', float('nan')):7.4f}  "
                f"bound {bound}  {flag}"
            )
    if args.out:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from layers import LAYER_MAP
        from workloads import WORKLOADS

        first = min(runs[names[0]]) if runs[names[0]] else 0
        tag = f"{names[0]}-seed{first}-trace{args.trace}"
        with open(os.path.join(".perfbench_out", f"{tag}.json"), encoding="utf-8") as fh:
            env = json.load(fh)["environment"]
        record = {
            "environment": env,
            "benchmark": bench,
            "workload_shapes": {
                n: {
                    "users": w.num_users,
                    "items": w.num_items,
                    "interactions_per_user": w.interactions_per_user,
                    "train": w.train,
                }
                for n, w in WORKLOADS.items()
            },
            "layer_map": {
                layer: {"moves": moves, "workloads": ws}
                for layer, (moves, ws) in LAYER_MAP.items()
            },
            "seeds": parse_seeds(args.seeds),
            "trace": args.trace,
            "summary": summary,
            "runs": runs,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
