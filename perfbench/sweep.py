"""Run one workload over several seeds and summarise the spread.

    python3 perfbench/sweep.py --workload handstand_rot --seeds 1-10 \
        [--json sweep.json] [--against other.json]

Each seed runs ``run.py`` untraced, for BENCHMARK.json's ``run_seconds``, in
a fresh process, one after another.  For every
metric the summary gives the median, the quartiles (``statistics.quantiles``
with n=4) and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json.  ``--against`` compares with an earlier sweep's JSON: the
change of each median relative to the earlier one, and for every common
seed whether accuracy and the positions digest are identical.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ACCURACY = ("mpjpe_mm", "mpjpe_lower_mm", "pck50_pct")


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_seed(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".perfbench_out",
                           f"{workload}-seed{seed}-trace0.json"),
              encoding="utf-8") as fh:
        result["positions_sha256"] = json.load(fh)["positions_sha256"]
    return result


def summarise(runs, bounds):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else float("nan")
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": spread, "bound": bounds.get(name),
                     "unit": runs[0]["metrics"][name]["unit"],
                     "values": values}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--json", help="write the summary here")
    p.add_argument("--against", help="earlier summary to compare with")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    runs = []
    for seed in args.seeds:
        r = run_seed(args.workload, seed, seconds)
        r["seed"] = seed
        runs.append(r)
        print(f"seed {seed}: correct={r['correct']} "
              f"failed={r['failed']}/{r['attempted']}", flush=True)
    summary = {"workload": args.workload, "seconds": seconds, "runs": runs,
               "metrics": summarise(runs, bounds)}

    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, m in summary["metrics"].items():
        flag = ""
        if m["bound"] is not None and name != "setup_s" \
                and not m["spread"] < m["bound"] / 3:
            flag = "  spread >= bound/3"
        print(f"{name:36} {m['median']:12.4f} {m['q1']:12.4f} "
              f"{m['q3']:12.4f} {m['spread']:8.4f} "
              f"{m['bound'] if m['bound'] is not None else '':>6}{flag}")

    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            before = json.load(fh)
        print(f"\nagainst {args.against}:")
        for name, m in summary["metrics"].items():
            old = before["metrics"].get(name)
            if old and old["median"]:
                print(f"{name:36} median {m['median'] / old['median'] - 1:+.4f}")
        old_runs = {r["seed"]: r for r in before["runs"]}
        for r in runs:
            o = old_runs.get(r["seed"])
            if o is None:
                continue
            same = (r["positions_sha256"] == o["positions_sha256"] and
                    all(r["metrics"][k]["value"] == o["metrics"][k]["value"]
                        for k in ACCURACY if k in r["metrics"]))
            print(f"seed {r['seed']}: accuracy and digest "
                  f"{'identical' if same else 'DIFFER'}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
