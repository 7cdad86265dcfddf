"""Smoke self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced with ``--smoke``
(a few tracked frames) and asserts that each run exits 0, reports no failed
frame, and emits every metric that BENCHMARK.json names for its mode with a
finite value and the declared unit.  For the traced runs it also asserts
that every span lies inside its parent and that no span's children cover
more than the span itself, i.e. every self time is >= 0.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(label, result, declared):
    assert result["attempted"] >= 1 and result["failed"] == 0, (label, result)
    got = result["metrics"]
    missing = sorted(set(declared) - set(got))
    extra = sorted(set(got) - set(declared))
    assert not missing and not extra, (label, missing, extra)
    for name, unit in declared.items():
        value = got[name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            (label, name, value)
        assert got[name]["unit"] == unit, (label, name, got[name]["unit"])


def check_spans(label, path):
    with open(path, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]     # [id, name, parent, start, end, ...]
    covered = {}
    for sid, name, parent, start, end, _ in spans:
        assert end >= start, (label, name)
        if parent >= 0:
            p = spans[parent]
            assert p[3] <= start and end <= p[4], (label, name, "outside", p[1])
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    for parent, total in covered.items():
        duration = spans[parent][4] - spans[parent][3]
        assert total <= duration + 1e-9, (label, spans[parent][1], total,
                                          duration)
    return len(spans)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in modes.items():
            label = f"{workload} trace={trace}"
            check_metrics(label, run(workload, trace), declared)
            note = ""
            if trace:
                record = os.path.join(ROOT, ".perfbench_out",
                                      f"{workload}-seed0-trace1.json")
                with open(record, encoding="utf-8") as fh:
                    spans_file = json.load(fh)["spans_file"]
                n = check_spans(label, os.path.join(ROOT, spans_file))
                note = f", {n} spans nested"
            print(f"ok  {label}: {len(declared)} metrics{note}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
