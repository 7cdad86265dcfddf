"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload handstand_rot --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``attempted`` and ``failed`` count tracked frames.  A fuller result, with the
environment, is written to ``.perfbench_out/``; a traced run also writes its
spans there.  ``--smoke`` tracks only a few frames, for the self-test.
"""

from __future__ import annotations

import os
import sys

# BLAS/OpenMP must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["handstand_rot", "walk_disk_cli", "walk_mem"])
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="track a few frames only (self-test)")
    return p.parse_args(argv)


def _percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q))


def end_to_end(run):
    frame_ms = [ms for rep in run.reps for ms in rep.frame_ms]
    values = {
        "track_fps": (statistics.median(rep.fps for rep in run.reps), "1/s"),
        "frame_ms_p50": (_percentile(frame_ms, 50), "ms"),
        "frame_ms_p95": (_percentile(frame_ms, 95), "ms"),
        "setup_s": (statistics.median(run.setup_s), "s"),
        "mpjpe_mm": (run.accuracy["mpjpe_mm"], "mm"),
        "mpjpe_lower_mm": (run.accuracy["mpjpe_lower_mm"], "mm"),
        "pck50_pct": (run.accuracy["pck50_pct"], "%"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mocapfuse", "__init__.py")):
        print(f"error: no mocapfuse package under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import mocapfuse
    if not os.path.abspath(mocapfuse.__file__).startswith(SRC + os.sep):
        print(f"error: imported mocapfuse from {mocapfuse.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    w = workloads.WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(WORK_DIR, f"{tag}-{os.getpid()}")
    try:
        if w.on_disk:
            run = workloads.run_disk(w, args.seed, args.seconds,
                                     bool(args.trace), args.smoke, workdir)
        else:
            run = workloads.run_in_memory(w, args.seed, args.seconds,
                                          bool(args.trace), args.smoke)
        metrics = run.layers if args.trace else end_to_end(run)
    except Exception:  # the program under test failed: report, do not hide
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, **result,
        "frames_failed_ratio": run.failed / run.attempted,
        "failure_reasons": run.reasons,
        "frames_timed": sum(len(rep.frame_ms) for rep in run.reps),
        "frame_ms": [ms for rep in run.reps for ms in rep.frame_ms],
        "reps": [{"frames": rep.frames, "wall_seconds": rep.seconds,
                  "cpu_seconds": rep.cpu_seconds, "fps": rep.fps}
                 for rep in run.reps],
        "setup_s": run.setup_s,
        "setup_cpu_s": run.setup_cpu_s,
        "accuracy": run.accuracy,
        "positions_sha256": run.digests[0] if run.digests else None,
        "pcm_dataset": run.dataset,
        "environment": environment(),
        **run.notes,
    }
    if run.tracer is not None:
        spans_file = os.path.join(OUT_DIR, f"{tag}-spans.json")
        run.tracer.dump(spans_file)
        record["spans_file"] = os.path.relpath(spans_file, ROOT)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
