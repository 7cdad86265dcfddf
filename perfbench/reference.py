"""Re-derive the reference figures that the benchmark and its baseline use.

    python3 perfbench/reference.py rotation-off [--seeds 0-3]
    python3 perfbench/reference.py roadmap-walk [--frames 150]
    python3 perfbench/reference.py false-peaks [--seeds 0-2]

``rotation-off`` tracks the ``handstand_rot`` scene and frames with rotated
sampling switched off (``handstand_config(rotation=False)``) for each seed
and prints the LowerBody MPJPE of each, their minimum and the acceptance-2
bar derived from it, next to the constant ``workloads.ROTATION_OFF_LOWER_MM``
that the benchmark checks against.

``roadmap-walk`` profiles the scene of the ROADMAP open-items baseline (the
noise-free ``walk_like`` preset, default ``SceneSpec`` and
``PipelineConfig``, ``SyntheticProvider``): one untraced and one traced
tracking call over the same frames, and the figures the ROADMAP quotes.

``false-peaks`` initializes the walk scene with false peaks switched on
(``NoiseModel(jitter_px=1, amplitude_std=0.1, false_peak_rate=0.02)``) for
each seed and prints whether ``pipeline.initialize`` succeeds: the known
defect that keeps false peaks out of every workload.

Each prints one JSON object.  Run from the root of a source checkout; like
``run.py``, every run is pinned to one BLAS/OpenMP thread.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
from mocapfuse import pipeline, skeleton, synth  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from sweep import seeds  # noqa: E402


def rotation_off(args):
    w = workloads.Workload(
        "handstand_rotation_off", workloads.handstand_scene,
        lambda: workloads.handstand_config(rotation=False),
        workloads.WORKLOADS["handstand_rot"].end_frame, checks.Bars())
    lower = {}
    for seed in args.seeds:
        run = workloads.run_in_memory(w, seed, 0, False, False)
        lower[seed] = run.accuracy["mpjpe_lower_mm"]
    smallest = min(lower.values())
    return {
        "scene": "handstand_rot scene and frames, rotation off",
        "mpjpe_lower_mm_by_seed": lower,
        "min_mpjpe_lower_mm": smallest,
        "bar_mm": (1.0 - workloads.ACCEPTANCE2_REDUCTION) * smallest,
        "constant_in_workloads": workloads.ROTATION_OFF_LOWER_MM,
    }


def roadmap_walk(args):
    # Initialization takes the first frames; on this scene exactly the
    # minimum run of agreeing frames.
    first = pipeline.InitSettings().min_agreement_frames
    w = workloads.Workload(
        "walk_noise_free", lambda seed: synth.SceneSpec(
            motion=synth.walk_like(), seed=seed),
        pipeline.PipelineConfig, first + args.frames, workloads.ACCEPTANCE1)
    untraced = workloads.run_in_memory(w, 0, 0, False, False)
    traced = workloads.run_in_memory(w, 0, 0, True, False)

    def profile(rep):
        return {"frames": rep.frames, "wall_s": rep.seconds,
                "cpu_s": rep.cpu_seconds,
                "ms_per_frame_mean": 1000.0 * rep.seconds / rep.frames,
                "frame_ms_p50": float(np.percentile(rep.frame_ms, 50)),
                "frame_ms_p95": float(np.percentile(rep.frame_ms, 95))}

    layers = {k: v["value"] for k, v in traced.layers.items()}
    traced_ms = profile(traced.reps[0])["ms_per_frame_mean"]
    return {
        "scene": "walk_like, default SceneSpec, no noise, default "
                 "PipelineConfig, SyntheticProvider",
        "correct": untraced.failed == 0 and traced.failed == 0,
        "setup_s": statistics.median(untraced.setup_s),
        "untraced": profile(untraced.reps[0]),
        "traced": profile(traced.reps[0]),
        "accuracy": untraced.accuracy,
        "roadmap_items": {
            "ik_share": (layers["ik.stage1_ms_per_frame"]
                         + layers["ik.stage2_ms_per_frame"]) / traced_ms,
            "render_share": layers["synth.render_ms_per_frame"] / traced_ms,
            "stage1_ms_per_frame": layers["ik.stage1_ms_per_frame"],
            "stage1_iterations_mean": layers["ik.stage1_iterations_mean"],
            "stage1_cap_ratio": layers["ik.stage1_cap_ratio"],
            "stage2_ms_per_frame": layers["ik.stage2_ms_per_frame"],
            "stage2_iterations_mean": layers["ik.stage2_iterations_mean"],
            "get_calls_per_frame": layers["pcm.get_calls_per_frame"],
        },
        "layers": layers,
    }


def false_peaks(args):
    outcome = {}
    for seed in args.seeds:
        spec = synth.SceneSpec(
            motion=synth.walk_like(),
            noise=synth.NoiseModel(jitter_px=1.0, amplitude_std=0.1,
                                   false_peak_rate=0.02),
            seed=seed)
        rig = synth.build_rig(spec)
        try:
            *_, first = pipeline.initialize(
                synth.SyntheticProvider(spec, rig), rig,
                skeleton.human_skeleton(), pipeline.PipelineConfig())
            outcome[seed] = f"initialized, first tracked frame {first}"
        except pipeline.InitializationError as exc:
            outcome[seed] = f"InitializationError: {exc}"
    return {"scene": "walk_like, NoiseModel(jitter_px=1, amplitude_std=0.1, "
                     "false_peak_rate=0.02)",
            "initialize_by_seed": outcome}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    off = sub.add_parser("rotation-off")
    off.add_argument("--seeds", type=seeds, default=seeds("0-3"))
    off.set_defaults(fn=rotation_off)
    walk = sub.add_parser("roadmap-walk")
    walk.add_argument("--frames", type=int, default=150)
    walk.set_defaults(fn=roadmap_walk)
    peaks = sub.add_parser("false-peaks")
    peaks.add_argument("--seeds", type=seeds, default=seeds("0-2"))
    peaks.set_defaults(fn=false_peaks)
    args = p.parse_args(argv)
    print(json.dumps(args.fn(args), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
