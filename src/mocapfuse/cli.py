"""Command-line entry point: synth, init, track and eval subcommands.

Outputs are written atomically (temp file in the output directory, then
rename).  Exit codes: 0 success, 1 runtime failure (one machine-readable
``error: ...`` line on stderr), 2 usage error.  Log level via the
MOCAPFUSE_LOG environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from . import metrics as metrics_mod
from . import pcm as pcm_mod
from . import pipeline as pipeline_mod
from . import ranges
from . import skeleton as sk
from . import synth as synth_mod
from .calib import load_rig


class _AtomicWriter:
    """Write-to-temp-then-rename for a set of files in one output dir, as a
    context manager: the files are renamed into place when the block ends.
    If it raises, the temp files are removed, and so is the directory if
    the block created it."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.existed = os.path.isdir(out_dir)
        self.pending = []

    def __enter__(self):
        return self

    def path(self, name):
        os.makedirs(self.out_dir, exist_ok=True)
        self.pending.append(os.path.join(self.out_dir, name))
        return self.pending[-1] + ".tmp"

    def __exit__(self, failed, *_):
        for final in self.pending:
            if not failed:
                os.replace(final + ".tmp", final)
            elif os.path.exists(final + ".tmp"):
                os.remove(final + ".tmp")
        if failed and not self.existed and os.path.isdir(self.out_dir):
            os.rmdir(self.out_dir)


def _build_config(args) -> pipeline_mod.PipelineConfig:
    """The --config file's tree (or a run.json's "config" member) with
    track's flags laid over it, checked by PipelineConfig.from_dict.  A
    config flag's argparse ``dest`` is the dotted key it sets
    (``section.key``), and every one given is laid over the tree.  A
    section that is not an object takes no flag, so from_dict refuses it
    by name as it would without one."""
    tree = {}
    if args.config:
        tree = ranges.read_json(args.config)
        if isinstance(tree, dict) and "config" in tree:
            tree = tree["config"]
        if not isinstance(tree, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    for dest, value in vars(args).items():
        section, _, key = dest.partition(".")
        if key and value is not None and isinstance(tree.get(section, {}),
                                                    dict):
            tree.setdefault(section, {})[key] = value
    return pipeline_mod.PipelineConfig.from_dict(tree)


def cmd_synth(args):
    if args.spec:
        payload = ranges.read_json(args.spec)
        try:    # every check runs before anything is written to --out
            spec = synth_mod.spec_from_json(payload)
        except ValueError as exc:
            raise ValueError(f"{args.spec}: {exc}") from None
    else:
        spec = synth_mod.SceneSpec(motion=synth_mod.PRESETS[args.preset]())
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    synth_mod.generate(spec, args.frames, args.out)
    print(f"wrote {args.frames} frames to {args.out}")
    return 0


def cmd_init(args):
    rig = load_rig(args.calib)
    provider = pcm_mod.DirectoryProvider(args.pcm_dir)
    config = _build_config(args)
    template = (sk.load_skeleton(args.skeleton) if args.skeleton
                else sk.human_skeleton())
    model, pose0, _, first_frame = pipeline_mod.initialize(
        provider, rig, template, config)
    with _AtomicWriter(args.out) as writer:
        sk.save_skeleton(model, writer.path("skeleton.json"))
        ranges.write_json(writer.path("init_state.json"),
                          {"pose0": [float(v) for v in pose0],
                           "first_track_frame": first_frame}, sort_keys=False)
    print(f"initialized: lengths in {args.out}/skeleton.json, "
          f"tracking starts at frame {first_frame}")
    return 0


def cmd_track(args):
    rig = load_rig(args.calib)
    provider = pcm_mod.DirectoryProvider(args.pcm_dir)
    config = _build_config(args)
    model = sk.load_skeleton(args.skeleton)
    init_state = args.init_state or os.path.join(
        os.path.dirname(args.skeleton), "init_state.json")
    state = ranges.read_json(init_state)
    if not isinstance(state, dict):
        raise ValueError(f"{init_state}: must be a JSON object, not a "
                         f"{type(state).__name__}")
    for key, kind in (("first_track_frame", int), ("pose0", list)):
        if type(state.get(key)) is not kind:      # a bool is no frame
            raise ValueError(f"{init_state}: {key!r} is missing or not of "
                             f"type {kind.__name__}")
    try:
        pose0 = sk.check_pose(model, state["pose0"])
    except ValueError as exc:       # SkeletonError too, which it stays
        raise type(exc)(f"{init_state}: 'pose0': {exc}") from None
    first = state["first_track_frame"] if args.start_frame is None \
        else args.start_frame
    last = args.end_frame
    if last is None:
        # The sequence ends at the first frame the first camera has no
        # file for; track reads and validates each frame it tracks.
        last = first
        while os.path.exists(pcm_mod.frame_path(args.pcm_dir,
                                                rig.cameras[0].id, last)):
            last += 1
        if last == first:
            raise pcm_mod.FrameMissing(
                "nothing to track: no PCM file " + pcm_mod.frame_path(
                    args.pcm_dir, rig.cameras[0].id, first))
    elif last <= first:
        raise ValueError(f"nothing to track: empty frame range "
                         f"[{first}, {last})")
    seq = pipeline_mod.track(provider, rig, model, pose0, config,
                             range(first, last))
    with _AtomicWriter(args.out) as writer:
        pipeline_mod.write_positions_csv(seq, writer.path("positions.csv"))
        pipeline_mod.write_pose_csv(seq, writer.path("pose.csv"))
        pipeline_mod.write_run_metadata(writer.path("run.json"), config, model,
                                        extra={"frames": [first, last]})
        pipeline_mod.write_diagnostics_csv(seq, rig,
                                           writer.path("diagnostics.csv"))
    print(f"tracked frames [{first}, {last}) into {args.out}")
    return 0


def cmd_eval(args):
    indices, pred, weights = pipeline_mod.read_keypoint_csv(args.pred,
                                                           "stage2")
    if not indices:
        raise ValueError(f"{args.pred}: no 'stage2' rows to score")
    truth = dict(zip(*synth_mod.read_ground_truth_csv(args.gt)))
    gt = []
    for index, frame in zip(indices, pred):
        if index not in truth:
            raise ValueError(f"{args.gt}: no ground truth for tracked frame "
                             f"{index}")
        gt.append(truth[index])
        for path, keypoints in ((args.pred, frame), (args.gt, gt[-1])):
            missing = [label for label in metrics_mod.TOTAL.labels
                       if label not in keypoints]
            if missing:
                raise ValueError(f"{path}: frame {index} has no keypoint "
                                 f"{missing[0]!r}")
    with _AtomicWriter(args.out) as writer:
        table = metrics_mod.write_summary(pred, gt, writer.path("summary.json"))
        metrics_mod.emit_series(indices, pred, weights, gt,
                                writer.path("series.csv"))
    print(table)
    return 0


def _frame_count(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _on_off(text):
    if text not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on or off, got {text!r}")
    return text == "on"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mocapfuse",
        description="Multi-camera motion reconstruction from confidence maps")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file, or a run.json "
                                        "(track's flags override it)")
        p.add_argument("--calib", required=True,
                       help="camera calibration JSON")
        p.add_argument("--pcm-dir", required=True,
                       help="PCM directory (cam*/rot*/frame*.pcm)")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", help="scene spec JSON")
    p.add_argument("--preset", default="walk",
                   choices=sorted(synth_mod.PRESETS),
                   help="motion preset when no spec file is given")
    p.add_argument("--frames", type=_frame_count, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="noise RNG seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("init", help="identify link lengths and initial pose")
    common(p)
    p.add_argument("--skeleton", help="skeleton template JSON (default: "
                                      "built-in human model)")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("track", help="run the tracking pipeline")
    common(p)
    p.add_argument("--lattice-s", dest="lattice.s", type=float,
                   metavar="LATTICE_S", help="lattice spacing, mm")
    p.add_argument("--lattice-k", dest="lattice.k", type=int,
                   metavar="LATTICE_K", help="lattice half-extent")
    p.add_argument("--cutoff-hz", dest="filter.cutoff_hz", type=float,
                   metavar="CUTOFF_HZ", help="smoothing cutoff, Hz")
    p.add_argument("--rotation", dest="lattice.rotation_enabled",
                   type=_on_off, metavar="{on,off}",
                   help="tilt-driven rotated sampling")
    p.add_argument("--filter-mode", dest="filter.mode",
                   choices=["causal", "offline"], help="smoothing mode")
    p.add_argument("--skeleton", required=True,
                   help="initialized skeleton JSON")
    p.add_argument("--init-state", help="init_state.json from the init step")
    p.add_argument("--start-frame", type=int)
    p.add_argument("--end-frame", type=int)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="score a tracked run against ground truth")
    p.add_argument("--pred", required=True, help="positions.csv from track")
    p.add_argument("--gt", required=True, help="ground_truth.csv from synth")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("MOCAPFUSE_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level), int):
        print(f"error: MOCAPFUSE_LOG={level!r} is not a log level (use "
              f"DEBUG, INFO, WARNING, ERROR or CRITICAL)", file=sys.stderr)
        return 2
    logging.basicConfig(level=level)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface module errors with exit code 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
