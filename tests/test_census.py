"""A public function of the package takes a defaulted parameter only where a
caller outside the tests sets it: a default that only tests change is a
second behaviour that no run of the program takes."""

import ast
import pathlib

import mocapfuse

PACKAGE = pathlib.Path(mocapfuse.__file__).parent

# module.function(parameter) -> the caller outside the tests that sets it.
DEFAULTED = {
    "cli.main(argv)": "perfbench/workloads.py",
    # Set by no program; perfbench/tracing.py reads it, so it goes with
    # IkSettings in the benchmark change (ROADMAP item 1).
    "ik.solve(settings)": "perfbench/tracing.py (reads it)",
    "ik.solve(anchored)": "pipeline.track, smooth.refit",
    "metrics.mpjpe(group)": "perfbench/checks.py, demos/rotation_benefit.py",
    "metrics.pck3d(group)": "perfbench/checks.py",
    "metrics.pck3d(tau)": "perfbench/checks.py",
    "pcm.frame_path(rotation_deg)": "pcm.DirectoryProvider.get",
    "pcm.PcmProvider.get(rotation_deg)": "tracker._rotated_frame",
    "pcm.DirectoryProvider.get(rotation_deg)": "tracker._rotated_frame",
    "pipeline.MotionSequence.positions(stage)": "perfbench/workloads.py",
    "pipeline.read_positions_csv(stage)": "perfbench/workloads.py",
    "ranges.finite(kind)": "ranges.check",
    "synth.ground_truth_pose(model)": "synth.ground_truth_keypoints",
    "synth.ground_truth_keypoints(model)":
        "synth.SyntheticProvider.get, synth.generate",
    "synth.ground_truth_positions(model)": "perfbench/workloads.py",
    "synth.SyntheticProvider.__init__(rig)": "perfbench/workloads.py",
    "synth.SyntheticProvider.__init__(n_frames)": "demos/end_to_end.py",
    "synth.SyntheticProvider.get(rotation_deg)": "tracker._rotated_frame",
    "synth.walk_like(hold_frames)": "synth.spec_from_json",
    "synth.handstand_like(hold_frames)": "synth.spec_from_json",
    "synth.handstand_like(period_s)": "perfbench/workloads.py",
    "synth.cartwheel_like(hold_frames)": "synth.spec_from_json",
    "synth.bent_elbow_like(hold_frames)": "synth.spec_from_json",
}


def defaulted(body, prefix):
    """module.function(parameter) of every defaulted parameter of the
    public functions and methods (``__init__`` included) in ``body``."""
    for node in body:
        public = not getattr(node, "name", "_").startswith("_")
        if isinstance(node, ast.ClassDef) and public:
            yield from defaulted(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.FunctionDef) and (
                public or node.name == "__init__"):
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None]
            yield from (f"{prefix}{node.name}({a.arg})" for a in named)


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if not path.name.startswith("_"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found.update(defaulted(tree.body, f"{path.stem}."))
    assert sorted(found) == sorted(DEFAULTED)
