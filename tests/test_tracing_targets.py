"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
module attribute; renaming one, or calling it other than through its module,
would silently drop a layer from the traced benchmark.  The benchmark also
reads frame records, IK results and stage-2 output (perfbench/checks.py);
reshaping one of them would otherwise fail only when the benchmark runs."""

import importlib.util
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from conftest import small_scene
from helpers import DictProvider, make_frame, no_rotation
from mocapfuse import pipeline, synth, tracker
from mocapfuse.calib import Camera, CameraRig
from mocapfuse.labels import KEYPOINTS

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load(name):
    """A perfbench module loaded from its file, as a script there sees it."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


def test_every_wrap_point_exists(tracing):
    for owner, attr, name, _ in tracing.LAYERS:
        assert callable(owner.__dict__.get(attr)), \
            f"{name}: {owner.__name__}.{attr} is gone"


def test_lattice_calls_go_through_the_module(tracing):
    cams = tuple(Camera(id=i, width=64, height=48, fx=50.0, fy=50.0, cx=32.0,
                        cy=24.0, translation=(0.0, 0.0, 500.0 * (i + 1)))
                 for i in range(2))
    rig = CameraRig(cameras=cams)
    provider = DictProvider({(c.id, 0, 0): make_frame(camera_id=c.id)
                             for c in cams})
    prev = np.zeros((len(KEYPOINTS), 3))
    tracer = tracing.Tracer()
    with tracer.installed(tracing.LAYERS):
        tracker.lattice_search(prev, provider, rig, tracker.LatticeConfig(k=1),
                               0, no_rotation(rig))
    names = [s.name for s in tracer.spans]
    assert names == ["tracker.lattice_search", "tracker.score_points",
                     "calib.project", "calib.project"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1]


def test_benchmark_reads_a_rotated_track(tracing):
    """Three rotated frames of the small handstand scene, traced: every
    per-layer metric BENCHMARK.json declares is finite, and the benchmark's
    output checks pass every frame and digest the positions."""
    checks = load("checks")
    spec = small_scene(motion=synth.handstand_like(period_s=4.0))
    rig = synth.build_rig(spec)
    model = synth.build_model(spec)
    frames = range(129, 132)                 # around the inversion
    config = pipeline.PipelineConfig(lattice=tracker.LatticeConfig(
        s=15.0, rotation_enabled=True))
    tracer = tracing.Tracer()
    with tracer.installed(tracing.LAYERS):
        seq = pipeline.track(synth.SyntheticProvider(spec, rig), rig, model,
                             synth.ground_truth_pose(spec, frames[0] - 1),
                             config, frames)
    layers = tracing.layer_metrics(tracer, rig.n_c, config.lattice.k, 0.0)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(layers) == declared
    assert all(math.isfinite(m["value"]) for m in layers.values()), layers
    assert layers["tracker.rotated_camera_ratio"]["value"] > 0.0

    positions = seq.positions("stage2")
    gt = [synth.ground_truth_positions(spec, i, model) for i in frames]
    failed, reasons, accuracy = checks.check_frames(
        model, [f.pose_stage2 for f in seq.frames], positions, gt,
        checks.Bars())
    assert failed == [False] * len(frames), reasons
    assert all(math.isfinite(v) for v in accuracy.values()), accuracy
    assert len(checks.digest(positions)) == 64


def test_every_workload_builds(monkeypatch):
    """Every benchmark workload's config and seed-0 scene construct, so a
    config or scene change that breaks the benchmark fails here first."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # its own imports
    workloads = load("workloads")
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        assert isinstance(workload.config(), pipeline.PipelineConfig), name
        spec = workload.scene(0)
        assert isinstance(spec, synth.SceneSpec), name
        assert synth.build_rig(spec).n_c == spec.camera_count, name
