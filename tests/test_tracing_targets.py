"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
module attribute; renaming one, or calling it other than through its module,
would silently drop a layer from the traced benchmark."""

import importlib.util
import pathlib

import numpy as np
import pytest

from helpers import DictProvider, make_frame
from mocapfuse import tracker
from mocapfuse.calib import Camera, CameraRig
from mocapfuse.labels import KEYPOINTS

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_exists(tracing):
    for owner, attr, name, _ in tracing.LAYERS:
        assert callable(owner.__dict__.get(attr)), \
            f"{name}: {owner.__name__}.{attr} is gone"


def test_lattice_calls_go_through_the_module(tracing):
    cams = tuple(Camera(id=i, width=64, height=48, fx=50.0, fy=50.0, cx=32.0,
                        cy=24.0, translation=(0.0, 0.0, 500.0 * (i + 1)))
                 for i in range(2))
    provider = DictProvider({(c.id, 0, 0): make_frame(camera_id=c.id)
                             for c in cams})
    prev = np.zeros((len(KEYPOINTS), 3))
    tracer = tracing.Tracer()
    with tracer.installed(tracing.LAYERS):
        tracker.lattice_search(prev, provider, CameraRig(cameras=cams),
                               tracker.LatticeConfig(k=1), 0)
    names = [s.name for s in tracer.spans]
    assert names == ["tracker.lattice_search", "tracker.score_points",
                     "calib.project", "calib.project"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1]
