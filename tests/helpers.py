"""Shared test utilities: synthetic heatmap construction, toy providers and
reference formulas the package itself does not need."""

import numpy as np

from mocapfuse import pcm, skeleton as sk
from mocapfuse.labels import KEYPOINT_INDEX, KEYPOINTS
from mocapfuse.tracker import VirtualMarkerSet


def gaussian_grid(h, w, cx, cy, sigma):
    ys, xs = np.mgrid[0:h, 0:w]
    return np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma ** 2))


def make_frame(channels=None, h=48, w=64, scale=1.0, rotation=0.0,
               camera_id=0, frame_index=0):
    if channels is None:
        channels = np.zeros((len(KEYPOINTS), h, w), dtype=np.float32)
    return pcm.HeatmapFrame(camera_id=camera_id, frame_index=frame_index,
                            rotation_deg=rotation, scale=scale,
                            channels=channels)


def frame_with_channel(label, grid, **kw):
    h, w = grid.shape
    channels = np.zeros((len(KEYPOINTS), h, w), dtype=np.float32)
    channels[KEYPOINT_INDEX[label]] = grid
    return make_frame(channels=channels, h=h, w=w, **kw)


class DictProvider(pcm.PcmProvider):
    """In-memory provider over a {(camera, frame, rot_key): frame} dict."""

    def __init__(self, frames):
        self.frames = frames

    def get(self, camera_id, frame_index, rotation_deg=0.0):
        key = (camera_id, frame_index, pcm.quantize_rotation(rotation_deg))
        if key not in self.frames:
            if key[2] == 0:
                raise pcm.FrameMissing(str(key))
            raise pcm.RotationUnavailable(str(key))
        return self.frames[key]


def keypoint_rows(by_label):
    """(18, 3) positions, row i for ``KEYPOINTS[i]``, from a label -> (3,)
    dict such as an FK result; keypoints left out sit at the origin."""
    return np.array([by_label.get(label, np.zeros(3)) for label in KEYPOINTS],
                    dtype=float)


def marker_set(positions, weights):
    """A VirtualMarkerSet from label dicts; keypoints left out weigh 0."""
    w = np.zeros(len(KEYPOINTS))
    for label, v in weights.items():
        w[KEYPOINT_INDEX[label]] = v
    return VirtualMarkerSet(positions=keypoint_rows(positions), weights=w)


def no_rotation(rig):
    """The rotation plan that samples every camera at rotation 0."""
    return {c.id: 0.0 for c in rig.cameras}


def objective(model, q, markers):
    """The weighted squared marker-fit error at a pose (mm^2): what
    ``ik.solve`` minimizes and reports as ``residual``."""
    rows = np.flatnonzero(markers.weights > 0.0)
    e = markers.positions[rows] - sk.keypoint_positions(
        model, q, [KEYPOINTS[i] for i in rows])
    return 0.5 * float(markers.weights[rows] @ np.sum(e * e, axis=1))


def biquad_response(coeffs, freq_hz, sample_rate_hz):
    """Complex transfer-function value H(e^{jw}) of a biquad."""
    b0, b1, b2, a1, a2 = coeffs
    z = np.exp(-1j * 2.0 * np.pi * np.asarray(freq_hz, dtype=float)
               / sample_rate_hz)
    return (b0 + b1 * z + b2 * z ** 2) / (1.0 + a1 * z + a2 * z ** 2)


def _so3(w, jacobian):
    x, y, z = (float(v) for v in w)
    ea, eb, ja, jb = sk._so3_coefficients(x * x + y * y + z * z)
    a, b = (ja, jb) if jacobian else (ea, eb)
    return np.array(sk._rodrigues(x, y, z, a, b)).reshape(3, 3)


def exp_so3(w):
    """Rodrigues' rotation from an axis-angle 3-vector, built from the
    coefficients and formula the kinematic chain uses."""
    return _so3(w, jacobian=False)


def left_jacobian_so3(w):
    """Left Jacobian of SO(3), d/dw of the exponential map's action, from
    the chain's own coefficients and formula."""
    return _so3(w, jacobian=True)
