"""Shared test utilities: synthetic heatmap construction and toy providers."""

import numpy as np

from mocapfuse import pcm
from mocapfuse.labels import KEYPOINT_INDEX, KEYPOINTS
from mocapfuse.tracker import VirtualMarkerSet


def gaussian_grid(h, w, cx, cy, sigma):
    ys, xs = np.mgrid[0:h, 0:w]
    return np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma ** 2))


def make_frame(channels=None, h=48, w=64, scale=1.0, rotation=0.0,
               camera_id=0, frame_index=0, undistorted=False):
    if channels is None:
        channels = np.zeros((len(KEYPOINTS), h, w), dtype=np.float32)
    return pcm.HeatmapFrame(camera_id=camera_id, frame_index=frame_index,
                            rotation_deg=rotation, width=w, height=h,
                            scale=scale, channels=channels,
                            undistorted=undistorted)


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
