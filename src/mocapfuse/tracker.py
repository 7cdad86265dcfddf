"""Per-frame search for probable joint positions and PCM-based weighting.

For each keypoint the previous 3D position seeds a cubic lattice of
(2k+1)^3 candidates with spacing s; each candidate is scored by summing the
confidence sampled at its projection in every camera.  The best candidate
becomes the virtual marker for that keypoint and the score at that point is
its IK weight.  When the trunk is strongly tilted in a camera image, the
lower-body channels are sampled through heatmaps computed on a rotated copy
of that image.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import pcm as pcm_mod
from .calib import Camera, CameraRig, project_points, rotate_pixel
from .labels import LOWER_BODY

log = logging.getLogger("mocapfuse.tracker")


@dataclass(frozen=True)
class LatticeConfig:
    s: float = 10.0                 # lattice unit distance, mm
    k: int = 3                      # half-extent; cube side is 2k+1
    tilt_threshold_deg: float = 45.0
    rotation_enabled: bool = False

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("lattice spacing s must be > 0")
        if self.k < 1:
            raise ValueError("lattice half-extent k must be >= 1")
        if not (0.0 < self.tilt_threshold_deg < 180.0):
            raise ValueError("tilt threshold must be in (0, 180) degrees")


@dataclass
class VirtualMarkerSet:
    """Per-keypoint predicted 3D positions with confidence weights."""

    positions: dict                     # label -> (3,) mm
    weights: dict                       # label -> float >= 0
    per_camera: dict = field(default_factory=dict)  # label -> (n_c,) samples


@functools.lru_cache(maxsize=None)
def lattice_offsets(k: int):
    """Integer offsets (a, b, c) ordered by the tie-break rule:
    Chebyshev distance to the center first, then lexicographic."""
    rng = range(-k, k + 1)
    offs = [(a, b, c) for a in rng for b in rng for c in rng]
    offs.sort(key=lambda o: (max(abs(o[0]), abs(o[1]), abs(o[2])), o))
    arr = np.array(offs, dtype=int)
    arr.setflags(write=False)
    return arr


def _rotation_for(label, camera_id, rotations, cfg: LatticeConfig):
    if not cfg.rotation_enabled or rotations is None or label not in LOWER_BODY:
        return 0.0
    return float(rotations.get(camera_id, 0.0))


def score_points(points, label, provider, rig: CameraRig, frame_index,
                 cfg: LatticeConfig, rotations=None):
    """Sum of per-camera PCM samples at the projections of world points (N,3).

    Returns (scores (N,), per_camera (n_c, N)).  A camera whose rotated
    heatmap is unavailable falls back to rotation 0 with a logged diagnostic;
    a missing rotation-0 frame propagates as an error.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    per_camera = np.zeros((rig.n_c, n))
    for ci, camera in enumerate(rig.cameras):
        angle = _rotation_for(label, camera.id, rotations, cfg)
        try:
            frame = provider.get(camera.id, frame_index, angle)
        except pcm_mod.RotationUnavailable:
            log.info("camera %s frame %s: rotation %s unavailable for %s, "
                     "falling back to rotation 0",
                     camera.id, frame_index, angle, label)
            frame = provider.get(camera.id, frame_index, 0.0)
        px, in_front = project_points(camera, points)
        if frame.rotation_deg != 0.0:
            px = rotate_pixel(px, frame.rotation_deg, camera.image_center)
        per_camera[ci] = pcm_mod.sample_many(frame, label, px, valid=in_front)
    return per_camera.sum(axis=0), per_camera


def lattice_search(prev_positions, label, provider, rig: CameraRig,
                   cfg: LatticeConfig, frame_index, rotations=None):
    """Best lattice point around the previous position of one keypoint.

    Returns (position (3,), score, per_camera (n_c,)).  Candidates are
    visited center-outward so a strict argmax realizes the documented
    tie-break (smallest Chebyshev distance, then lexicographic offset).
    """
    center = np.asarray(prev_positions[label], dtype=float)
    offsets = lattice_offsets(cfg.k)
    candidates = center[None, :] + cfg.s * offsets.astype(float)
    scores, per_camera = score_points(candidates, label, provider, rig,
                                      frame_index, cfg, rotations)
    best = int(np.argmax(scores))   # first max in tie-break order
    return candidates[best], float(scores[best]), per_camera[:, best].copy()


def trunk_tilt(neck_px, midhip_px) -> float:
    """Signed trunk tilt in one image, degrees in (-180, 180].

    0 means the hip-to-neck vector points straight up the image (-y).  The
    sign convention is chosen so that rotating the image by the returned
    angle (CCW, see calib.rotate_pixel) brings the trunk upright.
    """
    v = np.asarray(neck_px, dtype=float) - np.asarray(midhip_px, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite pixels passed to trunk_tilt")
    if v[0] == 0.0 and v[1] == 0.0:
        raise ValueError("coincident neck and hip pixels: tilt undefined")
    angle = math.degrees(math.atan2(-v[0], -v[1]))
    if angle <= -180.0:
        angle += 360.0
    return angle


def plan_rotations(positions, rig: CameraRig, cfg: LatticeConfig) -> dict:
    """Per-camera image rotation (degrees, 1-degree quantized) for the next
    frame, from the current model's neck and hip-midpoint positions.

    Cameras with |tilt| below the threshold, or where the trunk does not
    project in front of the camera, get 0.
    """
    neck = np.asarray(positions["neck"], dtype=float)
    midhip = 0.5 * (np.asarray(positions["r_hip"], dtype=float)
                    + np.asarray(positions["l_hip"], dtype=float))
    plan = {}
    for camera in rig.cameras:
        px, in_front = project_points(camera, np.stack([neck, midhip]))
        if not (in_front[0] and in_front[1]):
            log.info("camera %s: trunk not in front, rotation 0", camera.id)
            plan[camera.id] = 0.0
            continue
        try:
            tilt = trunk_tilt(px[0], px[1])
        except ValueError:
            log.info("camera %s: degenerate trunk projection, rotation 0",
                     camera.id)
            plan[camera.id] = 0.0
            continue
        if abs(tilt) < cfg.tilt_threshold_deg:
            plan[camera.id] = 0.0
        else:
            plan[camera.id] = float(pcm_mod.quantize_rotation(tilt))
    return plan
