"""Per-frame search for probable joint positions and PCM-based weighting.

For each keypoint the previous 3D position seeds a cubic lattice of
(2k+1)^3 candidates with spacing s; each candidate is scored by summing the
confidence sampled at its projection in every camera.  The best candidate
becomes the virtual marker for that keypoint and the score at that point is
its IK weight.  When the trunk is strongly tilted in a camera image, the
lower-body channels are sampled through heatmaps computed on a rotated copy
of that image.

One ``lattice_search`` call searches every keypoint of a frame.  It lays
the candidates of all keypoints out coordinate-major, as (3, 18 * n) x/y/z
planes (n = (2k+1)^3), and keeps that layout to the samples: per camera it
fetches the rotation-0 heatmap frame once (plus the rotated frame once for
a tilted camera), projects every candidate with one ``R @ planes + t`` into
(2, 18 * n) pixel planes, and samples them in one gather per frame.  Then it
picks each keypoint's best candidate.  The layout changes no arithmetic:
the results are the bits the same steps give on (N, 3) rows.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import pcm as pcm_mod
from . import ranges
from .calib import Camera, CameraRig, project_points, rotate_pixel
from .labels import KEYPOINT_INDEX, KEYPOINTS, LOWER_BODY

log = logging.getLogger("mocapfuse.tracker")

TILT_THRESHOLD_DEG = 45.0   # |trunk tilt| from which a camera is rotated


@dataclass(frozen=True)
class LatticeConfig:
    s: float = 10.0                 # lattice unit distance, mm
    k: int = 3                      # half-extent; cube side is 2k+1
    rotation_enabled: bool = False

    def __post_init__(self):
        ranges.check(self, float, "> 0", "s")
        ranges.check(self, int, "> 0", "k")


@dataclass
class VirtualMarkerSet:
    """One frame's virtual markers, row i for ``KEYPOINTS[i]``: ``positions``
    (18, 3) mm and ``weights`` (18,), where 0 means no evidence (IK leaves
    that marker out).  A lattice search also fills ``per_camera`` (18, n_c),
    each camera's sample at the chosen point, and ``offsets`` (18, 3), the
    chosen integer lattice offsets (a, b, c)."""

    positions: np.ndarray
    weights: np.ndarray
    per_camera: np.ndarray = None
    offsets: np.ndarray = None


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


def _rotated_frame(provider, camera, frame_index, angle):
    """The frame a tilted camera's lower-body rows are sampled from, or None
    when its planned ``angle`` bins to rotation 0.  A missing rotated frame
    falls back to rotation 0 with a logged diagnostic."""
    if pcm_mod.quantize_rotation(angle) == 0:
        return None
    try:
        return provider.get(camera.id, frame_index, angle)
    except pcm_mod.RotationUnavailable:
        log.info("camera %s frame %s: rotation %s unavailable for the lower "
                 "body, falling back to rotation 0", camera.id, frame_index,
                 angle)
        return None


def score_points(points, labels, provider, rig: CameraRig, frame_index,
                 rotations):
    """Per-camera PCM samples at the projections of world points.

    ``points`` is (L, N, 3): N points for each of the L keypoint ``labels``.
    ``rotations`` maps every camera id to its planned angle (0: rotation 0),
    as ``plan_rotations`` gives it; it is the only rotation switch.  Each
    camera fetches its rotation-0 frame once, and its rotated frame at most
    once for the ``LOWER_BODY`` rows; all L*N points are projected together
    and sampled in one gather per frame.  ``points`` may be a view of
    (3, L, N) coordinate planes, as ``lattice_search`` passes them; they are
    then projected without a copy.  Returns (scores (L, N),
    per_camera (n_c, L, N)).  A missing rotation-0 frame propagates as an
    error, and so does a sampled cell outside [0, 1] or NaN
    (PcmFormatError naming the camera, frame and rotation it was read
    from).
    """
    points = np.asarray(points, dtype=float)
    n_labels, n = points.shape[:2]
    flat = points.reshape(-1, 3)
    chan = np.repeat([KEYPOINT_INDEX[lb] for lb in labels], n)
    lower = np.repeat([lb in LOWER_BODY for lb in labels], n)
    per_camera = np.zeros((rig.n_c, n_labels * n))
    for ci, camera in enumerate(rig.cameras):
        frame = provider.get(camera.id, frame_index, 0.0)
        rotated = _rotated_frame(provider, camera, frame_index,
                                 rotations[camera.id])
        px, in_front = project_points(camera, flat)
        if rotated is None:
            per_camera[ci] = pcm_mod.sample_channels(frame, chan, px,
                                                     valid=in_front)
            continue
        # Row selections are taken on the (2, L*N) planes px.T, so each
        # sampler call gets contiguous x/y planes again.
        upper = ~lower
        per_camera[ci, upper] = pcm_mod.sample_channels(
            frame, chan[upper], px.T[:, upper].T, valid=in_front[upper])
        px_rot = rotate_pixel(px.T[:, lower].T, rotated.rotation_deg,
                              camera.image_center)
        per_camera[ci, lower] = pcm_mod.sample_channels(
            rotated, chan[lower], px_rot, valid=in_front[lower])
    per_camera = per_camera.reshape(rig.n_c, n_labels, n)
    return per_camera.sum(axis=0), per_camera


def lattice_search(prev_positions, provider, rig: CameraRig,
                   cfg: LatticeConfig, frame_index, rotations):
    """Best lattice point around the previous position of every keypoint.

    ``prev_positions`` is (18, 3), row i for ``KEYPOINTS[i]``; all rows are
    searched with one ``score_points`` call under the per-camera
    ``rotations`` plan, on candidates ``prev + s * offset`` built as
    (3, 18, n) coordinate planes and passed as an (18, n, 3) view.  Returns
    a VirtualMarkerSet of the chosen points, their scores (the IK weights),
    per-camera samples and lattice offsets.
    Candidates are visited center-outward so a strict argmax realizes the
    documented tie-break (smallest Chebyshev distance, then lexicographic
    offset).
    """
    offsets = lattice_offsets(cfg.k)
    planes = np.empty((3, len(KEYPOINTS), len(offsets)))
    np.add(np.asarray(prev_positions, dtype=float).T[:, :, None],
           cfg.s * offsets.T[:, None, :], out=planes)
    candidates = planes.transpose(1, 2, 0)      # (18, n, 3) view
    scores, per_camera = score_points(candidates, KEYPOINTS, provider, rig,
                                      frame_index, rotations)
    rows = np.arange(len(KEYPOINTS))
    best = np.argmax(scores, axis=1)   # first max in tie-break order
    return VirtualMarkerSet(positions=candidates[rows, best],
                            weights=scores[rows, best],
                            per_camera=per_camera[:, rows, best].T,
                            offsets=offsets[best])


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


def camera_tilt(camera: Camera, rows):
    """``trunk_tilt`` of the neck and the hip midpoint of the (18, 3)
    keypoint ``rows`` as projected by ``camera``, or None when either point
    is not in front of it or both project to one pixel."""
    midhip = 0.5 * (rows[KEYPOINT_INDEX["r_hip"]]
                    + rows[KEYPOINT_INDEX["l_hip"]])
    px, in_front = project_points(
        camera, np.stack([rows[KEYPOINT_INDEX["neck"]], midhip]))
    if not (in_front[0] and in_front[1]):
        return None
    try:
        return trunk_tilt(px[0], px[1])
    except ValueError:
        return None


def plan_rotations(positions, rig: CameraRig) -> dict:
    """Per-camera image rotation (degrees, 1-degree quantized) for the next
    frame, from the ``camera_tilt`` of the (18, 3) ``positions``.

    Cameras with |tilt| below ``TILT_THRESHOLD_DEG``, or without a tilt
    (the trunk not in front of the camera, or projected to one pixel), get
    0.
    """
    plan = {camera.id: 0.0 for camera in rig.cameras}
    for camera in rig.cameras:
        tilt = camera_tilt(camera, positions)
        if tilt is None:
            log.info("camera %s: no trunk tilt, rotation 0", camera.id)
        elif abs(tilt) >= TILT_THRESHOLD_DEG:
            plan[camera.id] = float(pcm_mod.quantize_rotation(tilt))
    return plan
