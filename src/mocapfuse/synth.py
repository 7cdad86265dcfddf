"""Synthetic multi-camera scenes: ground-truth motion, virtual rigs and
rendered Gaussian confidence maps.

Every channel is a Gaussian bump centered at the projected ground-truth
keypoint, clamped to [0, 1].  Optional degradations: peak jitter, amplitude
noise, false peaks, and a tilt-bias model that fades lower-body confidence
and blurs its peak locations as the trunk tilts away from the image
vertical (restored when the render is computed on a tilt-aligned, i.e.
rotated, image) to emulate a detector trained mostly on upright people.
"""

from __future__ import annotations

import csv
import json
import math
import mmap
import os
import weakref
from dataclasses import dataclass, field, asdict

import numpy as np

from . import pcm as pcm_mod
from . import skeleton as sk
from .calib import CameraRig, look_at_camera, project_points, rotate_pixel, save_rig
from .labels import KEYPOINTS, LOWER_BODY
from .tracker import trunk_tilt


@dataclass(frozen=True)
class DofCurve:
    """offset + sum of sinusoids for one generalized coordinate."""
    offset: float = 0.0
    amp: float = 0.0
    freq_hz: float = 0.0
    phase: float = 0.0

    def value(self, t):
        return self.offset + self.amp * math.sin(
            2.0 * math.pi * self.freq_hz * t + self.phase)


@dataclass(frozen=True)
class MotionProgram:
    """Per-DOF parametric curves with an initial neutral hold.

    During the first ``hold_frames`` frames the pose is the program at t=0;
    the initializer needs a quiet, near-reference segment.
    """
    curves: dict                   # dof index -> DofCurve
    hold_frames: int = 12
    name: str = "custom"

    def pose(self, frame_index, fps, model):
        t = max(0.0, (frame_index - self.hold_frames)) / fps
        q = np.zeros(model.total_dof)
        for idx, curve in self.curves.items():
            q[idx] = curve.value(t)
        return q


@dataclass(frozen=True)
class NoiseModel:
    jitter_px: float = 0.0         # std of the peak-center offset
    amplitude_std: float = 0.0     # relative peak amplitude noise
    false_peak_rate: float = 0.0   # per channel per render


@dataclass(frozen=True)
class TiltBias:
    """Detector degradation on tilted bodies, for lower-body channels.

    The peak amplitude multiplier is 1 below ``full_at_deg`` and falls
    linearly to ``floor`` at 180 degrees of |trunk tilt|; at the same time
    the peak location acquires a Gaussian localization error growing from 0
    to ``jitter_px``.  Both are computed against the vertical of the image
    actually rendered, so a tilt-aligned (rotated) render is unaffected.
    """
    enabled: bool = False
    full_at_deg: float = 45.0
    floor: float = 0.15
    jitter_px: float = 6.0    # peak localization error std at full bias

    def multiplier(self, tilt_deg):
        a = abs(float(tilt_deg))
        if not self.enabled or a <= self.full_at_deg:
            return 1.0
        frac = (a - self.full_at_deg) / (180.0 - self.full_at_deg)
        return 1.0 + (self.floor - 1.0) * min(frac, 1.0)

    def jitter_std(self, tilt_deg):
        mult = self.multiplier(tilt_deg)
        if mult >= 1.0 or self.jitter_px <= 0.0:
            return 0.0
        return self.jitter_px * (1.0 - mult) / (1.0 - self.floor)


@dataclass(frozen=True)
class SceneSpec:
    motion: MotionProgram
    camera_count: int = 4
    camera_distance_mm: float = 4200.0
    camera_height_mm: float = 1500.0
    look_at_mm: tuple = (0.0, 0.0, 1000.0)
    image_width: int = 1024
    image_height: int = 768
    focal_px: float = 700.0
    fps: float = 60.0
    sigma_px: float = 8.0
    heatmap_scale: float = 0.5
    subject_scale: float = 1.0
    root_height_mm: float = 1000.0
    noise: NoiseModel = field(default_factory=NoiseModel)
    tilt_bias: TiltBias = field(default_factory=TiltBias)
    seed: int = 0

    def __post_init__(self):
        if self.sigma_px <= 0:
            raise ValueError("sigma_px must be > 0")
        if self.camera_count < 2:
            raise ValueError("at least 2 cameras required")
        if not (0.0 <= self.tilt_bias.floor <= 1.0):
            raise ValueError("tilt bias floor must be in [0, 1]")


def build_rig(spec: SceneSpec) -> CameraRig:
    """Cameras at the corners of a square around the capture volume."""
    cams = []
    r = spec.camera_distance_mm
    for i in range(spec.camera_count):
        angle = 2.0 * math.pi * (i + 0.5) / spec.camera_count
        pos = (r * math.cos(angle), r * math.sin(angle), spec.camera_height_mm)
        cams.append(look_at_camera(i, pos, spec.look_at_mm,
                                   spec.image_width, spec.image_height,
                                   spec.focal_px))
    return CameraRig(cameras=tuple(cams))


def build_model(spec: SceneSpec) -> sk.SkeletonModel:
    return sk.scaled_human_skeleton(spec.subject_scale)


def ground_truth_pose(spec: SceneSpec, frame_index, model=None):
    q = spec.motion.pose(frame_index, spec.fps, model or build_model(spec))
    q[Q_ROOT_Z] += spec.root_height_mm
    return q


def ground_truth_keypoints(spec: SceneSpec, frame_index, model=None):
    """(18, 3) world keypoint positions at one frame, row i ``KEYPOINTS[i]``
    (the eval oracle)."""
    if frame_index < 0:
        raise ValueError(f"frame index {frame_index} out of range")
    model = model or build_model(spec)
    return sk.keypoint_positions(model,
                                 ground_truth_pose(spec, frame_index, model))


def ground_truth_positions(spec: SceneSpec, frame_index, model=None) -> dict:
    """World positions of all keypoints at one frame, label -> (3,)."""
    return dict(zip(KEYPOINTS,
                    ground_truth_keypoints(spec, frame_index, model)))


def _channel_rng(spec, camera_id, frame_index, rotation_key, channel):
    # Independent, order-insensitive stream per rendered channel; a negative
    # angle draws the stream of the same angle in [0, 360).
    return np.random.default_rng(
        (spec.seed, camera_id, frame_index, rotation_key % 360, channel))


def _splat(grid, center_hm, amplitude, sigma_hm):
    """Add a Gaussian bump to a heatmap grid (windowed at 5 sigma), clamp
    the touched window to [0, 1] and return that window (a view of
    ``grid``, empty when the bump misses the grid)."""
    h, w = grid.shape
    cx, cy = center_hm
    r = 5.0 * sigma_hm
    x0, x1 = max(0, int(cx - r)), min(w, int(cx + r) + 2)
    y0, y1 = max(0, int(cy - r)), min(h, int(cy + r) + 2)
    window = grid[y0:y1, x0:x1]
    if x0 >= x1 or y0 >= y1:
        return window
    xs = np.arange(x0, x1) - cx
    ys = np.arange(y0, y1) - cy
    d2 = ys[:, None] ** 2 + xs[None, :] ** 2
    window += amplitude * np.exp(-d2 / (2.0 * sigma_hm * sigma_hm))
    np.clip(window, 0.0, 1.0, out=window)
    return window


# Buffers a FrameBuffers keeps.  While the tracker renders a camera's frames
# it still holds the previous camera's two, so three are in use; one spare.
_POOL_CAP = 4


class _Buffer:
    """One anonymous mapping of (18, h, w) float32 cells: only the pages a
    render writes or reads become resident.  ``grid`` is the renderer's
    writable view, ``touched`` the windows written since the last clear and
    ``handed`` a weak reference to the read-only channels last handed out."""

    def __init__(self, shape):
        self.grid = np.ndarray(shape, np.float32,
                               buffer=mmap.mmap(-1, 4 * math.prod(shape)))
        self.touched = []
        self.handed = None

    def free(self, shape):
        return (self.grid.shape == shape
                and (self.handed is None or self.handed() is None))

    def clear(self):
        for window in self.touched:
            window[...] = 0.0
        self.touched.clear()

    def hand_out(self):
        """The buffer's cells as a new read-only array.  Its base is the
        mapping, so it stays alive as long as any numpy view of it does."""
        channels = np.ndarray(self.grid.shape, np.float32,
                              buffer=self.grid.base)
        channels.flags.writeable = False
        self.handed = weakref.ref(channels)
        return channels


class FrameBuffers:
    """A small pool of reusable frame buffers for ``render_frame``.

    A buffer is reused only when the channels last handed out from it, and
    with them every view of them (``frame.channels[3]`` too), are gone;
    then only the windows its last render wrote are cleared.  At most
    ``_POOL_CAP`` buffers are kept; past that a render gets a mapping of its
    own, released with its frame."""

    def __init__(self):
        self._buffers = []

    def take(self, shape):
        """A buffer of ``shape`` whose cells are all +0.0."""
        for buf in self._buffers:
            if buf.free(shape):
                buf.clear()
                return buf
        buf = _Buffer(shape)
        if len(self._buffers) < _POOL_CAP:
            self._buffers.append(buf)
        return buf


def render_frame(spec: SceneSpec, camera, frame_index, rotation_deg=0.0,
                 model=None, truth=None, buffers=None) -> pcm_mod.HeatmapFrame:
    """Render one camera's heatmap frame, optionally on the rotated image,
    from the frame's ``ground_truth_keypoints`` (``truth``, when given).
    The pixels, the tilt bias and ``rotation_deg`` all use the angle's
    1-degree bin (``pcm.quantize_rotation``), as a stored frame would.

    The channels are rendered into a buffer of ``buffers`` (a
    ``FrameBuffers``; None: a pool of one use) and handed out read-only, so
    a write raises ValueError.  The buffer is not written again while the
    frame's channels or any view of them is alive."""
    rot_key = pcm_mod.quantize_rotation(rotation_deg)
    rotation_deg = float(rot_key)
    if truth is None:
        truth = ground_truth_keypoints(spec, frame_index, model)
    w = int(round(spec.image_width * spec.heatmap_scale))
    h = int(round(spec.image_height * spec.heatmap_scale))
    sigma_hm = spec.sigma_px * spec.heatmap_scale
    center = camera.image_center

    # Trunk tilt of the ground truth in this camera, for the bias model.
    tilt = None
    if spec.tilt_bias.enabled:
        gt = dict(zip(KEYPOINTS, truth))
        px, in_front = project_points(
            camera, np.stack([gt["neck"], 0.5 * (gt["r_hip"] + gt["l_hip"])]))
        if in_front[0] and in_front[1]:
            try:
                tilt = trunk_tilt(px[0], px[1])
            except ValueError:
                tilt = None

    if buffers is None:
        buffers = FrameBuffers()
    buf = buffers.take((len(KEYPOINTS), h, w))
    noise = spec.noise
    pixels, in_front = project_points(camera, truth)
    rotated = rotate_pixel(pixels, rotation_deg, center)
    for ch, label in enumerate(KEYPOINTS):
        if not in_front[ch]:
            continue
        p = rotated[ch]
        amplitude = 1.0
        if tilt is not None and label in LOWER_BODY:
            # Tilt as seen in the rendered (possibly rotated) image.
            eff = tilt - rotation_deg
            eff = (eff + 180.0) % 360.0 - 180.0
            amplitude *= spec.tilt_bias.multiplier(eff)
            jitter_std = spec.tilt_bias.jitter_std(eff)
            if jitter_std > 0.0:
                # Separate stream from the NoiseModel draws below.
                brng = _channel_rng(spec, camera.id, frame_index, rot_key,
                                    100 + ch)
                p = p + brng.normal(0.0, jitter_std, 2)
        rng = None
        if noise.jitter_px or noise.amplitude_std or noise.false_peak_rate:
            rng = _channel_rng(spec, camera.id, frame_index, rot_key, ch)
        if rng is not None and noise.jitter_px:
            p = p + rng.normal(0.0, noise.jitter_px, 2)
        if rng is not None and noise.amplitude_std:
            amplitude *= max(0.0, 1.0 + rng.normal(0.0, noise.amplitude_std))
        buf.touched.append(_splat(buf.grid[ch],
                                  np.asarray(p) * spec.heatmap_scale,
                                  amplitude, sigma_hm))
        if rng is not None and noise.false_peak_rate:
            if rng.random() < noise.false_peak_rate:
                fp = rng.uniform([0, 0], [w - 1, h - 1])
                buf.touched.append(_splat(buf.grid[ch], fp,
                                          rng.uniform(0.3, 0.8), sigma_hm))
    return pcm_mod.HeatmapFrame(
        camera_id=camera.id, frame_index=frame_index,
        rotation_deg=rotation_deg, scale=spec.heatmap_scale,
        channels=buf.hand_out())


class SyntheticProvider(pcm_mod.PcmProvider):
    """Renders heatmap frames on demand; any rotation angle is available.
    No heatmap is kept, only the last frame's keypoints (one FK per frame)
    and a ``FrameBuffers`` pool: a frame's buffer is reused only once the
    frame's channels and every view of them are gone.  The channels are
    read-only, as ``DirectoryProvider``'s mapped frames are."""

    def __init__(self, spec: SceneSpec, rig: CameraRig = None, n_frames=None):
        self.spec = spec
        self.rig = rig or build_rig(spec)
        self.model = build_model(spec)
        self.n_frames = n_frames
        self._truth = (None, None)     # (frame index, its keypoints)
        self._buffers = FrameBuffers()

    def get(self, camera_id, frame_index, rotation_deg=0.0):
        if frame_index < 0 or (self.n_frames is not None
                               and frame_index >= self.n_frames):
            raise pcm_mod.FrameMissing(
                f"synthetic frame {frame_index} out of range "
                f"(n_frames={self.n_frames})")
        if self._truth[0] != frame_index:
            self._truth = (frame_index, ground_truth_keypoints(
                self.spec, frame_index, self.model))
        return render_frame(self.spec, self.rig.camera(camera_id), frame_index,
                            rotation_deg, self.model, self._truth[1],
                            self._buffers)


# ---------------------------------------------------------------------------
# Motion presets

# Pose indices of the coordinates the presets drive, in the default model.
_dofs_of = sk.human_skeleton().dofs_of
Q_ROOT_X, _, Q_ROOT_Z, Q_ROOT_RX, Q_ROOT_RY, _ = _dofs_of("pelvis")
Q_R_SHOULDER_X, Q_R_SHOULDER_Y, _ = _dofs_of("r_shoulder")
Q_L_SHOULDER_X, Q_L_SHOULDER_Y, _ = _dofs_of("l_shoulder")
(Q_R_ELBOW,), (Q_L_ELBOW,) = _dofs_of("r_elbow"), _dofs_of("l_elbow")
(Q_R_KNEE,), (Q_L_KNEE,) = _dofs_of("r_knee"), _dofs_of("l_knee")
Q_R_HIP_X, Q_L_HIP_X = _dofs_of("r_hip")[0], _dofs_of("l_hip")[0]


def walk_like(hold_frames=12) -> MotionProgram:
    """Gentle in-place gait: alternating hip/knee swing, counter arm swing,
    slight lateral sway.  Amplitudes keep per-frame joint motion well inside
    a +-30 mm lattice at 60 Hz."""
    f = 0.4
    curves = {
        Q_ROOT_X: DofCurve(amp=30.0, freq_hz=f),              # lateral sway
        Q_ROOT_Z: DofCurve(amp=15.0, freq_hz=2 * f,
                           phase=math.pi / 2),                  # bounce
        Q_R_HIP_X: DofCurve(amp=0.20, freq_hz=f),
        Q_L_HIP_X: DofCurve(amp=0.20, freq_hz=f, phase=math.pi),
        Q_R_KNEE: DofCurve(offset=0.15, amp=0.15, freq_hz=f, phase=math.pi),
        Q_L_KNEE: DofCurve(offset=0.15, amp=0.15, freq_hz=f),
        Q_R_SHOULDER_Y: DofCurve(amp=0.15, freq_hz=f, phase=math.pi),
        Q_L_SHOULDER_Y: DofCurve(amp=-0.15, freq_hz=f),
        Q_R_ELBOW: DofCurve(offset=0.2, amp=0.10, freq_hz=f),
        Q_L_ELBOW: DofCurve(offset=-0.2, amp=0.10, freq_hz=f),
    }
    return MotionProgram(curves=curves, hold_frames=hold_frames, name="walk")


def handstand_like(hold_frames=12, period_s=8.0) -> MotionProgram:
    """Slow full inversion and back: the root pitches through 180 degrees
    about the lateral axis, arms raised overhead."""
    curves = {
        # pitch = pi/2 * (1 - cos(2 pi t / T)): 0 -> pi -> 0 over one period
        Q_ROOT_RX: DofCurve(amp=math.pi / 2, freq_hz=1.0 / period_s,
                            phase=-math.pi / 2, offset=math.pi / 2),
        Q_R_SHOULDER_Y: DofCurve(offset=-1.2),
        Q_L_SHOULDER_Y: DofCurve(offset=1.2),
    }
    return MotionProgram(curves=curves, hold_frames=hold_frames,
                         name="handstand")


def cartwheel_like(hold_frames=12, period_s=8.0) -> MotionProgram:
    """Slow roll about the forward axis through inversion and back."""
    curves = {
        Q_ROOT_RY: DofCurve(amp=math.pi / 2, freq_hz=1.0 / period_s,
                            phase=-math.pi / 2, offset=math.pi / 2),
    }
    return MotionProgram(curves=curves, hold_frames=hold_frames,
                         name="cartwheel")


def bent_elbow_like(hold_frames=12) -> MotionProgram:
    """Elbows bent near 90 degrees and swinging briskly while the shoulders
    rotate slowly; naive filtering of positions visibly changes the forearm
    length on this motion."""
    curves = {
        Q_R_ELBOW: DofCurve(offset=math.pi / 2, amp=0.4, freq_hz=2.0),
        Q_L_ELBOW: DofCurve(offset=-math.pi / 2, amp=-0.4, freq_hz=2.0),
        Q_R_SHOULDER_X: DofCurve(amp=0.3, freq_hz=0.5),
        Q_L_SHOULDER_X: DofCurve(amp=-0.3, freq_hz=0.5),
    }
    return MotionProgram(curves=curves, hold_frames=hold_frames,
                         name="bent_elbow")


PRESETS = {
    "walk": walk_like,
    "handstand": handstand_like,
    "cartwheel": cartwheel_like,
    "bent_elbow": bent_elbow_like,
}


# ---------------------------------------------------------------------------
# Dataset generation (files)

def spec_to_json(spec: SceneSpec):
    """JSON tree of a scene.  The motion is stored as a preset name and its
    hold frames, so a motion that is not a preset at its default parameters
    raises ValueError instead of being written as a different one."""
    motion = spec.motion
    preset = PRESETS.get(motion.name)
    if preset is None or preset(hold_frames=motion.hold_frames) != motion:
        raise ValueError(f"motion {motion.name!r} is not a preset at its "
                         f"default parameters and cannot be stored by name")
    payload = asdict(spec)
    payload["motion"] = {"preset": motion.name,
                         "hold_frames": motion.hold_frames}
    return payload


def spec_from_json(payload) -> SceneSpec:
    """Scene from its JSON tree; a missing or unknown motion preset raises
    ValueError naming the key and the presets."""
    payload = dict(payload)
    motion = payload.pop("motion", None) or {}
    preset = PRESETS.get(motion.get("preset"))
    if preset is None:
        raise ValueError(f"motion.preset: unknown preset "
                         f"{motion.get('preset')!r}, expected one of "
                         f"{sorted(PRESETS)}")
    payload["noise"] = NoiseModel(**payload.get("noise", {}))
    payload["tilt_bias"] = TiltBias(**payload.get("tilt_bias", {}))
    payload["look_at_mm"] = tuple(payload.get("look_at_mm", (0, 0, 1000)))
    return SceneSpec(motion=preset(hold_frames=motion.get("hold_frames", 12)),
                     **payload)


def generate(spec: SceneSpec, n_frames, out_dir):
    """Write a complete synthetic dataset: calibration, rotation-0 PCM files
    and ground-truth motion, in the formats the pipeline consumes.

    Returns (ground truth keypoints (n_frames, 18, 3), rig).
    """
    os.makedirs(out_dir, exist_ok=True)
    rig = build_rig(spec)
    model = build_model(spec)
    save_rig(rig, os.path.join(out_dir, "calib.json"))
    with open(os.path.join(out_dir, "scene.json"), "w", encoding="utf-8") as fh:
        json.dump(spec_to_json(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
    truth = np.empty((n_frames, len(KEYPOINTS), 3))
    pcm_root = os.path.join(out_dir, "pcm")
    buffers = FrameBuffers()
    for frame_index in range(n_frames):
        truth[frame_index] = ground_truth_keypoints(spec, frame_index, model)
        for camera in rig.cameras:
            frame = render_frame(spec, camera, frame_index, 0.0, model,
                                 truth[frame_index], buffers)
            path = pcm_mod.frame_path(pcm_root, camera.id, frame_index)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            pcm_mod.write_pcm(frame, path)
    _write_ground_truth_csv(spec, truth,
                            os.path.join(out_dir, "ground_truth.csv"))
    return truth, rig


def _write_ground_truth_csv(spec, truth, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "time_s", "label", "x_mm", "y_mm", "z_mm"])
        for i, rows in enumerate(truth.tolist()):
            writer.writerows([i, i / spec.fps, label, x, y, z]
                             for label, (x, y, z) in zip(KEYPOINTS, rows))


def read_ground_truth_csv(path):
    per_frame = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            idx = int(row["frame"])
            per_frame.setdefault(idx, {})[row["label"]] = np.array(
                [float(row["x_mm"]), float(row["y_mm"]), float(row["z_mm"])])
    indices = sorted(per_frame)
    return indices, [per_frame[i] for i in indices]
