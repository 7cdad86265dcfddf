"""End-to-end reconstruction: initialization, per-frame tracking, outputs.

Initialization triangulates the per-camera confidence-map centroids over a
run of frames until they agree in 3D, identifies the subject's link lengths
from the triangulated keypoints and fits the initial pose.  Tracking then
runs lattice search around the last stage-1 positions and weighted IK (stage
1) frame by frame; stage 2, the filter and the re-solve after it, is a chain
of ``smooth.refit`` solves, one per frame (``smooth.smooth_and_refit``) or,
offline, over the ``smooth.filtfilt`` rows of the whole run after stage 1.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import ik as ik_mod
from . import pcm as pcm_mod
from . import ranges
from . import skeleton as sk
from . import smooth as smooth_mod
from . import tracker as tracker_mod
from .calib import CameraRig, pixel_to_ray
from .ik import VirtualMarkerSet
from .labels import KEYPOINT_INDEX, KEYPOINTS
from .tracker import LatticeConfig

log = logging.getLogger("mocapfuse.pipeline")


class InitializationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Triangulation

def triangulate(pixels, rig: CameraRig):
    """Least-squares 3D points from per-camera pixels (n_c, K, 2), row c for
    ``rig.cameras[c]``, NaN where a camera has no pixel for a point.

    Each point minimizes its summed squared distances to its back-projected
    rays.  Returns (points (K, 3) mm, rms ray distances (K,)).  A point seen
    by fewer than two cameras, or by near-parallel rays, is NaN in both.
    """
    px = np.asarray(pixels, dtype=float)
    seen = ~np.isnan(px).any(axis=-1)                            # (n_c, K)
    origins = np.stack([c.center for c in rig.cameras])
    d = np.stack([pixel_to_ray(c, p)[1] for c, p in zip(rig.cameras, px)])
    d = np.where(seen[..., None], d, 0.0)
    P = (np.eye(3) - d[..., :, None] * d[..., None, :]) * seen[..., None, None]
    A = P.sum(axis=0)                                            # (K, 3, 3)
    b = (P @ origins[:, None, :, None]).sum(axis=0)              # (K, 3, 1)
    n_seen = seen.sum(axis=0)
    w = np.linalg.eigvalsh(A)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Fewer than two rays, or near-parallel ones: ill-conditioned.
        ok = (n_seen >= 2) & (w[:, 0] > 0) & (w[:, -1] / w[:, 0] <= 1e8)
    points = np.full((px.shape[1], 3), np.nan)
    points[ok] = np.linalg.solve(A[ok], b[ok])[..., 0]
    v = points - origins[:, None, :]
    perp = v - (v * d).sum(axis=-1, keepdims=True) * d
    sq = ((perp * perp).sum(axis=-1) * seen).sum(axis=0)  # NaN at NaN points
    return points, np.sqrt(sq / np.maximum(n_seen, 1))


# ---------------------------------------------------------------------------
# Configuration and sequence record

CENTROID_FLOOR = 0.3       # init triangulates centroids of cells >= this
MAX_SEARCH_FRAMES = 120    # init finds its agreement run within these frames
LOW_CONFIDENCE_FRACTION = 0.05  # of n_c; flags a keypoint, never drops it


@dataclass(frozen=True)
class InitSettings:
    agreement_residual_mm: float = 20.0
    min_agreement_frames: int = 10

    def __post_init__(self):
        ranges.check(self, float, "> 0", "agreement_residual_mm")
        ranges.check(self, int, "> 0", "min_agreement_frames")
        if self.min_agreement_frames > MAX_SEARCH_FRAMES:
            raise ValueError(
                f"min_agreement_frames must be <= {MAX_SEARCH_FRAMES}, the "
                f"frames initialization searches (MAX_SEARCH_FRAMES), got "
                f"{self.min_agreement_frames}")


@dataclass(frozen=True)
class PipelineConfig:
    lattice: LatticeConfig = field(default_factory=LatticeConfig)
    filter: smooth_mod.FilterSpec = field(
        default_factory=lambda: smooth_mod.FilterSpec(cutoff_hz=5.0,
                                                      sample_rate_hz=60.0))
    init: InitSettings = field(default_factory=InitSettings)
    lattice_center: str = "stage1"       # its only value

    def __post_init__(self):
        if self.lattice_center != "stage1":
            raise ValueError(f"lattice_center must be 'stage1', got "
                             f"{self.lattice_center!r}")

    def to_dict(self) -> dict:
        """The whole config as a tree of JSON values (what run.json holds)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, tree) -> "PipelineConfig":
        """A config from a partial tree laid over the defaults.

        Keys left out keep their default values.  An unknown key, or a value
        of the wrong type, raises ValueError naming its dotted path (e.g.
        ``lattice.spacing``); every rebuilt section runs its own validation.
        """
        return overlay(cls(), tree, "")


def overlay(default, tree, path):
    """Copy of the dataclass ``default`` with the values of ``tree`` set
    (see ``PipelineConfig.from_dict``); an int may set a float, a list a
    tuple."""
    if not isinstance(tree, dict):
        raise ValueError(f"config {path.rstrip('.') or 'tree'} must be a "
                         f"JSON object, got {tree!r}")
    names = {f.name for f in dataclasses.fields(default)}
    changes = {}
    for key, value in tree.items():
        dotted = path + key
        if key not in names:
            raise ValueError(f"unknown config key {dotted!r}")
        current = getattr(default, key)
        if dataclasses.is_dataclass(current):
            value = overlay(current, value, dotted + ".")
        elif type(current) is float and type(value) is int:
            # An int beyond the float64 range is left to the record to refuse.
            value = float(value) if ranges.finite(value) else value
        elif type(current) is tuple and type(value) is list:
            value = tuple(value)
        elif type(value) is not type(current):
            kind = "list" if type(current) is tuple else type(current).__name__
            raise ValueError(f"config key {dotted!r} must be {kind}, got "
                             f"{value!r}")
        changes[key] = value
    try:
        return dataclasses.replace(default, **changes)
    except ValueError as exc:
        if not path:
            raise
        raise ValueError(f"config {path.rstrip('.')}: {exc}") from exc


@dataclass
class FrameRecord:
    """One tracked frame; row i of its keypoint arrays is ``KEYPOINTS[i]``:
    the stage positions (18, 3) mm, FK of the stage poses, the lattice
    scores ``weights`` (18,) and their per-camera shares (18, n_c)."""

    index: int          # at index / MotionSequence.sample_rate_hz seconds
    pose_stage1: np.ndarray
    pose_stage2: np.ndarray
    positions_stage1: np.ndarray
    positions_stage2: np.ndarray
    weights: np.ndarray
    per_camera: np.ndarray
    rotations: dict                  # camera_id -> planned angle, deg
    lattice_offsets: dict            # label -> chosen (a, b, c), ints


@dataclass
class MotionSequence:
    frames: list
    sample_rate_hz: float

    def positions(self, stage="stage2"):
        """One label -> (3,) dict per frame, of ``stage`` 1 or 2."""
        key = "positions_" + stage
        return [dict(zip(KEYPOINTS, getattr(f, key))) for f in self.frames]

    def frame_indices(self):
        return [f.index for f in self.frames]


# ---------------------------------------------------------------------------
# Initialization

def _triangulated_keypoints(provider, rig, frame_index):
    """Triangulated centroids of one frame, (18, 3) points and (18,) residuals
    (NaN where ``triangulate`` finds none); each camera-frame is read once."""
    return triangulate([pcm_mod.centroids(provider.get(c.id, frame_index, 0.0),
                                          CENTROID_FLOOR)
                        for c in rig.cameras], rig)


def _check_keypoints(model):
    """SkeletonError naming every keypoint the model places nowhere."""
    missing = [lb for lb in KEYPOINTS if lb not in model.keypoint_map]
    if missing:
        raise sk.SkeletonError("skeleton lacks keypoints: "
                               + ", ".join(missing))


# The joints that the hip, trunk and head rules of _identify_lengths name.
TRUNK_JOINTS = ("r_hip", "l_hip", "waist", "chest", "neck", "head")
R_HIP, L_HIP, NECK = (KEYPOINT_INDEX[lb] for lb in ("r_hip", "l_hip", "neck"))


def _identify_lengths(model, tri, on_joint):
    """Map median inter-keypoint distances of the run ``tri`` (F, 18, 3)
    onto the skeleton's links (``on_joint``: the keypoints a joint carries).

    Directly observable links (a joint and its parent both carry a
    keypoint) take the median distance between their end keypoints; the
    trunk column (pelvis->waist->chest->neck) splits the
    hip-midpoint-to-neck distance by the template's proportions.
    """
    def med(v):
        return float(np.median(np.linalg.norm(v, axis=-1)))

    row = {model.keypoint_map[KEYPOINTS[i]]: i for i in np.flatnonzero(on_joint)}
    lengths = {}
    for j in model.joints[1:]:     # the root, listed first, has no link
        a, b = row.get(model.joints[j.parent].name), row.get(j.name)
        if a is not None and b is not None:
            lengths[j.name] = med(tri[:, a] - tri[:, b])
    half_hip = 0.5 * med(tri[:, R_HIP] - tri[:, L_HIP])
    lengths["r_hip"] = half_hip
    lengths["l_hip"] = half_hip
    trunk = med(tri[:, NECK] - 0.5 * (tri[:, R_HIP] + tri[:, L_HIP]))
    template = {j.name: j.length for j in model.joints}
    t_sum = template["waist"] + template["chest"] + template["neck"]
    for link in ("waist", "chest", "neck"):
        lengths[link] = trunk * template[link] / t_sum
    # Head link length is unobservable from keypoints; scale it with the trunk.
    lengths["head"] = template["head"] * trunk / t_sum
    return lengths


def _seed_pose(model, points):
    """Cheap pose seed from (18, 3) points: root translation at the hip
    midpoint, root yaw from the hip axis, everything else zero."""
    q = np.zeros(model.total_dof)
    root = np.array(model.dofs_of(model.joints[0].name))
    rotational = model.dof_rotational[root]
    q[root[~rotational]] = 0.5 * (points[R_HIP] + points[L_HIP])
    hip_axis = points[R_HIP] - points[L_HIP]
    q[root[rotational]] = [0.0, 0.0, np.arctan2(hip_axis[1], hip_axis[0])]
    return q


def initialize(provider, rig: CameraRig, skeleton_template, config: PipelineConfig):
    """Identify link lengths and the initial pose from an agreement run.

    Scans frames from 0 for a run of ``min_agreement_frames`` consecutive
    frames in which every keypoint triangulates with residual below the
    threshold.  Returns (model, pose0, positions0, first_track_frame), where
    positions0 is the (18, 3) keypoint rows of pose0.  A template without
    all of ``TRUNK_JOINTS``, or one that places no position for a keypoint,
    raises SkeletonError first.
    """
    missing = [j for j in TRUNK_JOINTS if j not in skeleton_template.joint_index]
    if missing:
        raise sk.SkeletonError("skeleton template lacks joints that "
                               "initialization needs: " + ", ".join(missing))
    _check_keypoints(skeleton_template)
    settings = config.init
    needed = settings.min_agreement_frames
    run = []                                   # (18, 3) points per frame
    worst = np.zeros(len(KEYPOINTS), dtype=int)
    ended = None                               # the first missing frame
    for frame_index in range(MAX_SEARCH_FRAMES):
        try:
            points, residuals = _triangulated_keypoints(provider, rig,
                                                        frame_index)
        except pcm_mod.FrameMissing:
            ended = frame_index
            break
        bad = ~(residuals < settings.agreement_residual_mm)   # NaN is bad
        if bad.any():
            worst += bad
            run = []
            continue
        run.append(points)
        if len(run) >= needed:
            break
    if len(run) < needed:
        ranked = ", ".join(f"{KEYPOINTS[i]} ({worst[i]} frames)" for i in
                           np.argsort(-worst, kind="stable")[:5] if worst[i])
        reasons = [f"worst keypoints: {ranked}"] if ranked else []
        if ended is not None:
            reasons.insert(0, f"frame {ended} is missing, with {len(run)} "
                              f"of the {needed} agreeing frames needed")
        raise InitializationError("no 3D agreement run found; " + (
            "; ".join(reasons) or "worst keypoints: none triangulated"))

    tri = np.stack(run)
    on_joint = np.array([not isinstance(skeleton_template.keypoint_map[lb],
                                        tuple) for lb in KEYPOINTS])
    model = sk.with_link_lengths(
        skeleton_template, _identify_lengths(skeleton_template, tri, on_joint))

    # Fit a pose per agreement frame (warm-started along the run) to the
    # joint keypoints, collect the face-point offsets in their segment's
    # frame, take their medians.
    weights = on_joint.astype(float)          # face keypoints weigh 0
    face = np.flatnonzero(~on_joint)
    segment = [model.joint_index[model.keypoint_map[KEYPOINTS[i]][0]]
               for i in face]
    fit = _seed_pose(model, tri[0])
    offsets = []
    for points in tri:
        fit = ik_mod.solve(model, fit, VirtualMarkerSet(points, weights))
        pos, rot, _, _ = sk._frames(model, fit.q)
        offsets.append([rot[j].T @ (points[i] - pos[j])
                        for i, j in zip(face, segment)])
    model = sk.with_keypoint_offsets(model, dict(zip(
        (KEYPOINTS[i] for i in face), np.median(offsets, axis=0))))

    # The face offsets weigh 0 in the fit, so the last fit is pose0 as it is.
    return model, fit.q, sk.keypoint_positions(model, fit.q), frame_index + 1


# ---------------------------------------------------------------------------
# Tracking

def track(provider, rig: CameraRig, model, pose0, config: PipelineConfig,
          frame_range) -> MotionSequence:
    """Run the per-frame loop over ``frame_range`` (iterable of indices).

    Each frame: plan per-camera rotations from the previous frame's stage-1
    positions, lattice-search every keypoint around them, solve weighted IK
    (stage 1), then filter and re-solve (stage 2).  Deterministic for
    identical inputs.  A model that places no position for a keypoint raises
    SkeletonError first.
    """
    _check_keypoints(model)
    cfg = config.lattice
    traj_filter = smooth_mod.TrajectoryFilter(config.filter)
    # The previous frame's stage-2 result starts stage 1, whose result starts
    # stage 2: each pose tried gets one FK pass in the whole track.  The
    # search follows stage 1: stage 2 trails it by the filter's delay.
    prev = pose0
    positions_prev = sk.keypoint_positions(model, pose0)
    frames = []
    for frame_index in frame_range:
        # The plan is the tracker's only rotation switch: all zero when off.
        if cfg.rotation_enabled:
            rotations = tracker_mod.plan_rotations(positions_prev, rig)
        else:
            rotations = {c.id: 0.0 for c in rig.cameras}
        markers = tracker_mod.lattice_search(
            positions_prev, provider, rig, cfg, frame_index, rotations)
        low = markers.weights < LOW_CONFIDENCE_FRACTION * rig.n_c
        if low.any():
            log.debug("frame %s: low-confidence keypoints %s", frame_index,
                      tuple(lb for lb, flag in zip(KEYPOINTS, low) if flag))
        result1 = ik_mod.solve(model, prev, markers, anchored=True)
        if result1.no_evidence:
            log.info("frame %s: no PCM evidence, holding previous pose",
                     frame_index)
        result2 = smooth_mod.smooth_and_refit(model, result1, traj_filter)
        frames.append(FrameRecord(
            index=frame_index, pose_stage1=result1.q, pose_stage2=result2.q,
            positions_stage1=result1.positions,
            positions_stage2=result2.positions,
            weights=markers.weights, per_camera=markers.per_camera,
            rotations=rotations,
            lattice_offsets=dict(zip(KEYPOINTS,
                                     map(tuple, markers.offsets.tolist())))))
        prev, positions_prev = result2, result1.positions

    if config.filter.mode == "offline" and frames:
        # The zero-phase stage 2 replaces the causal one.
        prev = frames[0].pose_stage1
        for f, row in zip(frames, smooth_mod.filtfilt(
                config.filter, [f.positions_stage1 for f in frames])):
            prev = smooth_mod.refit(model, prev, row)
            f.pose_stage2, f.positions_stage2 = prev.q, prev.positions
    return MotionSequence(frames=frames,
                          sample_rate_hz=config.filter.sample_rate_hz)


# ---------------------------------------------------------------------------
# Output files

# The CSV writers format each field as ``csv.writer`` does (``repr`` of a
# float, ``str`` of anything else, none of which needs quoting) and write its
# "\r\n" rows, but format a value shared by several rows once.

def write_positions_csv(seq: MotionSequence, path):
    fps = seq.sample_rate_hz
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("frame,time_s,label,x_mm,y_mm,z_mm,weight,stage\r\n")
        for f in seq.frames:
            head = f"{f.index},{f.index / fps!r},"
            tails = [f",{w!r}," for w in f.weights.tolist()]
            fh.writelines(
                f"{head}{label},{x!r},{y!r},{z!r}{tail}{stage}\r\n"
                for stage, positions in (("stage1", f.positions_stage1),
                                         ("stage2", f.positions_stage2))
                for label, (x, y, z), tail in zip(KEYPOINTS,
                                                  positions.tolist(), tails))


def read_positions_csv(path, stage="stage2"):
    """Read back a positions CSV into (frame indices, list of label->pos)."""
    return read_keypoint_csv(path, stage)[:2]


def read_keypoint_csv(path, stage):
    """One pass over a keypoint CSV: (frame indices, list of label->pos,
    list of label->weight) of its rows of ``stage``; with ``stage`` None (a
    ground-truth CSV, which has no ``stage`` column) of every row, a later
    one of a frame and label replacing an earlier one, with empty weight
    dicts.  A missing column, a ``stage`` column in ground truth, a cell
    that does not parse, or a coordinate or weight that is not finite
    raises ValueError naming the file."""
    positions, weights = {}, {}
    numbers = ("x_mm", "y_mm", "z_mm") + (() if stage is None else ("weight",))
    columns = ("frame", "label") + numbers + (
        () if stage is None else ("stage",))
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or ()
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"{path}: no {' or '.join(map(repr, missing))} "
                             f"column")
        if stage is None and "stage" in header:
            raise ValueError(f"{path}: has a 'stage' column, so it is "
                             f"tracked output, not ground truth")
        for row in reader:
            if stage is not None and row["stage"] != stage:
                continue
            try:
                idx = int(row["frame"])
                values = [float(row[c]) for c in numbers]
                for name, value in zip(numbers, values):
                    if not math.isfinite(value):
                        raise ValueError(f"{name} must be a finite float, "
                                         f"got {row[name]}")
                xyz = np.array(values[:3])
                if stage is not None:
                    weights.setdefault(idx, {})[row["label"]] = values[3]
            except (TypeError, ValueError) as exc:  # TypeError: short row
                raise ValueError(f"{path}: line {reader.line_num}: "
                                 f"{exc}") from None
            positions.setdefault(idx, {})[row["label"]] = xyz
    indices = sorted(positions)
    return (indices, [positions[i] for i in indices],
            [weights.get(i, {}) for i in indices])


def write_pose_csv(seq: MotionSequence, path):
    ndof = len(seq.frames[0].pose_stage2) if seq.frames else 0
    fps = seq.sample_rate_hz
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "time_s"] + [f"q{i}" for i in range(ndof)])
        writer.writerows([f.index, f.index / fps] + f.pose_stage2.tolist()
                         for f in seq.frames)


def write_run_metadata(path, config: PipelineConfig, model, extra):
    payload = {
        "version": 1,
        "config": config.to_dict(),
        "link_lengths_mm": {k: float(v) for k, v in model.link_lengths().items()},
        **extra,
    }
    ranges.write_json(path, payload, sort_keys=True)


def write_diagnostics_csv(seq: MotionSequence, rig: CameraRig, path):
    """Per-frame, per-keypoint tracking diagnostics: chosen lattice offset,
    marker weight, low-confidence flag (weight below
    ``LOW_CONFIDENCE_FRACTION`` times the camera count; IK still uses the
    marker) and per-camera confidence samples."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["frame", "label", "a", "b", "c", "weight",
                           "low_confidence"]
                          + [f"sample_cam{c.id}" for c in rig.cameras])
                 + "\r\n")
        floor = LOW_CONFIDENCE_FRACTION * rig.n_c
        for f in seq.frames:
            head = f"{f.index},"
            for label, w, cams in zip(KEYPOINTS, f.weights.tolist(),
                                      f.per_camera.tolist()):
                a, b, c = f.lattice_offsets[label]
                fh.write(",".join([f"{head}{label},{a},{b},{c},{w!r},"
                                   f"{int(w < floor)}", *map(repr, cams)])
                         + "\r\n")
