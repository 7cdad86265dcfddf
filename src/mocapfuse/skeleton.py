"""Tree-structured kinematic chain: topology, forward kinematics, Jacobians.

The default human model has 34 generalized coordinates: a 6-DOF free root
(pelvis), exponential-map 3-DOF joints for waist/chest/neck/head, shoulders
and hips, and single-axis elbows and knees.  Wrists and ankles carry no
dofs: no keypoint rides on the hand or foot segments they would turn.
Keypoints are either joints of the chain or fixed offsets on the head
segment (nose, eyes, ears).

Pose vector layout: root translation (mm, 3), root orientation as an
exponential-map 3-vector, then the remaining joints' rotational coordinates
(radians) in model order.  This module alone knows it: ``dof_joint`` maps
each coordinate to its joint and ``dofs_of`` gives a joint's coordinates.

Each model carries one table, built once: the keypoint table of
``model.keypoints``, the labels it maps in ``KEYPOINTS`` order (a label
outside ``KEYPOINTS`` is refused: it could never be tracked).  Every entry
point makes one FK pass: ``forward_kinematics`` returns a dict of every
joint and keypoint, ``keypoint_positions`` the ``(n, 3)`` keypoint array
and ``fk_and_jacobians`` that array plus the C-contiguous
``(n, 3, total_dof)`` jacobians.  The pass (``_frames``) walks
the chain on Python floats: rotations are row-major 9-tuples composed by an
unrolled 3x3 product, and exp joints, their left Jacobians and single-axis
joints share one Rodrigues formula.  Only its results become numpy arrays,
all of them one array made from one flat sequence, because a few dozen 3x3
products cost less in plain arithmetic than in numpy calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import ranges
from .labels import KEYPOINT_INDEX, KEYPOINTS

_DOF_WIDTH = {"tx": 1, "ty": 1, "tz": 1, "rx": 1, "ry": 1, "rz": 1, "exp": 3}

_UNIT = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
_XYZXY = np.array([0, 1, 2, 0, 1])


class SkeletonError(ValueError):
    pass


def _rodrigues(x, y, z, a, b):
    """I + a*[w]x + b*[w]x^2 as a row-major 9-tuple."""
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    return (1.0 - b * (yy + zz), -a * z + b * xy, a * y + b * xz,
            a * z + b * xy, 1.0 - b * (xx + zz), -a * x + b * yz,
            -a * y + b * xz, a * x + b * yz, 1.0 - b * (xx + yy))


# Below this angle (rad) (t - sin t)/t^3 is its Taylor series to t^14, which
# leaves out < 1e-16 of it; above it the closed form loses < 1e-15.
SO3_SERIES_BELOW = 1.0


def _so3_coefficients(t2):
    """Rodrigues coefficients (a, b) of exp and (a, b) of the left Jacobian
    for a rotation vector of squared norm t2, free of cancellation:
    (1 - cos t)/t^2 is 2 sin^2(t/2)/t^2; constants below t = 1e-10."""
    theta = math.sqrt(t2)
    if theta < 1e-10:
        return 1.0, 0.5, 0.5, 1.0 / 6.0
    s, h = math.sin(theta), math.sin(0.5 * theta)
    one_minus_cos = 2.0 * h * h / t2
    if theta < SO3_SERIES_BELOW:
        third = 1 / 6 - t2 * (1 / 120 - t2 * (1 / 5040 - t2 * (
            1 / 362880 - t2 * (1 / 39916800 - t2 * (1 / 6227020800 - t2 * (
                1 / 1307674368000 - t2 / 355687428096000))))))
    else:
        third = (theta - s) / (t2 * theta)
    return s / theta, one_minus_cos, one_minus_cos, third


def _mul(A, B):
    """Product of two row-major 3x3 9-tuples."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = A
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = B
    return (a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7,
            a0 * b2 + a1 * b5 + a2 * b8, a3 * b0 + a4 * b3 + a5 * b6,
            a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
            a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7,
            a6 * b2 + a7 * b5 + a8 * b8)


@dataclass(frozen=True)
class Joint:
    """One joint of the chain: a finite ``length`` (``ranges.check``) and a
    ``direction`` of 3 finite numbers (``ranges.floats``), and for a joint
    with a parent a length > 0 and a unit direction, or SkeletonError names
    the joint."""

    name: str
    parent: int            # index into the joint list, -1 for the root
    direction: np.ndarray  # unit vector in the parent frame
    length: float          # mm, offset from parent joint along direction
    dofs: tuple            # dof tokens: tx/ty/tz/rx/ry/rz/exp

    def __post_init__(self):
        object.__setattr__(self, "dofs", tuple(self.dofs))
        for tok in self.dofs:
            if tok not in _DOF_WIDTH:
                raise SkeletonError(f"joint {self.name}: unknown dof token {tok!r}")
        try:
            ranges.check(self, float, "> 0" if self.parent >= 0 else "",
                         "length")
            d = ranges.floats("direction", self.direction, (3,))
        except ValueError as exc:
            raise SkeletonError(f"joint {self.name}: {exc}") from None
        object.__setattr__(self, "direction", d)
        if self.parent >= 0 and abs(np.linalg.norm(d) - 1.0) > 1e-9:
            raise SkeletonError(f"joint {self.name}: direction must be a unit "
                                f"3-vector, got {d.tolist()}")


@dataclass(frozen=True)
class SkeletonModel:
    """Immutable kinematic chain plus keypoint attachment map.

    ``keypoint_map`` maps a keypoint label of ``KEYPOINTS`` either to a
    joint name or to ``(joint name, local offset 3-vector)`` for points
    rigidly attached to a segment frame.

    Built once per model: ``dof_joint`` (the joint of each dof),
    ``dof_rotational`` (per dof), ``keypoints`` (the labels the model maps,
    in ``KEYPOINTS`` order), ``keypoint_rows`` (their rows in ``KEYPOINTS``)
    and ``keypoint_targets``, their table: the segment joint each rides on
    (n,), its local offset (n, 3, 1) and the dof mask (n, 1, D), true where
    the dof belongs to the segment or one of its ancestors.  A joint origin
    does not move with its own rotation while an attached point does; the
    rotational column ``axis x (p - origin)`` is zero for the former because
    p is the origin, so the mask needs no rule for it.
    """

    joints: tuple
    keypoint_map: dict

    def __post_init__(self):
        object.__setattr__(self, "joints", tuple(self.joints))
        roots = [j for j in self.joints if j.parent < 0]
        if len(roots) != 1 or self.joints[0].parent != -1:
            raise SkeletonError("model must have exactly one root, listed first")
        for i, j in enumerate(self.joints):
            if j.parent >= i:
                raise SkeletonError("joints must be listed parents-first")
        index = {j.name: i for i, j in enumerate(self.joints)}
        if len(index) != len(self.joints):
            raise SkeletonError("duplicate joint names")
        refs = {}
        for label, ref in self.keypoint_map.items():
            jname, offset = ref if isinstance(ref, tuple) else (ref, np.zeros(3))
            if label not in KEYPOINT_INDEX:
                raise SkeletonError(f"keypoint {label}: not one of KEYPOINTS")
            if jname not in index:
                raise SkeletonError(f"keypoint {label}: unknown joint {jname}")
            try:
                refs[label] = (index[jname],
                               ranges.floats("offset", offset, (3,)))
            except ValueError as exc:
                raise SkeletonError(f"keypoint {label}: {exc}") from None
        keypoints = tuple(lb for lb in KEYPOINTS if lb in refs)

        ancestry = np.zeros((len(self.joints),) * 2, dtype=bool)
        for i, j in enumerate(self.joints):
            if j.parent >= 0:
                ancestry[i] = ancestry[j.parent]
            ancestry[i, i] = True
        dofs = [(i, tok[0] != "t") for i, j in enumerate(self.joints)
                for tok in j.dofs for _ in range(_DOF_WIDTH[tok])]
        dof_joint = np.array([i for i, _ in dofs], dtype=int)
        segment = np.array([refs[lb][0] for lb in keypoints], dtype=int)
        offset = np.array([refs[lb][1] for lb in keypoints])
        for attr, value in (
                ("total_dof", len(dof_joint)),
                ("joint_index", index),
                ("dof_joint", dof_joint),
                ("dof_rotational", np.array([r for _, r in dofs], dtype=bool)),
                ("link_offset", tuple(tuple((j.direction * j.length).tolist())
                                      for j in self.joints)),
                ("keypoints", keypoints),
                ("keypoint_rows", np.array(
                    [KEYPOINT_INDEX[lb] for lb in keypoints], dtype=int)),
                ("keypoint_targets", (
                    segment, offset.reshape(-1, 3)[:, :, None],
                    ancestry[segment][:, dof_joint][:, None, :]))):
            object.__setattr__(self, attr, value)

    def dofs_of(self, joint_name):
        """Pose indices of a joint's coordinates, in order."""
        return np.flatnonzero(
            self.dof_joint == self.joint_index[joint_name]).tolist()

    def link_lengths(self):
        return {j.name: j.length for j in self.joints if j.parent >= 0}


def with_link_lengths(model: SkeletonModel, lengths: dict) -> SkeletonModel:
    """Return a copy of the model with the given link lengths substituted
    (each checked by ``Joint``)."""
    index = model.joint_index
    for name in lengths:
        if name not in index:
            raise SkeletonError(f"unknown joint in length map: {name}")
        if model.joints[index[name]].parent < 0:
            raise SkeletonError(f"root joint {name} has no link length")
    joints = tuple(
        Joint(j.name, j.parent, j.direction,
              lengths.get(j.name, j.length), j.dofs)
        for j in model.joints)
    return SkeletonModel(joints=joints, keypoint_map=dict(model.keypoint_map))


def with_keypoint_offsets(model: SkeletonModel, offsets: dict) -> SkeletonModel:
    """Replace the local offsets of segment-attached keypoints (e.g. face points)."""
    kmap = dict(model.keypoint_map)
    for label, off in offsets.items():
        ref = kmap[label]
        if not isinstance(ref, tuple):
            raise SkeletonError(f"keypoint {label} is a joint, not an offset point")
        kmap[label] = (ref[0], np.asarray(off, dtype=float))
    return SkeletonModel(joints=model.joints, keypoint_map=kmap)


def check_pose(model: SkeletonModel, q):
    pose = np.asarray(q, dtype=float)
    if not ranges.numeric(q):
        raise SkeletonError("pose contains a value that is not a number")
    if pose.shape != (model.total_dof,):
        raise SkeletonError(f"pose length {pose.shape} does not match model "
                            f"dof {model.total_dof}")
    if not np.all(np.isfinite(pose)):
        raise SkeletonError("pose contains non-finite values")
    return pose


def _frames(model: SkeletonModel, q):
    """One FK pass: world position and rotation of every joint, and each
    dof's world motion axis and origin, aligned with q.

    Rotations are row-major 9-tuples (see the module docstring).  An
    exp joint's three axes are the columns of R_pre Jl(w), all about the
    joint origin.  A translational dof's origin is not used.  The four
    results are views of one array made from one flat sequence; axes and
    origins are (D, 3) views of its x, y and z rows.
    """
    qs = check_pose(model, q).tolist()
    pos, rot, axes, origins = [], [], [], []
    qi = 0
    for joint, (ox, oy, oz) in zip(model.joints, model.link_offset):
        if joint.parent < 0:
            p = (0.0, 0.0, 0.0)
            R = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
        else:
            R = rot[joint.parent]
            px, py, pz = pos[joint.parent]
            p = (px + R[0] * ox + R[1] * oy + R[2] * oz,
                 py + R[3] * ox + R[4] * oy + R[5] * oz,
                 pz + R[6] * ox + R[7] * oy + R[8] * oz)
        for tok in joint.dofs:
            if tok == "exp":
                x, y, z = qs[qi:qi + 3]
                ea, eb, ja, jb = _so3_coefficients(x * x + y * y + z * z)
                RJ = _mul(R, _rodrigues(x, y, z, ja, jb))
                axes += (RJ[0::3], RJ[1::3], RJ[2::3])
                origins += (p, p, p)
                R = _mul(R, _rodrigues(x, y, z, ea, eb))
                qi += 3
                continue
            k = "xyz".index(tok[1])
            axis = (R[k], R[3 + k], R[6 + k])
            axes.append(axis)
            origins.append(p)
            t = qs[qi]
            if tok[0] == "t":
                p = (p[0] + t * axis[0], p[1] + t * axis[1],
                     p[2] + t * axis[2])
            else:
                R = _mul(R, _rodrigues(*_UNIT[k], math.sin(t),
                                       1.0 - math.cos(t)))
            qi += 1
        pos.append(p)
        rot.append(R)
    n, d = 3 * len(pos), 3 * len(axes)
    flat = np.fromiter(chain(chain.from_iterable(pos), chain.from_iterable(rot),
                             *zip(*axes), *zip(*origins)), float, 4 * n + 2 * d)
    return (flat[:n].reshape(-1, 3), flat[n:4 * n].reshape(-1, 3, 3),
            flat[4 * n:4 * n + d].reshape(3, -1).T,
            flat[4 * n + d:].reshape(3, -1).T)


def _keypoints(model, pos, rot):
    joint, offset, _ = model.keypoint_targets
    return pos[joint] + (rot[joint] @ offset)[:, :, 0]


def forward_kinematics(model: SkeletonModel, q) -> dict:
    """World positions (mm) of every joint and every mapped keypoint, from
    one FK pass; a keypoint label that is also a joint name gives the
    keypoint."""
    pos, rot, _, _ = _frames(model, q)
    out = dict(zip(model.joint_index, pos))
    out.update(zip(model.keypoints, _keypoints(model, pos, rot)))
    return out


def keypoint_positions(model: SkeletonModel, q):
    """(n, 3) world positions of ``model.keypoints``, in order, from one FK
    pass."""
    pos, rot, _, _ = _frames(model, q)
    return _keypoints(model, pos, rot)


def fk_and_jacobians(model: SkeletonModel, q):
    """(n, 3) positions and (n, 3, total_dof) jacobians d(position)/dq of
    ``model.keypoints`` from one FK pass.

    A rotational column is ``axis x (p - origin)``, a translational one the
    axis; columns of dofs that do not move the keypoint are zero.  Both
    arrays are C-contiguous and own their data.
    """
    pos, rot, axes, origins = _frames(model, q)
    p = _keypoints(model, pos, rot)
    # Rows x, y, z, x, y, so that a[1:4] * d[2:5] - a[2:5] * d[1:4] is
    # axis x d, component by component.
    a = axes.T.take(_XYZXY, axis=0)
    d = p.take(_XYZXY, axis=1)[:, :, None] - origins.T.take(_XYZXY, axis=0)
    J = a[1:4] * d[:, 2:5]
    J -= a[2:5] * d[:, 1:4]
    np.copyto(J, a[:3], where=~model.dof_rotational)
    J *= model.keypoint_targets[2]
    return p, J


# ---------------------------------------------------------------------------
# Default human model

# Reference pose: upright T-pose facing +y, z up, subject's right along +x.
# Lengths are template defaults in mm; real subjects get theirs identified
# from triangulated keypoint centroids at initialization.
_HUMAN_SPEC = [
    # name, parent, direction (a unit axis), length, dofs
    ("pelvis", None, (0, 0, 1), 0.0, ("tx", "ty", "tz", "exp")),
    ("waist", "pelvis", (0, 0, 1), 150.0, ("exp",)),
    ("chest", "waist", (0, 0, 1), 180.0, ("exp",)),
    ("neck", "chest", (0, 0, 1), 170.0, ("exp",)),
    ("head", "neck", (0, 0, 1), 120.0, ("exp",)),
    ("r_shoulder", "neck", (1, 0, 0), 180.0, ("exp",)),
    ("r_elbow", "r_shoulder", (1, 0, 0), 300.0, ("rz",)),
    ("r_wrist", "r_elbow", (1, 0, 0), 250.0, ()),
    ("l_shoulder", "neck", (-1, 0, 0), 180.0, ("exp",)),
    ("l_elbow", "l_shoulder", (-1, 0, 0), 300.0, ("rz",)),
    ("l_wrist", "l_elbow", (-1, 0, 0), 250.0, ()),
    ("r_hip", "pelvis", (1, 0, 0), 100.0, ("exp",)),
    ("r_knee", "r_hip", (0, 0, -1), 420.0, ("rx",)),
    ("r_ankle", "r_knee", (0, 0, -1), 400.0, ()),
    ("l_hip", "pelvis", (-1, 0, 0), 100.0, ("exp",)),
    ("l_knee", "l_hip", (0, 0, -1), 420.0, ("rx",)),
    ("l_ankle", "l_knee", (0, 0, -1), 400.0, ()),
]

# Face keypoints ride on the head segment (offsets in the head frame, mm).
_HUMAN_FACE_OFFSETS = {
    "nose": (0.0, 90.0, 40.0),
    "r_eye": (30.0, 80.0, 60.0),
    "l_eye": (-30.0, 80.0, 60.0),
    "r_ear": (70.0, 10.0, 50.0),
    "l_ear": (-70.0, 10.0, 50.0),
}


def human_skeleton() -> SkeletonModel:
    """The default 34-DOF human model in its reference proportions, built
    from its description as a skeleton file's is."""
    keys = ("name", "parent", "direction", "length", "dofs")
    return _model_from_tree({
        "joints": [dict(zip(keys, entry)) for entry in _HUMAN_SPEC],
        "keypoints": {label: {"joint": "head",
                              "offset": _HUMAN_FACE_OFFSETS[label]}
                      if label in _HUMAN_FACE_OFFSETS else {"joint": label}
                      for label in KEYPOINTS}})


def scaled_human_skeleton(scale: float) -> SkeletonModel:
    """Template model uniformly scaled (used by the synthetic generator)."""
    base = human_skeleton()
    lengths = {k: v * scale for k, v in base.link_lengths().items()}
    model = with_link_lengths(base, lengths)
    offsets = {k: np.asarray(v) * scale for k, v in _HUMAN_FACE_OFFSETS.items()}
    return with_keypoint_offsets(model, offsets)


# ---------------------------------------------------------------------------
# Skeleton description file

def save_skeleton(model: SkeletonModel, path):
    joints = []
    for j in model.joints:
        joints.append({
            "name": j.name,
            "parent": None if j.parent < 0 else model.joints[j.parent].name,
            "direction": [float(v) for v in j.direction],
            "length": float(j.length),
            "dofs": list(j.dofs),
        })
    keypoints = {}
    for label, ref in model.keypoint_map.items():
        if isinstance(ref, tuple):
            keypoints[label] = {"joint": ref[0],
                                "offset": [float(v) for v in ref[1]]}
        else:
            keypoints[label] = {"joint": ref}
    ranges.write_json(path, {"joints": joints, "keypoints": keypoints},
                      sort_keys=False)


def load_skeleton(path) -> SkeletonModel:
    """Model from a skeleton file; a directory, a file that is not UTF-8
    JSON, a missing key, an unknown parent or a value of the wrong JSON type
    raises SkeletonError naming the file."""
    try:
        payload = ranges.read_json(path)
    except IsADirectoryError:
        raise SkeletonError(f"{path}: is a directory") from None
    except ValueError as exc:
        raise SkeletonError(str(exc)) from None
    try:
        return _model_from_tree(payload)
    except KeyError as exc:
        raise SkeletonError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise SkeletonError(f"{path}: {exc}") from None


def _model_from_tree(payload) -> SkeletonModel:
    if not isinstance(payload, dict):
        raise SkeletonError(f"must be a JSON object, not a "
                            f"{type(payload).__name__}")
    name_to_idx = {}
    joints = []
    for entry in payload["joints"]:
        parent = entry["parent"]
        if parent is not None and parent not in name_to_idx:
            raise SkeletonError(f"joint {entry['name']!r}: unknown parent "
                                f"{parent!r} (parents are listed first)")
        pidx = -1 if parent is None else name_to_idx[parent]
        joints.append(Joint(entry["name"], pidx, entry["direction"],
                            entry["length"], tuple(entry["dofs"])))
        name_to_idx[entry["name"]] = len(joints) - 1
    kmap = {}
    for label, entry in payload["keypoints"].items():
        if "offset" in entry:
            kmap[label] = (entry["joint"], entry["offset"])
        else:
            kmap[label] = entry["joint"]
    return SkeletonModel(joints=tuple(joints), keypoint_map=kmap)
