"""Output checks and the determinism digest.

Every tracked frame is checked on its own (finite output, link lengths
measured on the reported keypoints, reported keypoints equal to forward
kinematics of the reported pose, and for scenes held to acceptance 1, every
keypoint within 50 mm).  Run-level accuracy bars that a run misses fail all
of its frames.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from mocapfuse import metrics, skeleton
from mocapfuse.labels import KEYPOINTS

LINK_TOL_MM = 1e-6


@dataclass(frozen=True)
class Bars:
    """Run-level accuracy bars; ``None`` disables one."""
    mpjpe_max_mm: float = None        # acceptance 1: Total MPJPE <= 15 mm
    joint_error_max_mm: float = None  # acceptance 1: PCK@50 = 100 %
    lower_mpjpe_max_mm: float = None  # acceptance 2 (see workloads.py)


def digest(positions):
    """SHA-256 over the stage-2 keypoint positions, frame by frame."""
    h = hashlib.sha256()
    for frame in positions:
        block = np.stack([np.asarray(frame[lb], dtype="<f8") for lb in KEYPOINTS])
        h.update(block.tobytes())
    return h.hexdigest()


def keypoint_links(model):
    """``(a, b, length)`` for every distance between two keypoints that the
    model fixes: each link whose two ends are keypoints placed on joints
    (neck-shoulder, shoulder-elbow, elbow-wrist, hip-knee, knee-ankle), and
    the hip width, which two links from the same parent fix."""
    on_joint = {lb for lb, ref in model.keypoint_map.items() if ref == lb}
    links = [(j.name, model.joints[j.parent].name, j.length)
             for j in model.joints
             if j.parent >= 0 and j.name in on_joint
             and model.joints[j.parent].name in on_joint]
    r_hip, l_hip = (model.joints[model.joint_index[n]]
                    for n in ("r_hip", "l_hip"))
    assert r_hip.parent == l_hip.parent and not any(
        tok[0] == "t" for tok in r_hip.dofs + l_hip.dofs)
    width = np.linalg.norm(r_hip.direction * r_hip.length
                           - l_hip.direction * l_hip.length)
    return links + [("r_hip", "l_hip", float(width))]


def accuracy(positions, gt):
    return {
        "mpjpe_mm": metrics.mpjpe(positions, gt, metrics.TOTAL),
        "mpjpe_lower_mm": metrics.mpjpe(positions, gt, metrics.LOWER_BODY),
        "pck50_pct": metrics.pck3d(positions, gt, metrics.TOTAL, tau=50.0),
    }


def check_frames(model, poses, positions, gt, bars: Bars):
    """Return (failed frame flags, failure reasons, accuracy) for the
    stage-2 output.

    ``poses`` are the stage-2 pose vectors, ``positions`` the keypoint
    positions the program reported for them, ``gt`` the ground truth.
    """
    links = [(KEYPOINTS.index(a), KEYPOINTS.index(b), length)
             for a, b, length in keypoint_links(model)]
    pck_rows = [KEYPOINTS.index(lb) for lb in metrics.TOTAL.labels]
    failed, reasons = [], {}

    def fail(i, why):
        failed[i] = True
        reasons[why] = reasons.get(why, 0) + 1

    for i, (q, reported, truth) in enumerate(zip(poses, positions, gt)):
        failed.append(False)
        pts = np.stack([np.asarray(reported[lb], dtype=float) for lb in KEYPOINTS])
        q = np.asarray(q, dtype=float)
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(q))):
            fail(i, "non-finite output")
            continue
        if any(abs(np.linalg.norm(pts[a] - pts[b]) - length) > LINK_TOL_MM
               for a, b, length in links):
            fail(i, "link length drift")
        fk = skeleton.forward_kinematics(model, q)
        if any(np.abs(fk[lb] - reported[lb]).max() > LINK_TOL_MM
               for lb in KEYPOINTS):
            fail(i, "keypoints off the skeleton")
        if bars.joint_error_max_mm is not None:
            err = np.linalg.norm(
                pts - np.stack([truth[lb] for lb in KEYPOINTS]), axis=1)
            if err[pck_rows].max() >= bars.joint_error_max_mm:
                fail(i, "keypoint beyond PCK threshold")

    if not positions:
        return failed, reasons, {}
    acc = accuracy(positions, gt)
    run_level = []
    if bars.mpjpe_max_mm is not None and not acc["mpjpe_mm"] <= bars.mpjpe_max_mm:
        run_level.append(f"mpjpe {acc['mpjpe_mm']:.3f} > {bars.mpjpe_max_mm}")
    if (bars.lower_mpjpe_max_mm is not None
            and not acc["mpjpe_lower_mm"] <= bars.lower_mpjpe_max_mm):
        run_level.append(f"lower-body mpjpe {acc['mpjpe_lower_mm']:.3f} > "
                         f"{bars.lower_mpjpe_max_mm}")
    for why in run_level:
        for i in range(len(failed)):
            fail(i, why)
    return failed, reasons, acc
