"""Accuracy metrics (MPJPE, 3D-PCK) with body-part groupings, plus the
per-frame error/score series used for plotting.

MPJPE pools all (frame, joint) pairs of the group into one mean; PCK counts
pairs with error strictly below the threshold.  No alignment transform is
applied: both sequences live in the same calibrated world frame.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import labels as lb


@dataclass(frozen=True)
class PartGroup:
    name: str
    labels: tuple

    def __post_init__(self):
        for label in self.labels:
            if label not in lb.KEYPOINTS:
                raise ValueError(f"unknown keypoint label {label!r}")


HEAD = PartGroup("Head", lb.HEAD)
UPPER_BODY = PartGroup("UpperBody", lb.UPPER_BODY)
LOWER_BODY = PartGroup("LowerBody", lb.LOWER_BODY)
TOTAL = PartGroup("Total", lb.TOTAL)
GROUPS = (HEAD, UPPER_BODY, LOWER_BODY, TOTAL)
# The 3D-PCK thresholds of a summary, mm.
SUMMARY_TAUS_MM = (50.0, 100.0, 150.0)


def _errors(pred_frames, gt_frames, group: PartGroup):
    if len(pred_frames) != len(gt_frames):
        raise ValueError(f"frame count mismatch: {len(pred_frames)} vs "
                         f"{len(gt_frames)}")
    if not pred_frames:
        raise ValueError("no frames to score")
    errs = np.empty((len(pred_frames), len(group.labels)))
    for i, (pred, gt) in enumerate(zip(pred_frames, gt_frames)):
        for j, label in enumerate(group.labels):
            if label not in pred or label not in gt:
                raise KeyError(f"label {label!r} missing at frame {i}")
            errs[i, j] = np.linalg.norm(np.asarray(pred[label], dtype=float)
                                        - np.asarray(gt[label], dtype=float))
    return errs


def _pck(errs, tau):
    return float(100.0 * (errs < tau).mean())


def mpjpe(pred_frames, gt_frames, group: PartGroup = TOTAL) -> float:
    """Mean per joint position error in mm over all (frame, joint) pairs."""
    return float(_errors(pred_frames, gt_frames, group).mean())


def pck3d(pred_frames, gt_frames, group: PartGroup = TOTAL,
          tau: float = 50.0) -> float:
    """Percentage of (frame, joint) pairs with 3D error < tau mm."""
    if tau <= 0:
        raise ValueError("tau must be > 0")
    return _pck(_errors(pred_frames, gt_frames, group), tau)


SERIES_HEADER = ["frame", "mpjpe_total", "mpjpe_lowerbody", "pcm_score_total"]


def emit_series(indices, pred_frames, weights, gt_frames, path):
    """Per-frame CSV of what a positions CSV holds, scored against the
    ground truth: total and lower-body MPJPE and the summed marker weights
    (the total PCM score); enough to plot error/score series."""
    if not len(indices) == len(pred_frames) == len(weights) == len(gt_frames):
        raise ValueError("predictions and ground truth differ in frame count")
    # Each row's mean is bit-identical to the one-frame ``mpjpe``.
    total, lower = (_errors(pred_frames, gt_frames, group).mean(axis=1)
                    for group in (TOTAL, LOWER_BODY))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SERIES_HEADER)
        for index, t, lo, w in zip(indices, total, lower, weights):
            writer.writerow([index, repr(float(t)), repr(float(lo)),
                             repr(float(sum(w.values())))])


def summary(pred_frames, gt_frames) -> dict:
    """Per-group MPJPE and 3D-PCK table (at ``SUMMARY_TAUS_MM``) as a
    JSON-friendly dict."""
    out = {"mpjpe_mm": {},
           "pck_percent": {f"@{int(tau)}mm": {} for tau in SUMMARY_TAUS_MM}}
    for group in GROUPS:
        errs = _errors(pred_frames, gt_frames, group)
        out["mpjpe_mm"][group.name] = float(errs.mean())
        for tau in SUMMARY_TAUS_MM:
            out["pck_percent"][f"@{int(tau)}mm"][group.name] = _pck(errs, tau)
    return out


def write_summary(pred_frames, gt_frames, path):
    """Write the summary table as JSON; returns the text written, without
    its final newline."""
    text = json.dumps(summary(pred_frames, gt_frames), indent=2,
                      sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return text
