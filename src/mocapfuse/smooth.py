"""Stage 2 of tracking: temporal smoothing of the keypoint trajectories
and the second IK pass.

The stage-1 keypoint rows are low-pass filtered with a 2nd-order
Butterworth biquad (bilinear transform, unit DC gain), causally frame by
frame (``smooth_and_refit``) or forward-backward over the whole run
(``filtfilt``, whose rows ``pipeline.track`` refits in turn).  Filtering
raw positions would change link lengths frame to frame, so the smoothed
positions are used as uniform-weight virtual markers for a second IK
solve, which projects them back onto the constant-link-length skeleton.
The causal solve starts from the stage-1 ``ik.IkResult``, so the stage-1
pose's FK pass is not repeated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ik as ik_mod
from . import ranges
from .labels import KEYPOINTS
from .tracker import VirtualMarkerSet


@dataclass(frozen=True)
class FilterSpec:
    cutoff_hz: float
    sample_rate_hz: float
    mode: str = "causal"   # "causal" or "offline" (forward-backward)

    def __post_init__(self):
        if self.mode not in ("causal", "offline"):
            raise ValueError(f"unknown filter mode {self.mode!r}")
        ranges.check(self, float, "> 0", "cutoff_hz", "sample_rate_hz")
        if not self.cutoff_hz < self.sample_rate_hz / 2.0:
            raise ValueError(f"cutoff_hz {self.cutoff_hz} must be below "
                             f"Nyquist, {self.sample_rate_hz / 2.0} Hz")


def design_biquad(spec: FilterSpec):
    """Butterworth low-pass biquad coefficients (b0, b1, b2, a1, a2)."""
    K = math.tan(math.pi * spec.cutoff_hz / spec.sample_rate_hz)
    q = 1.0 / math.sqrt(2.0)
    norm = 1.0 / (1.0 + K / q + K * K)
    b0 = K * K * norm
    b1 = 2.0 * b0
    b2 = b0
    a1 = 2.0 * (K * K - 1.0) * norm
    a2 = (1.0 - K / q + K * K) * norm
    return np.array([b0, b1, b2, a1, a2])


class TrajectoryFilter:
    """The Butterworth biquad of a ``FilterSpec`` with its delay registers,
    one channel per coordinate of the (18, 3) keypoint rows of successive
    frames.

    The first rows prime the registers, so constant rows pass through
    unchanged from the start (no transient toward zero).
    """

    def __init__(self, spec: FilterSpec):
        self.coeffs = design_biquad(spec)
        self.x1 = self.x2 = self.y1 = self.y2 = None

    def step_positions(self, positions):
        """The filtered (18, 3) keypoint positions of the next frame.

        Rows of another shape, or with a non-finite value, raise ValueError
        and leave the registers untouched.
        """
        x = np.array(positions, dtype=float)
        if x.shape != (len(KEYPOINTS), 3):
            raise ValueError(f"expected ({len(KEYPOINTS)}, 3) keypoint rows, "
                             f"got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite filter input")
        if self.y1 is None:
            self.x1 = self.x2 = self.y1 = self.y2 = x
        b0, b1, b2, a1, a2 = self.coeffs
        y = b0 * x + b1 * self.x1 + b2 * self.x2 - a1 * self.y1 - a2 * self.y2
        self.x2, self.x1 = self.x1, x
        self.y2, self.y1 = self.y1, y
        return y


def filtfilt(spec: FilterSpec, rows):
    """Zero-phase filtering of (T, 18, 3) keypoint rows: forward through one
    ``TrajectoryFilter``, then backward through another."""
    forward, backward = TrajectoryFilter(spec), TrajectoryFilter(spec)
    ahead = [forward.step_positions(r) for r in rows]
    return np.stack([backward.step_positions(r) for r in ahead[::-1]])[::-1]


def smooth_and_refit(model, stage1, traj_filter: TrajectoryFilter):
    """Causal stage 2 of one frame: filter the stage-1 ``ik.IkResult``'s
    (18, 3) keypoint positions through ``traj_filter``, then re-solve IK
    against them with uniform weights, started from ``stage1``.

    Returns the stage-2 ``ik.IkResult``.  FK of its pose preserves link
    lengths structurally, which is the point of re-solving instead of
    keeping the filtered positions.
    """
    return refit(model, stage1, traj_filter.step_positions(stage1.positions))


def refit(model, q_init, positions):
    """Stage-2 ``ik.IkResult``: IK anchored at ``q_init`` (a pose or an
    ``ik.IkResult``) against the (18, 3) ``positions`` of every keypoint,
    all weighted 1."""
    markers = VirtualMarkerSet(positions=positions,
                               weights=np.ones(len(KEYPOINTS)))
    return ik_mod.solve(model, q_init, markers, anchored=True)
