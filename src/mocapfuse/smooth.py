"""Temporal smoothing of joint trajectories and the second IK pass.

Joint positions are low-pass filtered with a 2nd-order Butterworth biquad
(bilinear transform, unit DC gain).  Filtering raw positions would change
link lengths frame to frame, so the smoothed positions are used as
uniform-weight virtual markers for a second IK solve, which projects them
back onto the constant-link-length skeleton.  That solve starts from the
stage-1 ``ik.IkResult`` when it is given one, so the stage-1 pose's FK
pass is not repeated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ik as ik_mod
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
        if not math.isfinite(self.sample_rate_hz):
            raise ValueError(f"sample_rate_hz must be finite, got "
                             f"{self.sample_rate_hz}")
        if not (0.0 < self.cutoff_hz < self.sample_rate_hz / 2.0):
            raise ValueError(
                f"cutoff {self.cutoff_hz} Hz must be in (0, Nyquist "
                f"{self.sample_rate_hz / 2.0} Hz)")


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


class FilterState:
    """Delay registers for a bank of scalar channels filtered in lockstep.

    The first sample primes the registers, so a constant input passes
    through unchanged from the start (no transient toward zero).
    """

    def __init__(self, coeffs, n_channels):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.n_channels = n_channels
        self.x1 = np.zeros(n_channels)
        self.x2 = np.zeros(n_channels)
        self.y1 = np.zeros(n_channels)
        self.y2 = np.zeros(n_channels)
        self.primed = False

    def step(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_channels,):
            raise ValueError(f"expected {self.n_channels} channels, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite filter input")
        if not self.primed:
            self.x1 = x.copy()
            self.x2 = x.copy()
            self.y1 = x.copy()
            self.y2 = x.copy()
            self.primed = True
        b0, b1, b2, a1, a2 = self.coeffs
        y = b0 * x + b1 * self.x1 + b2 * self.x2 - a1 * self.y1 - a2 * self.y2
        self.x2, self.x1 = self.x1, x.copy()
        self.y2, self.y1 = self.y1, y
        return y


def filtfilt(coeffs, samples):
    """Zero-phase forward-backward filtering of a (T, C) trajectory."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]

    def run(data):
        state = FilterState(coeffs, data.shape[1])
        return np.stack([state.step(row) for row in data])

    forward = run(x)
    backward = run(forward[::-1])[::-1]
    return backward


class TrajectoryFilter:
    """One biquad bank over all keypoint coordinates (18 x 3 channels)."""

    def __init__(self, spec: FilterSpec):
        self.state = FilterState(design_biquad(spec), 3 * len(KEYPOINTS))

    def step_positions(self, positions):
        """The filtered (18, 3) keypoint positions of the next frame."""
        return self.state.step(np.ravel(positions)).reshape(-1, 3)


def smooth_and_refit(model, q_stage1, positions_stage1,
                     traj_filter: TrajectoryFilter):
    """Second-pass pose: filter the stage-1 keypoint positions (18, 3), the
    FK of ``q_stage1``, then re-solve IK against them with uniform weights.

    ``q_stage1`` is the stage-1 pose or its ``ik.IkResult``, whose final FK
    pass then starts the refit.  Returns (stage-2 ``ik.IkResult``, smoothed
    (18, 3) positions).  FK of the result preserves link lengths
    structurally, which is the point of re-solving instead of keeping the
    filtered positions.
    """
    smoothed = traj_filter.step_positions(positions_stage1)
    return refit(model, q_stage1, smoothed), smoothed


def refit(model, q_init, positions):
    """Stage-2 ``ik.IkResult``: IK anchored at ``q_init`` (a pose or an
    ``ik.IkResult``) against the (18, 3) ``positions`` of every keypoint,
    all weighted 1."""
    markers = VirtualMarkerSet(positions=positions,
                               weights=np.ones(len(KEYPOINTS)))
    return ik_mod.solve(model, q_init, markers, anchor=ik_mod.ANCHOR)
