"""Weighted-marker inverse kinematics.

Minimizes sum_n 1/2 * W_n * ||marker_n - FK_n(q)||^2 over the pose vector by
Levenberg-Marquardt on the sqrt(W)-scaled stacked residuals.  Translation
coordinates (mm) and rotation coordinates (radians) are conditioned by a
fixed diagonal scaling (1 rad = ``TRANSLATION_SCALE`` mm).

An anchored solve (``anchor`` > 0) minimizes the marker term plus
rho/2 * ||(q - q_warm) / scale||^2, with rho = anchor * trace(H) / n of the
first iteration's Gauss-Newton matrix H, so the few dofs the markers barely
observe stay at the warm start instead of drifting along a flat valley.  It
also stops once an accepted step lowers that objective by at most
``RELATIVE_DECREASE_TOL`` of its value.  Tracking (stage 1 and the stage-2
refit) passes ``ANCHOR``; every other solve is unanchored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import skeleton as sk
from .labels import KEYPOINTS
from .tracker import VirtualMarkerSet

# Levenberg-Marquardt damping: starts at LAMBDA0, is multiplied by LAMBDA_UP
# after a rejected step and divided by LAMBDA_DOWN after an accepted one.
# LAMBDA0 is 1e-3 times the human model's dof count over that of its older
# form, whose six extra coordinates added nothing to trace(H) but counted in
# the mean that scales the damping, so the damping is held.
LAMBDA0 = 8.5e-4
LAMBDA_UP = 10.0
LAMBDA_DOWN = 10.0
TRANSLATION_SCALE = 500.0   # mm per radian-equivalent unit
# Anchor weight of the tracking solves, relative to the mean curvature of the
# marker term, and the stop of an anchored solve.
ANCHOR = 1e-3
RELATIVE_DECREASE_TOL = 1e-9


@dataclass(frozen=True)
class IkSettings:
    max_iterations: int = 50
    step_tol: float = 1e-8          # in scaled coordinates
    residual_tol: float = 1e-4      # mm^2, objective value

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("step_tol", "residual_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass
class IkResult:
    q: np.ndarray
    residual: float        # final marker-fit objective (no anchor), mm^2
    converged: bool
    iterations: int = 0
    no_evidence: bool = False


def _observed(markers: VirtualMarkerSet):
    """The labels, positions and weights of the markers with weight > 0."""
    rows = np.flatnonzero(markers.weights > 0.0)
    return ([KEYPOINTS[i] for i in rows], markers.positions[rows],
            markers.weights[rows])


def solve(model, q_init, markers: VirtualMarkerSet,
          settings: IkSettings = IkSettings(), *, anchor=0.0) -> IkResult:
    """Fit the pose to the weighted markers, warm-started at ``q_init``.

    With ``anchor`` > 0 the objective also holds the pose to ``q_init`` (see
    the module docstring); ``residual`` is always the marker-fit objective.
    The accepted-step objective sequence is non-increasing; with all weights
    zero the warm start is returned untouched with ``no_evidence`` set.
    Each pose tried gets one FK pass, which also gives its Jacobian: an
    accepted trial's positions and Jacobian serve the next iteration.
    """
    if not anchor >= 0.0:
        raise ValueError("anchor must be >= 0")
    q_warm = q = sk.check_pose(model, q_init).copy()
    labels, observed, weights = _observed(markers)
    if not labels:
        return IkResult(q=q, residual=0.0, converged=False, no_evidence=True)
    sqrt_w = np.sqrt(weights)[:, None]

    def residual(positions):
        return (sqrt_w * (observed - positions)).ravel()

    scale = np.where(model.dof_rotational, 1.0, TRANSLATION_SCALE)
    lam = LAMBDA0
    # The marker fit equals 0.5 * |r|^2 for the sqrt-weighted residual stack;
    # obj adds the anchor term, which is 0 at the warm start.
    positions, jac = sk.fk_and_jacobians(model, q, labels)
    r = residual(positions)
    fit = obj = 0.5 * float(r @ r)
    rho = 0.0
    converged = False
    eye = np.eye(model.total_dof)
    for iterations in range(1, settings.max_iterations + 1):
        if fit <= settings.residual_tol:
            converged = True
            break
        J = (sqrt_w[:, :, None] * jac).reshape(r.size, model.total_dof)
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(J))):
            raise FloatingPointError("non-finite IK residual or jacobian")
        Js = J * scale[None, :]
        H = Js.T @ Js
        g = Js.T @ r
        if anchor:
            if iterations == 1:
                rho = anchor * float(np.trace(H)) / H.shape[0]
            H = H + rho * eye
            g = g - rho * (q - q_warm) / scale
        # Damping proportional to the mean curvature makes the iterates
        # invariant to a uniform rescaling of all marker weights.
        mu = max(float(np.trace(H)) / H.shape[0], 1e-30)
        accepted = False
        while lam <= 1e12:
            try:
                delta_u = np.linalg.solve(H + lam * mu * eye, g)
            except np.linalg.LinAlgError:
                lam *= LAMBDA_UP
                continue
            q_new = q + scale * delta_u
            positions, jac_new = sk.fk_and_jacobians(model, q_new, labels)
            r_new = residual(positions)
            fit_new = obj_new = 0.5 * float(r_new @ r_new)
            if rho:
                d = (q_new - q_warm) / scale
                obj_new = fit_new + 0.5 * rho * float(d @ d)
            if np.isfinite(obj_new) and obj_new < obj:
                step = float(np.linalg.norm(delta_u))
                if step < settings.step_tol or (
                        rho and obj - obj_new <= RELATIVE_DECREASE_TOL * obj):
                    converged = True
                q, fit, obj, r, jac = q_new, fit_new, obj_new, r_new, jac_new
                lam = max(lam / LAMBDA_DOWN, 1e-12)
                accepted = True
                break
            lam *= LAMBDA_UP
        if not accepted or converged:
            if not accepted:
                converged = True   # damping exhausted: local minimum
            break
    else:
        converged = fit <= settings.residual_tol
    return IkResult(q=q, residual=fit, converged=converged,
                    iterations=iterations)
