"""Weighted-marker inverse kinematics.

Minimizes sum_n 1/2 * W_n * ||marker_n - FK_n(q)||^2 over the pose vector by
Levenberg-Marquardt on the sqrt(W)-scaled stacked residuals.  Translation
coordinates (mm) and rotation coordinates (radians) are conditioned by a
fixed diagonal scaling (1 rad = ``TRANSLATION_SCALE`` mm).

An anchored solve (``anchored=True``) minimizes the marker term plus
rho/2 * ||(q - q_warm) / scale||^2, with rho = ``ANCHOR`` * trace(H) / n of
the first iteration's Gauss-Newton matrix H, so the few dofs the markers
barely observe stay at the warm start instead of drifting along a flat
valley.  Tracking (stage 1 and the stage-2 refit) is anchored; every other
solve is not.

Every solve, anchored or not, stops once its keypoints have converged: the
largest coordinate move m of any keypoint in an accepted step, against the
same m_prev of the accepted step before it, gives the geometric tail
m^2 / (m_prev - m) of the moves still to come (Aitken's delta-squared
process), and a tail of at most ``KEYPOINT_TAIL_MM`` with m < m_prev stops
the solve.  Near a minimum LM converges about linearly or faster, so the
steps after that move no keypoint by an amount any output resolves.  Nor
does a solve make a trial whose decrease of the objective, as the LM
quadratic model predicts it, is at most ``DECREASE_EPS`` * eps * obj (Moré
1978, as in MINPACK): that is below the objective's own rounding, so the
solve ends there as when the damping is exhausted.  A solve restarted at its
minimum makes no FK pass.

``solve`` returns an ``IkResult`` that carries the FK pass made at its final
pose: the positions and Jacobians of every keypoint the model maps.  A solve
warm-started from such a result of the same model object starts from that
pass, so a chain of solves (the two tracking stages of every frame,
initialization's run of fits) passes each pose it tries through FK once.
Each LM step weights the Jacobian by sqrt(W) and the dof scaling in one
product, checks H and g for non-finite values and damps H's diagonal in
place.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import ranges
from . import skeleton as sk
from .labels import KEYPOINTS

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
# marker term.
ANCHOR = 1e-3
# The stop of every solve: the most, in mm, that any keypoint coordinate is
# still estimated to move (see ``solve``).
KEYPOINT_TAIL_MM = 5e-4
# A trial is not made when the LM model predicts a decrease of the objective
# obj of at most DECREASE_EPS * eps * obj (eps: the float64 epsilon).  The
# computed objective, a sum of up to 54 squared residuals that each carry the
# FK's rounding, is itself uncertain by a few eps * obj, so no such trial can
# lower it by more than its own rounding.
DECREASE_EPS = 8.0


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


@dataclass(frozen=True)
class IkSettings:
    max_iterations: int = 50
    residual_tol: float = 1e-4      # mm^2, objective value

    def __post_init__(self):
        ranges.check(self, int, "> 0", "max_iterations")
        ranges.check(self, float, "> 0", "residual_tol")


@dataclass(frozen=True, eq=False)
class IkResult:
    """A solve's final pose and the FK pass made at it: ``positions``
    (n, 3) and ``jacobians`` (n, 3, D) of ``model.keypoints``, in order.
    The arrays are read-only, so a later solve of the same ``model`` can
    start from this pass instead of repeating it."""

    q: np.ndarray
    residual: float        # final marker-fit objective (no anchor), mm^2
    converged: bool
    positions: np.ndarray
    jacobians: np.ndarray = field(repr=False)
    model: sk.SkeletonModel = field(repr=False)
    iterations: int = 0
    no_evidence: bool = False

    def __post_init__(self):
        for array in (self.q, self.positions, self.jacobians):
            array.flags.writeable = False


def solve(model, q_init, markers: VirtualMarkerSet,
          settings: IkSettings = IkSettings(), *, anchored=False) -> IkResult:
    """Fit the pose to the weighted markers, warm-started at ``q_init``.

    ``q_init`` is a pose or an earlier ``IkResult``; one of the same
    ``model`` object starts the solve from its final FK pass, any other is
    read for its ``q``.  With ``anchored`` the objective also holds the
    pose to ``q_init`` (see the module docstring); ``residual`` is always
    the marker-fit objective.  The accepted-step objective sequence is
    non-increasing; with all weights zero the warm start is returned
    untouched with ``no_evidence`` set.  The solve stops at
    ``settings.max_iterations``, at a marker fit of at most
    ``residual_tol``, when the damping is exhausted or the next trial's
    predicted decrease of the objective obj is at most ``DECREASE_EPS`` *
    eps * obj (both converged, before that trial's FK pass), or once the
    keypoints have converged: an accepted step after the first whose
    largest keypoint coordinate move m (mm) is below the previous accepted
    step's m_prev, with m^2 <= ``KEYPOINT_TAIL_MM`` * (m_prev - m).  A
    rejected trial leaves m_prev as it is.  Each pose tried gets one FK
    pass over every keypoint the model maps, which also gives its Jacobian:
    the residual uses the rows with weight > 0, and an accepted trial's
    pass serves the next iteration and the result.  A marker with weight >
    0 on a keypoint the model does not map raises SkeletonError.
    """
    if isinstance(q_init, IkResult) and q_init.model is model:
        q, positions, jac = q_init.q, q_init.positions, q_init.jacobians
    else:
        q = sk.check_pose(model, getattr(q_init, "q", q_init)).copy()
        positions, jac = sk.fk_and_jacobians(model, q)
    q_warm = q
    weights = markers.weights[model.keypoint_rows]
    rows = np.flatnonzero(weights > 0.0)
    if rows.size < np.count_nonzero(markers.weights > 0.0):
        unmapped = [lb for lb, w in zip(KEYPOINTS, markers.weights)
                    if w > 0.0 and lb not in model.keypoints]
        raise sk.SkeletonError("markers with weight > 0 on keypoints the "
                               "model does not map: " + ", ".join(unmapped))
    if not rows.size:
        return IkResult(q=q, residual=0.0, converged=False, no_evidence=True,
                        positions=positions, jacobians=jac, model=model)
    # A basic slice is a view: with every row observed nothing is copied.
    sel = slice(None) if rows.size == len(weights) else rows
    observed = markers.positions[model.keypoint_rows[rows]]
    sqrt_w = np.sqrt(weights[rows])[:, None]
    scale = np.where(model.dof_rotational, 1.0, TRANSLATION_SCALE)
    # sqrt(W) and the dof scaling in one factor of the (n, 3, D) Jacobian.
    jac_scale = sqrt_w[:, :, None] * scale
    n_dof = model.total_dof

    def residual(positions):
        return (sqrt_w * (observed - positions[sel])).ravel()

    lam = LAMBDA0
    # The marker fit equals 0.5 * |r|^2 for the sqrt-weighted residual stack;
    # obj adds the anchor term, which is 0 at the warm start.
    r = residual(positions)
    fit = obj = 0.5 * float(r @ r)
    rho = 0.0
    # No accepted step yet: the first one cannot stop on the tail rule.
    move_prev = 0.0
    converged = False
    for iterations in range(1, settings.max_iterations + 1):
        if fit <= settings.residual_tol:
            converged = True
            break
        Js = (jac[sel] * jac_scale).reshape(r.size, n_dof)
        H = Js.T @ Js
        g = Js.T @ r
        diagonal = H.ravel()[::n_dof + 1]     # a view: H's diagonal in place
        if anchored:
            if iterations == 1:
                rho = ANCHOR * float(np.trace(H)) / n_dof
            diagonal += rho
            g -= rho * (q - q_warm) / scale
        # A non-finite Jacobian entry makes its column's diagonal entry of H,
        # a sum of squares, non-finite; a non-finite residual makes g so.
        trace = float(np.trace(H))
        if not (math.isfinite(trace) and np.isfinite(g).all()):
            raise FloatingPointError("non-finite IK residual or jacobian")
        # Damping proportional to the mean curvature makes the iterates
        # invariant to a uniform rescaling of all marker weights.
        mu = max(trace / n_dof, 1e-30)
        undamped = diagonal.copy()
        floor = DECREASE_EPS * sys.float_info.epsilon * obj
        accepted = False
        while lam <= 1e12:
            np.add(undamped, lam * mu, out=diagonal)
            try:
                delta_u = np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                lam *= LAMBDA_UP
                continue
            # The quadratic model's decrease g.d - d.H.d / 2 for the damped
            # step d (H undamped) is (g.d + lam mu d.d) / 2.  It only falls
            # as lam grows, so below the floor no trial is left.
            if 0.5 * float(g @ delta_u + lam * mu * (delta_u @ delta_u)) \
                    <= floor:
                break
            q_new = q + scale * delta_u
            positions_new, jac_new = sk.fk_and_jacobians(model, q_new)
            r_new = residual(positions_new)
            fit_new = obj_new = 0.5 * float(r_new @ r_new)
            if rho:
                d = (q_new - q_warm) / scale
                obj_new = fit_new + 0.5 * rho * float(d @ d)
            if math.isfinite(obj_new) and obj_new < obj:
                move = float(np.abs(positions_new - positions).max())
                # Moves shrinking by move / move_prev per step leave a tail
                # of move^2 / (move_prev - move) (Aitken's delta-squared).
                if move < move_prev and (
                        move * move <= KEYPOINT_TAIL_MM * (move_prev - move)):
                    converged = True
                move_prev = move
                q, fit, obj, r = q_new, fit_new, obj_new, r_new
                positions, jac = positions_new, jac_new
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
                    iterations=iterations, positions=positions,
                    jacobians=jac, model=model)
