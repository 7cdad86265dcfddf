import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from conftest import small_scene
from helpers import DictProvider, marker_set, objective
from mocapfuse import ik, pcm, pipeline, skeleton as sk, synth
from mocapfuse.labels import KEYPOINT_INDEX, KEYPOINTS
from mocapfuse.smooth import FilterSpec
from mocapfuse.tracker import LatticeConfig, VirtualMarkerSet


def planar_two_link(l1=300.0, l2=250.0):
    joints = (
        sk.Joint("base", -1, (0, 0, 1), 0.0, ("rz",)),
        sk.Joint("mid", 0, (1, 0, 0), l1, ("rz",)),
        sk.Joint("tip", 1, (1, 0, 0), l2, ()),
    )
    return sk.SkeletonModel(joints=joints, keypoint_map={"r_wrist": "tip"})


def planar_analytic(target, l1=300.0, l2=250.0):
    """Both elbow-up/down closed-form solutions for the 2-link arm."""
    x, y = target[0], target[1]
    d2 = x * x + y * y
    c1 = (d2 - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    c1 = min(1.0, max(-1.0, c1))
    sols = []
    for q1 in (math.acos(c1), -math.acos(c1)):
        q0 = math.atan2(y, x) - math.atan2(l2 * math.sin(q1),
                                           l1 + l2 * math.cos(q1))
        sols.append((q0, q1))
    return sols


def wrap(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def tight_settings(**kw):
    base = dict(max_iterations=300, residual_tol=1e-18)
    base.update(kw)
    return ik.IkSettings(**base)


class TestSettings:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ik.IkSettings(max_iterations=0)
        with pytest.raises(ValueError):
            ik.IkSettings(residual_tol=0.0)
        with pytest.raises(ValueError):
            ik.IkSettings(residual_tol=-1.0)
        for bad in ({"residual_tol": math.nan}, {"residual_tol": math.inf},
                    {"max_iterations": 50.0}, {"max_iterations": True}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                ik.IkSettings(**bad)


class TestObjective:
    def test_zero_at_exact_markers(self, rng):
        model = sk.human_skeleton()
        q = rng.normal(0, 0.3, model.total_dof)
        fk = sk.forward_kinematics(model, q)
        markers = marker_set(positions={lb: fk[lb] for lb in ("neck", "r_wrist")},
                             weights={"neck": 1.0, "r_wrist": 2.0})
        assert objective(model, q, markers) == 0.0

    def test_single_offset_marker_arithmetic(self):
        model = sk.human_skeleton()
        q = np.zeros(model.total_dof)
        fk = sk.forward_kinematics(model, q)
        markers = marker_set(
            positions={"r_wrist": fk["r_wrist"] + np.array([10.0, 0.0, 0.0])},
            weights={"r_wrist": 2.0})
        assert objective(model, q, markers) == pytest.approx(100.0)

    def test_uniform_weight_scaling_scales_objective(self, rng):
        model = sk.human_skeleton()
        q = rng.normal(0, 0.2, model.total_dof)
        fk = sk.forward_kinematics(model, np.zeros(model.total_dof))
        markers = marker_set(positions={lb: fk[lb] for lb in ("neck", "nose")},
                             weights={"neck": 1.0, "nose": 0.5})
        scaled = VirtualMarkerSet(positions=markers.positions,
                                  weights=3.0 * markers.weights)
        a = objective(model, q, markers)
        b = objective(model, q, scaled)
        assert b == pytest.approx(3.0 * a, rel=1e-12)


class TestSolve:
    def test_exact_markers_keep_pose(self, rng):
        model = sk.human_skeleton()
        q0 = rng.normal(0, 0.2, model.total_dof)
        fk = sk.forward_kinematics(model, q0)
        markers = marker_set(
            positions={lb: fk[lb] for lb in ("neck", "r_wrist", "l_ankle")},
            weights={"neck": 1.0, "r_wrist": 0.5, "l_ankle": 2.0})
        result = ik.solve(model, q0, markers)
        npt.assert_allclose(result.q, q0, atol=1e-9)
        assert result.residual <= 1e-4
        assert result.converged

    def test_planar_two_link_matches_analytic(self, rng):
        model = planar_two_link()
        for _ in range(30):
            r = rng.uniform(120.0, 520.0)
            phi = rng.uniform(-math.pi, math.pi)
            target = np.array([r * math.cos(phi), r * math.sin(phi), 0.0])
            markers = marker_set(positions={"r_wrist": target},
                                 weights={"r_wrist": 1.0})
            q_init = rng.normal(0, 0.2, 2)
            result = ik.solve(model, q_init, markers, tight_settings())
            best = min(
                max(abs(wrap(result.q[0] - q0)), abs(wrap(result.q[1] - q1)))
                for q0, q1 in planar_analytic(target))
            assert best <= 1e-6

    def test_zero_weight_marker_is_ignored(self, rng):
        model = sk.human_skeleton()
        fk = sk.forward_kinematics(model, np.zeros(model.total_dof))
        target = fk["r_wrist"] + np.array([40.0, 10.0, -20.0])
        for junk in (fk["l_wrist"], fk["l_wrist"] + 500.0):
            markers = marker_set(
                positions={"r_wrist": target, "l_wrist": junk},
                weights={"r_wrist": 1.0, "l_wrist": 0.0})
            result = ik.solve(model, np.zeros(model.total_dof), markers)
            if junk is fk["l_wrist"]:
                q_ref = result.q
        npt.assert_array_equal(result.q, q_ref)

    def test_all_zero_weights_flag_no_evidence(self):
        model = sk.human_skeleton()
        q0 = np.full(model.total_dof, 0.1)
        markers = marker_set(positions={"neck": np.zeros(3)},
                             weights={"neck": 0.0})
        result = ik.solve(model, q0, markers)
        assert result.no_evidence and not result.converged
        npt.assert_array_equal(result.q, q0)

    def test_objective_never_increases(self, rng):
        model = sk.human_skeleton()
        q_true = rng.normal(0, 0.4, model.total_dof)
        fk = sk.forward_kinematics(model, q_true)
        labels = ("neck", "r_wrist", "l_wrist", "r_ankle", "l_ankle", "nose")
        markers = marker_set(
            positions={lb: fk[lb] for lb in labels},
            weights={lb: 1.0 for lb in labels})
        objs = [objective(model, np.zeros(model.total_dof), markers)]
        for n in range(1, ik.IkSettings().max_iterations + 1):
            objs.append(ik.solve(model, np.zeros(model.total_dof), markers,
                                 ik.IkSettings(max_iterations=n)).residual)
        assert objs[-1] < objs[0]
        assert all(b <= a for a, b in zip(objs, objs[1:]))

    def test_weight_rescale_argmin_invariance(self, rng):
        model = planar_two_link()
        for anchored, c in itertools.product((False, True), (0.1, 7.3)):
            for _ in range(10):
                r = rng.uniform(150.0, 500.0)
                phi = rng.uniform(-math.pi, math.pi)
                target = np.array([r * math.cos(phi), r * math.sin(phi), 0.0])
                q_init = rng.normal(0, 0.1, 2)
                a = ik.solve(model, q_init,
                             marker_set(positions={"r_wrist": target},
                                        weights={"r_wrist": 1.0}),
                             tight_settings(), anchored=anchored)
                b = ik.solve(model, q_init,
                             marker_set(positions={"r_wrist": target},
                                        weights={"r_wrist": c}),
                             tight_settings(), anchored=anchored)
                npt.assert_allclose(a.q, b.q, atol=1e-8)

    def test_full_skeleton_marker_fit(self, rng):
        model = sk.human_skeleton()
        q_true = rng.normal(0, 0.3, model.total_dof)
        q_true[model.dofs_of("pelvis")[:3]] = [50.0, -30.0, 1000.0]
        fk = sk.forward_kinematics(model, q_true)
        labels = [lb for lb in fk if lb in model.keypoint_map]
        markers = marker_set(positions={lb: fk[lb] for lb in labels},
                             weights={lb: 1.0 for lb in labels})
        q_init = q_true + rng.normal(0, 0.05, model.total_dof)
        result = ik.solve(model, q_init, markers, tight_settings())
        out = sk.forward_kinematics(model, result.q)
        for lb in labels:
            assert np.linalg.norm(out[lb] - fk[lb]) < 1e-3

    def test_non_finite_marker_rejected(self):
        model = sk.human_skeleton()
        markers = marker_set(
            positions={"neck": np.array([np.nan, 0.0, 0.0])},
            weights={"neck": 1.0})
        with pytest.raises(FloatingPointError):
            ik.solve(model, np.zeros(model.total_dof), markers)


class TestGradient:
    def test_analytic_gradient_matches_finite_differences(self, rng):
        model = sk.human_skeleton()
        eps = 1e-6
        for _ in range(10):
            q = rng.normal(0, 0.4, model.total_dof)
            labels = ("neck", "r_wrist", "l_ankle", "nose")
            fk = sk.forward_kinematics(model, q)
            markers = marker_set(
                positions={lb: fk[lb] + rng.normal(0, 30.0, 3) for lb in labels},
                weights={lb: rng.uniform(0.2, 2.0) for lb in labels})
            pos, jac = sk.fk_and_jacobians(model, q)
            grad = np.zeros(model.total_dof)
            for lb in labels:
                i, row = model.keypoints.index(lb), KEYPOINT_INDEX[lb]
                e = markers.positions[row] - pos[i]
                grad -= markers.weights[row] * (jac[i].T @ e)
            fd = np.zeros(model.total_dof)
            for i in range(model.total_dof):
                qp, qm = q.copy(), q.copy()
                qp[i] += eps
                qm[i] -= eps
                fd[i] = (objective(model, qp, markers)
                         - objective(model, qm, markers)) / (2 * eps)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(grad - fd).max() / scale <= 1e-5


class TestAnchoredSolve:
    LABELS = ("neck", "r_wrist", "l_wrist", "r_ankle", "l_ankle", "nose")
    ROWS = [KEYPOINT_INDEX[lb] for lb in LABELS]

    def weak_fit(self, rng):
        """Six markers on a 34-dof body: several dofs are barely observed.
        Returns the model, the markers and the pose they were taken at."""
        model = sk.human_skeleton()
        q_true = rng.normal(0, 0.4, model.total_dof)
        fk = sk.forward_kinematics(model, q_true)
        markers = marker_set(
            positions={lb: fk[lb] + rng.normal(0, 5.0, 3)
                       for lb in self.LABELS},
            weights={lb: rng.uniform(0.5, 2.0) for lb in self.LABELS})
        return model, markers, q_true

    def anchor_weight(self, model, q_warm, markers):
        """rho = ANCHOR * trace(H) / n of the Gauss-Newton matrix at the warm
        start, in the scaled coordinates q / scale."""
        scale = np.where(model.dof_rotational, 1.0, ik.TRANSLATION_SCALE)
        _, jac = sk.fk_and_jacobians(model, q_warm)
        jac = jac[[model.keypoints.index(lb) for lb in self.LABELS]]
        w = markers.weights[self.ROWS]
        trace_h = float(np.sum(w[:, None, None] * (jac * scale) ** 2))
        return ik.ANCHOR * trace_h / model.total_dof, scale

    def anchored_objective(self, model, q_warm, markers):
        """The marker fit plus rho/2 * |(q - q_warm) / scale|^2."""
        rho, scale = self.anchor_weight(model, q_warm, markers)

        def total(q):
            d = (q - q_warm) / scale
            return objective(model, q, markers) + 0.5 * rho * float(d @ d)
        return total

    def test_anchored_objective_never_increases(self, rng):
        model, markers, _ = self.weak_fit(rng)
        q0 = np.zeros(model.total_dof)
        total = self.anchored_objective(model, q0, markers)
        objs = [total(q0)]
        for n in range(1, ik.IkSettings().max_iterations + 1):
            result = ik.solve(model, q0, markers,
                              ik.IkSettings(max_iterations=n), anchored=True)
            objs.append(total(result.q))
        assert objs[-1] < objs[0]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(objs, objs[1:]))

    def test_stops_where_the_anchored_gradient_vanishes(self, rng):
        for _ in range(5):
            model, markers, q_true = self.weak_fit(rng)
            q_warm = q_true + rng.normal(0, 0.05, model.total_dof)
            rho, scale = self.anchor_weight(model, q_warm, markers)
            observed = markers.positions[self.ROWS]
            w = markers.weights[self.ROWS]
            fitted = [model.keypoints.index(lb) for lb in self.LABELS]

            def gradient(q):
                """Of the anchored objective, in scaled coordinates."""
                positions, jac = sk.fk_and_jacobians(model, q)
                positions, jac = positions[fitted], jac[fitted]
                e = observed - positions
                fit = -np.einsum("n,nk,nkd->d", w, e, jac) * scale
                return fit + rho * (q - q_warm) / scale

            result = ik.solve(model, q_warm, markers, anchored=True)
            assert result.converged
            assert (np.linalg.norm(gradient(result.q))
                    < 1e-7 * np.linalg.norm(gradient(q_warm)))

    def test_residual_is_the_marker_fit(self, rng):
        model, markers, _ = self.weak_fit(rng)
        q0 = np.zeros(model.total_dof)
        result = ik.solve(model, q0, markers, anchored=True)
        assert result.residual == pytest.approx(
            objective(model, result.q, markers), rel=1e-12)
        # The anchor holds the pose back: it is not the unanchored fit.
        free = ik.solve(model, q0, markers)
        assert np.abs(result.q - free.q).max() > 1e-6


class TestKeypointTail:
    """The stop of every solve: a geometric tail of at most
    ``ik.KEYPOINT_TAIL_MM`` of the keypoints' coordinate moves."""

    def test_restart_moves_no_observed_keypoint(self, rng):
        """Restarting an unanchored weak fit from its own result moves no
        marked keypoint coordinate by more than 10 tails.  (The unmarked
        ones lie along the fit's flat valleys, where any step may move
        them; an anchored solve holds them.)"""
        weak = TestAnchoredSolve()
        restarted = 0
        for _ in range(40):
            model, markers, q_true = weak.weak_fit(rng)
            q0 = q_true + rng.normal(0, 0.05, model.total_dof)
            result = ik.solve(model, q0, markers)
            if not result.converged:    # stopped at the iteration cap
                continue
            again = ik.solve(model, result, markers)
            marked = [model.keypoints.index(lb) for lb in weak.LABELS]
            moved = np.abs(again.positions - result.positions)[marked]
            assert moved.max() <= 10 * ik.KEYPOINT_TAIL_MM
            restarted += 1
        assert restarted >= 20

    def test_moves_that_do_not_shrink_never_stop_on_the_tail(
            self, rng, monkeypatch):
        """An unweighted keypoint that the patched FK carries 1 mm further
        on every pass moves at least 1 mm in every accepted step, so the
        solve runs as it does with the tail rule off; without the drift the
        rule stops the same fit sooner."""
        model = sk.human_skeleton()
        q_true = rng.normal(0, 0.4, model.total_dof)
        fk = sk.forward_kinematics(model, q_true)
        drifting = "nose"
        markers = marker_set(
            positions={lb: fk[lb] + rng.normal(0, 5.0, 3)
                       for lb in model.keypoints},
            weights={lb: 0.0 if lb == drifting else rng.uniform(0.5, 2.0)
                     for lb in model.keypoints})
        q0 = q_true + rng.normal(0, 0.05, model.total_dof)
        plain = ik.solve(model, q0, markers)
        fk_and_jacobians = sk.fk_and_jacobians
        row = model.keypoints.index(drifting)

        def solve_drifting():
            passes = itertools.count()

            def drifted(model, q):
                positions, jac = fk_and_jacobians(model, q)
                positions = positions.copy()
                positions[row] += next(passes)
                return positions, jac
            monkeypatch.setattr(sk, "fk_and_jacobians", drifted)
            return ik.solve(model, q0, markers)

        drift = solve_drifting()
        monkeypatch.setattr(ik, "KEYPOINT_TAIL_MM", 0.0)
        no_tail = solve_drifting()
        assert drift.q.tobytes() == no_tail.q.tobytes()
        assert drift.iterations == no_tail.iterations
        assert plain.converged and plain.iterations < drift.iterations


def count_fk_passes(monkeypatch):
    """A one-item list that counts ``sk.fk_and_jacobians`` calls."""
    passes = [0]
    fk_and_jacobians = sk.fk_and_jacobians

    def counted(*args, **kwargs):
        passes[0] += 1
        return fk_and_jacobians(*args, **kwargs)

    monkeypatch.setattr(sk, "fk_and_jacobians", counted)
    return passes


class TestPredictedDecrease:
    """No trial is made once the LM model predicts a decrease of at most
    ``ik.DECREASE_EPS`` * eps * obj."""

    def test_restart_at_the_minimum_makes_no_fk_pass(self, rng, monkeypatch):
        """A noisy fit run to its minimum (no tail rule, tight tolerances)
        and restarted from its own result, unanchored or anchored, makes no
        FK pass and returns the same pose, three times over."""
        model = sk.human_skeleton()
        q_true = rng.normal(0, 0.4, model.total_dof)
        fk = sk.forward_kinematics(model, q_true)
        markers = marker_set(
            positions={lb: fk[lb] + rng.normal(0, 10.0, 3)
                       for lb in model.keypoints},
            weights={lb: rng.uniform(0.5, 1.0) for lb in model.keypoints})
        assert np.count_nonzero(markers.weights) == 18
        q0 = q_true + rng.normal(0, 0.05, model.total_dof)
        monkeypatch.setattr(ik, "KEYPOINT_TAIL_MM", 0.0)
        minimum = ik.solve(model, q0, markers, tight_settings())
        monkeypatch.undo()
        assert minimum.converged
        passes = count_fk_passes(monkeypatch)
        for anchored in (False, True):
            result = minimum
            for _ in range(3):
                passes[0] = 0
                result = ik.solve(model, result, markers, anchored=anchored)
                assert passes[0] == 0, anchored
                assert result.q.tobytes() == minimum.q.tobytes()
                assert result.converged and result.iterations == 1

    def test_initialize_on_noise_free_hold_frames(self, monkeypatch):
        """The hold frames of a noise-free scene triangulate to the same
        points, so every agreement fit after the first few starts at its
        minimum.  Without this stop, ``initialize`` made 120 FK passes
        here, 112 of them in the 7 fits that started at their minimum and
        exhausted the damping (16 each): 8 are left."""
        spec = small_scene(motion=synth.handstand_like())
        rig = synth.build_rig(spec)
        passes = count_fk_passes(monkeypatch)
        pipeline.initialize(synth.SyntheticProvider(spec, rig), rig,
                            sk.human_skeleton(), pipeline.PipelineConfig())
        assert passes[0] <= 120 - 7 * 16


class TestTrackingCounts:
    """The tracking work per frame, barred as ``initialize``'s is above, so
    that a solve that takes more LM iterations or FK passes fails here
    without a benchmark run.  The counts repeat exactly; the bars leave
    about 8 % for another platform's last-bit rounding."""

    @pytest.mark.parametrize("scene, config, frames, bar", [
        (lambda: small_scene(motion=synth.walk_like(), noise=synth.NoiseModel(
            jitter_px=1.0, amplitude_std=0.1)),
         pipeline.PipelineConfig, range(30, 50), 11.0),
        (lambda: small_scene(motion=synth.handstand_like(period_s=4.0),
                             tilt_bias=synth.TiltBias(enabled=True,
                                                      jitter_px=10.0)),
         lambda: pipeline.PipelineConfig(
             lattice=LatticeConfig(s=15.0, rotation_enabled=True),
             filter=FilterSpec(cutoff_hz=10.0, sample_rate_hz=60.0)),
         range(110, 140), 7.5)], ids=["walk", "handstand"])
    def test_lm_iterations_and_fk_passes_per_frame(self, monkeypatch, scene,
                                                   config, frames, bar):
        """Both stages of a causal track: 10.15 LM iterations and as many
        FK passes per frame on the walk (seed 0), 7.00 on the handstand
        through its inversion."""
        spec = scene()
        rig = synth.build_rig(spec)
        model = synth.build_model(spec)
        pose0 = synth.ground_truth_pose(spec, frames[0] - 1, model)
        passes = count_fk_passes(monkeypatch)
        solve, results = ik.solve, []

        def recorded_solve(*args, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(ik, "solve", recorded_solve)
        pipeline.track(synth.SyntheticProvider(spec, rig), rig, model, pose0,
                       config(), frames)
        assert len(results) == 2 * len(frames)
        assert sum(r.iterations for r in results) / len(frames) <= bar
        assert passes[0] / len(frames) <= bar


class TestOneFkPassPerPose:
    def test_no_pose_is_computed_twice(self, rng, monkeypatch):
        """Every pose a solve tries gets one FK pass, which also gives its
        Jacobian: an accepted trial's pass serves the next iteration."""
        spec = synth.SceneSpec(motion=synth.walk_like())
        model = synth.build_model(spec)
        q_prev = synth.ground_truth_pose(spec, 39, model)
        truth = synth.ground_truth_keypoints(spec, 40, model)
        markers = VirtualMarkerSet(
            positions=truth + rng.normal(0.0, 10.0, truth.shape),
            weights=rng.uniform(0.5, 1.0, len(truth)))
        frames_fn, fk_and_jacobians = sk._frames, sk.fk_and_jacobians
        in_jacobian = [False]
        calls = []

        def recorded_frames(model, q):
            calls.append((np.array(q, dtype=float), in_jacobian[0]))
            return frames_fn(model, q)

        def flagged(*args, **kwargs):
            in_jacobian[0] = True
            try:
                return fk_and_jacobians(*args, **kwargs)
            finally:
                in_jacobian[0] = False

        monkeypatch.setattr(sk, "_frames", recorded_frames)
        monkeypatch.setattr(sk, "fk_and_jacobians", flagged)
        for anchored in (False, True):
            calls.clear()
            result = ik.solve(model, q_prev, markers, anchored=anchored)
            assert result.iterations > 2
            assert all(from_jacobian for _, from_jacobian in calls)
            poses = [q for q, _ in calls]
            for i, j in itertools.combinations(range(len(poses)), 2):
                assert not np.array_equal(poses[i], poses[j]), (anchored, i, j)

    def test_track_passes_each_pose_once(self, monkeypatch):
        """Across both stages of every frame of a track, each pose tried
        gets one FK pass: a solve starts from the previous solve's final
        pass, and the recorded keypoints come from the results.  Only
        ``pose0`` may be passed twice: once for the first lattice center,
        once to start the first solve."""
        spec = small_scene(motion=synth.walk_like())
        rig = synth.build_rig(spec)
        model = synth.build_model(spec)
        frames = range(30, 33)                   # past the held start
        renderer = synth.SyntheticProvider(spec, rig)
        provider = DictProvider({
            (c.id, f, pcm.quantize_rotation(0.0)): renderer.get(c.id, f)
            for c in rig.cameras for f in frames})
        pose0 = synth.ground_truth_pose(spec, frames[0] - 1, model)
        frames_fn, fk_and_jacobians = sk._frames, sk.fk_and_jacobians
        keypoint_positions, solve = sk.keypoint_positions, ik.solve
        poses, positions_calls, warm, trials = [], [], [], [0]

        def recorded_frames(model, q):
            poses.append(np.array(q, dtype=float))
            return frames_fn(model, q)

        def counted_fk_and_jacobians(model, q, *args, **kwargs):
            trials[0] += not np.array_equal(q, warm[-1])
            return fk_and_jacobians(model, q, *args, **kwargs)

        def counted_keypoint_positions(*args, **kwargs):
            positions_calls.append(len(poses))
            return keypoint_positions(*args, **kwargs)

        def solve_from(model, q_init, *args, **kwargs):
            warm.append(np.asarray(getattr(q_init, "q", q_init)))
            try:
                return solve(model, q_init, *args, **kwargs)
            finally:
                warm.pop()

        monkeypatch.setattr(sk, "_frames", recorded_frames)
        monkeypatch.setattr(sk, "fk_and_jacobians", counted_fk_and_jacobians)
        monkeypatch.setattr(sk, "keypoint_positions",
                            counted_keypoint_positions)
        monkeypatch.setattr(ik, "solve", solve_from)
        seq = pipeline.track(provider, rig, model, pose0,
                             pipeline.PipelineConfig(), frames)
        assert len(seq.frames) == len(frames)
        assert positions_calls == [0]
        starts = sum(np.array_equal(q, pose0) for q in poses)
        assert 1 <= starts <= 2
        assert trials[0] > 2 * len(frames)
        assert len(poses) == trials[0] + starts
        for i, j in itertools.combinations(range(len(poses)), 2):
            assert not np.array_equal(poses[i], poses[j]) or \
                np.array_equal(poses[i], pose0), (i, j)


class TestChainedSolves:
    """A solve started from an earlier ``IkResult`` of the same model object
    starts from that result's final FK pass; any other is read for its
    pose."""

    def walk_markers(self, rng, model, frame, zero_weights=0):
        spec = synth.SceneSpec(motion=synth.walk_like())
        truth = synth.ground_truth_keypoints(spec, frame, model)
        weights = rng.uniform(0.5, 1.0, len(truth))
        weights[rng.choice(len(truth), zero_weights, replace=False)] = 0.0
        return VirtualMarkerSet(
            positions=truth + rng.normal(0.0, 10.0, truth.shape),
            weights=weights)

    def assert_same_solve(self, a, b):
        assert a.q.tobytes() == b.q.tobytes()
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.jacobians.tobytes() == b.jacobians.tobytes()
        assert (a.residual, a.iterations, a.converged, a.no_evidence) == \
            (b.residual, b.iterations, b.converged, b.no_evidence)

    def test_human_result_start_equals_pose_start(self, rng):
        model = synth.build_model(synth.SceneSpec(motion=synth.walk_like()))
        q_prev = synth.ground_truth_pose(
            synth.SceneSpec(motion=synth.walk_like()), 39, model)
        for anchored, zeros in itertools.product((False, True), (0, 5)):
            first = ik.solve(model, q_prev,
                             self.walk_markers(rng, model, 40, zeros),
                             anchored=anchored)
            markers = self.walk_markers(rng, model, 41, zeros)
            chained = ik.solve(model, first, markers, anchored=anchored)
            assert chained.iterations > 1
            self.assert_same_solve(
                chained, ik.solve(model, first.q, markers, anchored=anchored))

    def test_planar_result_start_equals_pose_start(self, rng):
        model = planar_two_link()
        assert model.keypoints == ("r_wrist",)
        q = rng.normal(0, 0.2, 2)
        for anchored in (False, True):
            for _ in range(5):
                phi = rng.uniform(-math.pi, math.pi)
                markers = marker_set(
                    positions={"r_wrist": 400.0 * np.array(
                        [math.cos(phi), math.sin(phi), 0.0])},
                    weights={"r_wrist": 1.0})
                result = ik.solve(model, q, markers, anchored=anchored)
                chained = ik.solve(model, result, markers, anchored=anchored)
                self.assert_same_solve(
                    chained, ik.solve(model, result.q, markers,
                                      anchored=anchored))
                q = result
            assert result.positions.shape == (1, 3)
        neck = marker_set(positions={"neck": np.zeros(3)},
                          weights={"neck": 1.0})
        with pytest.raises(sk.SkeletonError, match="does not map: neck$"):
            ik.solve(model, q, neck)

    def test_other_model_result_is_not_reused(self, rng):
        model = sk.human_skeleton()
        other = sk.scaled_human_skeleton(0.8)
        markers = self.walk_markers(rng, model, 40)
        result = ik.solve(other, np.zeros(other.total_dof), markers)
        self.assert_same_solve(ik.solve(model, result, markers),
                               ik.solve(model, result.q, markers))
        nothing = VirtualMarkerSet(positions=markers.positions,
                                   weights=np.zeros(len(KEYPOINTS)))
        held = ik.solve(model, result, nothing)
        assert held.no_evidence
        assert held.positions.tobytes() == sk.keypoint_positions(
            model, result.q).tobytes()

    def test_positions_are_the_fk_of_q(self, rng):
        model = sk.human_skeleton()
        markers = self.walk_markers(rng, model, 40, zero_weights=3)
        start = rng.normal(0, 0.1, model.total_dof)
        nothing = VirtualMarkerSet(positions=markers.positions,
                                   weights=np.zeros(len(KEYPOINTS)))
        for result in (ik.solve(model, start, markers),
                       ik.solve(model, start, markers, anchored=True),
                       ik.solve(model, start, nothing)):
            assert result.positions.tobytes() == sk.keypoint_positions(
                model, result.q).tobytes()
            _, jac = sk.fk_and_jacobians(model, result.q)
            assert result.jacobians.tobytes() == jac.tobytes()

    def test_result_is_read_only(self, rng):
        model = sk.human_skeleton()
        markers = self.walk_markers(rng, model, 40)
        result = ik.solve(model, np.zeros(model.total_dof), markers)
        for array in (result.q, result.positions, result.jacobians):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        with pytest.raises(AttributeError):
            result.q = np.zeros(model.total_dof)
