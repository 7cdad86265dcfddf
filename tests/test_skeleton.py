import math

import numpy as np
import numpy.testing as npt
import pytest

from mocapfuse import skeleton as sk
from mocapfuse.labels import KEYPOINTS
from test_ik import planar_two_link


def zero_pose(model):
    return np.zeros(model.total_dof)


def root_translation(model):
    """Pose indices of the root's tx, ty, tz."""
    return model.dofs_of(model.joints[0].name)[:3]


def skew(v):
    return np.cross(np.eye(3), v)


class TestRotationHelpers:
    def test_exp_so3_quarter_turn_about_z(self):
        R = sk.exp_so3(np.array([0.0, 0.0, math.pi / 2]))
        npt.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_exp_so3_small_angle_series(self):
        w = np.array([1e-12, -2e-12, 1e-12])
        npt.assert_allclose(sk.exp_so3(w), np.eye(3) + skew(w), atol=1e-15)

    def test_exp_so3_orthonormal(self, rng):
        for _ in range(50):
            R = sk.exp_so3(rng.normal(0, 2, 3))
            npt.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) > 0

    def test_left_jacobian_matches_finite_differences(self, rng):
        eps = 1e-7
        for _ in range(20):
            w = rng.normal(0, 1.5, 3)
            J = sk.left_jacobian_so3(w)
            # d(exp(w) v)/dw = -skew(exp(w) v) J_l(w) for any v; compare on axes
            for k in range(3):
                dw = np.zeros(3)
                dw[k] = eps
                for v in np.eye(3):
                    num = (sk.exp_so3(w + dw) @ v - sk.exp_so3(w - dw) @ v) / (2 * eps)
                    ana = -skew(sk.exp_so3(w) @ v) @ J[:, k]
                    npt.assert_allclose(num, ana, atol=1e-6)


class TestReferencePose:
    def test_zero_pose_reference_positions(self):
        model = sk.human_skeleton()
        fk = sk.forward_kinematics(model, zero_pose(model))
        npt.assert_allclose(fk["pelvis"], [0, 0, 0], atol=1e-12)
        npt.assert_allclose(fk["waist"], [0, 0, 150], atol=1e-12)
        npt.assert_allclose(fk["chest"], [0, 0, 330], atol=1e-12)
        npt.assert_allclose(fk["neck"], [0, 0, 500], atol=1e-12)
        npt.assert_allclose(fk["head"], [0, 0, 620], atol=1e-12)
        npt.assert_allclose(fk["r_shoulder"], [180, 0, 500], atol=1e-12)
        npt.assert_allclose(fk["r_elbow"], [480, 0, 500], atol=1e-12)
        npt.assert_allclose(fk["r_wrist"], [730, 0, 500], atol=1e-12)
        npt.assert_allclose(fk["l_wrist"], [-730, 0, 500], atol=1e-12)
        npt.assert_allclose(fk["r_hip"], [100, 0, 0], atol=1e-12)
        npt.assert_allclose(fk["r_knee"], [100, 0, -420], atol=1e-12)
        npt.assert_allclose(fk["r_ankle"], [100, 0, -820], atol=1e-12)
        npt.assert_allclose(fk["l_ankle"], [-100, 0, -820], atol=1e-12)

    def test_covers_all_keypoints(self):
        model = sk.human_skeleton()
        fk = sk.forward_kinematics(model, zero_pose(model))
        for label in KEYPOINTS:
            assert label in fk

    def test_root_translation_equivariance(self, rng):
        model = sk.human_skeleton()
        q = rng.normal(0, 0.3, model.total_dof)
        q[root_translation(model)] = 0.0
        shift = np.array([100.0, -40.0, 25.0])
        q_shifted = q.copy()
        q_shifted[root_translation(model)] = shift
        a = sk.forward_kinematics(model, q)
        b = sk.forward_kinematics(model, q_shifted)
        for label in a:
            npt.assert_allclose(b[label], a[label] + shift, atol=1e-9)

    def test_elbow_bend_quarter_turn(self):
        model = sk.human_skeleton()
        q = zero_pose(model)
        q[model.dofs_of("r_elbow")] = math.pi / 2   # r_elbow rz
        fk = sk.forward_kinematics(model, q)
        # Forearm (250 mm along +x) rotates to +y about the elbow's z axis.
        npt.assert_allclose(fk["r_wrist"], [480, 250, 500], atol=1e-9)


class TestForwardKinematicsProperties:
    def test_purity_bit_identical(self, rng):
        model = sk.human_skeleton()
        q = rng.normal(0, 0.5, model.total_dof)
        a = sk.forward_kinematics(model, q)
        b = sk.forward_kinematics(model, q)
        for label in a:
            npt.assert_array_equal(a[label], b[label])

    def test_link_length_preservation(self, rng):
        model = sk.human_skeleton()
        for _ in range(30):
            q = rng.normal(0, 1.0, model.total_dof)
            q[root_translation(model)] = rng.normal(0, 500, 3)
            fk = sk.forward_kinematics(model, q)
            for joint in model.joints:
                if joint.parent < 0:
                    continue
                parent = model.joints[joint.parent].name
                d = np.linalg.norm(fk[joint.name] - fk[parent])
                assert abs(d - joint.length) <= 1e-9 * max(1.0, joint.length)

    def test_bad_pose_length(self):
        model = sk.human_skeleton()
        with pytest.raises(sk.SkeletonError):
            sk.forward_kinematics(model, np.zeros(model.total_dof - 1))

    def test_non_finite_pose(self):
        model = sk.human_skeleton()
        q = zero_pose(model)
        q[model.dofs_of("pelvis")[-1]] = np.inf
        with pytest.raises(sk.SkeletonError):
            sk.forward_kinematics(model, q)


def fd_jacobians(model, q, targets, eps=1e-6):
    J = np.zeros((len(targets), 3, model.total_dof))
    for i in range(model.total_dof):
        qp, qm = q.copy(), q.copy()
        qp[i] += eps
        qm[i] -= eps
        fp = sk.forward_kinematics(model, qp)
        fm = sk.forward_kinematics(model, qm)
        for k, t in enumerate(targets):
            J[k, :, i] = (fp[t] - fm[t]) / (2 * eps)
    return J


def fd_jacobian(model, q, target):
    return fd_jacobians(model, q, [target])[0]


def jacobian(model, q, target):
    _, jac = sk.fk_and_jacobians(model, q, [target])
    assert jac.shape == (1, 3, model.total_dof)
    return jac[0]


class TestJacobian:
    def test_root_translation_columns_identity(self, rng):
        model = sk.human_skeleton()
        q = rng.normal(0, 0.4, model.total_dof)
        for target in ("r_wrist", "l_ankle", "nose", "head"):
            J = jacobian(model, q, target)
            npt.assert_allclose(J[:, root_translation(model)], np.eye(3),
                                atol=1e-12)

    def test_off_chain_column_zero(self):
        model = sk.human_skeleton()
        q = zero_pose(model)
        J = jacobian(model, q, "r_wrist")
        # l_elbow's dof is not on the root-to-r_wrist chain.
        npt.assert_array_equal(J[:, model.dofs_of("l_elbow")],
                               np.zeros((3, 1)))
        # Leg dofs neither.
        legs = [i for j in ("r_hip", "r_knee", "l_hip", "l_knee")
                for i in model.dofs_of(j)]
        assert len(legs) == 8
        npt.assert_array_equal(J[:, legs], np.zeros((3, len(legs))))

    def test_every_dof_moves_a_keypoint(self, rng):
        """No coordinate of the human model is invisible to the keypoints:
        every jacobian column is non-zero at random poses."""
        model = sk.human_skeleton()
        for _ in range(20):
            q = rng.normal(0, 0.8, model.total_dof)
            q[root_translation(model)] = rng.normal(0, 300, 3)
            _, jac = sk.fk_and_jacobians(model, q, KEYPOINTS)
            assert np.all(np.abs(jac).max(axis=(0, 1)) > 0)

    def test_unknown_target(self):
        model = sk.human_skeleton()
        with pytest.raises(sk.SkeletonError):
            sk.fk_and_jacobians(model, zero_pose(model), ["tail"])

    def test_matches_finite_differences_randomized(self, rng):
        model = sk.human_skeleton()
        targets = ("r_wrist", "l_ankle", "nose", "r_ear", "neck", "l_knee")
        for trial in range(100):
            q = rng.normal(0, 0.8, model.total_dof)
            q[root_translation(model)] = rng.normal(0, 300, 3)
            target = targets[trial % len(targets)]
            J = jacobian(model, q, target)
            J_fd = fd_jacobian(model, q, target)
            assert np.abs(J - J_fd).max() <= 1e-5

    def test_batched_helpers_match_single(self, rng):
        model = sk.human_skeleton()
        q = rng.normal(0, 0.5, model.total_dof)
        targets = ["r_wrist", "nose", "l_ankle"]
        fk_all = sk.forward_kinematics(model, q)
        pos, jac = sk.fk_and_jacobians(model, q, targets)
        only_pos = sk.keypoint_positions(model, q, targets)
        assert pos.shape == only_pos.shape == (len(targets), 3)
        for i, t in enumerate(targets):
            npt.assert_array_equal(pos[i], fk_all[t])
            npt.assert_array_equal(only_pos[i], fk_all[t])
            npt.assert_array_equal(jac[i], jacobian(model, q, t))


def planar_with_marker():
    """The two-link arm with a point riding on its second segment."""
    arm = planar_two_link()
    return sk.SkeletonModel(joints=arm.joints, keypoint_map={
        "tip": "tip", "marker": ("mid", np.array([40.0, 30.0, 0.0]))})


def saved_and_loaded(tmp_path):
    path = tmp_path / "skeleton.json"
    sk.save_skeleton(sk.scaled_human_skeleton(0.93), path)
    return sk.load_skeleton(path)


class TestTargetTable:
    """One call over every joint and keypoint of models built every way."""

    @pytest.mark.parametrize("build", [
        lambda tmp: sk.with_link_lengths(
            sk.human_skeleton(), {"r_elbow": 340.0, "l_knee": 380.0,
                                  "waist": 120.0}),
        lambda tmp: sk.with_keypoint_offsets(
            sk.human_skeleton(), {"nose": (10.0, 110.0, 20.0),
                                  "l_ear": (-60.0, -5.0, 45.0)}),
        saved_and_loaded,
        lambda tmp: planar_two_link(),
        lambda tmp: planar_with_marker(),
    ], ids=["link_lengths", "keypoint_offsets", "save_load", "planar",
            "planar_marker"])
    def test_all_targets_match_finite_differences(self, build, tmp_path, rng):
        model = build(tmp_path)
        targets = [j.name for j in model.joints] + list(model.keypoint_map)
        for _ in range(5):
            q = rng.normal(0, 0.8, model.total_dof)
            if model.joints[0].dofs[:3] == ("tx", "ty", "tz"):
                q[root_translation(model)] = rng.normal(0, 300, 3)
            pos, jac = sk.fk_and_jacobians(model, q, targets)
            assert jac.shape == (len(targets), 3, model.total_dof)
            fk = sk.forward_kinematics(model, q)
            npt.assert_array_equal(pos, [fk[t] for t in targets])
            assert np.abs(jac - fd_jacobians(model, q, targets)).max() <= 1e-5


class TestModelEdits:
    def test_with_link_lengths_identity(self, rng):
        model = sk.human_skeleton()
        same = sk.with_link_lengths(model, model.link_lengths())
        q = rng.normal(0, 0.4, model.total_dof)
        a, b = sk.forward_kinematics(model, q), sk.forward_kinematics(same, q)
        for label in a:
            npt.assert_array_equal(a[label], b[label])

    def test_double_one_link_moves_child_along_link(self):
        model = sk.human_skeleton()
        doubled = sk.with_link_lengths(model, {"r_elbow": 600.0})
        fk = sk.forward_kinematics(doubled, zero_pose(doubled))
        npt.assert_allclose(fk["r_elbow"], [780, 0, 500], atol=1e-12)

    def test_zero_length_rejected(self):
        model = sk.human_skeleton()
        with pytest.raises(sk.SkeletonError):
            sk.with_link_lengths(model, {"r_elbow": 0.0})

    def test_unknown_joint_rejected(self):
        model = sk.human_skeleton()
        with pytest.raises(sk.SkeletonError):
            sk.with_link_lengths(model, {"tail": 100.0})

    def test_keypoint_offsets_replaced(self):
        model = sk.human_skeleton()
        updated = sk.with_keypoint_offsets(model, {"nose": (0.0, 120.0, 10.0)})
        fk = sk.forward_kinematics(updated, zero_pose(updated))
        npt.assert_allclose(fk["nose"], [0, 120, 630], atol=1e-12)

    def test_offset_on_joint_keypoint_rejected(self):
        model = sk.human_skeleton()
        with pytest.raises(sk.SkeletonError):
            sk.with_keypoint_offsets(model, {"neck": (0, 0, 0)})

    def test_scaled_human_skeleton(self):
        model = sk.scaled_human_skeleton(1.1)
        fk = sk.forward_kinematics(model, zero_pose(model))
        npt.assert_allclose(fk["neck"], [0, 0, 550], atol=1e-9)
        npt.assert_allclose(fk["r_wrist"], [803, 0, 550], atol=1e-9)


class TestTopologyInvariants:
    def test_total_dof_is_34(self):
        assert sk.human_skeleton().total_dof == 34

    def test_parents_first_required(self):
        with pytest.raises(sk.SkeletonError):
            sk.SkeletonModel(joints=(
                sk.Joint("a", 1, (0, 0, 1), 1.0, ("rz",)),
                sk.Joint("b", -1, (0, 0, 1), 0.0, ()),
            ), keypoint_map={})

    def test_duplicate_names_rejected(self):
        with pytest.raises(sk.SkeletonError):
            sk.SkeletonModel(joints=(
                sk.Joint("a", -1, (0, 0, 1), 0.0, ()),
                sk.Joint("a", 0, (0, 0, 1), 1.0, ()),
            ), keypoint_map={})

    def test_keypoint_map_unknown_joint(self):
        with pytest.raises(sk.SkeletonError):
            sk.SkeletonModel(joints=(sk.Joint("a", -1, (0, 0, 1), 0.0, ()),),
                             keypoint_map={"nose": "missing"})


class TestSkeletonIO:
    def test_round_trip_preserves_fk(self, tmp_path, rng):
        model = sk.scaled_human_skeleton(0.93)
        path = tmp_path / "skeleton.json"
        sk.save_skeleton(model, path)
        loaded = sk.load_skeleton(path)
        q = rng.normal(0, 0.5, model.total_dof)
        a, b = sk.forward_kinematics(model, q), sk.forward_kinematics(loaded, q)
        for label in a:
            npt.assert_array_equal(a[label], b[label])
        assert loaded.total_dof == model.total_dof
