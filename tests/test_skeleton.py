import decimal
import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from helpers import exp_so3, left_jacobian_so3, value_id
from mocapfuse import skeleton as sk
from mocapfuse.labels import KEYPOINTS
from test_cli import older_layout
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
        R = exp_so3(np.array([0.0, 0.0, math.pi / 2]))
        npt.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_exp_so3_small_angle_series(self):
        w = np.array([1e-12, -2e-12, 1e-12])
        npt.assert_allclose(exp_so3(w), np.eye(3) + skew(w), atol=1e-15)

    def test_exp_so3_orthonormal(self, rng):
        for _ in range(50):
            R = exp_so3(rng.normal(0, 2, 3))
            npt.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(R) > 0

    def test_left_jacobian_matches_finite_differences(self, rng):
        eps = 1e-7
        for _ in range(20):
            w = rng.normal(0, 1.5, 3)
            J = left_jacobian_so3(w)
            # d(exp(w) v)/dw = -skew(exp(w) v) J_l(w) for any v; compare on axes
            for k in range(3):
                dw = np.zeros(3)
                dw[k] = eps
                for v in np.eye(3):
                    num = (exp_so3(w + dw) @ v - exp_so3(w - dw) @ v) / (2 * eps)
                    ana = -skew(exp_so3(w) @ v) @ J[:, k]
                    npt.assert_allclose(num, ana, atol=1e-6)

    def test_coefficients_accurate_to_rounding(self):
        """(1 - cos t)/t^2 and (t - sin t)/t^3, from 1e-9 to pi and on both
        sides of the series switch, within 1e-14 of a 60-digit series."""
        decimal.getcontext().prec = 60
        fact = [decimal.Decimal(1)]
        for n in range(1, 80):
            fact.append(fact[-1] * n)

        def series(t2, first):      # sum (-1)^k t2^k / (2k + first)!
            return sum((-1) ** k * t2 ** k / fact[2 * k + first]
                       for k in range(35))

        grid = np.append(np.logspace(-9, math.log10(math.pi), 300),
                         np.nextafter(sk.SO3_SERIES_BELOW, [0.0, 4.0]))
        for t in grid:
            t2 = float(t) * float(t)
            exact = decimal.Decimal(t2)
            _, eb, ja, jb = sk._so3_coefficients(t2)
            for got, first in ((eb, 2), (ja, 2), (jb, 3)):
                want = series(exact, first)
                assert abs((decimal.Decimal(got) - want) / want) <= 1e-14, t


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


def fd_jacobians(model, q, labels, eps=1e-6):
    J = np.zeros((len(labels), 3, model.total_dof))
    for i in range(model.total_dof):
        qp, qm = q.copy(), q.copy()
        qp[i] += eps
        qm[i] -= eps
        fp = sk.forward_kinematics(model, qp)
        fm = sk.forward_kinematics(model, qm)
        for k, t in enumerate(labels):
            J[k, :, i] = (fp[t] - fm[t]) / (2 * eps)
    return J


def fd_jacobian(model, q, label):
    return fd_jacobians(model, q, [label])[0]


def jacobian(model, q, label):
    _, jac = sk.fk_and_jacobians(model, q)
    assert jac.shape == (len(model.keypoints), 3, model.total_dof)
    return jac[model.keypoints.index(label)]


class TestJacobian:
    def test_root_translation_columns_identity(self, rng):
        model = sk.human_skeleton()
        q = rng.normal(0, 0.4, model.total_dof)
        for label in ("r_wrist", "l_ankle", "nose", "r_ear"):
            J = jacobian(model, q, label)
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
            _, jac = sk.fk_and_jacobians(model, q)
            assert np.all(np.abs(jac).max(axis=(0, 1)) > 0)

    def test_matches_finite_differences_randomized(self, rng):
        model = sk.human_skeleton()
        labels = ("r_wrist", "l_ankle", "nose", "r_ear", "neck", "l_knee")
        for trial in range(100):
            q = rng.normal(0, 0.8, model.total_dof)
            q[root_translation(model)] = rng.normal(0, 300, 3)
            label = labels[trial % len(labels)]
            J = jacobian(model, q, label)
            J_fd = fd_jacobian(model, q, label)
            assert np.abs(J - J_fd).max() <= 1e-5

    def test_batched_helpers_match_single(self, rng):
        model = sk.human_skeleton()
        q = rng.normal(0, 0.5, model.total_dof)
        fk_all = sk.forward_kinematics(model, q)
        pos, jac = sk.fk_and_jacobians(model, q)
        only_pos = sk.keypoint_positions(model, q)
        assert model.keypoints == KEYPOINTS
        assert pos.shape == only_pos.shape == (len(KEYPOINTS), 3)
        assert jac.flags.c_contiguous and jac.flags.owndata
        for i, t in enumerate(KEYPOINTS):
            npt.assert_array_equal(pos[i], fk_all[t])
            npt.assert_array_equal(only_pos[i], fk_all[t])


def planar_with_marker():
    """The two-link arm with a point riding on its second segment."""
    arm = planar_two_link()
    return sk.SkeletonModel(joints=arm.joints, keypoint_map={
        "r_wrist": "tip", "r_elbow": ("mid", np.array([40.0, 30.0, 0.0]))})


def saved_and_loaded(tmp_path):
    path = tmp_path / "skeleton.json"
    sk.save_skeleton(sk.scaled_human_skeleton(0.93), path)
    return sk.load_skeleton(path)


# ---------------------------------------------------------------------------
# Reference kinematics: the per-joint numpy loop that the scalar kernel in
# ``skeleton._frames`` replaced, kept here as its oracle.

# Fixed before the kernel was written: the kernel composes the same
# products in another order, so the two agree to float64 rounding only.
POSITION_TOL_MM = 1e-9
UNIT_TOL = 1e-12

_REF_AXES = {t: np.eye(3)[k] for k, t in enumerate("xyz")}


def ref_axis_rotation(axis, angle):
    c, s = math.cos(angle), math.sin(angle)
    out = np.zeros((3, 3))
    if axis == "x":
        out[0, 0] = 1.0
        out[1, 1], out[1, 2], out[2, 1], out[2, 2] = c, -s, s, c
    elif axis == "y":
        out[1, 1] = 1.0
        out[0, 0], out[0, 2], out[2, 0], out[2, 2] = c, s, -s, c
    else:
        out[2, 2] = 1.0
        out[0, 0], out[0, 1], out[1, 0], out[1, 1] = c, -s, s, c
    return out


def ref_rodrigues(w, a, b):
    # I + a*[w]x + b*[w]x^2, entry by entry
    x, y, z = w
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    return np.array([[1.0 - b * (yy + zz), -a * z + b * xy, a * y + b * xz],
                     [a * z + b * xy, 1.0 - b * (xx + zz), -a * x + b * yz],
                     [-a * y + b * xz, a * x + b * yz, 1.0 - b * (xx + yy)]])


def ref_one_minus_cos(theta):
    # (1 - cos t)/t^2 as sinc(t/2)^2 / 2: the closed form loses about 4
    # digits to cancellation at t = 1e-6.
    return 0.5 * (math.sin(0.5 * theta) / (0.5 * theta)) ** 2


def ref_exp(w):
    t2 = float(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    theta = math.sqrt(t2)
    if theta < 1e-10:
        return ref_rodrigues(w, 1.0, 0.5)
    return ref_rodrigues(w, math.sin(theta) / theta, ref_one_minus_cos(theta))


def ref_left_jacobian(w):
    t2 = float(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])
    theta = math.sqrt(t2)
    if theta < 1e-6:
        return ref_rodrigues(w, 0.5, 1.0 / 6.0)
    return ref_rodrigues(w, ref_one_minus_cos(theta),
                         (theta - math.sin(theta)) / (t2 * theta))


def ref_frames(model, q):
    """pos (J, 3), rot (J, 3, 3), axes (D, 3), origins (D, 3)."""
    q = np.asarray(q, dtype=float)
    n = len(model.joints)
    pos, rot = np.zeros((n, 3)), np.zeros((n, 3, 3))
    axes = np.zeros((model.total_dof, 3))
    origins = np.zeros((model.total_dof, 3))
    qi = 0
    for ji, joint in enumerate(model.joints):
        if joint.parent < 0:
            p, R = np.zeros(3), np.eye(3)
        else:
            R = rot[joint.parent]
            p = pos[joint.parent] + R @ (joint.direction * joint.length)
        for tok in joint.dofs:
            if tok == "exp":
                w = q[qi:qi + 3]
                origins[qi:qi + 3] = p
                axes[qi:qi + 3] = (R @ ref_left_jacobian(w)).T
                R = R @ ref_exp(w)
                qi += 3
                continue
            origins[qi] = p
            axes[qi] = R @ _REF_AXES[tok[1]]
            if tok[0] == "t":
                p = p + q[qi] * axes[qi]
            else:
                R = R @ ref_axis_rotation(tok[1], q[qi])
            qi += 1
        pos[ji], rot[ji] = p, R
    return pos, rot, axes, origins


def ref_keypoint_table(model):
    """Labels, segment joints, local offsets and (keypoint x dof) masks of
    the mapped keypoints in ``KEYPOINTS`` order, and the rotational flag of
    every dof, from ``joints`` and ``keypoint_map`` alone."""
    names = [j.name for j in model.joints]
    labels = [lb for lb in KEYPOINTS if lb in model.keypoint_map]
    refs = [model.keypoint_map[lb] for lb in labels]
    refs = [r if isinstance(r, tuple) else (r, np.zeros(3)) for r in refs]
    segments = [names.index(jname) for jname, _ in refs]
    dofs = [(i, tok[0] != "t") for i, j in enumerate(model.joints)
            for tok in j.dofs for _ in range(3 if tok == "exp" else 1)]

    def chain(i):
        """The joint and all its ancestors."""
        out = set()
        while i >= 0:
            out.add(i)
            i = model.joints[i].parent
        return out

    mask = np.array([[i in chain(s) for i, _ in dofs] for s in segments],
                    dtype=bool).reshape(len(labels), len(dofs))
    offsets = np.array([off for _, off in refs], dtype=float).reshape(-1, 3)
    return (labels, segments, offsets, mask,
            np.array([r for _, r in dofs], dtype=bool))


def ref_fk_and_jacobians(model, q):
    pos, rot, axes, origins = ref_frames(model, q)
    labels, tj, offsets, mask, rotational = ref_keypoint_table(model)
    p = pos[tj] + np.einsum("nij,nj->ni", rot[tj], offsets)
    cols = np.where(rotational[:, None],
                    np.cross(axes, p[:, None, :] - origins), axes)
    J = cols * mask[:, :, None]
    return labels, p, J.transpose(0, 2, 1)


def multi_token_template():
    """Joints with several tokens in one joint (translations after
    rotations included), a translation-only joint and a dof-less one."""
    joints = (
        sk.Joint("root", -1, (0, 0, 1), 0.0, ("tx", "ty", "tz", "exp")),
        sk.Joint("a", 0, (0, 0, 1), 200.0, ("rz", "tx", "ry")),
        sk.Joint("b", 1, (1, 0, 0), 150.0, ("ty", "exp")),
        sk.Joint("c", 2, (0, 0.6, 0.8), 120.0, ()),
        sk.Joint("d", 1, (0, 1, 0), 100.0, ("exp", "rx", "tz")),
        sk.Joint("e", 4, (0, 0, -1), 90.0, ("tz",)),
    )
    return sk.SkeletonModel(joints=joints, keypoint_map={
        "neck": "c", "r_ankle": "e",
        "nose": ("b", np.array([10.0, 20.0, 30.0]))})


def older_human():
    model = sk.human_skeleton()
    return older_layout(model, np.zeros(model.total_dof))[0]


# |w| of every exp joint: random, then exactly zero, the series branches,
# the branch edges and a half turn.
_EXP_NORMS = (None, 0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3, math.pi - 1e-9,
              math.pi)


def exp_blocks(model):
    """Pose slices of every exp joint's 3-vector."""
    blocks, qi = [], 0
    for joint in model.joints:
        for tok in joint.dofs:
            if tok == "exp":
                blocks.append(slice(qi, qi + 3))
            qi += 3 if tok == "exp" else 1
    return blocks


def oracle_poses(model, rng, count=200):
    translational = ~model.dof_rotational
    for trial in range(count):
        q = rng.normal(0, 0.7, model.total_dof)
        q[translational] = rng.uniform(-500, 500, translational.sum())
        norm = _EXP_NORMS[trial % len(_EXP_NORMS)]
        if norm is not None:
            for block in exp_blocks(model):
                w = rng.normal(size=3)
                q[block] = norm * w / np.linalg.norm(w)
        yield q


ORACLE_MODELS = pytest.mark.parametrize("build", [
    sk.human_skeleton, older_human, multi_token_template],
    ids=["human_34", "older_40", "multi_token"])


class TestAgainstReferenceLoop:
    @ORACLE_MODELS
    def test_frames_match_reference(self, build, rng):
        model = build()
        for q in oracle_poses(model, rng):
            got, want = sk._frames(model, q), ref_frames(model, q)
            for a, b, tol in zip(got, want, (POSITION_TOL_MM, UNIT_TOL,
                                             UNIT_TOL, POSITION_TOL_MM)):
                assert a.shape == b.shape
                npt.assert_allclose(a, b, rtol=0, atol=tol)

    @ORACLE_MODELS
    def test_jacobians_match_reference(self, build, rng):
        model = build()
        for q in oracle_poses(model, rng):
            pos, jac = sk.fk_and_jacobians(model, q)
            labels, ref_pos, ref_jac = ref_fk_and_jacobians(model, q)
            assert list(model.keypoints) == labels
            npt.assert_allclose(pos, ref_pos, rtol=0, atol=POSITION_TOL_MM)
            assert jac.shape == ref_jac.shape
            npt.assert_allclose(jac, ref_jac, rtol=0, atol=POSITION_TOL_MM)

    @ORACLE_MODELS
    def test_forward_kinematics_matches_reference(self, build, rng):
        """Every joint and every keypoint of the dict, keypoints winning
        where a label is also a joint name."""
        model = build()
        names = [j.name for j in model.joints]
        for q in oracle_poses(model, rng, count=20):
            fk = sk.forward_kinematics(model, q)
            want = dict(zip(names, ref_frames(model, q)[0]))
            labels, ref_pos, _ = ref_fk_and_jacobians(model, q)
            want.update(zip(labels, ref_pos))
            assert fk.keys() == want.keys()
            for name, p in want.items():
                npt.assert_allclose(fk[name], p, rtol=0, atol=POSITION_TOL_MM)


class TestTargetTable:
    """One call over every keypoint of models built every way."""

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
        lambda tmp: multi_token_template(),
    ], ids=["link_lengths", "keypoint_offsets", "save_load", "planar",
            "planar_marker", "multi_token"])
    def test_all_targets_match_finite_differences(self, build, tmp_path, rng):
        model = build(tmp_path)
        labels = model.keypoints
        assert set(labels) == set(model.keypoint_map)
        for _ in range(5):
            q = rng.normal(0, 0.8, model.total_dof)
            if model.joints[0].dofs[:3] == ("tx", "ty", "tz"):
                q[root_translation(model)] = rng.normal(0, 300, 3)
            pos, jac = sk.fk_and_jacobians(model, q)
            assert jac.shape == (len(labels), 3, model.total_dof)
            fk = sk.forward_kinematics(model, q)
            npt.assert_array_equal(pos, [fk[t] for t in labels])
            npt.assert_array_equal(sk.keypoint_positions(model, q), pos)
            assert np.abs(jac - fd_jacobians(model, q, labels)).max() <= 1e-5


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

    @pytest.mark.parametrize("length", [math.nan, math.inf, -1.0, True,
                                        10 ** 400], ids=value_id)
    def test_bad_length_rejected_by_name(self, length):
        model = sk.human_skeleton()
        message = "^joint waist: length must be a finite float > 0, got "
        with pytest.raises(sk.SkeletonError, match=message):
            sk.with_link_lengths(model, {"waist": length})
        with pytest.raises(sk.SkeletonError, match=message):
            sk.Joint("waist", 0, (0, 0, 1), length, ("exp",))

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

    @pytest.mark.parametrize("direction", [
        (0, 0, -2), (0, 0, 0), (0, np.nan, 1), (0, 0, 1 + 1e-6), (1, 0)])
    def test_non_unit_direction_rejected(self, direction):
        with pytest.raises(sk.SkeletonError, match="joint knee: direction"):
            sk.Joint("knee", 0, direction, 420.0, ("rx",))

    def test_root_direction_is_not_a_link(self):
        sk.Joint("root", -1, (0, 0, 0), 0.0, ("tx", "ty", "tz", "exp"))

    def test_keypoint_map_unknown_joint(self):
        with pytest.raises(sk.SkeletonError):
            sk.SkeletonModel(joints=(sk.Joint("a", -1, (0, 0, 1), 0.0, ()),),
                             keypoint_map={"nose": "missing"})

    def test_keypoint_map_label_outside_keypoints(self):
        """A point no detector reports could never be tracked."""
        with pytest.raises(sk.SkeletonError, match="keypoint tail: not one"):
            sk.SkeletonModel(joints=(sk.Joint("a", -1, (0, 0, 1), 0.0, ()),),
                             keypoint_map={"nose": "a", "tail": "a"})


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

    @pytest.mark.parametrize("build", [
        sk.human_skeleton, lambda: sk.scaled_human_skeleton(0.8)],
        ids=["human", "scaled_0.8"])
    def test_round_trip_keeps_the_model(self, build, tmp_path):
        model = build()
        path = tmp_path / "skeleton.json"
        sk.save_skeleton(model, path)
        loaded = sk.load_skeleton(path)
        for a, b in zip(model.joints, loaded.joints):
            npt.assert_array_equal(a.direction, b.direction)
            assert a.length == b.length

    def test_non_unit_direction_in_file_names_file_and_joint(self, tmp_path):
        """A doubled direction would put the knee twice its declared length
        from the hip."""
        path = tmp_path / "skeleton.json"
        sk.save_skeleton(sk.human_skeleton(), path)
        payload = json.loads(path.read_text())
        for entry in payload["joints"]:
            if entry["name"] == "r_knee":
                entry["direction"] = [0.0, 0.0, -2.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(sk.SkeletonError) as err:
            sk.load_skeleton(path)
        assert str(err.value).startswith(f"{path}: joint r_knee: direction")

    def test_label_outside_keypoints_in_file_names_file_and_label(
            self, tmp_path):
        path = tmp_path / "skeleton.json"
        sk.save_skeleton(sk.human_skeleton(), path)
        payload = json.loads(path.read_text())
        payload["keypoints"]["tail"] = {"joint": "pelvis"}
        path.write_text(json.dumps(payload))
        with pytest.raises(sk.SkeletonError) as err:
            sk.load_skeleton(path)
        assert str(err.value).startswith(f"{path}: keypoint tail: not one")

    def test_directory_names_the_path(self, tmp_path):
        with pytest.raises(sk.SkeletonError, match="is a directory") as err:
            sk.load_skeleton(tmp_path)
        assert str(err.value).startswith(f"{tmp_path}: ")

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe\x00"])
    def test_undecodable_file_names_the_path(self, tmp_path, content):
        """Broken JSON and bytes that are not UTF-8 both name the file."""
        path = tmp_path / "skeleton.json"
        path.write_bytes(content)
        with pytest.raises(sk.SkeletonError) as err:
            sk.load_skeleton(path)
        assert str(err.value).startswith(f"{path}: ")
