import dataclasses
import logging
import math

import numpy as np
import numpy.testing as npt
import pytest

from helpers import (DictProvider, frame_with_channel, gaussian_grid,
                     keypoint_rows, make_frame, no_rotation,
                     rowmajor_lattice_search, rowmajor_score_points)
from mocapfuse import pcm, skeleton as sk, synth, tracker
from mocapfuse.calib import (Camera, CameraRig, look_at_camera, project_points,
                             rotate_pixel)
from mocapfuse.labels import KEYPOINT_INDEX, KEYPOINTS, LOWER_BODY
from mocapfuse.tracker import (
    LatticeConfig,
    camera_tilt,
    lattice_offsets,
    lattice_search,
    plan_rotations,
    score_points,
    trunk_tilt,
)


def axial_rig(n=4, behind=()):
    """Cameras stacked along the optical axis; the world origin projects to
    the (integer) principal point of every one.  ``behind`` puts a camera on
    the wrong side of the origin."""
    cams = []
    for i in range(n):
        tz = -500.0 * (i + 1) if i in behind else 500.0 * (i + 1)
        cams.append(Camera(id=i, width=64, height=48, fx=50.0, fy=50.0,
                           cx=32.0, cy=24.0, translation=(0.0, 0.0, tz)))
    return CameraRig(cameras=tuple(cams))


def orthogonal_rig():
    """One camera down +z, one down +x, both 1 m from the origin."""
    cam_z = Camera(id=0, width=64, height=48, fx=200.0, fy=200.0,
                   cx=32.0, cy=24.0, translation=(0.0, 0.0, 1000.0))
    R_x = np.array([[0.0, 1.0, 0.0],
                    [0.0, 0.0, 1.0],
                    [1.0, 0.0, 0.0]])
    cam_x = Camera(id=1, width=64, height=48, fx=200.0, fy=200.0,
                   cx=32.0, cy=24.0, rotation=R_x,
                   translation=(0.0, 0.0, 1000.0))
    return CameraRig(cameras=(cam_z, cam_x))


def render_point(rig, point, label, sigma=3.0, frame_index=0):
    """Per-camera frames with a Gaussian at the exact projection of point."""
    frames = {}
    for cam in rig.cameras:
        px, in_front = project_points(cam, np.asarray(point, dtype=float))
        grid = (gaussian_grid(48, 64, px[0], px[1], sigma) if in_front
                else np.zeros((48, 64)))
        frames[(cam.id, frame_index, 0)] = frame_with_channel(
            label, grid, camera_id=cam.id, frame_index=frame_index)
    return DictProvider(frames)


# One point, the world origin, for one label: score_points' (L, N, 3) input.
ORIGIN = np.zeros((1, 1, 3))


def zero_provider(rig, frame_index=0):
    return DictProvider({(cam.id, frame_index, 0):
                         make_frame(camera_id=cam.id, frame_index=frame_index)
                         for cam in rig.cameras})


class TestLatticeOffsets:
    def test_center_first_and_count(self):
        offs = lattice_offsets(3)
        assert tuple(offs[0]) == (0, 0, 0)
        assert len(offs) == 7 ** 3
        assert not offs.flags.writeable

    def test_tie_break_order(self):
        offs = [tuple(o) for o in lattice_offsets(2)]
        cheb = [max(abs(a), abs(b), abs(c)) for a, b, c in offs]
        assert cheb == sorted(cheb)
        for d in set(cheb):
            shell = [o for o, c in zip(offs, cheb) if c == d]
            assert shell == sorted(shell)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LatticeConfig(s=0.0)
        with pytest.raises(ValueError):
            LatticeConfig(k=0)


class TestLatticeSearch:
    def test_zero_evidence_returns_center(self):
        rig = axial_rig()
        cfg = LatticeConfig(s=10.0, k=1)
        prev = keypoint_rows({"neck": np.array([3.0, -4.0, 5.0])})
        markers = lattice_search(prev, zero_provider(rig), rig, cfg, 0,
                                 no_rotation(rig))
        neck = KEYPOINT_INDEX["neck"]
        npt.assert_array_equal(markers.positions[neck], prev[neck])
        assert markers.weights[neck] == 0.0
        npt.assert_array_equal(markers.per_camera[neck], np.zeros(4))

    def test_tracks_one_lattice_step(self):
        rig = orthogonal_rig()
        cfg = LatticeConfig(s=10.0, k=3)
        wrist = KEYPOINT_INDEX["r_wrist"]
        prev = keypoint_rows({"r_wrist": np.array([0.0, 0.0, 0.0])})
        true = prev[wrist] + np.array([10.0, 0.0, 0.0])
        provider = render_point(rig, true, "r_wrist")
        markers = lattice_search(prev, provider, rig, cfg, 0, no_rotation(rig))
        npt.assert_allclose(markers.positions[wrist], true)
        assert markers.weights[wrist] > 1.9

    def test_out_of_frame_camera_contributes_zero(self):
        rig = orthogonal_rig()
        cfg = LatticeConfig(s=10.0, k=2)
        neck = KEYPOINT_INDEX["neck"]
        prev = keypoint_rows({"neck": np.array([0.0, 0.0, 0.0])})
        # Peak at prev in camera 0; camera 1's channel peaks far off-grid.
        frames = dict(render_point(rig, prev[neck], "neck").frames)
        far = frame_with_channel("neck", np.zeros((48, 64)), camera_id=1)
        frames[(1, 0, 0)] = far
        markers = lattice_search(prev, DictProvider(frames), rig, cfg, 0,
                                 no_rotation(rig))
        npt.assert_array_equal(markers.positions[neck], prev[neck])
        cams = markers.per_camera[neck]
        assert cams[1] == 0.0 and cams[0] > 0.99

    def test_result_is_on_the_lattice(self, rng):
        rig = orthogonal_rig()
        cfg = LatticeConfig(s=7.5, k=2)
        knee = KEYPOINT_INDEX["l_knee"]
        for _ in range(20):
            grids = {(cam.id, 0, 0): frame_with_channel(
                "l_knee", rng.uniform(0, 1, (48, 64)), camera_id=cam.id)
                for cam in rig.cameras}
            provider = DictProvider(grids)
            prev = keypoint_rows({"l_knee": rng.uniform(-40, 40, 3)})
            markers = lattice_search(prev, provider, rig, cfg, 0,
                                     no_rotation(rig))
            score = markers.weights[knee]
            steps = (markers.positions[knee] - prev[knee]) / cfg.s
            npt.assert_allclose(steps, np.round(steps), atol=1e-9)
            assert np.all(np.abs(np.round(steps)) <= cfg.k)
            npt.assert_array_equal(markers.offsets[knee], np.round(steps))
            # The maximum can never undercut the center's own score.
            center_score, _ = score_points(prev[knee][None, None],
                                           ["l_knee"], provider, rig, 0,
                                           no_rotation(rig))
            assert score >= center_score[0, 0] - 1e-12

    def test_all_keypoints_match_one_label_searches(self, rng):
        """Searching every keypoint in one call gives, for each, what
        scoring that keypoint's lattice alone gives, bit for bit."""
        rig = orthogonal_rig()
        cfg = LatticeConfig(s=7.5, k=2)
        provider = DictProvider({(cam.id, 0, 0): make_frame(
            channels=rng.uniform(0, 1, (18, 48, 64)).astype(np.float32),
            camera_id=cam.id) for cam in rig.cameras})
        prev = rng.uniform(-40, 40, (len(KEYPOINTS), 3))
        markers = lattice_search(prev, provider, rig, cfg, 0, no_rotation(rig))
        assert markers.positions.shape == (len(KEYPOINTS), 3)
        offsets = lattice_offsets(cfg.k)
        for i, lb in enumerate(KEYPOINTS):
            candidates = prev[i] + cfg.s * offsets.astype(float)
            scores, per_camera = score_points(candidates[None], [lb],
                                              provider, rig, 0,
                                              no_rotation(rig))
            best = int(np.argmax(scores[0]))
            npt.assert_array_equal(markers.positions[i], candidates[best])
            assert markers.weights[i] == scores[0, best]
            npt.assert_array_equal(markers.per_camera[i],
                                   per_camera[:, 0, best])
            npt.assert_array_equal(markers.offsets[i], offsets[best])

    def test_missing_rotation_zero_frame_is_an_error(self):
        rig = axial_rig(2)
        cfg = LatticeConfig()
        with pytest.raises(pcm.FrameMissing):
            lattice_search(keypoint_rows({}), DictProvider({}), rig, cfg, 0,
                           no_rotation(rig))


class TestPcmWeight:
    """The IK weight of a marker is the score of its single point."""

    def test_all_zero_channels(self):
        rig = axial_rig()
        w, cams = score_points(ORIGIN, ["r_hip"], zero_provider(rig), rig,
                               0, no_rotation(rig))
        assert w[0, 0] == 0.0

    def test_unit_peaks_in_all_cameras(self):
        rig = axial_rig(4)
        provider = render_point(rig, (0.0, 0.0, 0.0), "r_hip")
        w, cams = score_points(ORIGIN, ["r_hip"], provider, rig, 0,
                               no_rotation(rig))
        assert w[0, 0] == pytest.approx(4.0, abs=1e-6)

    def test_point_behind_one_camera(self):
        rig = axial_rig(4, behind=(2,))
        provider = render_point(rig, (0.0, 0.0, 0.0), "r_hip")
        w, cams = score_points(ORIGIN, ["r_hip"], provider, rig, 0,
                               no_rotation(rig))
        assert w[0, 0] == pytest.approx(3.0, abs=1e-6)
        assert cams[2, 0, 0] == 0.0

    def test_weight_bounded_by_camera_count(self, rng):
        rig = axial_rig(3)
        grids = {(cam.id, 0, 0): frame_with_channel(
            "neck", rng.uniform(0, 1, (48, 64)), camera_id=cam.id)
            for cam in rig.cameras}
        w, _ = score_points(rng.uniform(-20, 20, (1, 1, 3)), ["neck"],
                            DictProvider(grids), rig, 0, no_rotation(rig))
        assert 0.0 <= w[0, 0] <= rig.n_c


class TestRotatedSampling:
    def make_rotated_scene(self):
        """Camera 0 sees the r_hip Gaussian only on its 90-degree render."""
        rig = axial_rig(1)
        cam = rig.cameras[0]
        point = np.array([20.0, 10.0, 0.0])
        px, _ = project_points(cam, point)
        p_rot = rotate_pixel(px, 90.0, cam.image_center)
        frames = {
            (0, 0, 0): make_frame(camera_id=0),
            (0, 0, 90): frame_with_channel(
                "r_hip", gaussian_grid(48, 64, p_rot[0], p_rot[1], 3.0),
                camera_id=0, rotation=90.0),
        }
        return rig, point, DictProvider(frames)

    def test_lower_body_uses_assigned_rotation(self):
        rig, point, provider = self.make_rotated_scene()
        scores, _ = score_points(point[None, None], ["r_hip"], provider, rig,
                                 0, {0: 90.0})
        assert scores[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_non_lower_body_labels_stay_unrotated(self):
        rig, point, provider = self.make_rotated_scene()
        # neck is not a LowerBody label: rotation-0 frame (all zero) is used.
        scores, _ = score_points(point[None, None], ["neck"], provider, rig,
                                 0, {0: 90.0})
        assert scores[0, 0] == 0.0

    def test_angle_binned_to_zero_samples_rotation_zero(self):
        rig, point, provider = self.make_rotated_scene()
        for angle in (0.0, 0.4, -0.4):
            scores, _ = score_points(point[None, None], ["r_hip"], provider,
                                     rig, 0, {0: angle})
            assert scores[0, 0] == 0.0

    def test_missing_rotated_frame_falls_back(self, caplog):
        rig = axial_rig(1)
        point = np.zeros(3)
        provider = render_point(rig, point, "r_hip")  # rotation 0 only
        with caplog.at_level(logging.INFO, logger="mocapfuse.tracker"):
            scores, _ = score_points(point[None, None], ["r_hip"], provider,
                                     rig, 0, {0: 45.0})
        assert scores[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert any("falling back" in r.message for r in caplog.records)


def test_batched_samples_equal_sample_many(rng, caplog):
    """Every label's per-camera samples from one score_points call equal
    one pcm.sample_channels call per label at the same (rotated) pixels
    exactly, with one camera's rotated frame missing."""
    rig = axial_rig(3)
    plan = {0: 90.0, 1: 180.0, 2: 45.0}        # camera 2 has no 45-degree frame
    frames = {}
    for cam in rig.cameras:
        for rot in (0.0, plan[cam.id]):
            frames[(cam.id, 0, int(rot))] = make_frame(
                channels=rng.uniform(0, 1, (18, 48, 64)).astype(np.float32),
                rotation=rot, camera_id=cam.id)
    del frames[(2, 0, 45)]
    provider = DictProvider(frames)
    points = rng.uniform(-40, 40, (len(KEYPOINTS), 25, 3))
    with caplog.at_level(logging.INFO, logger="mocapfuse.tracker"):
        scores, per_camera = score_points(points, KEYPOINTS, provider, rig, 0,
                                          plan)
    fallbacks = [r for r in caplog.records if "falling back" in r.message]
    assert len(fallbacks) == 1                 # once per camera, not per label
    for ci, cam in enumerate(rig.cameras):
        for li, label in enumerate(KEYPOINTS):
            rot = plan[cam.id] if label in LOWER_BODY and cam.id != 2 else 0.0
            frame = frames[(cam.id, 0, int(rot))]
            px, in_front = project_points(cam, points[li])
            if rot:
                px = rotate_pixel(px, rot, cam.image_center)
            npt.assert_array_equal(
                per_camera[ci, li],
                pcm.sample_channels(frame, KEYPOINT_INDEX[label], px,
                                    valid=in_front))
    npt.assert_array_equal(scores, per_camera.sum(axis=0))


def random_rig_scene(rng, n_cameras, frame_index=0):
    """Cameras on a ring around the origin, every other one distorted and
    one of them inside the subject's volume (so candidates fall behind it),
    each with its own heatmap size and scale; a plan with tilted cameras at
    angles from +-45 to 180 degrees, and random frames for every planned
    rotation (cells in [0, 1], some -0.0 and exact 0 and 1)."""
    cams, frames = [], {}
    angles = [45.0, -45.0, 90.0, 137.0, 180.0, 0.0]
    plan = {}
    for i in range(n_cameras):
        a = 2.0 * math.pi * i / n_cameras + rng.uniform(-0.3, 0.3)
        r = 150.0 if i == 1 else rng.uniform(1500.0, 3000.0)
        cam = look_at_camera(i, (r * math.cos(a), r * math.sin(a),
                                 rng.uniform(800.0, 1600.0)),
                             (0.0, 0.0, 1000.0), int(rng.integers(160, 320)),
                             int(rng.integers(120, 240)),
                             rng.uniform(150.0, 400.0))
        if i % 2:
            cam = dataclasses.replace(cam, dist=rng.uniform(
                [-0.3, -0.05, -0.01, -0.01, -0.01],
                [0.1, 0.05, 0.01, 0.01, 0.01]))
        cams.append(cam)
        plan[cam.id] = angles[i % len(angles)]
        scale = float(rng.choice([0.25, 0.5, 1.0]))
        h = max(1, int(cam.height * scale))
        w = max(1, int(cam.width * scale))
        for rot in {0.0, plan[cam.id]}:
            channels = rng.uniform(0, 1, (len(KEYPOINTS), h, w))
            channels[rng.random(channels.shape) < 0.05] = -0.0
            channels[rng.random(channels.shape) < 0.05] = 1.0
            frames[(cam.id, frame_index, int(rot))] = make_frame(
                channels=channels.astype(np.float32), rotation=rot,
                scale=scale, camera_id=cam.id, frame_index=frame_index)
    return CameraRig(cameras=tuple(cams)), DictProvider(frames), plan


def assert_same_bits(a, b):
    assert np.asarray(a).shape == np.asarray(b).shape
    assert np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


class TestRowMajorOracle:
    """The lattice on coordinate planes equals the row-major lattice bit for
    bit: positions, weights, per-camera samples and offsets."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_lattice_search(self, rng, k):
        rig, provider, plan = random_rig_scene(rng, 5)
        prev = rng.normal([0.0, 0.0, 1000.0], 500.0, (len(KEYPOINTS), 3))
        cfg = LatticeConfig(s=float(rng.uniform(5.0, 40.0)), k=k)
        for rotations in (no_rotation(rig), plan):
            got = lattice_search(prev, provider, rig, cfg, 0, rotations)
            want = rowmajor_lattice_search(prev, provider, rig, cfg, 0,
                                           rotations)
            for field in ("positions", "weights", "per_camera", "offsets"):
                assert_same_bits(getattr(got, field), getattr(want, field))
        # The plan tilts some cameras; some candidates are behind camera 1.
        assert any(plan.values())
        _, in_front = project_points(rig.cameras[1], prev)
        assert not in_front.all()

    def test_score_points_row_major_input(self, rng):
        """Points given as C-ordered (L, N, 3) rows, not a view of planes."""
        rig, provider, plan = random_rig_scene(rng, 3)
        points = rng.normal([0.0, 0.0, 1000.0], 600.0, (len(KEYPOINTS), 7, 3))
        for got, want in zip(
                score_points(points, KEYPOINTS, provider, rig, 0, plan),
                rowmajor_score_points(points, KEYPOINTS, provider, rig, 0,
                                      plan)):
            assert_same_bits(got, want)

    def test_alternating_calls_equal_fresh_calls(self, rng):
        """Interleaving lattice sizes, spacings and rigs gives each call the
        result it has on its own."""
        scenes = [random_rig_scene(rng, n) for n in (2, 4, 3)]
        prev = rng.normal([0.0, 0.0, 1000.0], 400.0, (len(KEYPOINTS), 3))
        cases = [(scene, LatticeConfig(s=s, k=k)) for scene, s, k in
                 zip(scenes * 2, (7.5, 20.0, 12.0, 33.0, 9.0, 15.0),
                     (3, 1, 2, 1, 3, 2))]
        fresh = [rowmajor_lattice_search(prev, provider, rig, cfg, 0, plan)
                 for (rig, provider, plan), cfg in cases]
        for ((rig, provider, plan), cfg), want in zip(cases, fresh):
            got = lattice_search(prev, provider, rig, cfg, 0, plan)
            assert_same_bits(got.positions, want.positions)
            assert_same_bits(got.per_camera, want.per_camera)

class TestTrunkTilt:
    def test_upright_is_zero(self):
        assert trunk_tilt((100, 50), (100, 150)) == pytest.approx(0.0)

    def test_horizontal_trunk(self):
        # Neck to the image right of the hips.
        assert trunk_tilt((200, 100), (100, 100)) == pytest.approx(-90.0)
        assert trunk_tilt((0, 100), (100, 100)) == pytest.approx(90.0)

    def test_diagonal(self):
        assert trunk_tilt((200, 100), (100, 200)) == pytest.approx(-45.0)

    def test_inverted_is_180(self):
        assert trunk_tilt((100, 200), (100, 100)) == pytest.approx(180.0)

    def test_range_is_half_open(self):
        for ang in np.linspace(-179, 180, 73):
            v = np.array([math.sin(math.radians(ang)),
                          -math.cos(math.radians(ang))])
            neck = np.array([100.0, 100.0]) - 50 * np.array([-v[0], v[1]])
            t = trunk_tilt(neck, (100.0, 100.0))
            assert -180.0 < t <= 180.0

    def test_rotating_by_tilt_uprights_the_trunk(self, rng):
        for _ in range(50):
            neck = rng.uniform(0, 500, 2)
            midhip = rng.uniform(0, 500, 2)
            if np.allclose(neck, midhip):
                continue
            t = trunk_tilt(neck, midhip)
            c = np.array([256.0, 192.0])
            t2 = trunk_tilt(rotate_pixel(neck, t, c), rotate_pixel(midhip, t, c))
            assert abs(t2) < 1e-6

    def test_coincident_pixels_rejected(self):
        with pytest.raises(ValueError):
            trunk_tilt((10, 10), (10, 10))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            trunk_tilt((np.nan, 0), (0, 0))


class TestCameraTilt:
    def test_tilt_of_the_projected_neck_over_the_hip_midpoint(
            self, still_spec, still_rig):
        rows = keypoint_rows(synth.ground_truth_positions(still_spec, 0))
        rows[KEYPOINT_INDEX["neck"], 0] += 300.0      # lean the trunk
        midhip = 0.5 * (rows[KEYPOINT_INDEX["r_hip"]]
                        + rows[KEYPOINT_INDEX["l_hip"]])
        for camera in still_rig.cameras:
            px, _ = project_points(
                camera, np.stack([rows[KEYPOINT_INDEX["neck"]], midhip]))
            assert camera_tilt(camera, rows) == trunk_tilt(px[0], px[1])


class TestPlanRotations:
    def upright_positions(self, spec):
        return keypoint_rows(synth.ground_truth_positions(spec, 0))

    def pitched_positions(self, spec, pitch):
        """Keypoints with the root 1 m up and pitched by ``pitch`` rad."""
        model = synth.build_model(spec)
        _, _, root_z, root_rx, _, _ = model.dofs_of("pelvis")
        q = np.zeros(model.total_dof)
        q[root_z] = 1000.0
        q[root_rx] = pitch
        return sk.keypoint_positions(model, q)

    def test_upright_pose_plans_zero(self, still_spec, still_rig):
        plan = plan_rotations(self.upright_positions(still_spec), still_rig)
        assert set(plan) == {c.id for c in still_rig.cameras}
        assert all(a == 0.0 for a in plan.values())

    def test_inverted_pose_plans_half_turn(self, still_spec, still_rig):
        positions = self.pitched_positions(still_spec, math.pi)  # inversion
        plan = plan_rotations(positions, still_rig)
        for angle in plan.values():
            assert abs(angle) >= 170.0

    def test_below_threshold_plans_zero(self, still_spec, still_rig):
        positions = self.pitched_positions(still_spec, math.radians(30.0))
        plan = plan_rotations(positions, still_rig)
        assert all(a == 0.0 for a in plan.values())

    def test_trunk_behind_camera_plans_zero(self, still_spec):
        cam = Camera(id=0, width=64, height=48, fx=50.0, fy=50.0, cx=32.0,
                     cy=24.0, translation=(0.0, 0.0, -5000.0))
        rig = CameraRig(cameras=(cam,))
        plan = plan_rotations(self.upright_positions(still_spec), rig)
        assert plan == {0: 0.0}

    def test_degenerate_projection_plans_zero(self):
        # Camera straight above, looking down the trunk axis: neck and hips
        # project to the same pixel.
        R = np.diag([1.0, -1.0, -1.0])
        cam = Camera(id=0, width=64, height=48, fx=50.0, fy=50.0, cx=32.0,
                     cy=24.0, rotation=R, translation=(0.0, 0.0, 3000.0))
        rig = CameraRig(cameras=(cam,))
        positions = keypoint_rows({"neck": np.array([0.0, 0.0, 1500.0]),
                                   "r_hip": np.array([0.0, 0.0, 1000.0]),
                                   "l_hip": np.array([0.0, 0.0, 1000.0])})
        plan = plan_rotations(positions, rig)
        assert plan == {0: 0.0}

    def test_angles_are_quantized(self, still_spec, still_rig):
        positions = self.pitched_positions(still_spec, math.radians(123.456))
        plan = plan_rotations(positions, still_rig)
        for angle in plan.values():
            assert angle == float(int(angle))
