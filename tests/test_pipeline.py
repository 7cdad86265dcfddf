import csv
import dataclasses
import gc
import json
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from conftest import small_scene
from helpers import csv_writer_diagnostics, csv_writer_positions, no_rotation
from mocapfuse import ik, pcm, pipeline, skeleton as sk, synth
from mocapfuse.calib import (CameraRig, look_at_camera, pixel_to_ray,
                             project_points)
from mocapfuse.labels import KEYPOINT_INDEX, KEYPOINTS
from mocapfuse.pipeline import (
    InitializationError,
    InitSettings,
    PipelineConfig,
    initialize,
    track,
    triangulate,
)
from mocapfuse.smooth import FilterSpec
from mocapfuse.tracker import LatticeConfig


class MaskingProvider(pcm.PcmProvider):
    """Wraps a provider, zeroing selected channels per camera/frame."""

    def __init__(self, inner, mask_fn):
        self.inner = inner
        self.mask_fn = mask_fn   # (camera_id, frame_index, label) -> bool

    def get(self, camera_id, frame_index, rotation_deg=0.0):
        frame = self.inner.get(camera_id, frame_index, rotation_deg)
        channels = frame.channels.copy()
        changed = False
        for label in KEYPOINTS:
            if self.mask_fn(camera_id, frame_index, label):
                channels[KEYPOINT_INDEX[label]] = 0.0
                changed = True
        if not changed:
            return frame
        return pcm.HeatmapFrame(
            camera_id=frame.camera_id, frame_index=frame.frame_index,
            rotation_deg=frame.rotation_deg, scale=frame.scale,
            channels=channels)


class PoisonProvider(pcm.PcmProvider):
    """Wraps a provider, writing ``value`` into one (channel, row, column)
    ``cell`` of one camera-frame."""

    def __init__(self, inner, camera_id, frame_index, cell, value=np.nan):
        self.inner = inner
        self.target = (camera_id, frame_index)
        self.cell = cell
        self.value = value

    def get(self, camera_id, frame_index, rotation_deg=0.0):
        frame = self.inner.get(camera_id, frame_index, rotation_deg)
        if (camera_id, frame_index) != self.target:
            return frame
        channels = frame.channels.copy()
        channels[self.cell] = self.value
        return dataclasses.replace(frame, channels=channels)


class CountingProvider(pcm.PcmProvider):
    """Wraps a provider, recording the frame index of every get."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def get(self, camera_id, frame_index, rotation_deg=0.0):
        self.calls.append(frame_index)
        return self.inner.get(camera_id, frame_index, rotation_deg)


def two_orthogonal_cameras():
    cam_a = look_at_camera(0, (4000.0, 0.0, 1000.0), (0, 0, 1000), 1024, 768, 800)
    cam_b = look_at_camera(1, (0.0, 4000.0, 1000.0), (0, 0, 1000), 1024, 768, 800)
    return CameraRig(cameras=(cam_a, cam_b))


def rows(rig, pixels):
    """(n_c, K, 2) pixels from one {camera_id: (2,)} dict per point, NaN
    where a camera has no pixel."""
    return np.array([[p.get(c.id, (np.nan, np.nan)) for p in pixels]
                     for c in rig.cameras], dtype=float)


def normal_equations_oracle(rig, pixels):
    """Independent assembly and solve of sum (I - d d^T)(x - o) = 0."""
    A = np.zeros((3, 3))
    b = np.zeros(3)
    for cam_id, px in pixels.items():
        o, d = pixel_to_ray(rig.camera(cam_id), px)
        P = np.eye(3) - np.outer(d, d)
        A += P
        b += P @ o
    return np.linalg.lstsq(A, b, rcond=None)[0]


class TestTriangulate:
    def test_exact_intersection(self):
        rig = two_orthogonal_cameras()
        p = np.array([[120.0, -230.0, 1340.0], [-50.0, 310.0, 700.0]])
        pixels = np.stack([project_points(c, p)[0] for c in rig.cameras])
        points, residuals = triangulate(pixels, rig)
        npt.assert_allclose(points, p, atol=1e-6)
        assert points.shape == (2, 3) and residuals.shape == (2,)
        assert np.all(residuals < 1e-6)

    def test_matches_independent_normal_equations(self, rng):
        """K points in one call, each camera missing some of them."""
        rig = CameraRig(cameras=two_orthogonal_cameras().cameras + (
            look_at_camera(2, (-3000.0, -3000.0, 2000.0), (0, 0, 1000),
                           1024, 768, 700),
            look_at_camera(3, (2500.0, -3500.0, 500.0), (0, 0, 1000),
                           1024, 768, 900)))
        truth = rng.uniform(-600, 600, (60, 3)) + np.array([0, 0, 1000.0])
        pixels = []
        for p in truth:
            seen = rng.permutation(rig.n_c)[:rng.integers(2, rig.n_c + 1)]
            pixels.append({rig.cameras[i].id: project_points(rig.cameras[i], p)[0]
                           + rng.normal(0, 1.0, 2) for i in seen})
        points, residuals = triangulate(rows(rig, pixels), rig)
        for point, residual, px in zip(points, residuals, pixels):
            oracle = normal_equations_oracle(rig, px)
            npt.assert_allclose(point, oracle, atol=1e-9)
            rays = [pixel_to_ray(rig.camera(i), q) for i, q in px.items()]
            perp = [np.linalg.norm(np.cross(oracle - o, d)) for o, d in rays]
            assert residual == pytest.approx(np.sqrt(np.mean(np.square(perp))),
                                             rel=1e-9, abs=1e-12)

    def test_single_camera_rejected(self):
        """A point only one camera sees is NaN; the others of the call are
        not affected."""
        rig = two_orthogonal_cameras()
        p = np.array([120.0, -230.0, 1340.0])
        px = {c.id: project_points(c, p)[0] for c in rig.cameras}
        points, residuals = triangulate(
            rows(rig, [{0: px[0]}, px, {}, {1: px[1]}]), rig)
        assert np.isnan(points[[0, 2, 3]]).all()
        assert np.isnan(residuals[[0, 2, 3]]).all()
        npt.assert_allclose(points[1], p, atol=1e-6)
        assert residuals[1] < 1e-6

    def test_parallel_rays_rejected(self):
        """Near-parallel rays give NaN for their point only."""
        cam_a = look_at_camera(0, (4000.0, 0.0, 1000.0), (0, 0, 1000),
                               1024, 768, 800)
        cam_b = look_at_camera(1, (4001.0, 0.0, 1000.0), (0, 0, 1000),
                               1024, 768, 800)
        cam_c = look_at_camera(2, (0.0, 4000.0, 1000.0), (0, 0, 1000),
                               1024, 768, 800)
        rig = CameraRig(cameras=(cam_a, cam_b, cam_c))
        p = np.array([100.0, 200.0, 1100.0])
        center = np.array([512.0, 384.0])
        points, residuals = triangulate(rows(rig, [
            {0: center, 1: center},
            {0: project_points(cam_a, p)[0], 2: project_points(cam_c, p)[0]},
        ]), rig)
        assert np.isnan(points[0]).all() and np.isnan(residuals[0])
        npt.assert_allclose(points[1], p, atol=1e-6)


@pytest.fixture(scope="module")
def still_init(still_provider, still_rig):
    config = PipelineConfig()
    return initialize(still_provider, still_rig, sk.human_skeleton(), config)


@pytest.fixture(scope="module")
def still_track(still_provider, still_rig, still_init):
    model, pose0, _, first = still_init
    config = PipelineConfig()
    return model, track(still_provider, still_rig, model, pose0, config,
                        range(first, first + 40))


def without_keypoints(model, *labels):
    return sk.SkeletonModel(joints=model.joints, keypoint_map={
        lb: ref for lb, ref in model.keypoint_map.items() if lb not in labels})


class TestInitialize:
    def test_link_lengths_near_ground_truth(self, still_spec, still_init):
        model, pose0, positions0, first = still_init
        truth = synth.build_model(still_spec).link_lengths()
        observable = ("r_elbow", "l_elbow", "r_wrist", "l_wrist",
                      "r_knee", "l_knee", "r_ankle", "l_ankle",
                      "r_shoulder", "l_shoulder")
        for name in observable:
            assert abs(model.link_lengths()[name] - truth[name]) < 5.0

    def test_initial_positions_near_ground_truth(self, still_spec, still_init):
        model, pose0, positions0, first = still_init
        gt = synth.ground_truth_positions(still_spec, first - 1)
        assert positions0.shape == (len(KEYPOINTS), 3)
        npt.assert_array_equal(
            positions0, sk.keypoint_positions(model, pose0))
        for p, lb in zip(positions0, KEYPOINTS):
            assert np.linalg.norm(p - gt[lb]) < 15.0

    def test_first_track_frame_follows_agreement_run(self, still_init):
        _, _, _, first = still_init
        assert first == InitSettings().min_agreement_frames

    def test_occluded_keypoint_named_in_error(self, still_spec, still_rig):
        provider = synth.SyntheticProvider(still_spec, still_rig, n_frames=200)
        masked = MaskingProvider(
            provider,
            lambda cam, frame, label: label == "r_wrist" and cam != 0)
        with pytest.raises(InitializationError, match="r_wrist"):
            initialize(masked, still_rig, sk.human_skeleton(), PipelineConfig())

    def test_frames_running_out_names_the_missing_frame(self):
        """A 6-frame walk agrees in every frame it has: the error names the
        missing frame and the run length needed, not the keypoints."""
        spec = small_scene(motion=synth.walk_like())
        rig = synth.build_rig(spec)
        provider = synth.SyntheticProvider(spec, rig, n_frames=6)
        with pytest.raises(InitializationError) as exc:
            initialize(provider, rig, sk.human_skeleton(), PipelineConfig())
        assert str(exc.value) == (
            "no 3D agreement run found; frame 6 is missing, with 6 of the "
            f"{InitSettings().min_agreement_frames} agreeing frames needed")

    def test_one_fetch_per_camera_per_searched_frame(self, still_provider,
                                                     still_rig, still_init):
        provider = CountingProvider(still_provider)
        *_, first = initialize(provider, still_rig, sk.human_skeleton(),
                               PipelineConfig())
        assert first == still_init[3]
        assert provider.calls == [f for f in range(first)
                                  for _ in still_rig.cameras]

    def test_impossible_agreement_threshold(self, still_provider, still_rig):
        config = PipelineConfig(init=InitSettings(agreement_residual_mm=1e-12))
        with pytest.raises(InitializationError):
            initialize(still_provider, still_rig, sk.human_skeleton(), config)

    def test_template_without_trunk_joint_fails_before_reading(
            self, still_spec, still_rig):
        human = sk.human_skeleton()
        template = sk.SkeletonModel(joints=tuple(
            dataclasses.replace(j, name="spine") if j.name == "waist" else j
            for j in human.joints), keypoint_map=human.keypoint_map)
        provider = CountingProvider(
            synth.SyntheticProvider(still_spec, still_rig))
        with pytest.raises(sk.SkeletonError, match="needs: waist$"):
            initialize(provider, still_rig, template, PipelineConfig())
        assert provider.calls == []

    def test_template_without_keypoint_fails_before_reading(
            self, still_spec, still_rig):
        template = without_keypoints(sk.human_skeleton(), "l_ear", "nose")
        provider = CountingProvider(
            synth.SyntheticProvider(still_spec, still_rig))
        with pytest.raises(sk.SkeletonError,
                           match="lacks keypoints: nose, l_ear$"):
            initialize(provider, still_rig, template, PipelineConfig())
        assert provider.calls == []


class TestTrack:
    def test_positions_near_ground_truth_no_drift(self, still_spec, still_track):
        model, seq = still_track
        gt = synth.ground_truth_positions(still_spec, 0)
        for frame in seq.frames[5:]:
            for i, lb in enumerate(KEYPOINTS):
                assert np.linalg.norm(frame.positions_stage2[i] - gt[lb]) < 12.0
        late, mid = seq.frames[-1], seq.frames[len(seq.frames) // 2]
        for i in range(len(KEYPOINTS)):
            npt.assert_allclose(late.positions_stage2[i],
                                mid.positions_stage2[i], atol=1e-6)

    def test_fk_consistency_both_stages(self, still_track):
        model, seq = still_track
        for frame in seq.frames[::7]:
            fk1 = sk.forward_kinematics(model, frame.pose_stage1)
            fk2 = sk.forward_kinematics(model, frame.pose_stage2)
            for i, lb in enumerate(KEYPOINTS):
                npt.assert_allclose(frame.positions_stage1[i], fk1[lb],
                                    atol=1e-9)
                npt.assert_allclose(frame.positions_stage2[i], fk2[lb],
                                    atol=1e-9)

    def test_frame_record_metadata(self, still_track, still_rig):
        model, seq = still_track
        frame = seq.frames[0]
        assert frame.weights.shape == (len(KEYPOINTS),)
        assert set(frame.rotations) == {c.id for c in still_rig.cameras}
        assert frame.per_camera.shape == (len(KEYPOINTS), still_rig.n_c)
        assert list(frame.lattice_offsets) == list(KEYPOINTS)
        for off in frame.lattice_offsets.values():
            assert all(isinstance(v, int) for v in off)

    def test_evidence_loss_freezes_pose(self, still_spec, still_rig, still_init,
                                        tmp_path):
        model, pose0, _, first = still_init
        provider = synth.SyntheticProvider(still_spec, still_rig, n_frames=200)
        cutoff = first + 10
        masked = MaskingProvider(provider,
                                 lambda cam, frame, label: frame >= cutoff)
        seq = track(masked, still_rig, model, pose0, PipelineConfig(),
                    range(first, cutoff + 15))
        dark = [f for f in seq.frames if f.index >= cutoff]
        path = tmp_path / "diagnostics.csv"
        pipeline.write_diagnostics_csv(seq, still_rig, path)
        with open(path, newline="") as fh:
            flagged = {(int(row["frame"]), row["label"])
                       for row in csv.DictReader(fh)
                       if row["low_confidence"] == "1"}
        for f in dark:
            assert not f.weights.any()
            assert {lb for i, lb in flagged if i == f.index} == set(KEYPOINTS)
        # Stage-1 holds the warm start once evidence is gone.
        for a, b in zip(dark[5:], dark[6:]):
            npt.assert_allclose(a.pose_stage1, b.pose_stage1, atol=1e-6)

    def test_model_without_keypoint_fails_before_reading(
            self, still_spec, still_rig, still_init):
        """A model that places no l_knee is refused, not tracked without
        that marker."""
        model, pose0, _, first = still_init
        provider = CountingProvider(
            synth.SyntheticProvider(still_spec, still_rig))
        with pytest.raises(sk.SkeletonError, match="lacks keypoints: l_knee$"):
            track(provider, still_rig, without_keypoints(model, "l_knee"),
                  pose0, PipelineConfig(), range(first, first + 3))
        assert provider.calls == []

    def test_missing_frame_names_the_frame(self, still_spec, still_rig,
                                           still_init):
        model, pose0, _, first = still_init
        provider = synth.SyntheticProvider(still_spec, still_rig, n_frames=60)
        with pytest.raises(pcm.FrameMissing, match="60"):
            track(provider, still_rig, model, pose0, PipelineConfig(),
                  range(55, 65))

    def test_nan_in_a_sampled_window_names_camera_frame_and_rotation(
            self, still_spec, still_rig, still_init):
        """The neck's lattice window in the first tracked frame is centered
        on its initial position, so the cell under that projection is read."""
        model, pose0, positions0, first = still_init
        camera = still_rig.cameras[1]
        row = KEYPOINT_INDEX["neck"]
        px, _ = project_points(camera, positions0[[row]])
        x, y = np.floor(px[0] * still_spec.heatmap_scale).astype(int)
        provider = PoisonProvider(
            synth.SyntheticProvider(still_spec, still_rig, n_frames=200),
            camera.id, first, (row, y, x))
        with pytest.raises(pcm.PcmFormatError,
                           match=rf"^camera {camera.id} frame {first} "
                                 rf"rotation 0.0 deg: .*min=nan"):
            track(provider, still_rig, model, pose0, PipelineConfig(),
                  range(first, first + 3))

    def test_nan_in_an_unread_cell_tracks(self, still_provider, still_rig,
                                          still_init, still_track):
        """Values are checked where they are read: a NaN in a cell that no
        lattice window reads (and in a frame that initialization does not
        read) leaves the output as it was."""
        model, pose0, _, first = still_init
        provider = PoisonProvider(still_provider, still_rig.cameras[1].id,
                                  first + 1, (KEYPOINT_INDEX["neck"], 0, 0))
        seq = track(provider, still_rig, model, pose0, PipelineConfig(),
                    range(first, first + 3))
        for got, clean in zip(seq.frames, still_track[1].frames[:3]):
            assert got.positions_stage2.tobytes() == \
                clean.positions_stage2.tobytes()
            assert got.weights.tobytes() == clean.weights.tobytes()

    def test_offline_mode_is_fk_consistent(self, still_spec, still_rig,
                                           still_init):
        model, pose0, _, first = still_init
        provider = synth.SyntheticProvider(still_spec, still_rig, n_frames=200)
        config = PipelineConfig(filter=FilterSpec(cutoff_hz=5.0,
                                                  sample_rate_hz=60.0,
                                                  mode="offline"))
        seq = track(provider, still_rig, model, pose0, config,
                    range(first, first + 15))
        for frame in seq.frames:
            fk = sk.forward_kinematics(model, frame.pose_stage2)
            for i, lb in enumerate(KEYPOINTS):
                npt.assert_allclose(frame.positions_stage2[i], fk[lb],
                                    atol=1e-9)

    def test_monotone_evidence_under_camera_subsets(self, still_spec,
                                                    still_rig, rng):
        from mocapfuse.tracker import score_points
        provider = synth.SyntheticProvider(still_spec, still_rig, n_frames=10)
        subset = CameraRig(cameras=still_rig.cameras[:3])
        plan = no_rotation(still_rig)
        gt = synth.ground_truth_positions(still_spec, 0)
        labels = ("neck", "r_ankle", "nose")
        pts = np.stack([gt[lb] + rng.normal(0, 30, (10, 3)) for lb in labels])
        full, _ = score_points(pts, labels, provider, still_rig, 0, plan)
        part, _ = score_points(pts, labels, provider, subset, 0, plan)
        assert np.all(part <= full + 1e-12)

    def test_one_fetch_per_camera_per_frame(self):
        """track fetches each camera's rotation-0 frame once per frame, plus
        one rotated frame per camera the plan tilts."""
        spec = small_scene(motion=synth.handstand_like(period_s=4.0))
        rig = synth.build_rig(spec)
        model = synth.build_model(spec)
        frames = range(129, 132)                 # around the inversion
        pose0 = synth.ground_truth_pose(spec, frames[0] - 1)
        for rotation in (False, True):
            provider = CountingProvider(synth.SyntheticProvider(spec, rig))
            config = PipelineConfig(lattice=LatticeConfig(
                s=15.0, rotation_enabled=rotation))
            seq = track(provider, rig, model, pose0, config, frames)
            tilted = [sum(a != 0.0 for a in f.rotations.values())
                      for f in seq.frames]
            assert all(tilted) == rotation
            assert [provider.calls.count(f) for f in frames] == \
                [rig.n_c + t for t in tilted]

    def test_retained_memory_per_frame(self):
        """A tracked frame's record holds arrays: a 60-frame track of the
        small walk keeps under 8 KiB per frame alive."""
        spec = small_scene(motion=synth.walk_like())
        rig = synth.build_rig(spec)
        model = synth.build_model(spec)
        provider = synth.SyntheticProvider(spec, rig)
        pose0 = synth.ground_truth_pose(spec, 9)
        track(provider, rig, model, pose0, PipelineConfig(), range(10, 12))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            seq = track(provider, rig, model, pose0, PipelineConfig(),
                        range(10, 70))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(seq.frames) == 60
        assert retained / len(seq.frames) < 8 * 1024

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(lattice_center="stage3")
        with pytest.raises(ValueError):
            InitSettings(agreement_residual_mm=0.0)

    def test_agreement_run_longer_than_the_search_refused(self):
        """A run of more than MAX_SEARCH_FRAMES frames can never be found,
        so the setting is refused with the cap named, not searched for."""
        assert InitSettings(min_agreement_frames=pipeline.MAX_SEARCH_FRAMES)
        with pytest.raises(ValueError, match=r"<= 120, .*MAX_SEARCH_FRAMES"):
            InitSettings(min_agreement_frames=pipeline.MAX_SEARCH_FRAMES + 1)
        with pytest.raises(ValueError, match=r"^config init: "
                                             r"min_agreement_frames must be "
                                             r"<= 120.*got 121$"):
            PipelineConfig.from_dict({"init": {"min_agreement_frames": 121}})


def handstand_config():
    return PipelineConfig(
        lattice=LatticeConfig(s=15.0, rotation_enabled=True),
        filter=FilterSpec(cutoff_hz=10.0, sample_rate_hz=60.0),
        lattice_center="stage1")


class TestTrackingIk:
    def test_poses_do_not_depend_on_last_bit_rounding(self, monkeypatch):
        """Tracking IK stops at a minimum, not along a flat valley: scaling
        every Jacobian entry by 1 + 1e-13 * N(0, 1) moves no stage-1 or
        stage-2 pose by 1e-9, and stage 1 rarely runs to the cap."""
        spec = synth.SceneSpec(
            motion=synth.handstand_like(period_s=4.0),
            tilt_bias=synth.TiltBias(enabled=True, jitter_px=10.0))
        rig = synth.build_rig(spec)
        model = synth.build_model(spec)
        frames = range(10, 30)
        pose0 = synth.ground_truth_pose(spec, frames[0] - 1)
        solve, fk_and_jacobians = ik.solve, sk.fk_and_jacobians

        def run(perturb):
            results = []
            rng = np.random.default_rng(0)

            def counted_solve(*args, **kwargs):
                results.append(solve(*args, **kwargs))
                return results[-1]

            def perturbed(*args, **kwargs):
                positions, jac = fk_and_jacobians(*args, **kwargs)
                return positions, jac * (1.0 + 1e-13
                                         * rng.standard_normal(jac.shape))

            with monkeypatch.context() as m:
                m.setattr(ik, "solve", counted_solve)
                if perturb:
                    m.setattr(sk, "fk_and_jacobians", perturbed)
                seq = track(synth.SyntheticProvider(spec, rig), rig, model,
                            pose0, handstand_config(), frames)
            # Causal mode: each frame solves stage 1, then stage 2.
            assert len(results) == 2 * len(frames)
            return seq, results[::2]

        (ref, stage1), (moved, _) = run(False), run(True)
        for a, b in zip(ref.frames, moved.frames):
            assert np.abs(a.pose_stage1 - b.pose_stage1).max() < 1e-9
            assert np.abs(a.pose_stage2 - b.pose_stage2).max() < 1e-9
        capped = [r for r in stage1 if not r.converged
                  and r.iterations >= ik.IkSettings().max_iterations]
        assert len(capped) < 0.05 * len(stage1)


class TestConfigTree:
    def test_round_trip(self):
        for config in (PipelineConfig(), handstand_config()):
            assert PipelineConfig.from_dict(config.to_dict()) == config
            tree = json.loads(json.dumps(config.to_dict()))
            assert PipelineConfig.from_dict(tree) == config

    def test_partial_tree_keeps_defaults(self):
        tree = {"lattice": {"s": 15, "rotation_enabled": True},
                "filter": {"cutoff_hz": 10},
                "lattice_center": "stage1"}
        config = PipelineConfig.from_dict(tree)
        assert config == handstand_config()
        assert isinstance(config.lattice.s, float)
        assert PipelineConfig.from_dict({}) == PipelineConfig()

    def test_unknown_key_names_its_path(self):
        for tree, path in (({"lattice": {"spacing": 5}}, "lattice.spacing"),
                           ({"lattice_centre": "stage1"}, "lattice_centre"),
                           ({"ik": {"max_iterations": 50}}, "ik"),
                           ({"lattice": {"tilt_threshold_deg": 45.0}},
                            "lattice.tilt_threshold_deg"),
                           ({"init": {"centroid_floor": 0.3}},
                            "init.centroid_floor"),
                           ({"init": {"max_search_frames": 120}},
                            "init.max_search_frames"),
                           ({"low_confidence_fraction": 0.05},
                            "low_confidence_fraction")):
            with pytest.raises(ValueError, match=f"'{path}'"):
                PipelineConfig.from_dict(tree)

    def test_settable_values(self):
        """Every leaf of the config tree; a new setting is added here on
        purpose, once something sets it."""
        def leaves(tree, prefix=""):
            for key, value in tree.items():
                if isinstance(value, dict):
                    yield from leaves(value, prefix + key + ".")
                else:
                    yield prefix + key

        assert sorted(leaves(PipelineConfig().to_dict())) == [
            "filter.cutoff_hz", "filter.mode", "filter.sample_rate_hz",
            "init.agreement_residual_mm", "init.min_agreement_frames",
            "lattice.k", "lattice.rotation_enabled", "lattice.s",
            "lattice_center"]

    def test_non_finite_values_are_refused(self):
        """NaN and +-Infinity, as a JSON config file may hold them, are
        refused for every float setting, with the setting named."""
        for section, key, named in (("lattice", "s", "spacing s"),
                                    ("filter", "cutoff_hz", "cutoff"),
                                    ("filter", "sample_rate_hz",
                                     "sample_rate_hz"),
                                    ("init", "agreement_residual_mm",
                                     "agreement_residual_mm")):
            for text in ("NaN", "Infinity", "-Infinity"):
                tree = json.loads(f'{{"{section}": {{"{key}": {text}}}}}')
                with pytest.raises(ValueError, match=f"^config {section}: "
                                                     f".*{named}"):
                    PipelineConfig.from_dict(tree)
        for build in (lambda: LatticeConfig(s=math.nan),
                      lambda: LatticeConfig(s=math.inf),
                      lambda: LatticeConfig(k=3.0),
                      lambda: InitSettings(agreement_residual_mm=math.nan),
                      lambda: InitSettings(min_agreement_frames=10.0),
                      lambda: FilterSpec(cutoff_hz=5.0,
                                         sample_rate_hz=math.inf)):
            with pytest.raises(ValueError):
                build()

    def test_values_are_checked(self):
        for tree in ({"lattice": {"k": 0}},            # section validation
                     {"lattice_center": "stage3"},
                     {"filter": {"cutoff_hz": 30.0}},
                     {"lattice": {"k": 3.0}},          # wrong types
                     {"lattice": {"rotation_enabled": 1}},
                     {"init": {"min_agreement_frames": "8"}},
                     {"init": 8},
                     []):
            with pytest.raises(ValueError):
                PipelineConfig.from_dict(tree)


class TestOutputs:
    def test_positions_csv_round_trip(self, still_track, tmp_path):
        model, seq = still_track
        path = tmp_path / "positions.csv"
        pipeline.write_positions_csv(seq, path)
        indices, frames = pipeline.read_positions_csv(path, stage="stage2")
        assert indices == seq.frame_indices()
        for rec, back in zip(seq.frames, frames):
            for i, lb in enumerate(KEYPOINTS):
                npt.assert_array_equal(back[lb], rec.positions_stage2[i])
        indices1, frames1 = pipeline.read_positions_csv(path, stage="stage1")
        for rec, back in zip(seq.frames, frames1):
            for i, lb in enumerate(KEYPOINTS):
                npt.assert_array_equal(back[lb], rec.positions_stage1[i])

    def test_pose_csv_layout(self, still_track, tmp_path):
        model, seq = still_track
        path = tmp_path / "pose.csv"
        pipeline.write_pose_csv(seq, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frame,time_s," + ",".join(
            f"q{i}" for i in range(model.total_dof))
        assert len(lines) == len(seq.frames) + 1

    def test_run_metadata(self, still_track, tmp_path):
        model, seq = still_track
        path = tmp_path / "run.json"
        pipeline.write_run_metadata(path, PipelineConfig(), model,
                                    extra={"frames": [0, 40]})
        payload = json.loads(path.read_text())
        assert payload["config"]["lattice"]["s"] == 10.0
        assert payload["config"] == PipelineConfig().to_dict()
        assert payload["frames"] == [0, 40]
        assert set(payload["link_lengths_mm"]) == {
            j.name for j in model.joints if j.parent >= 0}

    @pytest.mark.parametrize("mode", ["causal", "offline"])
    def test_csv_bytes_equal_csv_writer(self, tmp_path, mode):
        """The positions and diagnostics files of a small walk are byte for
        byte what ``csv.writer`` writes for their rows."""
        spec = small_scene(motion=synth.walk_like())
        rig = synth.build_rig(spec)
        config = PipelineConfig(filter=FilterSpec(
            cutoff_hz=6.0, sample_rate_hz=spec.fps, mode=mode))
        seq = track(synth.SyntheticProvider(spec, rig), rig,
                    synth.build_model(spec), synth.ground_truth_pose(spec, 9),
                    config, range(10, 16))
        for write, reference, args in (
                (pipeline.write_positions_csv, csv_writer_positions, ()),
                (pipeline.write_diagnostics_csv, csv_writer_diagnostics,
                 (rig,))):
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            write(seq, *args, got)
            reference(seq, *args, want)
            assert got.read_bytes() == want.read_bytes()

    def test_diagnostics_csv(self, still_track, still_rig, tmp_path):
        model, seq = still_track
        path = tmp_path / "diagnostics.csv"
        pipeline.write_diagnostics_csv(seq, still_rig, path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:7] == ["frame", "label", "a", "b", "c", "weight",
                              "low_confidence"]
        assert header[7:] == [f"sample_cam{c.id}" for c in still_rig.cameras]
        assert len(lines) == len(seq.frames) * len(KEYPOINTS) + 1
