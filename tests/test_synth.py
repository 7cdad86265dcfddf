import dataclasses
import gc
import json
import math
import os
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from conftest import small_scene
from helpers import render, resident_mb, value_id
from mocapfuse import pcm, skeleton as sk, synth
from mocapfuse.calib import project_points, rotate_pixel
from mocapfuse.labels import KEYPOINT_INDEX, KEYPOINTS, LOWER_BODY
from mocapfuse.pipeline import CENTROID_FLOOR


def peak_image_coords(frame, label):
    grid = frame.channels[KEYPOINT_INDEX[label]]
    iy, ix = np.unravel_index(int(np.argmax(grid)), grid.shape)
    return np.array([ix, iy], dtype=float) / frame.scale


def inversion_spec(**tilt_kw):
    """Handstand scene at reduced resolution; frame 252 is full inversion."""
    return small_scene(
        motion=synth.handstand_like(hold_frames=12, period_s=8.0),
        tilt_bias=synth.TiltBias(enabled=True, **tilt_kw))


INVERSION_FRAME = 252   # hold 12 + half an 8 s period at 60 fps


class TestDofCurve:
    def test_quarter_period_reaches_amplitude(self):
        curve = synth.DofCurve(offset=0.3, amp=2.0, freq_hz=0.5)
        assert curve.value(0.5) == pytest.approx(2.3)
        assert curve.value(0.0) == pytest.approx(0.3)

    def test_constant_curve(self):
        assert synth.DofCurve(offset=-1.5).value(3.7) == -1.5


class TestMotionProgram:
    def test_hold_freezes_initial_pose(self):
        program = synth.walk_like(hold_frames=10)
        model = sk.human_skeleton()
        q0 = program.pose(0, 60.0, model)
        assert q0.shape == (model.total_dof,)
        for frame in (3, 7, 10):
            npt.assert_array_equal(program.pose(frame, 60.0, model), q0)
        assert not np.array_equal(program.pose(30, 60.0, model), q0)

    @pytest.mark.parametrize("hold_frames", [-5, 10 ** 400, True, 2.0],
                             ids=value_id)
    def test_hold_frames_checked(self, hold_frames):
        with pytest.raises(ValueError, match="^hold_frames must be a finite "
                                             "int >= 0, got "):
            synth.walk_like(hold_frames=hold_frames)


class TestSceneSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_scene(sigma_px=0.0)
        with pytest.raises(ValueError):
            small_scene(camera_count=1)
        with pytest.raises(ValueError):
            small_scene(tilt_bias=synth.TiltBias(floor=1.5))


class TestBuildRig:
    def test_geometry(self, still_spec, still_rig):
        assert [c.id for c in still_rig.cameras] == list(range(4))
        for camera in still_rig.cameras:
            p = camera.center
            d = np.linalg.norm(p[:2])
            assert d == pytest.approx(still_spec.camera_distance_mm)
            assert p[2] == pytest.approx(still_spec.camera_height_mm)
            px, in_front = project_points(camera,
                                          np.array(still_spec.look_at_mm))
            assert in_front
            npt.assert_allclose(px, [camera.cx, camera.cy], atol=1e-6)


class TestGroundTruth:
    def test_reference_pose_with_root_height(self, still_spec):
        gt = synth.ground_truth_positions(still_spec, 0)
        npt.assert_allclose(0.5 * (gt["r_hip"] + gt["l_hip"]),
                            [0.0, 0.0, 1000.0], atol=1e-12)
        npt.assert_allclose(gt["neck"], [0.0, 0.0, 1500.0], atol=1e-12)
        npt.assert_allclose(gt["r_ankle"], [100.0, 0.0, 180.0], atol=1e-12)

    def test_negative_frame_rejected(self, still_spec):
        with pytest.raises(ValueError, match="-3"):
            synth.ground_truth_positions(still_spec, -3)

    def test_repeated_calls_are_pure(self, still_spec):
        a = synth.ground_truth_positions(still_spec, 5)
        a["neck"][:] = 0.0
        b = synth.ground_truth_positions(still_spec, 5)
        npt.assert_allclose(b["neck"], [0.0, 0.0, 1500.0], atol=1e-12)


class TestRenderFrame:
    def test_centroids_match_projections(self, still_spec, still_rig):
        gt = synth.ground_truth_positions(still_spec, 0)
        for camera in still_rig.cameras:
            frame = render(still_spec, camera, 0)
            rows = pcm.centroids(frame, CENTROID_FLOOR)
            for label, c in zip(KEYPOINTS, rows):
                px, in_front = project_points(camera, gt[label])
                assert in_front
                assert np.linalg.norm(c - px) < 0.5

    def test_deterministic(self, still_rig):
        noisy = small_scene(noise=synth.NoiseModel(
            jitter_px=2.0, amplitude_std=0.2, false_peak_rate=0.5))
        a = render(noisy, still_rig.cameras[1], 7)
        b = render(noisy, still_rig.cameras[1], 7)
        npt.assert_array_equal(a.channels, b.channels)

    def test_channels_stay_in_range_under_noise(self, still_rig):
        noisy = small_scene(noise=synth.NoiseModel(
            jitter_px=3.0, amplitude_std=1.0, false_peak_rate=1.0))
        for frame_index in range(3):
            frame = render(noisy, still_rig.cameras[0], frame_index)
            assert frame.channels.min() >= 0.0
            assert frame.channels.max() <= 1.0

    def test_rotated_render_moves_peak(self, still_spec, still_rig):
        camera = still_rig.cameras[0]
        gt = synth.ground_truth_positions(still_spec, 0)
        frame = render(still_spec, camera, 0, rotation_deg=37.0)
        assert frame.rotation_deg == 37.0
        px, _ = project_points(camera, gt["neck"])
        expected = rotate_pixel(px, 37.0, camera.image_center)
        assert np.linalg.norm(peak_image_coords(frame, "neck") - expected) <= 1.0

    def test_renders_at_the_angle_bin_it_labels(self, still_rig):
        """A frame labelled with a 1-degree bin is rendered at that bin: the
        pixels and the tilt bias, not only ``rotation_deg``."""
        camera = still_rig.cameras[0]
        walk = small_scene(motion=synth.walk_like())
        for spec, frame_index, angle, binned in (
                (walk, 0, 12.3, 12.0), (walk, 40, -7.6, -8.0),
                (inversion_spec(), INVERSION_FRAME, 179.6, 180.0)):
            a = render(spec, camera, frame_index, angle)
            b = render(spec, camera, frame_index, binned)
            assert a.rotation_deg == b.rotation_deg == binned
            npt.assert_array_equal(a.channels, b.channels)


class TestTiltBias:
    def test_multiplier_shape(self):
        bias = synth.TiltBias(enabled=True)
        assert bias.multiplier(0.0) == 1.0
        assert bias.multiplier(45.0) == 1.0
        assert bias.multiplier(-30.0) == 1.0
        assert bias.multiplier(180.0) == pytest.approx(0.15)
        assert bias.multiplier(-180.0) == pytest.approx(0.15)
        tilts = np.linspace(0.0, 180.0, 181)
        vals = [bias.multiplier(t) for t in tilts]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_disabled_is_identity(self):
        bias = synth.TiltBias(enabled=False)
        assert bias.multiplier(180.0) == 1.0
        assert bias.jitter_std(180.0) == 0.0

    def test_jitter_ramp(self):
        bias = synth.TiltBias(enabled=True, jitter_px=8.0)
        assert bias.jitter_std(30.0) == 0.0
        assert bias.jitter_std(180.0) == pytest.approx(8.0)
        assert 0.0 < bias.jitter_std(100.0) < 8.0

    def test_inverted_body_degrades_lower_channels(self, still_rig):
        spec = inversion_spec(jitter_px=0.0)
        camera = still_rig.cameras[0]
        plain = render(spec, camera, INVERSION_FRAME)
        for label in sorted(LOWER_BODY):
            peak = plain.channels[KEYPOINT_INDEX[label]].max()
            assert peak < 0.3
        upper = plain.channels[KEYPOINT_INDEX["neck"]].max()
        assert upper > 0.9

    def test_tilt_aligned_render_recovers_amplitude(self, still_rig):
        spec = inversion_spec(jitter_px=0.0)
        camera = still_rig.cameras[0]
        aligned = render(spec, camera, INVERSION_FRAME, rotation_deg=180.0)
        for label in sorted(LOWER_BODY):
            assert aligned.channels[KEYPOINT_INDEX[label]].max() > 0.8

    def test_jitter_blurs_plain_but_not_aligned_render(self, still_rig):
        spec = inversion_spec(jitter_px=20.0)
        camera = still_rig.cameras[0]
        gt = synth.ground_truth_positions(spec, INVERSION_FRAME)
        plain = render(spec, camera, INVERSION_FRAME)
        aligned = render(spec, camera, INVERSION_FRAME, rotation_deg=180.0)
        displaced = []
        for label in sorted(LOWER_BODY):
            px, _ = project_points(camera, gt[label])
            displaced.append(
                np.linalg.norm(peak_image_coords(plain, label) - px))
            rotated = rotate_pixel(px, 180.0, camera.image_center)
            off = np.linalg.norm(peak_image_coords(aligned, label) - rotated)
            assert off <= 1.5
        assert max(displaced) > 3.0


class TestProvider:
    def test_out_of_range_frame(self, still_provider):
        with pytest.raises(pcm.FrameMissing, match="200"):
            still_provider.get(0, 200)

    def test_rotation_quantization(self, still_spec, still_rig):
        provider = synth.SyntheticProvider(still_spec, still_rig, n_frames=5)
        a = provider.get(0, 0, 12.3)
        b = provider.get(0, 0, 11.8)
        assert a.rotation_deg == b.rotation_deg == 12.0
        npt.assert_array_equal(a.channels, b.channels)

    def test_negative_rotation_draws_the_noise_of_its_angle(self, still_rig):
        noisy = small_scene(noise=synth.NoiseModel(
            jitter_px=1.0, amplitude_std=0.2, false_peak_rate=0.5))
        provider = synth.SyntheticProvider(noisy, still_rig, n_frames=5)
        a = provider.get(0, 3, -30.0)
        b = provider.get(0, 3, 330.0)
        assert a.rotation_deg == -30.0
        # The same image rotation and the same draws; only the rotation
        # matrices of -30 and 330 degrees differ, in their last bits.
        npt.assert_allclose(a.channels, b.channels, atol=1e-6)

    def test_truth_memo_follows_the_frame(self, still_rig):
        """The provider's one-frame keypoint memo never serves another
        frame: each render equals a fresh one that computes its own truth."""
        spec = small_scene(
            motion=synth.handstand_like(period_s=4.0),
            noise=synth.NoiseModel(jitter_px=1.0, amplitude_std=0.2,
                                   false_peak_rate=0.5),
            tilt_bias=synth.TiltBias(enabled=True, jitter_px=6.0))
        provider = synth.SyntheticProvider(spec, still_rig, n_frames=200)
        f = 130
        for frame_index, cam, rotation in [(f, 0, 0.0), (f + 1, 2, 37.0),
                                           (f, 1, -120.0), (f, 1, 0.0)]:
            got = provider.get(cam, frame_index, rotation)
            fresh = render(spec, still_rig.camera(cam), frame_index, rotation)
            npt.assert_array_equal(got.channels, fresh.channels)
        # The two frames render differently, so a stale memo would show.
        other = render(spec, still_rig.camera(1), f + 1, 0.0)
        assert not np.array_equal(got.channels, other.channels)

    def test_provider_keeps_no_frames(self, still_spec, still_rig):
        provider = synth.SyntheticProvider(still_spec, still_rig, n_frames=5)
        frame = provider.get(0, 0)
        ref = weakref.ref(frame)
        del frame
        gc.collect()
        assert ref() is None

    def test_negative_frame_is_missing(self, still_spec, still_rig):
        for n_frames in (None, 5):
            provider = synth.SyntheticProvider(still_spec, still_rig,
                                               n_frames=n_frames)
            with pytest.raises(pcm.FrameMissing, match="-1"):
                provider.get(0, -1)

    def test_held_frames_and_views_are_never_overwritten(self, still_rig):
        """Frames, and bare views of their channels, held across more renders
        than the pool keeps buffers, still equal copies taken when they were
        handed out."""
        spec = small_scene(
            motion=synth.walk_like(hold_frames=0),
            noise=synth.NoiseModel(jitter_px=1.0, amplitude_std=0.2,
                                   false_peak_rate=0.5))
        provider = synth.SyntheticProvider(spec, still_rig)
        held = []
        for i in range(3 * synth._POOL_CAP):
            frame = provider.get(i % 4, i, 30.0 * (i % 3))
            kept = (frame, frame.channels[3], frame.channels.reshape(-1))[i % 3]
            held.append((kept, np.array(getattr(kept, "channels", kept))))
            del frame, kept
        # Renders made while all of those are held.
        for i in range(2 * synth._POOL_CAP):
            provider.get(i % 4, 40 + i)
        for kept, copy in held:
            npt.assert_array_equal(getattr(kept, "channels", kept), copy)

    def test_channels_are_read_only(self, dataset):
        spec, out, _, rig = dataset
        for provider in (synth.SyntheticProvider(spec, rig),
                         pcm.DirectoryProvider(os.path.join(out, "pcm"))):
            frame = provider.get(1, 0)
            with pytest.raises(ValueError):
                frame.channels[0, 0, 0] = 0.5
            with pytest.raises(ValueError):
                frame.channels.reshape(-1)[:] = 0.0
        with pytest.raises(ValueError):
            render(spec, rig.cameras[0], 0).channels[2] += 0.1

    def test_dropped_frames_reuse_the_pool(self, still_rig):
        """A loop that drops each frame renders into at most the pool's
        buffers, and each render equals a fresh one."""
        spec = small_scene(motion=synth.walk_like(hold_frames=0),
                           noise=synth.NoiseModel(false_peak_rate=0.5))
        provider = synth.SyntheticProvider(spec, still_rig)
        addresses = set()
        for i in range(30):
            channels = provider.get(i % 4, i, 45.0 * (i % 2)).channels
            addresses.add(channels.__array_interface__["data"][0])
            fresh = render(spec, still_rig.camera(i % 4), i, 45.0 * (i % 2))
            npt.assert_array_equal(channels, fresh.channels)
            del channels
        assert len(addresses) <= synth._POOL_CAP

    @pytest.mark.parametrize("read", ["centroids", "write_pcm"])
    def test_whole_frame_reads_make_only_drawn_pages_resident(
            self, read, tmp_path):
        """A fresh default-scene frame is 14.2 MB, of which its bumps draw
        a few hundred KB; reading all of it leaves the rest unallocated."""
        if resident_mb() is None:
            pytest.skip("no /proc/self/statm to read resident memory from")
        provider = synth.SyntheticProvider(
            synth.SceneSpec(motion=synth.walk_like()))
        frame = provider.get(0, 0)
        before = resident_mb()
        if read == "centroids":
            pcm.centroids(frame, CENTROID_FLOOR)
        else:
            pcm.write_pcm(frame, tmp_path / "frame.pcm")
        assert resident_mb() - before < 1.0

    def test_first_bump_is_stored_with_the_bits_of_an_added_one(
            self, still_rig, monkeypatch):
        """Each channel's first bump is stored into its all-zero window;
        renders whose bumps are all added instead have the same bits, with
        noise, false peaks and the tilt bias on."""
        spec = dataclasses.replace(
            inversion_spec(jitter_px=4.0), noise=synth.NoiseModel(
                jitter_px=1.0, amplitude_std=0.5, false_peak_rate=0.5))
        provider = synth.SyntheticProvider(spec, still_rig)
        keys = [(i % 4, 200 + 13 * i, 40.0 * (i % 3)) for i in range(12)]
        stored = [np.array(provider.get(*key).channels) for key in keys]
        splat = synth._splat
        monkeypatch.setattr(synth, "_splat",
                            lambda *args, fresh=False: splat(*args))
        for key, channels in zip(keys, stored):
            assert provider.get(*key).channels.tobytes() == \
                channels.tobytes(), key


class TestSceneJson:
    def test_round_trip(self):
        def changed(default):
            """Copy of the dataclass ``default`` with every field that has a
            default set to another valid value (nested ones field by
            field), so that a field added later is covered too."""
            values = {}
            for f in dataclasses.fields(default):
                if f.default is f.default_factory is dataclasses.MISSING:
                    continue
                value = getattr(default, f.name)
                if dataclasses.is_dataclass(value):
                    values[f.name] = changed(value)
                elif isinstance(value, bool):
                    values[f.name] = not value
                elif isinstance(value, int):
                    values[f.name] = value + 1
                elif isinstance(value, float):
                    values[f.name] = 0.5 * value + 0.3
                else:
                    values[f.name] = tuple(v + 1.0 for v in value)
                assert values[f.name] != value, f.name
            return dataclasses.replace(default, **values)

        spec = changed(synth.SceneSpec(motion=synth.walk_like(hold_frames=7)))
        payload = json.loads(json.dumps(synth.spec_to_json(spec)))
        kept = json.loads(json.dumps(payload))
        back = synth.spec_from_json(payload)
        assert back == spec
        assert payload == kept          # the argument is not consumed
        # Motions a preset name cannot reproduce are refused when written.
        for motion in (synth.handstand_like(period_s=4.0),
                       synth.MotionProgram(curves={}, name="still"),
                       synth.MotionProgram(curves={})):
            with pytest.raises(ValueError):
                synth.spec_to_json(small_scene(motion=motion))
        # A file with an unknown or missing preset is refused by key.
        for bad in ({"motion": {"preset": "custom"}}, {}):
            with pytest.raises(ValueError, match=r"motion\.preset") as exc:
                synth.spec_from_json(bad)
            assert str(sorted(synth.PRESETS)) in str(exc.value)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    spec = small_scene(motion=synth.walk_like(hold_frames=2),
                       camera_count=3, image_width=160, image_height=120,
                       focal_px=150.0, sigma_px=3.0)
    out = tmp_path_factory.mktemp("dataset")
    truth, rig = synth.generate(spec, 3, out)
    return spec, out, truth, rig


class TestGenerate:
    def test_file_tree(self, dataset):
        spec, out, truth, rig = dataset
        for name in ("calib.json", "scene.json", "ground_truth.csv"):
            assert os.path.exists(os.path.join(out, name))
        for cam in range(3):
            for frame in range(3):
                assert os.path.exists(os.path.join(
                    out, "pcm", f"cam{cam}", "rot0", f"frame{frame}.pcm"))

    def test_files_match_fresh_renders(self, dataset):
        spec, out, truth, rig = dataset
        provider = pcm.DirectoryProvider(os.path.join(out, "pcm"))
        frame = provider.get(1, 2)
        fresh = render(spec, rig.camera(1), 2)
        npt.assert_array_equal(frame.channels, fresh.channels)
        assert frame.scale == fresh.scale

    def test_every_file_matches_a_fresh_render(self, tmp_path):
        """Each frame's files render from that frame's truth (the subject
        moves from frame 0 on)."""
        spec = small_scene(motion=synth.walk_like(hold_frames=0),
                           camera_count=2, image_width=160, image_height=120,
                           focal_px=150.0, sigma_px=3.0,
                           noise=synth.NoiseModel(jitter_px=0.5))
        _, rig = synth.generate(spec, 3, tmp_path)
        for camera in rig.cameras:
            for frame_index in range(3):
                back = pcm.read_pcm(pcm.frame_path(
                    os.path.join(tmp_path, "pcm"), camera.id, frame_index))
                fresh = render(spec, camera, frame_index)
                npt.assert_array_equal(back.channels, fresh.channels)

    def test_unbuildable_rig_writes_nothing(self, tmp_path):
        """A look_at_mm straight below camera 0 is refused by name before
        the output directory is created."""
        angle = math.pi / 4           # camera 0 of a 4-camera rig
        spec = small_scene(look_at_mm=(2800.0 * math.cos(angle),
                                       2800.0 * math.sin(angle), 0.0))
        with pytest.raises(ValueError, match="^look_at_mm: camera 0: "):
            synth.generate(spec, 1, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_scene_json_reloads(self, dataset):
        spec, out, truth, rig = dataset
        with open(os.path.join(out, "scene.json")) as fh:
            back = synth.spec_from_json(json.load(fh))
        assert back == spec

    def test_ground_truth_round_trip(self, dataset):
        spec, out, truth, rig = dataset
        indices, frames = synth.read_ground_truth_csv(
            os.path.join(out, "ground_truth.csv"))
        assert indices == [0, 1, 2]
        assert truth.shape == (3, len(KEYPOINTS), 3)
        for i, (written, back) in enumerate(zip(truth, frames)):
            npt.assert_array_equal(
                written, synth.ground_truth_keypoints(spec, i))
            for label, row in zip(KEYPOINTS, written):
                npt.assert_array_equal(back[label], row)
