import os
import re
import signal
import struct
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest

from conftest import small_scene
from helpers import (DictProvider, frame_with_channel, gaussian_grid,
                     make_frame, render, sample_oracle, tobytes_write_pcm,
                     wholeframe_centroids)
from mocapfuse import pcm, synth, tracker
from mocapfuse.calib import Camera, CameraRig, project_points, rotate_pixel
from mocapfuse.labels import KEYPOINT_INDEX, KEYPOINTS
from mocapfuse.pipeline import CENTROID_FLOOR


def refused(call):
    """True if ``call()`` refuses the values it reads with PcmFormatError."""
    try:
        call()
    except pcm.PcmFormatError:
        return True
    return False


class TestHeatmapFrame:
    """A frame is built without looking at its values; the cells that
    ``sample_channels`` and ``centroids`` read are checked there."""

    def test_value_range_enforced(self):
        channels = np.zeros((18, 8, 8), dtype=np.float32)
        channels[0, 0, 0] = 1.5
        frame = make_frame(channels=channels, h=8, w=8)
        with pytest.raises(pcm.PcmFormatError, match=r"outside \[0, 1\]"):
            pcm.sample_channels(frame, 0, (0.0, 0.0), [True])
        with pytest.raises(pcm.PcmFormatError, match=r"outside \[0, 1\]"):
            pcm.centroids(frame, CENTROID_FLOOR)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_nan_inf_and_negative_rejected(self, bad):
        channels = np.zeros((18, 8, 8), dtype=np.float32)
        channels[3, 2, 5] = bad
        frame = make_frame(channels=channels, h=8, w=8, camera_id=4,
                           frame_index=9, rotation=-37.0)
        where = r"camera 4 frame 9 rotation -37.0 deg: .*outside \[0, 1\].*min="
        with pytest.raises(pcm.PcmFormatError, match=where):
            pcm.sample_channels(frame, 3, (5.0, 2.0), [True])
        for floor in (0.0, CENTROID_FLOOR):
            with pytest.raises(pcm.PcmFormatError, match=where):
                pcm.centroids(frame, floor)

    def test_negative_zero_and_one_accepted(self, rng):
        channels = rng.uniform(0.0, 1.0, (18, 8, 8)).astype(np.float32)
        channels[5] = -0.0
        channels[0, 0, 0] = 1.0
        frame = make_frame(channels=channels, h=8, w=8)
        assert np.signbit(frame.channels[5]).all()
        assert pcm.sample_channels(frame, 5, (3.5, 2.5), [True])[0] == 0.0
        assert pcm.sample_channels(frame, 0, (0.0, 0.0), [True])[0] == 1.0
        assert np.isnan(pcm.centroids(frame, 0.0)[5]).all()

    def test_bit_check_agrees_with_the_value_range(self, rng):
        """Random float32 bit patterns, and the edges of [0, 1], are
        accepted by ``sample_channels`` and ``centroids`` exactly when
        0 <= value <= 1."""
        values = np.concatenate([
            rng.integers(0, 2**32, 4000, dtype=np.uint64).astype(np.uint32)
            .view(np.float32),
            np.float32([0.0, -0.0, 1.0, np.nextafter(np.float32(1), 2),
                        np.nextafter(np.float32(0), -1), np.inf, -np.inf,
                        np.nan, -np.nan, 1e-45, 0.5])])
        for value in values:
            channels = np.zeros((18, 1, 1), dtype=np.float32)
            channels[7, 0, 0] = value
            frame = make_frame(channels=channels, h=1, w=1)
            with np.errstate(invalid="ignore"):
                inside = bool(0.0 <= value <= 1.0)
            assert refused(
                lambda: pcm.sample_channels(frame, 7, (0, 0), [True])) \
                == (not inside), value
            for floor in (0.0, CENTROID_FLOOR):
                assert refused(lambda: pcm.centroids(frame, floor)) \
                    == (not inside), (value, floor)

    def test_channel_count_enforced(self):
        # The frame's size is its channels' shape: (18, h, w), h and w > 0.
        for shape in ((17, 8, 8), (18, 0, 8), (18, 8, 0), (18, 8),
                      (18, 8, 8, 1)):
            with pytest.raises(pcm.PcmError, match="channels must be"):
                make_frame(channels=np.zeros(shape))

    def test_bad_scale(self):
        for scale in (0.0, -0.5, np.nan, np.inf, True):
            with pytest.raises(pcm.PcmError, match="scale"):
                make_frame(scale=scale)

    def test_numpy_and_int_scales_accepted(self):
        # The range rule's float: a numpy float32, as a header read with
        # numpy gives it, or an int.
        for scale in (np.float32(0.5), np.float64(0.25), 2):
            assert make_frame(scale=scale).scale == scale


def sample(frame, label, pixel):
    """One bilinear sample of ``label``'s channel at an image-space pixel."""
    return float(pcm.sample_channels(frame, KEYPOINT_INDEX[label], pixel,
                                     [True])[0])


class TestSample:
    def test_constant_channel(self):
        frame = frame_with_channel("neck", np.full((48, 64), 0.7, np.float32))
        assert sample(frame, "neck", (10.3, 20.7)) == pytest.approx(0.7)

    def test_peak_at_grid_point(self):
        frame = frame_with_channel("nose", gaussian_grid(48, 64, 30, 20, 5.0))
        assert sample(frame, "nose", (30, 20)) == pytest.approx(1.0)

    def test_half_pixel_is_mean_of_straddled_values(self):
        grid = gaussian_grid(48, 64, 30, 20, 5.0).astype(np.float32)
        frame = frame_with_channel("nose", grid)
        expected = 0.5 * (grid[20, 30] + grid[20, 31])
        assert sample(frame, "nose", (30.5, 20)) == pytest.approx(expected)

    def test_out_of_bounds_is_zero(self):
        frame = frame_with_channel("nose", np.ones((48, 64), np.float32))
        assert sample(frame, "nose", (-5, 10)) == 0.0
        assert sample(frame, "nose", (62.5, 46.5)) > 0.0
        assert sample(frame, "nose", (63.2, 10)) == 0.0

    def test_scale_maps_image_to_heatmap(self):
        grid = gaussian_grid(24, 32, 16, 12, 3.0)
        frame = frame_with_channel("neck", grid, scale=0.5)
        # Image pixel (32, 24) lands on heatmap cell (16, 12).
        assert sample(frame, "neck", (32, 24)) == pytest.approx(1.0)

    def test_valid_mask_forces_zero(self):
        frame = frame_with_channel("neck", np.ones((48, 64), np.float32))
        vals = pcm.sample_channels(frame, KEYPOINT_INDEX["neck"],
                                   [(10, 10), (10, 10)], valid=[True, False])
        npt.assert_array_equal(vals, [1.0, 0.0])

    def test_continuity_across_cells(self, rng):
        grid = rng.uniform(0, 1, (48, 64)).astype(np.float32)
        frame = frame_with_channel("r_knee", grid)
        for _ in range(200):
            p = rng.uniform([0, 0], [62, 46])
            a = sample(frame, "r_knee", p)
            b = sample(frame, "r_knee", p + [1e-6, 0])
            c = sample(frame, "r_knee", p + [0, 1e-6])
            assert abs(a - b) <= 1e-5 and abs(a - c) <= 1e-5

    def test_values_stay_in_unit_interval(self, rng):
        grid = rng.uniform(0, 1, (48, 64)).astype(np.float32)
        frame = frame_with_channel("r_knee", grid)
        pts = rng.uniform([-10, -10], [80, 60], (500, 2))
        vals = pcm.sample_channels(frame, KEYPOINT_INDEX["r_knee"], pts,
                                   np.ones(len(pts), bool))
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5, 1.5])
    def test_bad_corner_refused_even_where_the_sample_is_zero(self, bad):
        """Every gathered corner is checked: an in-grid sample, a masked
        one and an out-of-grid one clamped onto the bad cell all refuse."""
        grid = np.full((48, 64), 0.5, np.float32)
        grid[0, 0] = grid[20, 30] = bad
        frame = frame_with_channel("neck", grid, camera_id=2, frame_index=8)
        chan = KEYPOINT_INDEX["neck"]
        for pixel, valid in (((30.5, 20.5), [True]), ((30.0, 20.0), [False]),
                             ((-5.0, -5.0), [True])):
            with pytest.raises(pcm.PcmFormatError,
                               match=r"camera 2 frame 8 rotation 0.0 deg"):
                pcm.sample_channels(frame, chan, pixel, valid=valid)
        # Cells that no sample reads are not looked at.
        npt.assert_array_equal(
            pcm.sample_channels(frame, chan, [(10.5, 10.5), (60.0, 40.0)],
                                [True, True]),
            [0.5, 0.5])
        assert pcm.sample_channels(frame, KEYPOINT_INDEX["nose"],
                                   (30.0, 20.0), [True])[0] == 0.0

    def test_nan_pixel_samples_zero(self, rng):
        """A NaN coordinate samples 0 like an off-grid pixel, leaves the
        other samples' bits alone, and its clamped corner is checked."""
        grid = rng.uniform(0, 1, (48, 64)).astype(np.float32)
        frame = frame_with_channel("neck", grid)
        chan = KEYPOINT_INDEX["neck"]
        alone = pcm.sample_channels(frame, chan, (3.0, 4.0), [True])[0]
        for bad in ((np.nan, 5.0), (5.0, np.nan), (np.nan, np.nan)):
            got = pcm.sample_channels(frame, chan, [bad, (3.0, 4.0)],
                                      [True, True])
            assert got.tolist() == [0.0, alone]
        grid[5, 63] = np.nan
        with pytest.raises(pcm.PcmFormatError):
            pcm.sample_channels(frame_with_channel("neck", grid), chan,
                                (np.nan, 5.0), [True])

    def test_negative_zero_corners_accepted(self, rng):
        grid = rng.uniform(0, 1, (48, 64)).astype(np.float32)
        grid[::3, ::2] = -0.0
        frame = frame_with_channel("r_knee", grid)
        pts = rng.uniform([-10, -10], [80, 60], (500, 2))
        chan = KEYPOINT_INDEX["r_knee"]
        valid = np.ones(len(pts), bool)
        assert pcm.sample_channels(frame, chan, pts, valid).tobytes() == \
            sample_oracle(frame, chan, pts, valid).tobytes()

    def test_threads_and_sizes_do_not_share_work_arrays(self, rng):
        """The work arrays are reused per thread: five threads sampling
        different frames at different sizes under a short switch interval
        each get their own serial results."""
        jobs = []
        for i in range(5):
            grid = rng.uniform(0, 1, (48, 64)).astype(np.float32)
            frame = frame_with_channel("r_knee", grid, scale=0.5 + 0.1 * i)
            pts = rng.uniform([-10, -10], [140, 110], (50 + 400 * i, 2))
            valid = rng.random(len(pts)) < 0.9
            jobs.append((frame, pts, valid,
                         sample_oracle(frame, KEYPOINT_INDEX["r_knee"], pts,
                                       valid)))
        wrong = []

        def work(frame, pts, valid, want):
            for _ in range(200):
                got = pcm.sample_channels(frame, KEYPOINT_INDEX["r_knee"],
                                          pts, valid)
                if got.tobytes() != want.tobytes():
                    wrong.append(len(pts))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=job)
                       for job in jobs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("scale", [0.25, 0.5, 1.0])
    def test_bit_identical_to_four_gathers(self, scale, rng):
        """Rendered frames at rotations 0, 90 and -37 degrees, sampled at
        random, edge, out-of-grid and masked pixels of random channels,
        give the four-gather sampler's values to the last bit."""
        spec = small_scene(motion=synth.handstand_like(period_s=4.0),
                           heatmap_scale=scale,
                           tilt_bias=synth.TiltBias(enabled=True,
                                                    jitter_px=10.0),
                           noise=synth.NoiseModel(jitter_px=2.0,
                                                  amplitude_std=0.2,
                                                  false_peak_rate=0.5))
        camera = synth.build_rig(spec).cameras[1]
        for rotation in (0.0, 90.0, -37.0):
            frame = render(spec, camera, 120, rotation)
            self.assert_matches_oracle(frame, rng)

    @pytest.mark.parametrize("h, w", [(1, 7), (7, 1), (1, 1)])
    def test_single_row_and_column_grids(self, h, w, rng):
        channels = rng.uniform(0, 1, (18, h, w)).astype(np.float32)
        frame = make_frame(channels=channels, h=h, w=w, scale=0.5)
        self.assert_matches_oracle(frame, rng)

    @staticmethod
    def assert_matches_oracle(frame, rng):
        _, h, w = frame.channels.shape
        xs = np.concatenate([rng.uniform(-3, w + 2, 2000), [
            0.0, -1e-9, 0.5, w - 1.0, w - 1.0 - 1e-9, w - 1.0 + 1e-9,
            w - 1.5, float(w)]])
        ys = np.concatenate([rng.uniform(-3, h + 2, 2000), [
            0.0, h - 1.0, -1e-9, h - 1.0 - 1e-9, h - 1.0 + 1e-9, h - 0.5,
            0.25, float(h)]])
        cells = np.stack([xs, ys], 1)
        edges = np.stack(np.meshgrid(xs[-8:], ys[-8:]), -1).reshape(-1, 2)
        pixels = np.concatenate([cells, edges]) / frame.scale
        chan = rng.integers(0, len(KEYPOINTS), len(pixels))
        valid = rng.random(len(pixels)) < 0.8
        for c, v in ((chan, valid), (chan, np.ones_like(valid)), (5, valid)):
            got = pcm.sample_channels(frame, c, pixels, valid=v)
            assert got.tobytes() == \
                sample_oracle(frame, c, pixels, valid=v).tobytes()


def centroid_oracle(frame, label, floor):
    """One channel's centroid, computed on its own (the per-label code that
    ``pcm.centroids`` replaced): None if no cell qualifies."""
    grid = frame.channels[KEYPOINT_INDEX[label]]
    mask = grid >= floor if floor > 0 else grid > 0
    if not mask.any():
        return None
    ys, xs = np.nonzero(mask)
    w = grid[ys, xs].astype(float)
    total = w.sum()
    cx = float((xs * w).sum() / total)
    cy = float((ys * w).sum() / total)
    return np.array([cx, cy]) / frame.scale


def centroid(frame, label, floor):
    return pcm.centroids(frame, floor)[KEYPOINT_INDEX[label]]


class TestCentroid:
    def test_symmetric_gaussian(self):
        frame = frame_with_channel("nose", gaussian_grid(48, 64, 30.0, 20.0, 4.0))
        c = centroid(frame, "nose", 0.1)
        assert np.linalg.norm(c - [30, 20]) < 0.5

    def test_all_zero_returns_nan_row(self):
        c = pcm.centroids(make_frame(), 0.1)
        assert c.shape == (len(KEYPOINTS), 2) and np.isnan(c).all()

    def test_empty_channel_is_a_nan_row(self):
        frame = frame_with_channel("neck", gaussian_grid(48, 64, 30, 20, 4.0))
        c = pcm.centroids(frame, CENTROID_FLOOR)
        row = KEYPOINT_INDEX["neck"]
        assert np.isfinite(c[row]).all()
        assert np.isnan(np.delete(c, row, axis=0)).all()

    def test_cell_at_the_floor_counts(self):
        grid = np.zeros((48, 64), np.float32)
        grid[7, 11] = np.float32(0.3)
        grid[7, 12] = np.nextafter(np.float32(0.3), np.float32(0))
        frame = frame_with_channel("l_ankle", grid)
        npt.assert_array_equal(centroid(frame, "l_ankle", 0.3), [11.0, 7.0])

    def test_two_equal_peaks_midpoint(self):
        grid = np.zeros((48, 64), np.float32)
        grid[20, 10] = 1.0
        grid[20, 30] = 1.0
        frame = frame_with_channel("neck", grid)
        npt.assert_allclose(centroid(frame, "neck", 0.5), [20, 20])

    def test_translation_equivariance(self):
        base = centroid(
            frame_with_channel("nose", gaussian_grid(48, 64, 20.0, 20.0, 3.0)),
            "nose", 0.1)
        shifted = centroid(
            frame_with_channel("nose", gaussian_grid(48, 64, 27.0, 15.0, 3.0)),
            "nose", 0.1)
        npt.assert_allclose(shifted - base, [7.0, -5.0], atol=0.5)

    def test_scale_converts_to_image_coords(self):
        frame = frame_with_channel("nose", gaussian_grid(24, 32, 16.0, 12.0, 3.0),
                                   scale=0.5)
        c = centroid(frame, "nose", 0.1)
        assert np.linalg.norm(c - [32, 24]) < 1.0

    def test_floor_validation(self):
        with pytest.raises(pcm.PcmError):
            pcm.centroids(make_frame(), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, -np.nan, np.inf, -np.inf,
                                     -0.5, 1.5])
    def test_bad_value_anywhere_refused(self, bad):
        """Every bad value's bit pattern lies above every floor's, so the
        one scan selects it, whichever channel and cell it is in."""
        frame = frame_with_channel("nose", gaussian_grid(48, 64, 30, 20, 4.0),
                                   camera_id=1, frame_index=6, rotation=90.0)
        channels = frame.channels.copy()
        channels[KEYPOINT_INDEX["l_ankle"], 47, 63] = bad
        frame = make_frame(channels=channels, camera_id=1, frame_index=6,
                           rotation=90.0)
        for floor in (0.0, 0.1, 0.3, 0.999):
            with pytest.raises(pcm.PcmFormatError,
                               match=r"camera 1 frame 6 rotation 90.0 deg"):
                pcm.centroids(frame, floor)

    def test_negative_zero_left_out(self, rng):
        """-0.0 cells, scattered and filling a whole channel, change no
        centroid: the rows equal those of the same frame with +0.0 there,
        and above 0 the per-channel code's, to the last bit."""
        channels = np.zeros((18, 48, 64), np.float32)
        for i in range(18):
            channels[i] = gaussian_grid(48, 64, 10 + 2 * i, 30 - i, 4.0)
        positive = make_frame(channels=channels.copy())
        channels[:, ::2, 1::3] = -0.0
        channels[KEYPOINT_INDEX["neck"]] = -0.0
        frame = make_frame(channels=channels)
        for floor in (0.0, 0.1, 0.3):
            rows = pcm.centroids(frame, floor)
            assert np.isnan(rows[KEYPOINT_INDEX["neck"]]).all()
            if floor == 0.0:
                # Sums of weights down to 1e-45 are not exact in float64,
                # so the summation order of the per-channel code matters.
                expected = pcm.centroids(make_frame(
                    channels=np.where(np.signbit(channels), np.float32(0),
                                      positive.channels)), floor)
                assert rows.tobytes() == expected.tobytes()
                continue
            for i, label in enumerate(KEYPOINTS):
                oracle = centroid_oracle(frame, label, floor)
                if oracle is not None:
                    assert rows[i].tobytes() == oracle.tobytes(), label

    @pytest.mark.parametrize("scale", [0.25, 0.5, 1.0])
    def test_bit_identical_to_per_channel_centroids(self, scale):
        """Rendered frames (noise with false peaks, a tilt-biased inversion
        and a cartwheel; rotations 0, 90 and -37 degrees) give, at every
        floor, each channel's centroid to the last bit."""
        # A 4 s cartwheel: the 4 s handstand's pitch about the forward axis.
        roll = synth.handstand_like(period_s=4.0).curves[synth.Q_ROOT_RX]
        scenes = [
            small_scene(motion=synth.walk_like(), heatmap_scale=scale,
                        noise=synth.NoiseModel(jitter_px=2.0,
                                               amplitude_std=0.2,
                                               false_peak_rate=0.5)),
            small_scene(motion=synth.handstand_like(period_s=4.0),
                        heatmap_scale=scale,
                        tilt_bias=synth.TiltBias(enabled=True,
                                                 jitter_px=10.0)),
            small_scene(motion=synth.MotionProgram({synth.Q_ROOT_RY: roll}),
                        heatmap_scale=scale),
        ]
        compared = 0
        for spec in scenes:
            rig = synth.build_rig(spec)
            for frame_index in (0, 120):
                for camera in rig.cameras[:2]:
                    for rotation in (0.0, 90.0, -37.0):
                        frame = render(spec, camera, frame_index, rotation)
                        for floor in (0.1, 0.3, 0.5):
                            rows = pcm.centroids(frame, floor)
                            for i, label in enumerate(KEYPOINTS):
                                oracle = centroid_oracle(frame, label, floor)
                                if oracle is None:
                                    assert np.isnan(rows[i]).all()
                                else:
                                    assert rows[i].tobytes() == \
                                        oracle.tobytes(), (label, floor)
                                    compared += 1
        assert compared > 1000


class TestCentroidScan:
    """``pcm.centroids`` scans only the groups of rows whose largest bit
    pattern reaches the floor; it must give the whole-frame scan's rows to
    the last bit, and refuse what it refuses with the same message."""

    def assert_same(self, frame, floors=(0.0, 0.3)):
        for floor in floors:
            try:
                expected = wholeframe_centroids(frame, floor)
            except pcm.PcmFormatError as exc:
                with pytest.raises(pcm.PcmFormatError) as err:
                    pcm.centroids(frame, floor)
                assert str(err.value) == str(exc)
            else:
                assert pcm.centroids(frame, floor).tobytes() == \
                    expected.tobytes(), floor

    @pytest.mark.parametrize("h, w", [(1, 1), (1, 40), (40, 1), (24, 32)])
    def test_sparse_random_frames(self, rng, h, w):
        for density in (0.0, 0.01, 0.2, 1.0):
            values = rng.uniform(0.0, 1.0, (18, h, w))
            channels = np.where(rng.random((18, h, w)) < density, values, 0.0)
            self.assert_same(make_frame(channels=channels.astype(np.float32),
                                        h=h, w=w, scale=0.5))

    @pytest.mark.parametrize("odd", [np.nan, -np.nan, np.inf, -np.inf, 1.5,
                                     np.nextafter(np.float32(1), np.inf),
                                     -0.25, -1e-45, -0.0, 1e-45,
                                     np.float32(0.3)])
    @pytest.mark.parametrize("h, w", [(1, 1), (1, 40), (24, 32)])
    @pytest.mark.parametrize("rest", [0.0, 0.1])
    def test_odd_cell_alone_in_its_row(self, odd, h, w, rest):
        """A bad value, -0.0, or a value exactly at a floor (the smallest
        above 0, or 0.3) in a row that holds nothing else above 0 (``rest``
        0), or nothing else at the 0.3 floor (``rest`` 0.1): its pattern
        sets the row's maximum, so the row is scanned or skipped as the
        whole-frame scan would select the cell."""
        channels = np.zeros((18, h, w), np.float32)
        channels[KEYPOINT_INDEX["nose"]] = gaussian_grid(h, w, w / 2, h / 2,
                                                         3.0)
        ankle = KEYPOINT_INDEX["l_ankle"]
        channels[ankle, h - 1] = rest
        channels[ankle, h - 1, w // 2] = odd
        self.assert_same(make_frame(channels=channels, h=h, w=w,
                                    camera_id=2, frame_index=9))

    def test_rendered_frames(self):
        spec = small_scene(motion=synth.walk_like(), heatmap_scale=0.5,
                           noise=synth.NoiseModel(jitter_px=2.0,
                                                  amplitude_std=0.2,
                                                  false_peak_rate=0.5))
        rig = synth.build_rig(spec)
        for camera in rig.cameras:
            for rotation in (0.0, 90.0):
                frame = render(spec, camera, 40, rotation)
                self.assert_same(frame, floors=(0.0, 0.1, 0.3, 0.5))

    @pytest.mark.parametrize("h, region", [
        (8, "first"), (8, "last"), (9, "first"), (9, "last"), (9, "tail")])
    @pytest.mark.parametrize("odd", [np.nan, -1.0, 1.5, np.inf, -0.0])
    def test_groups_and_tail_scan_as_the_whole_frame(self, rng, h, region,
                                                     odd):
        """The 18 * 8 rows of a frame are nine whole groups; 18 * 9 rows
        leave two tail rows.  A bad value in the first group, in the last
        whole group or in the tail is refused with the whole-frame scan's
        message, and a -0.0 there is accepted."""
        w = 24
        values = rng.uniform(0.0, 1.0, (18, h, w))
        channels = np.where(rng.random((18, h, w)) < 0.2, values, 0.0)
        channels = channels.astype(np.float32)
        n_groups = 18 * h // pcm._GROUP_ROWS
        row = {"first": 7, "last": (n_groups - 1) * pcm._GROUP_ROWS + 7,
               "tail": n_groups * pcm._GROUP_ROWS}[region]
        assert row < 18 * h
        channels.reshape(18 * h, w)[row, w // 3] = odd
        frame = make_frame(channels=channels, h=h, w=w, camera_id=1,
                           frame_index=6)
        self.assert_same(frame)
        for floor in (0.0, CENTROID_FLOOR):
            assert refused(lambda: pcm.centroids(frame, floor)) == \
                (odd != 0), floor


class TestFileFormat:
    def random_frame(self, rng):
        channels = rng.uniform(0, 1, (18, 24, 32)).astype(np.float32)
        return make_frame(channels=channels, h=24, w=32, scale=0.25,
                          rotation=90.0, camera_id=3, frame_index=17)

    def test_round_trip(self, tmp_path, rng):
        frame = self.random_frame(rng)
        path = tmp_path / "frame.pcm"
        pcm.write_pcm(frame, path)
        raw = bytearray(path.read_bytes())
        assert raw[6:8] == b"\x00\x00"          # reserved flags, written 0
        # Files whose flags read 1 (older writers) load the same frame.
        raw[6:8] = (1).to_bytes(2, "little")
        path.write_bytes(raw)
        back = pcm.read_pcm(path)
        assert back.camera_id == 3 and back.frame_index == 17
        assert back.rotation_deg == 90.0 and back.scale == 0.25
        npt.assert_array_equal(back.channels, frame.channels)

    def test_bytes_equal_the_tobytes_writer(self, tmp_path, rng):
        """Written from the channels' own buffer, a file holds the bytes the
        ``tobytes`` copy gave: for a fresh frame, one with -0.0, NaN and
        values above 1, and a read-only frame mapped from a file."""
        frame = self.random_frame(rng)
        odd = frame.channels.copy()
        odd[0, 0, :4] = [-0.0, np.nan, 1.5, -np.inf]
        path = tmp_path / "frame.pcm"
        pcm.write_pcm(frame, path)
        for source in (frame, make_frame(channels=odd, h=24, w=32),
                       pcm.read_pcm(path)):
            pcm.write_pcm(source, tmp_path / "new.pcm")
            tobytes_write_pcm(source, tmp_path / "old.pcm")
            assert (tmp_path / "new.pcm").read_bytes() == \
                (tmp_path / "old.pcm").read_bytes()

    def test_bad_magic(self, tmp_path, rng):
        path = tmp_path / "frame.pcm"
        pcm.write_pcm(self.random_frame(rng), path)
        raw = bytearray(path.read_bytes())
        raw[0:4] = b"XXXX"
        path.write_bytes(raw)
        with pytest.raises(pcm.PcmFormatError, match="magic"):
            pcm.read_pcm(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "frame.pcm"
        pcm.write_pcm(self.random_frame(rng), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-100])
        with pytest.raises(pcm.PcmFormatError, match="truncated"):
            pcm.read_pcm(path)

    def write_with_cell(self, tmp_path, rng, index, value):
        """A random frame stored where a DirectoryProvider finds it, with
        flat cell ``index`` of its payload set to ``value``."""
        path = pcm.frame_path(tmp_path, 3, 17, 90.0)
        os.makedirs(os.path.dirname(path))
        pcm.write_pcm(self.random_frame(rng), path)
        raw = bytearray(open(path, "rb").read())
        offset = struct.Struct("<4sHHIIfIIIf").size + 4 * index
        raw[offset:offset + 4] = struct.pack("<f", value)
        with open(path, "wb") as fh:
            fh.write(raw)
        return path

    def assert_refused_where_read(self, tmp_path, path, chan, cell):
        """Reading the file takes no value pass; sampling the bad ``cell``
        (heatmap x, y) of channel ``chan``, or taking the centroids, is
        refused with an error naming camera, frame and rotation."""
        pcm.read_pcm(path)
        frame = pcm.DirectoryProvider(tmp_path).get(3, 17, 90.0)
        pixel = np.asarray(cell, dtype=float) / frame.scale
        where = r"camera 3 frame 17 rotation 90.0 deg: .*outside \[0, 1\]"
        with pytest.raises(pcm.PcmFormatError, match=where):
            pcm.sample_channels(frame, chan, pixel, [True])
        with pytest.raises(pcm.PcmFormatError, match=where):
            pcm.centroids(frame, CENTROID_FLOOR)

    def test_out_of_range_value_in_file(self, tmp_path, rng):
        path = self.write_with_cell(tmp_path, rng, 0, 1.5)
        self.assert_refused_where_read(tmp_path, path, 0, (0, 0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_nan_inf_and_negative_in_file(self, tmp_path, rng, bad):
        path = self.write_with_cell(tmp_path, rng, 1000, bad)
        # Cell 1000 of (18, 24, 32) is channel 1, row 7, column 8.
        self.assert_refused_where_read(tmp_path, path, 1, (8, 7))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "frame.pcm"
        path.write_bytes(b"")
        with pytest.raises(pcm.PcmFormatError, match="truncated header"):
            pcm.read_pcm(path)

    def test_truncated_header(self, tmp_path, rng):
        path = tmp_path / "frame.pcm"
        pcm.write_pcm(self.random_frame(rng), path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(pcm.PcmFormatError, match="truncated header"):
            pcm.read_pcm(path)

    def test_channels_are_a_read_only_view_of_the_file(self, tmp_path, rng):
        frame = self.random_frame(rng)
        path = tmp_path / "frame.pcm"
        pcm.write_pcm(frame, path)
        back = pcm.read_pcm(path)
        assert not back.channels.flags.writeable
        with pytest.raises(ValueError):
            back.channels[0, 0, 0] = 0.5
        header = struct.Struct("<4sHHIIfIIIf")
        assert back.channels.tobytes() == path.read_bytes()[header.size:]

    @pytest.mark.parametrize("offset, field, value, message", [
        (32, "<f", np.nan, "scale must be a finite float > 0, got nan"),
        (32, "<f", np.inf, "scale must be a finite float > 0, got inf"),
        (32, "<f", -0.5, "scale must be a finite float > 0, got -0.5"),
        (24, "<I", 0, "channels")],
        ids=["nan_scale", "inf_scale", "negative_scale", "no_rows"])
    def test_bad_scale_or_empty_grid_in_header(self, tmp_path, rng, offset,
                                               field, value, message):
        # The header's scale (float32 at byte 32) must be finite and > 0,
        # and its height (uint32 at byte 24) > 0.
        path = tmp_path / "frame.pcm"
        pcm.write_pcm(self.random_frame(rng), path)
        raw = bytearray(path.read_bytes())
        raw[offset:offset + 4] = struct.pack(field, value)
        path.write_bytes(raw)
        with pytest.raises(pcm.PcmFormatError,
                           match=re.escape(f"{path}: {message}")):
            pcm.read_pcm(path)

    def test_unsupported_version(self, tmp_path, rng):
        path = tmp_path / "frame.pcm"
        pcm.write_pcm(self.random_frame(rng), path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        path.write_bytes(raw)
        with pytest.raises(pcm.PcmFormatError, match="version"):
            pcm.read_pcm(path)


class TestDirectoryProvider:
    def test_layout_and_round_trip(self, tmp_path, rng):
        channels = rng.uniform(0, 1, (18, 24, 32)).astype(np.float32)
        frame = make_frame(channels=channels, h=24, w=32, camera_id=2,
                           frame_index=5)
        path = tmp_path / "cam2" / "rot0" / "frame5.pcm"
        path.parent.mkdir(parents=True)
        pcm.write_pcm(frame, path)
        provider = pcm.DirectoryProvider(tmp_path)
        back = provider.get(2, 5, 0.0)
        npt.assert_array_equal(back.channels, frame.channels)

    def test_missing_rotation_zero_frame(self, tmp_path):
        provider = pcm.DirectoryProvider(tmp_path)
        with pytest.raises(pcm.FrameMissing):
            provider.get(0, 0, 0.0)

    def test_missing_rotated_frame_distinct_error(self, tmp_path):
        provider = pcm.DirectoryProvider(tmp_path)
        with pytest.raises(pcm.RotationUnavailable):
            provider.get(0, 0, 37.0)

    def test_directory_at_a_frame_path(self, tmp_path):
        """Something that is not a regular file where a frame belongs is a
        PcmFormatError naming the path, at rotation 0 and rotated alike."""
        for rotation in (0.0, 90.0):
            path = pcm.frame_path(tmp_path, 0, 5, rotation)
            os.makedirs(path)
            with pytest.raises(pcm.PcmFormatError,
                               match="not a regular file") as exc:
                pcm.DirectoryProvider(tmp_path).get(0, 5, rotation)
            assert str(exc.value).startswith(f"{path}: ")

    def test_fifo_at_a_frame_path_does_not_block(self, tmp_path):
        path = pcm.frame_path(tmp_path, 0, 5)
        os.makedirs(os.path.dirname(path))
        os.mkfifo(path)

        def blocked(signum, frame):
            raise TimeoutError(f"opening the FIFO {path} blocked")

        previous = signal.signal(signal.SIGALRM, blocked)
        signal.alarm(5)
        try:
            with pytest.raises(pcm.PcmFormatError,
                               match="not a regular file"):
                pcm.DirectoryProvider(tmp_path).get(0, 5)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_file_where_a_directory_belongs_is_missing(self, tmp_path):
        (tmp_path / "cam0").write_bytes(b"")
        with pytest.raises(pcm.FrameMissing):
            pcm.DirectoryProvider(tmp_path).get(0, 0, 0.0)
        with pytest.raises(pcm.RotationUnavailable):
            pcm.DirectoryProvider(tmp_path).get(0, 0, 45.0)

    def test_file_gone_after_an_existence_check(self, tmp_path, monkeypatch):
        """A frame that a check would still have found but that is gone
        when it is opened is FrameMissing, not a raw FileNotFoundError:
        the provider opens the path once and checks nothing before."""
        monkeypatch.setattr(os.path, "exists", lambda path: True)
        with pytest.raises(pcm.FrameMissing):
            pcm.DirectoryProvider(tmp_path).get(0, 3)
        with pytest.raises(pcm.RotationUnavailable):
            pcm.DirectoryProvider(tmp_path).get(0, 3, 90.0)

    def test_header_location_mismatch(self, tmp_path):
        frame = make_frame(camera_id=9, frame_index=9)
        path = tmp_path / "cam0" / "rot0" / "frame0.pcm"
        path.parent.mkdir(parents=True)
        pcm.write_pcm(frame, path)
        with pytest.raises(pcm.PcmFormatError, match="does not match"):
            pcm.DirectoryProvider(tmp_path).get(0, 0, 0.0)


    def test_header_rotation_mismatch(self, tmp_path):
        """A rotation-0 frame stored under rot90/ is refused, not sampled
        as if it were rotated; so is a header angle that is not finite."""
        for header, stored in ((0.0, 90.0), (90.0, 0.0), (np.nan, 0.0),
                               (np.inf, 0.0)):
            frame = make_frame(rotation=header, camera_id=0, frame_index=3)
            path = pcm.frame_path(tmp_path, 0, 3, stored)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            pcm.write_pcm(frame, path)
            with pytest.raises(pcm.PcmFormatError, match="does not match") \
                    as exc:
                pcm.DirectoryProvider(tmp_path).get(0, 3, stored)
            assert str(exc.value).startswith(f"{path}: ")

    def test_header_rotation_in_the_same_bin(self, tmp_path):
        frame = make_frame(rotation=-37.2, camera_id=0, frame_index=3)
        path = pcm.frame_path(tmp_path, 0, 3, -37.0)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        pcm.write_pcm(frame, path)
        back = pcm.DirectoryProvider(tmp_path).get(0, 3, -36.6)
        assert pcm.quantize_rotation(back.rotation_deg) == -37


class TestQuantizeRotation:
    def test_rounding(self):
        assert pcm.quantize_rotation(36.7) == 37
        assert pcm.quantize_rotation(-0.4) == 0
        assert pcm.quantize_rotation(180.0) == 180


class TestSampleRotated:
    """Lower-body samples through a rotated heatmap: the projected pixel is
    mapped into the rotated image frame first (tracker.score_points)."""

    def camera(self):
        return Camera(id=0, width=64, height=48, fx=50.0, fy=50.0,
                      cx=32.0, cy=24.0, translation=(0.0, 0.0, 1000.0))

    def score(self, provider, points, rotation_deg):
        rig = CameraRig(cameras=(self.camera(),))
        points = np.asarray(points, dtype=float).reshape(1, -1, 3)
        scores, _ = tracker.score_points(points, ["r_hip"], provider, rig, 0,
                                         {0: rotation_deg})
        return scores[0]

    def test_rotation_zero_equals_plain_sample(self, rng):
        grid = rng.uniform(0, 1, (48, 64)).astype(np.float32)
        frame = frame_with_channel("r_hip", grid)
        provider = DictProvider({(0, 0, 0): frame})
        points = np.column_stack([rng.uniform(-640, 620, 50),
                                  rng.uniform(-480, 460, 50), np.zeros(50)])
        px, _ = project_points(self.camera(), points)
        expected = [sample(frame, "r_hip", p) for p in px]
        npt.assert_array_equal(self.score(provider, points, 0.0), expected)

    def test_peak_recovered_through_rotated_render(self):
        cam = self.camera()
        point = np.array([160.0, 120.0, 0.0])
        p_orig, _ = project_points(cam, point)
        # Render the Gaussian where the original point lands on the image
        # rotated 180 degrees about the camera center.
        p_rot = rotate_pixel(p_orig, 180.0, cam.image_center)
        grid = gaussian_grid(48, 64, p_rot[0], p_rot[1], 3.0)
        frame = frame_with_channel("r_hip", grid, rotation=180.0)
        # score_points fetches every camera's rotation-0 frame (blank here).
        provider = DictProvider({(0, 0, 0): make_frame(), (0, 0, 180): frame})
        val = self.score(provider, point, 180.0)[0]
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_missing_rotation_surfaces(self):
        grid = gaussian_grid(48, 64, 32.0, 24.0, 3.0)
        provider = DictProvider({(0, 0, 0): frame_with_channel("r_hip", grid)})
        with pytest.raises(pcm.RotationUnavailable):
            provider.get(0, 0, 37.0)
        # score_points meets the RotationUnavailable and samples rotation 0.
        val = self.score(provider, np.zeros(3), 37.0)[0]
        assert val == pytest.approx(1.0, abs=1e-6)
