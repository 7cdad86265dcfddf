import dataclasses
import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from helpers import rowmajor_project_points, rowmajor_rotate_pixel, value_id
from mocapfuse.calib import (
    Camera,
    CameraRig,
    CalibrationError,
    DuplicateCameraId,
    MalformedCalibration,
    NonOrthonormalRotation,
    load_rig,
    look_at_camera,
    pixel_to_ray,
    project_points,
    rotate_pixel,
    save_rig,
)


def axis_camera(**kw):
    """Camera at the origin looking down +z with fx=fy=1000, c=(512,384)."""
    base = dict(id=0, width=1024, height=768, fx=1000.0, fy=1000.0,
                cx=512.0, cy=384.0)
    base.update(kw)
    return Camera(**base)


class TestProject:
    def test_optical_axis_point_maps_to_principal_point(self):
        px, in_front = project_points(axis_camera(), (0.0, 0.0, 1000.0))
        npt.assert_allclose(px, [512.0, 384.0])
        assert in_front

    def test_off_axis_point(self):
        px, in_front = project_points(axis_camera(), (100.0, 0.0, 1000.0))
        npt.assert_allclose(px, [612.0, 384.0])
        assert in_front

    def test_behind_camera(self):
        _, in_front = project_points(axis_camera(), (0.0, 0.0, -1000.0))
        assert not in_front

    def test_non_finite_point_rejected(self):
        with pytest.raises(ValueError):
            project_points(axis_camera(), (np.nan, 0.0, 1000.0))

    def test_scale_consistency_zero_distortion(self, rng):
        cam = axis_camera()
        pts = rng.uniform([-500, -500, 500], [500, 500, 3000], (50, 3))
        for lam in (0.5, 2.0, 7.3):
            px_a, _ = project_points(cam, pts)
            px_b, _ = project_points(cam, pts * lam)
            npt.assert_allclose(px_a, px_b, atol=1e-9)

    def test_vectorized_matches_single(self, rng):
        cam = look_at_camera(3, (2500, 1000, 1500), (0, 0, 1000), 1024, 768, 800)
        pts = rng.uniform(-400, 400, (20, 3)) + np.array([0, 0, 1000.0])
        px, in_front = project_points(cam, pts)
        for i in range(20):
            p_i, f_i = project_points(cam, pts[i])
            npt.assert_allclose(p_i, px[i])
            assert f_i == in_front[i]

    def test_distortion_changes_off_axis_pixels_only(self):
        plain = axis_camera()
        distorted = axis_camera(dist=np.array([-0.2, 0.05, 0.001, -0.001, 0.0]))
        on_axis, _ = project_points(distorted, (0.0, 0.0, 1000.0))
        npt.assert_allclose(on_axis, [512.0, 384.0], atol=1e-9)
        p0, _ = project_points(plain, (300.0, 200.0, 1000.0))
        p1, _ = project_points(distorted, (300.0, 200.0, 1000.0))
        assert np.linalg.norm(p0 - p1) > 1.0



def random_camera(rng, distorted):
    cam = look_at_camera(int(rng.integers(0, 9)),
                         rng.uniform([-3000, -3000, 200], [3000, 3000, 2500]),
                         rng.uniform([-300, -300, 700], [300, 300, 1300]),
                         int(rng.integers(64, 1280)),
                         int(rng.integers(48, 960)),
                         rng.uniform(100.0, 1500.0))
    if distorted:
        cam = dataclasses.replace(cam, dist=rng.uniform(
            [-0.4, -0.1, -0.01, -0.01, -0.05], [0.2, 0.1, 0.01, 0.01, 0.05]))
    return cam


class TestProjectPlanes:
    """Projection on coordinate planes gives the row-major pixels and
    in-front mask bit for bit, and keeps the (N, 3) -> (N, 2) contract."""

    @pytest.mark.parametrize("distorted", [False, True])
    def test_bits_equal_row_major(self, rng, distorted):
        for n in (1, 2, 3, 17, 343, 6174):
            cam = random_camera(rng, distorted)
            pts = rng.normal([0.0, 0.0, 1000.0], 1500.0, (n, 3))
            want_px, want_front = rowmajor_project_points(cam, pts)
            planes = np.ascontiguousarray(pts.T)
            for given in (pts, planes.T):
                px, in_front = project_points(cam, given)
                assert px.shape == (n, 2) and in_front.shape == (n,)
                assert np.ascontiguousarray(px).tobytes() == want_px.tobytes()
                assert in_front.tobytes() == want_front.tobytes()
            assert project_points(cam, planes.T)[0].T.flags.c_contiguous

    def test_rows_masks_and_single_points(self, rng):
        cam = random_camera(rng, distorted=True)
        pts = rng.normal([0.0, 0.0, 1000.0], 2500.0, (40, 3))
        px, in_front = project_points(cam, pts)
        want_px, want_front = rowmajor_project_points(cam, pts)
        assert not in_front.all() and in_front.any()
        npt.assert_array_equal(px[0], want_px[0])
        npt.assert_array_equal(px[in_front], want_px[want_front])
        npt.assert_array_equal(px[:, 1], want_px[:, 1])
        for i in range(len(pts)):
            p, f = project_points(cam, pts[i])
            want_p, want_f = rowmajor_project_points(cam, pts[i])
            assert p.shape == (2,) and type(f) is bool
            assert p.tobytes() == want_p.tobytes() and f == want_f

    def test_rotate_pixel_bits_equal_row_major(self, rng):
        for n in (1, 2, 5, 1000):
            pixels = rng.uniform(-500, 1500, (n, 2))
            center = rng.uniform(0, 1000, 2)
            for angle in (45.0, -45.0, 90.0, 137.0, 180.0, 0.0):
                want = rowmajor_rotate_pixel(pixels, angle, center)
                planes = np.ascontiguousarray(pixels.T)
                for given in (pixels, planes.T):
                    got = rotate_pixel(given, angle, center)
                    assert np.ascontiguousarray(got).tobytes() == \
                        want.tobytes()
                assert rotate_pixel(pixels[0], angle, center).tobytes() == \
                    rowmajor_rotate_pixel(pixels[0], angle, center).tobytes()

class TestPixelToRay:
    def test_ray_passes_through_projected_point(self, rng):
        cam = look_at_camera(1, (3000, -1200, 1700), (0, 0, 900), 1024, 768, 750)
        for _ in range(20):
            p = rng.uniform(-500, 500, 3) + np.array([0, 0, 1000.0])
            px, in_front = project_points(cam, p)
            assert in_front
            origin, d = pixel_to_ray(cam, px)
            v = p - origin
            perp = v - (v @ d) * d
            assert np.linalg.norm(perp) < 1e-6

    def test_ray_passes_through_point_with_distortion(self, rng):
        cam = Camera(id=2, width=1024, height=768, fx=900.0, fy=900.0,
                     cx=512.0, cy=384.0,
                     dist=np.array([-0.1, 0.02, 0.0005, -0.0005, 0.001]))
        for _ in range(20):
            p = rng.uniform([-300, -300, 800], [300, 300, 3000], 3)
            px, _ = project_points(cam, p)
            origin, d = pixel_to_ray(cam, px)
            v = p - origin
            perp = v - (v @ d) * d
            assert np.linalg.norm(perp) < 1e-5


class TestRotatePixel:
    def test_identity(self):
        npt.assert_allclose(rotate_pixel((100, 50), 0.0, (512, 384)), [100, 50])

    def test_point_reflection_at_180(self):
        npt.assert_allclose(rotate_pixel((512, 0), 180.0, (512, 384)),
                            [512, 768], atol=1e-9)

    def test_quarter_turn_y_down_convention(self):
        npt.assert_allclose(rotate_pixel((612, 384), 90.0, (512, 384)),
                            [512, 484], atol=1e-9)

    def test_inverse_round_trip(self, rng):
        for _ in range(100):
            p = rng.uniform(-2000, 2000, 2)
            c = rng.uniform(-1000, 1000, 2)
            a = rng.uniform(-720, 720)
            back = rotate_pixel(rotate_pixel(p, a, c), -a, c)
            npt.assert_allclose(back, p, atol=1e-9)

    def test_batched_pixels(self, rng):
        pts = rng.uniform(0, 1000, (7, 2))
        batch = rotate_pixel(pts, 37.0, (512, 384))
        for i in range(7):
            npt.assert_allclose(batch[i], rotate_pixel(pts[i], 37.0, (512, 384)))


class TestCameraInvariants:
    def test_bad_focal_length(self):
        with pytest.raises(CalibrationError):
            axis_camera(fx=-1.0)

    def test_bad_dimensions(self):
        with pytest.raises(CalibrationError):
            axis_camera(width=0)

    def test_non_orthonormal_rotation(self):
        with pytest.raises(NonOrthonormalRotation):
            axis_camera(rotation=np.diag([1.0, 1.0, -1.0]))  # det -1

    @pytest.mark.parametrize("field, value", [
        ("fx", math.nan), ("fy", math.inf), ("cx", math.nan),
        ("cy", -math.inf), ("fx", 10 ** 400), ("fy", True), ("width", True),
        ("height", 480.0), ("rotation", np.full((3, 3), np.nan)),
        ("dist", [0.0, 0.0, 0.0, 0.0, math.nan]),
        ("translation", [0.0, math.inf, 0.0]), ("translation", [0.0, 0.0])],
        ids=value_id)
    def test_non_finite_or_mistyped_values_name_the_camera(self, field,
                                                           value):
        """A NaN rotation used to pass the orthonormality test, whose
        comparisons are false for NaN."""
        with pytest.raises(CalibrationError,
                           match=f"^camera 3: {field} must be "):
            axis_camera(id=3, **{field: value})

    def test_view_parallel_to_up_rejected(self):
        for target in ((0, 0, 0), (0, 0, 3000), (0, 0, 1500)):
            with pytest.raises(ValueError, match="^camera 2: .*parallel to up"):
                look_at_camera(2, (0, 0, 1500), target, 640, 480, 500)

    def test_duplicate_ids(self):
        with pytest.raises(DuplicateCameraId):
            CameraRig(cameras=(axis_camera(), axis_camera()))

    def test_camera_center(self):
        cam = look_at_camera(0, (1000, 2000, 1500), (0, 0, 0), 640, 480, 500)
        npt.assert_allclose(cam.center, [1000, 2000, 1500], atol=1e-6)


class TestRigIO:
    def make_rig(self):
        cams = [look_at_camera(i, (3000 * np.cos(a), 3000 * np.sin(a), 1500),
                               (0, 0, 1000), 1024, 768, 700.0)
                for i, a in enumerate(np.linspace(0.3, 5.5, 4))]
        return CameraRig(cameras=tuple(cams))

    def test_round_trip_four_cameras(self, tmp_path):
        rig = self.make_rig()
        path = tmp_path / "calib.json"
        save_rig(rig, path)
        loaded = load_rig(path)
        assert loaded.n_c == 4
        for a, b in zip(rig.cameras, loaded.cameras):
            assert a.id == b.id and a.width == b.width and a.height == b.height
            assert (a.fx, a.fy, a.cx, a.cy) == (b.fx, b.fy, b.cx, b.cy)
            npt.assert_array_equal(a.dist, b.dist)
            npt.assert_array_equal(a.rotation, b.rotation)
            npt.assert_array_equal(a.translation, b.translation)

    def test_determinant_minus_one_rejected(self, tmp_path):
        path = tmp_path / "calib.json"
        entry = {"id": 0, "width": 640, "height": 480, "fx": 500, "fy": 500,
                 "cx": 320, "cy": 240, "dist": [0] * 5,
                 "R": [1, 0, 0, 0, 1, 0, 0, 0, -1], "t": [0, 0, 0]}
        path.write_text(json.dumps({"cameras": [entry]}))
        with pytest.raises(NonOrthonormalRotation):
            load_rig(path)

    def test_empty_camera_list_rejected(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text(json.dumps({"cameras": []}))
        with pytest.raises(MalformedCalibration):
            load_rig(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedCalibration):
            load_rig(tmp_path / "nope.json")

    def test_directory_names_the_path(self, tmp_path):
        with pytest.raises(MalformedCalibration) as err:
            load_rig(tmp_path)
        assert str(err.value).endswith(f"{tmp_path}: Is a directory")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text("{not json")
        with pytest.raises(MalformedCalibration):
            load_rig(path)

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe\x00",
                                         b'{"cameras": 5}',
                                         b'{"cameras": true}'])
    def test_undecodable_file_names_the_path(self, tmp_path, content):
        """Broken JSON, bytes that are not UTF-8 and a ``cameras`` value
        that is not a list all name the file."""
        path = tmp_path / "calib.json"
        path.write_bytes(content)
        with pytest.raises(MalformedCalibration) as err:
            load_rig(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("key, value, named", [
        ("fx", math.nan, "fx"), ("cy", math.inf, "cy"), ("id", 1.9, "id"),
        ("fy", 10 ** 400, "fy"), ("width", True, "width"),
        ("R", [math.nan] * 9, "rotation"),
        ("dist", [0.0, 0.0, 0.0, 0.0, math.nan], "dist"),
        ("t", [0.0, math.nan, 0.0], "translation")], ids=value_id)
    def test_non_finite_value_names_the_file_and_camera(self, tmp_path, key,
                                                        value, named):
        path = tmp_path / "calib.json"
        save_rig(self.make_rig(), path)
        payload = json.loads(path.read_text())
        payload["cameras"][1][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(CalibrationError) as err:
            load_rig(path)
        camera = payload["cameras"][1]["id"]
        assert str(err.value).startswith(f"{path}: camera {camera}: {named} "
                                         f"must be ")

    def test_missing_field(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text(json.dumps({"cameras": [{"id": 0}]}))
        with pytest.raises(MalformedCalibration):
            load_rig(path)

    def test_duplicate_ids_in_file(self, tmp_path):
        rig = self.make_rig()
        path = tmp_path / "calib.json"
        save_rig(rig, path)
        payload = json.loads(path.read_text())
        payload["cameras"][1]["id"] = payload["cameras"][0]["id"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DuplicateCameraId):
            load_rig(path)
