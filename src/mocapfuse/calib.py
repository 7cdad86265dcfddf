"""Pinhole camera models, calibration file I/O and pixel-space rotation.

Conventions (fixed package-wide):
  * world coordinates in millimeters, right-handed, z up
  * image coordinates: origin at the top-left corner, x right, y down
  * rotation angles in image space are degrees CCW (see ``rotate_pixel``)
  * extrinsics map world points to the camera frame: ``x_cam = R @ x + t``
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ranges


class CalibrationError(ValueError):
    """Base class for calibration-file problems."""


class MalformedCalibration(CalibrationError):
    pass


class NonOrthonormalRotation(CalibrationError):
    pass


class DuplicateCameraId(CalibrationError):
    pass


_ORTHO_TOL = 1e-9
# Fixed-point iterations that invert the lens distortion model.
UNDISTORT_ITERATIONS = 8
# The world axis a ``look_at_camera`` image's up direction is aligned with.
LOOK_AT_UP = (0.0, 0.0, 1.0)


@dataclass(frozen=True)
class Camera:
    """A calibrated pinhole camera with optional radial/tangential distortion.
    Each number is checked (``ranges.check``; ``ranges.floats`` for the
    arrays; an orthonormal rotation), and CalibrationError names the
    camera."""

    id: int
    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float
    dist: np.ndarray = field(default_factory=lambda: np.zeros(5))
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        try:
            ranges.check(self, int, "", "id")
            ranges.check(self, int, "> 0", "width", "height")
            ranges.check(self, float, "> 0", "fx", "fy")
            ranges.check(self, float, "", "cx", "cy")
        except ValueError as exc:
            raise CalibrationError(f"camera {self.id}: {exc}") from None
        for name, shape in (("dist", (5,)), ("rotation", (3, 3)),
                            ("translation", (3,))):
            try:
                value = ranges.floats(name, getattr(self, name), shape)
            except ValueError as exc:
                raise CalibrationError(f"camera {self.id}: {exc}") from None
            object.__setattr__(self, name, value)
        R = self.rotation
        if (np.abs(R @ R.T - np.eye(3)).max() > _ORTHO_TOL
                or abs(np.linalg.det(R) - 1.0) > _ORTHO_TOL):
            raise NonOrthonormalRotation(
                f"camera {self.id}: rotation is not orthonormal with det +1")

    @property
    def center(self):
        """Camera center in world coordinates (mm)."""
        return -self.rotation.T @ self.translation

    @property
    def image_center(self):
        return np.array([self.width / 2.0, self.height / 2.0])

    @property
    def has_distortion(self):
        return bool(np.any(self.dist != 0.0))


@dataclass(frozen=True)
class CameraRig:
    cameras: tuple

    def __post_init__(self):
        object.__setattr__(self, "cameras", tuple(self.cameras))
        ids = [c.id for c in self.cameras]
        if len(set(ids)) != len(ids):
            raise DuplicateCameraId(f"duplicate camera ids in rig: {ids}")

    @property
    def n_c(self):
        return len(self.cameras)

    def camera(self, cam_id) -> Camera:
        for c in self.cameras:
            if c.id == cam_id:
                return c
        raise KeyError(f"no camera with id {cam_id}")


def project_points(camera: Camera, points):
    """Project world points (N,3) mm to pixels.

    Returns ``(pixels, in_front)`` where pixels is (N,2) and in_front a
    boolean (N,) mask; pixels of points at or behind the camera plane are
    undefined and must be treated as zero-confidence samples by callers.

    The work runs on coordinate planes: ``points.T`` is transformed by one
    ``R @ planes + t`` and the pixels are an (N,2) view of (2,N) x/y
    planes, so ``pixels.T`` is contiguous.  Points given as a view of
    (3,N) planes (``planes.T``) are read without a copy; any (N,3) array
    gives the same bits.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    planes = np.atleast_2d(pts).T
    if not np.all(np.isfinite(planes)):
        raise ValueError("non-finite point passed to project")
    cam = camera.rotation @ planes
    cam += camera.translation[:, None]
    z = cam[2]
    in_front = z > 0.0
    # Guard the division; masked-out pixels are meaningless anyway.
    xy = cam[:2]
    xy /= np.where(in_front, z, 1.0)
    if camera.has_distortion:
        x, y = xy
        k1, k2, p1, p2, k3 = camera.dist
        r2 = x * x + y * y
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        x_d = x * radial + 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
        y_d = y * radial + p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
        xy[0], xy[1] = x_d, y_d
    xy *= [[camera.fx], [camera.fy]]
    xy += [[camera.cx], [camera.cy]]
    px = xy.T
    if single:
        return px[0], bool(in_front[0])
    return px, in_front


def undistort_normalized(camera: Camera, xd, yd):
    """Invert the distortion model for normalized coordinates
    (``UNDISTORT_ITERATIONS`` fixed-point iterations)."""
    k1, k2, p1, p2, k3 = camera.dist
    x, y = xd, yd
    for _ in range(UNDISTORT_ITERATIONS):
        r2 = x * x + y * y
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        dx = 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
        dy = p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
        x = (xd - dx) / radial
        y = (yd - dy) / radial
    return x, y


def pixel_to_ray(camera: Camera, pixels):
    """Back-project pixels (..., 2) to world rays ``(origin, directions)``:
    the camera center and (..., 3) unit directions."""
    px = np.asarray(pixels, dtype=float)
    x = (px[..., 0] - camera.cx) / camera.fx
    y = (px[..., 1] - camera.cy) / camera.fy
    if camera.has_distortion:
        x, y = undistort_normalized(camera, x, y)
    d = np.stack([x, y, np.ones_like(x)], axis=-1) @ camera.rotation
    return camera.center, d / np.linalg.norm(d, axis=-1, keepdims=True)


def rotate_pixel(pixel, angle_deg, center):
    """Map a pixel of the original image to its location in the image rotated
    by ``angle_deg`` CCW about ``center``: ``p' = R(angle) @ (p - center) + center``.

    Accepts a single (2,) pixel or an (N,2) array; the rotation runs on the
    (2,N) planes ``pixel.T``, so a view of planes gives one back.
    """
    p = np.asarray(pixel, dtype=float)
    c = np.asarray(center, dtype=float)
    a = math.radians(angle_deg)
    ca, sa = math.cos(a), math.sin(a)
    R = np.array([[ca, -sa], [sa, ca]])
    return (R @ (p - c).T).T + c


def look_at_camera(cam_id, position, target, width, height, f_px):
    """Build a camera at ``position`` looking at ``target`` (both world mm),
    its image upright about ``LOOK_AT_UP``.  A view within 1e-6 rad of that
    axis, about which rounding would set the camera's roll, or a target at
    the position: ValueError."""
    pos = np.asarray(position, dtype=float)
    aim = np.asarray(target, dtype=float)
    fwd = aim - pos
    with np.errstate(invalid="ignore"):     # a target at the position
        fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(fwd, LOOK_AT_UP)
    if not np.linalg.norm(right) > 1e-6:        # NaN too
        raise ValueError(f"camera {cam_id}: the view from {pos.tolist()} to "
                         f"{aim.tolist()} is parallel to up {LOOK_AT_UP}")
    right = right / np.linalg.norm(right)
    down = np.cross(fwd, right)
    R = np.stack([right, down, fwd])
    # Re-orthonormalize so the strict load-time check never trips on round-off.
    u, _, vt = np.linalg.svd(R)
    R = u @ vt
    t = -R @ pos
    return Camera(id=cam_id, width=width, height=height, fx=f_px, fy=f_px,
                  cx=width / 2.0, cy=height / 2.0, rotation=R, translation=t)


def _camera_to_dict(c: Camera):
    return {
        "id": int(c.id), "width": int(c.width), "height": int(c.height),
        "fx": c.fx, "fy": c.fy, "cx": c.cx, "cy": c.cy,
        "dist": [float(v) for v in c.dist],
        "R": [float(v) for v in c.rotation.reshape(-1)],
        "t": [float(v) for v in c.translation],
    }


def save_rig(rig: CameraRig, path):
    payload = {"cameras": [_camera_to_dict(c) for c in rig.cameras]}
    ranges.write_json(path, payload, sort_keys=False)


def _camera(entry):
    """The camera of one calibration-file entry; its ``R`` is 9 numbers row
    by row (or 3 rows of 3), passed on element by element so that the
    camera sees what the file holds."""
    R = entry["R"]
    if isinstance(R, list) and len(R) == 9:
        R = [R[0:3], R[3:6], R[6:9]]
    return Camera(id=entry["id"], width=entry["width"],
                  height=entry["height"], fx=entry["fx"], fy=entry["fy"],
                  cx=entry["cx"], cy=entry["cy"], dist=entry["dist"],
                  rotation=R, translation=entry["t"])


def load_rig(path) -> CameraRig:
    """Load and validate a calibration file (see the JSON schema in save_rig)."""
    try:
        payload = ranges.read_json(path)
    except OSError as exc:
        raise MalformedCalibration(
            f"cannot read calibration file {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise MalformedCalibration(str(exc)) from None
    if not isinstance(payload, dict) or "cameras" not in payload:
        raise MalformedCalibration(f"{path}: missing top-level 'cameras' list")
    entries = payload["cameras"]
    if not isinstance(entries, list):
        raise MalformedCalibration(f"{path}: 'cameras' must be a list, not "
                                   f"a {type(entries).__name__}")
    if not entries:
        raise MalformedCalibration(f"{path}: empty camera list")
    try:
        return CameraRig(cameras=tuple(_camera(entry) for entry in entries))
    except CalibrationError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedCalibration(f"{path}: bad camera entry: {exc}") from exc
