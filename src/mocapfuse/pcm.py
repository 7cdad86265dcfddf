"""Part Confidence Map storage, binary file I/O and sub-pixel sampling.

A heatmap frame holds one camera's 18 per-keypoint confidence grids for one
video frame, possibly computed on a rotated copy of the input image
(``rotation_deg``) and possibly at reduced resolution (``scale``:
heatmap_px = image_px * scale), in the calibrated camera image, lens
distortion included (where ``calib.project_points`` puts a point).
Sampling is bilinear; anything outside the grid, or behind the camera,
contributes confidence 0.  The 16-bit flags slot of a ``.pcm`` file's
header is reserved: written 0 and ignored on read.
"""

from __future__ import annotations

import math
import mmap
import os
import stat
import struct
import threading
from dataclasses import dataclass

import numpy as np

from . import ranges
from .labels import KEYPOINTS

MAGIC = b"PCMF"
VERSION = 1
_HEADER = struct.Struct("<4sHHIIfIIIf")
# The float32 values +0.0 ... 1.0 are exactly the bit patterns 0 ... this one;
# negatives, -0.0, values above 1, inf and NaN all have larger patterns.
_ONE_BITS = np.float32(1.0).view(np.uint32)


class PcmError(ValueError):
    pass


class PcmFormatError(PcmError):
    """Bad magic, wrong version, truncated payload, an empty grid, a scale
    that is not finite and > 0, or a header that does not match its
    location; or a value outside [0, 1] or NaN in a cell that is
    read (the message names camera, frame and rotation)."""


class FrameMissing(PcmError):
    """Requested (camera, frame) is not available at rotation 0."""


class RotationUnavailable(PcmError):
    """Requested rotated frame is not available (rotation 0 may still be)."""


@dataclass(frozen=True)
class HeatmapFrame:
    """One camera's 18 channels for one frame.

    Pixels are image pixels, distortion included, times ``scale``.
    Construction checks the scale (``ranges.check``) and the channel shape,
    not the values: ``sample_channels`` and ``centroids`` check every cell
    they read and raise PcmFormatError for a value outside [0, 1] or NaN,
    so the cost does not grow with the frame.
    """
    camera_id: int
    frame_index: int
    rotation_deg: float
    scale: float
    channels: np.ndarray          # (18, height, width), values in [0, 1]

    def __post_init__(self):
        ch = np.ascontiguousarray(self.channels, dtype=np.float32)
        object.__setattr__(self, "channels", ch)
        try:
            ranges.check(self, float, "> 0", "scale")
        except ValueError as exc:
            raise PcmError(str(exc)) from None
        if ch.ndim != 3 or ch.shape[0] != len(KEYPOINTS) or 0 in ch.shape:
            raise PcmError(f"channels must be (18, height, width) with "
                           f"height, width > 0, got {ch.shape}")


def _check_values(frame: HeatmapFrame, values):
    """Refuse float32 ``values`` read from ``frame`` that lie outside [0, 1]
    or are NaN: their bit patterns are compared first, and min and max are
    taken only if that fails, so -0.0 is accepted."""
    if values.size and values.view(np.uint32).max() > _ONE_BITS:
        lo, hi = float(values.min()), float(values.max())
        if not (lo >= 0.0 and hi <= 1.0):
            raise PcmFormatError(
                f"camera {frame.camera_id} frame {frame.frame_index} rotation "
                f"{frame.rotation_deg} deg: channel values outside [0, 1] or "
                f"NaN: min={lo}, max={hi}")


# Work arrays of ``sample_channels``, one set per thread, reused from call to
# call.  At a lattice's size (about 6,000 samples per camera) fresh
# temporaries this large are mapped and unmapped by the allocator on most
# calls, and their page faults cost more than the arithmetic.  Nothing
# returned is a view of them.
_WORK = threading.local()


def _work_array(name, shape, dtype):
    """This thread's reused array ``name`` viewed as ``shape``; its values
    are whatever the last call left."""
    size = math.prod(shape)
    flat = getattr(_WORK, name, None)
    if flat is None or flat.size < size:
        flat = np.empty(size, dtype)
        setattr(_WORK, name, flat)
    return flat[:size].reshape(shape)


def sample_channels(frame: HeatmapFrame, chan, pixels, valid):
    """Bilinear samples at image-space pixels (N,2) of channel ``chan``
    (one index, or one per pixel).

    ``valid`` (N,) masks out entries (e.g. behind-camera projections);
    masked, out-of-grid and NaN pixels return 0.  The four corner cells of
    every sample, clamped to the grid (a NaN coordinate to the last cell),
    are gathered in one ``take`` and checked, masked and out-of-grid samples
    included: a corner outside [0, 1] or NaN raises PcmFormatError.

    The work runs on the (2, N) x/y planes ``pixels.T`` (contiguous when
    ``pixels`` comes from ``calib.project_points``), x and y in one pass
    against per-plane bounds, in work arrays reused from call to call.
    """
    _, h, w = frame.channels.shape
    planes = np.atleast_2d(np.asarray(pixels, dtype=float)).T
    n = planes.shape[1]
    px = np.multiply(planes, frame.scale, out=_work_array("px", (2, n), float))
    # frac ends as ((1 - fx, 1 - fy), (fx, fy)); until then frac[1] holds
    # the clamped pixels.
    frac = _work_array("frac", (2, 2, n), float)
    clamped = np.clip(px, 0.0, [[w - 1.0], [h - 1.0]], out=frac[1])
    on_grid = clamped == px                 # False for NaN, as x >= 0 is
    inside = on_grid[0] & on_grid[1] & np.asarray(valid, dtype=bool)
    corner = np.trunc(clamped, out=px)      # int() of the clamped pixels
    np.fmin(corner, [[max(w - 2, 0)], [max(h - 2, 0)]], out=corner)
    dx = 1 if w > 1 else 0
    dy = w if h > 1 else 0
    first = ((np.asarray(chan) * h + corner[1]) * w + corner[0]).astype(int)
    cells = np.add(first, [[0], [dx], [dy], [dx + dy]],
                   out=_work_array("cells", (4, n), int))
    corners = frame.channels.reshape(-1).take(cells)
    _check_values(frame, corners)
    clamped -= corner
    np.subtract(1.0, frac[1], out=frac[0])
    # Row 2j + i weighs corner (x0 + i, y0 + j): (1 - fx or fx) times
    # (1 - fy or fy), each factor computed once.
    weights = _work_array("weights", (4, n), float)
    np.multiply(frac[:, None, 1], frac[None, :, 0],
                out=weights.reshape(2, 2, n))
    weights *= corners
    v = weights[0] + weights[1]
    v += weights[2]
    v += weights[3]
    v[~inside] = 0.0
    return v


# The first pass of ``centroids`` takes the largest bit pattern of each group
# of this many rows of the (18 * height, width) frame: one reduction over a
# group's contiguous cells runs nearly as fast as one over the whole frame,
# where one per row costs a quarter to a half more.
_GROUP_ROWS = 16


def _cells_reaching(bits, lowest):
    """Flat indices, ascending, of the cells of ``bits`` (rows, width) whose
    pattern is at least ``lowest``.

    Group maxima first: each group of ``_GROUP_ROWS`` rows gets its largest
    pattern in one pass, and only the groups that reach ``lowest`` are
    scanned cell by cell; the rows after the last whole group are scanned
    cell by cell.
    """
    n_rows, w = bits.shape
    size = _GROUP_ROWS * w
    groups = bits[:n_rows - n_rows % _GROUP_ROWS].reshape(-1, size)
    hit = np.flatnonzero(groups.max(axis=1) >= lowest)
    cells = np.flatnonzero(groups[hit] >= lowest)
    tail = np.flatnonzero(bits[len(groups) * _GROUP_ROWS:] >= lowest)
    return np.concatenate([hit[cells // size] * size + cells % size,
                           groups.size + tail])


def centroids(frame: HeatmapFrame, floor: float):
    """Value-weighted mean position of every channel in image coordinates:
    (18, 2), row i for ``KEYPOINTS[i]``.

    Cells below ``floor`` (at or below 0 when ``floor`` is 0) are ignored; a
    channel with no other cell gives a NaN row.  Cells are selected by their
    float32 bit patterns, which sort like the values from +0.0 to 1.0; every
    value outside [0, 1] and NaN has a larger pattern, so it is selected and
    refused with PcmFormatError.  A -0.0 is accepted; it adds nothing to the
    sums.  The selected cells are those of a scan of the whole frame, in its
    order, found by group maxima first (``_cells_reaching``).
    """
    if not (0.0 <= floor < 1.0):
        raise PcmError(f"floor must be in [0, 1), got {floor}")
    n, h, w = frame.channels.shape
    bits = frame.channels.reshape(n * h, w).view(np.uint32)
    # The lowest pattern selected: the floor's, or that of the smallest
    # value above 0 when the floor is 0.
    lowest = max(int(np.float32(floor).view(np.uint32)), 1)
    cells = _cells_reaching(bits, lowest)
    values = bits.reshape(-1)[cells].view(np.float32)
    _check_values(frame, values)
    weights = values.astype(float)
    chan, cell = np.divmod(cells, h * w)
    ys, xs = np.divmod(cell, w)
    total = np.bincount(chan, weights, n)
    sums = np.stack([np.bincount(chan, v * weights, n) for v in (xs, ys)], 1)
    with np.errstate(invalid="ignore"):       # 0 / 0 for an empty channel
        return sums / total[:, None] / frame.scale


# ---------------------------------------------------------------------------
# Binary file format

def write_pcm(frame: HeatmapFrame, path):
    """Write a .pcm file; the payload goes out from the channels' own buffer
    (a little-endian copy only on a big-endian machine)."""
    _, height, width = frame.channels.shape
    header = _HEADER.pack(MAGIC, VERSION, 0, frame.camera_id,
                          frame.frame_index, frame.rotation_deg,
                          width, height, len(KEYPOINTS), frame.scale)
    payload = np.ascontiguousarray(frame.channels, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(payload).cast("B"))


def read_pcm(path) -> HeatmapFrame:
    """Map a .pcm file read-only and check its header and size.

    The frame's channels are a read-only view of the mapping, which is
    released with its last reference.  No page of the payload is touched
    here: the values are checked where they are read (``sample_channels``,
    ``centroids``).  The path is opened once, without blocking: a missing
    path raises FileNotFoundError (NotADirectoryError when a parent is a
    file), and a directory, FIFO or device is a PcmFormatError.
    """
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            raise PcmFormatError(f"{path}: not a regular file")
        size = st.st_size
        if size < _HEADER.size:
            raise PcmFormatError(f"{path}: truncated header")
        mapped = mmap.mmap(fd, size, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)
    magic, version, _flags, cam_id, frame_index, rot, width, height, nch, \
        scale = _HEADER.unpack_from(mapped)
    if magic != MAGIC:
        raise PcmFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise PcmFormatError(f"{path}: unsupported version {version}")
    if nch != len(KEYPOINTS):
        raise PcmFormatError(f"{path}: expected {len(KEYPOINTS)} channels, got {nch}")
    count = nch * height * width
    payload = size - _HEADER.size
    if payload < 4 * count:
        raise PcmFormatError(f"{path}: truncated payload "
                             f"({payload} of {4 * count} bytes)")
    values = np.frombuffer(mapped, dtype="<f4", count=count,
                           offset=_HEADER.size).reshape(nch, height, width)
    try:
        return HeatmapFrame(camera_id=cam_id, frame_index=frame_index,
                            rotation_deg=rot, scale=scale, channels=values)
    except PcmError as exc:   # dimensions or scale
        raise PcmFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Providers

def quantize_rotation(angle_deg) -> int:
    """The 1-degree bin a rotation angle's frames are stored and rendered at."""
    return int(round(float(angle_deg)))


def frame_path(root, camera_id, frame_index, rotation_deg=0.0):
    """Where a frame lives in a PCM directory: cam{ID}/rot{angle}/frame{N}.pcm."""
    return os.path.join(root, f"cam{camera_id}",
                        f"rot{quantize_rotation(rotation_deg)}",
                        f"frame{frame_index}.pcm")


class PcmProvider:
    """Source of heatmap frames keyed by (camera_id, frame_index, rotation)."""

    def get(self, camera_id, frame_index, rotation_deg=0.0) -> HeatmapFrame:
        raise NotImplementedError


class DirectoryProvider(PcmProvider):
    """File-backed store laid out as ``frame_path`` says."""

    def __init__(self, root):
        self.root = root

    def get(self, camera_id, frame_index, rotation_deg=0.0) -> HeatmapFrame:
        path = frame_path(self.root, camera_id, frame_index, rotation_deg)
        try:
            frame = read_pcm(path)
        except (FileNotFoundError, NotADirectoryError):
            if quantize_rotation(rotation_deg) == 0:
                raise FrameMissing(
                    f"no PCM for camera {camera_id} frame {frame_index}"
                ) from None
            raise RotationUnavailable(
                f"no PCM for camera {camera_id} frame {frame_index} "
                f"at rotation {quantize_rotation(rotation_deg)} deg") from None
        rot = frame.rotation_deg
        if (frame.camera_id != camera_id or frame.frame_index != frame_index
                or not math.isfinite(rot)
                or quantize_rotation(rot) != quantize_rotation(rotation_deg)):
            raise PcmFormatError(
                f"{path}: header (cam {frame.camera_id}, frame "
                f"{frame.frame_index}, rotation {rot} deg) does not match "
                f"its location")
        return frame

