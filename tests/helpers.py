"""Shared test utilities: synthetic heatmap construction, toy providers and
reference formulas the package itself does not need."""

import csv
import dataclasses
import math
import os

import numpy as np

from mocapfuse import pcm, skeleton as sk, synth, tracker
from mocapfuse.ik import VirtualMarkerSet
from mocapfuse.labels import KEYPOINT_INDEX, KEYPOINTS, LOWER_BODY
from mocapfuse.pipeline import LOW_CONFIDENCE_FRACTION


def bad_numbers(default, prefix=""):
    """(dotted key, value, named) for every numeric field of the dataclass
    ``default`` and of the records it holds, walked by
    ``dataclasses.fields``: true and 10**400 for every one, and NaN and
    +-Infinity for a float field.  ``named`` is the part of the error that
    names the key: the config tree's type error for true, the record's
    range rule (under its section) otherwise."""
    for f in dataclasses.fields(default):
        value, dotted = getattr(default, f.name), prefix + f.name
        if dataclasses.is_dataclass(value):
            yield from bad_numbers(value, dotted + ".")
            continue
        kind = type(value)
        if kind not in (int, float):
            continue
        yield dotted, True, f"config key '{dotted}' must be {kind.__name__}"
        section = f"config {prefix.rstrip('.')}: " if prefix else ""
        named = f"{section}{f.name} must be a finite {kind.__name__}"
        for bad in [10 ** 400] + [math.nan, math.inf, -math.inf] * (
                kind is float):
            yield dotted, bad, named


def tree_at(dotted, value):
    """The config tree that sets only the dotted key to ``value``."""
    *sections, key = dotted.split(".")
    tree = {key: value}
    for section in reversed(sections):
        tree = {section: tree}
    return tree


def value_id(value):
    """A short test id for a number such as 10**400; None (pytest's own id)
    for anything else."""
    if type(value) is int and value == 10 ** 400:
        return "1e400"
    return str(value).lower() if isinstance(value, (int, float)) else None


def gaussian_grid(h, w, cx, cy, sigma):
    ys, xs = np.mgrid[0:h, 0:w]
    return np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma ** 2))


def make_frame(channels=None, h=48, w=64, scale=1.0, rotation=0.0,
               camera_id=0, frame_index=0):
    if channels is None:
        channels = np.zeros((len(KEYPOINTS), h, w), dtype=np.float32)
    return pcm.HeatmapFrame(camera_id=camera_id, frame_index=frame_index,
                            rotation_deg=rotation, scale=scale,
                            channels=channels)


def frame_with_channel(label, grid, **kw):
    h, w = grid.shape
    channels = np.zeros((len(KEYPOINTS), h, w), dtype=np.float32)
    channels[KEYPOINT_INDEX[label]] = grid
    return make_frame(channels=channels, h=h, w=w, **kw)


def render(spec, camera, frame_index, rotation_deg=0.0):
    """``synth.render_frame`` of one frame from its own ground truth, into a
    pool of its own."""
    return synth.render_frame(spec, camera, frame_index, rotation_deg,
                              synth.ground_truth_keypoints(spec, frame_index),
                              synth.FrameBuffers())


class DictProvider(pcm.PcmProvider):
    """In-memory provider over a {(camera, frame, rot_key): frame} dict."""

    def __init__(self, frames):
        self.frames = frames

    def get(self, camera_id, frame_index, rotation_deg=0.0):
        key = (camera_id, frame_index, pcm.quantize_rotation(rotation_deg))
        if key not in self.frames:
            if key[2] == 0:
                raise pcm.FrameMissing(str(key))
            raise pcm.RotationUnavailable(str(key))
        return self.frames[key]


def keypoint_rows(by_label):
    """(18, 3) positions, row i for ``KEYPOINTS[i]``, from a label -> (3,)
    dict such as an FK result; keypoints left out sit at the origin."""
    return np.array([by_label.get(label, np.zeros(3)) for label in KEYPOINTS],
                    dtype=float)


def marker_set(positions, weights):
    """A VirtualMarkerSet from label dicts; keypoints left out weigh 0."""
    w = np.zeros(len(KEYPOINTS))
    for label, v in weights.items():
        w[KEYPOINT_INDEX[label]] = v
    return VirtualMarkerSet(positions=keypoint_rows(positions), weights=w)


def no_rotation(rig):
    """The rotation plan that samples every camera at rotation 0."""
    return {c.id: 0.0 for c in rig.cameras}


def resident_mb():
    """This process's resident memory in MB, read from /proc/self/statm;
    None where that file is absent."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except FileNotFoundError:
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def objective(model, q, markers):
    """The weighted squared marker-fit error at a pose (mm^2): what
    ``ik.solve`` minimizes and reports as ``residual``."""
    used = markers.weights[model.keypoint_rows] > 0.0
    rows = model.keypoint_rows[used]
    e = markers.positions[rows] - sk.keypoint_positions(model, q)[used]
    return 0.5 * float(markers.weights[rows] @ np.sum(e * e, axis=1))


def biquad_response(coeffs, freq_hz, sample_rate_hz):
    """Complex transfer-function value H(e^{jw}) of a biquad."""
    b0, b1, b2, a1, a2 = coeffs
    z = np.exp(-1j * 2.0 * np.pi * np.asarray(freq_hz, dtype=float)
               / sample_rate_hz)
    return (b0 + b1 * z + b2 * z ** 2) / (1.0 + a1 * z + a2 * z ** 2)


def _so3(w, jacobian):
    x, y, z = (float(v) for v in w)
    ea, eb, ja, jb = sk._so3_coefficients(x * x + y * y + z * z)
    a, b = (ja, jb) if jacobian else (ea, eb)
    return np.array(sk._rodrigues(x, y, z, a, b)).reshape(3, 3)


def exp_so3(w):
    """Rodrigues' rotation from an axis-angle 3-vector, built from the
    coefficients and formula the kinematic chain uses."""
    return _so3(w, jacobian=False)


def left_jacobian_so3(w):
    """Left Jacobian of SO(3), d/dw of the exponential map's action, from
    the chain's own coefficients and formula."""
    return _so3(w, jacobian=True)


# ---------------------------------------------------------------------------
# Row-major references: the lattice as it ran on (N, 3) and (N, 2) rows of
# coordinates before the package moved to coordinate planes.  The planes
# change the memory layout only, so the package must match these bit for
# bit.

def rowmajor_project_points(camera, points):
    """``calib.project_points`` through ``points @ R.T + t``."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite point passed to project")
    cam_pts = pts @ camera.rotation.T + camera.translation
    z = cam_pts[:, 2]
    in_front = z > 0.0
    z_safe = np.where(in_front, z, 1.0)
    x = cam_pts[:, 0] / z_safe
    y = cam_pts[:, 1] / z_safe
    if camera.has_distortion:
        k1, k2, p1, p2, k3 = camera.dist
        r2 = x * x + y * y
        radial = 1.0 + r2 * (k1 + r2 * (k2 + r2 * k3))
        x_d = x * radial + 2.0 * p1 * x * y + p2 * (r2 + 2.0 * x * x)
        y_d = y * radial + p1 * (r2 + 2.0 * y * y) + 2.0 * p2 * x * y
        x, y = x_d, y_d
    px = np.stack([camera.fx * x + camera.cx, camera.fy * y + camera.cy],
                  axis=1)
    if single:
        return px[0], bool(in_front[0])
    return px, in_front


def rowmajor_rotate_pixel(pixel, angle_deg, center):
    """``calib.rotate_pixel`` through ``(p - c) @ R.T + c``."""
    p = np.asarray(pixel, dtype=float)
    c = np.asarray(center, dtype=float)
    a = math.radians(angle_deg)
    ca, sa = math.cos(a), math.sin(a)
    R = np.array([[ca, -sa], [sa, ca]])
    return (p - c) @ R.T + c


def sample_oracle(frame, chan, pixels, valid=None):
    """The bilinear sampler on the x and y columns of (N, 2) pixels, with
    four fancy-index gathers of clamped corners and no value check."""
    px = np.atleast_2d(np.asarray(pixels, dtype=float)) * frame.scale
    _, h, w = frame.channels.shape
    x, y = px[:, 0], px[:, 1]
    inside = (x >= 0.0) & (x <= w - 1.0) & (y >= 0.0) & (y <= h - 1.0)
    if valid is not None:
        inside = inside & np.asarray(valid, dtype=bool)
    xs = np.clip(x, 0.0, w - 1.0)
    ys = np.clip(y, 0.0, h - 1.0)
    x0 = (np.minimum(xs.astype(int), w - 2) if w > 1
          else np.zeros_like(xs, dtype=int))
    y0 = (np.minimum(ys.astype(int), h - 2) if h > 1
          else np.zeros_like(ys, dtype=int))
    fx = xs - x0
    fy = ys - y0
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    ch = frame.channels
    v = ((1 - fx) * (1 - fy) * ch[chan, y0, x0]
         + fx * (1 - fy) * ch[chan, y0, x1]
         + (1 - fx) * fy * ch[chan, y1, x0] + fx * fy * ch[chan, y1, x1])
    return np.where(inside, v, 0.0)


def rowmajor_score_points(points, labels, provider, rig, frame_index,
                          rotations):
    """``tracker.score_points`` on (L * N, 3) rows of points."""
    points = np.asarray(points, dtype=float)
    n_labels, n = points.shape[:2]
    flat = points.reshape(-1, 3)
    chan = np.repeat([KEYPOINT_INDEX[lb] for lb in labels], n)
    lower = np.repeat([lb in LOWER_BODY for lb in labels], n)
    per_camera = np.zeros((rig.n_c, n_labels * n))
    for ci, camera in enumerate(rig.cameras):
        frame = provider.get(camera.id, frame_index, 0.0)
        rotated = tracker._rotated_frame(provider, camera, frame_index,
                                         rotations[camera.id])
        px, in_front = rowmajor_project_points(camera, flat)
        rows = ~lower if rotated is not None else slice(None)
        per_camera[ci, rows] = sample_oracle(
            frame, chan[rows], px[rows], valid=in_front[rows])
        if rotated is not None:
            px_rot = rowmajor_rotate_pixel(px[lower], rotated.rotation_deg,
                                           camera.image_center)
            per_camera[ci, lower] = sample_oracle(
                rotated, chan[lower], px_rot, valid=in_front[lower])
    per_camera = per_camera.reshape(rig.n_c, n_labels, n)
    return per_camera.sum(axis=0), per_camera


def rowmajor_lattice_search(prev_positions, provider, rig, cfg, frame_index,
                            rotations):
    """``tracker.lattice_search`` on (18, n, 3) candidate rows."""
    offsets = tracker.lattice_offsets(cfg.k)
    candidates = prev_positions[:, None, :] + cfg.s * offsets.astype(float)
    scores, per_camera = rowmajor_score_points(
        candidates, KEYPOINTS, provider, rig, frame_index, rotations)
    rows = np.arange(len(KEYPOINTS))
    best = np.argmax(scores, axis=1)
    return VirtualMarkerSet(positions=candidates[rows, best],
                            weights=scores[rows, best],
                            per_camera=per_camera[:, rows, best].T,
                            offsets=offsets[best])


# ---------------------------------------------------------------------------
# csv.writer references for the tracking outputs

def csv_writer_positions(seq, path):
    """The positions CSV as ``csv.writer`` writes its rows."""
    fps = seq.sample_rate_hz
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "time_s", "label", "x_mm", "y_mm", "z_mm",
                         "weight", "stage"])
        for f in seq.frames:
            weights = f.weights.tolist()
            writer.writerows(
                [f.index, f.index / fps, label, x, y, z, w, stage]
                for stage, positions in (("stage1", f.positions_stage1),
                                         ("stage2", f.positions_stage2))
                for label, (x, y, z), w in zip(KEYPOINTS, positions.tolist(),
                                               weights))


def csv_writer_diagnostics(seq, rig, path):
    """The diagnostics CSV as ``csv.writer`` writes its rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "label", "a", "b", "c", "weight",
                         "low_confidence"]
                        + [f"sample_cam{c.id}" for c in rig.cameras])
        floor = LOW_CONFIDENCE_FRACTION * rig.n_c
        for f in seq.frames:
            writer.writerows(
                [f.index, label, *f.lattice_offsets[label], w, int(w < floor)]
                + cams
                for label, w, cams in zip(KEYPOINTS, f.weights.tolist(),
                                          f.per_camera.tolist()))


# ---------------------------------------------------------------------------
# PCM references: the forms ``pcm`` had before it scanned row maxima first
# and wrote payloads from the array's own buffer.  Same bits, same bytes.

def wholeframe_centroids(frame, floor):
    """``pcm.centroids`` as one scan over the whole frame, before it took
    maxima first: every cell selected by its bit pattern, then the same
    value check and sums."""
    n, h, w = frame.channels.shape
    flat = frame.channels.reshape(-1)
    bits = flat.view(np.uint32)
    cells = np.flatnonzero(bits >= np.float32(floor).view(np.uint32)
                           if floor > 0 else bits > 0)
    values = flat[cells]
    pcm._check_values(frame, values)
    weights = values.astype(float)
    chan, cell = np.divmod(cells, h * w)
    ys, xs = np.divmod(cell, w)
    total = np.bincount(chan, weights, n)
    sums = np.stack([np.bincount(chan, v * weights, n) for v in (xs, ys)], 1)
    with np.errstate(invalid="ignore"):
        return sums / total[:, None] / frame.scale


def tobytes_write_pcm(frame, path):
    """``pcm.write_pcm`` with the payload copied out by ``tobytes``."""
    _, height, width = frame.channels.shape
    header = pcm._HEADER.pack(pcm.MAGIC, pcm.VERSION, 0, frame.camera_id,
                              frame.frame_index, frame.rotation_deg,
                              width, height, len(KEYPOINTS), frame.scale)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(frame.channels, dtype="<f4").tobytes())
