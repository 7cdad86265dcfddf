"""Outside-in spans around the public functions of each mocapfuse module.

A ``Tracer`` replaces module and class attributes with timing wrappers for
the duration of a ``with tracer.installed(targets):`` block and restores
them afterwards.  Each call records a span (name, start, end, parent) in
memory; the spans are analysed or written out once the run is over.  The
package itself is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time

from mocapfuse import cli, ik, pcm, pipeline, skeleton, smooth, synth, tracker
from mocapfuse.labels import KEYPOINTS

# Every time the benchmark reports is wall time, as a user would see it,
# including time spent blocked on I/O.  Process CPU time is recorded beside
# it per repetition and set-up, as a diagnostic only.
clock = time.perf_counter
cpu_clock = time.process_time


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, span_id, name, parent):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, describe=None):
        """Return ``fn`` wrapped so that every call records one span.

        ``describe(args, kwargs, result)`` runs after the span has ended and
        returns a dict of attributes stored on it.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), name, stack[-1].id if stack else -1)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every ``(owner, attribute, span name, describe)`` target."""
        saved = []
        try:
            for owner, attr, name, describe in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, describe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def last(self, name):
        for span in reversed(self.spans):
            if span.name == name:
                return span
        raise LookupError(f"no {name} span recorded")

    def dump(self, path):
        rows = [[s.id, s.name, s.parent, s.start, s.end,
                 _jsonable(s.attrs)] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "name", "parent", "start", "end",
                                   "attrs"], "spans": rows}, fh)


def _jsonable(attrs):
    if not attrs:
        return None
    return {k: v for k, v in attrs.items() if isinstance(v, (int, float, str))}


# ---------------------------------------------------------------------------
# What gets wrapped

def _get_key(args, kwargs, result):
    rotation = args[3] if len(args) > 3 else kwargs.get("rotation_deg", 0.0)
    return {"camera": args[1], "frame": args[2],
            "rotation": pcm.quantize_rotation(rotation)}


def _file_bytes(path_arg):
    def describe(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_arg])}
    return describe


def _solve_result(args, kwargs, result):
    settings = args[3] if len(args) > 3 else kwargs.get("settings",
                                                        ik.IkSettings())
    return {"iterations": result.iterations, "converged": int(result.converged),
            "cap": int(result.iterations >= settings.max_iterations
                       and not result.converged)}


def _sequence(args, kwargs, result):
    return {"sequence": result}


# Only the pipeline.track boundary: what an untraced run needs to find the
# frames of the tracking call.
TRACK_ONLY = [(pipeline, "track", "pipeline.track", _sequence)]

LAYERS = TRACK_ONLY + [
    (cli, "main", "cli.main", None),
    (pipeline, "initialize", "pipeline.initialize", None),
    (pipeline, "write_positions_csv", "pipeline.write", _file_bytes(1)),
    (pipeline, "write_pose_csv", "pipeline.write", _file_bytes(1)),
    (pipeline, "write_run_metadata", "pipeline.write", _file_bytes(0)),
    (pipeline, "write_diagnostics_csv", "pipeline.write", _file_bytes(2)),
    (pcm.DirectoryProvider, "get", "pcm.get", _get_key),
    (synth.SyntheticProvider, "get", "pcm.get", _get_key),
    (pcm, "read_pcm", "pcm.read", _file_bytes(0)),
    (synth, "render_frame", "synth.render", None),
    # The tracker's own reference to calib.project_points, so projections
    # made by the renderer are not counted.
    (tracker, "project_points", "calib.project", None),
    (tracker, "lattice_search", "tracker.lattice_search", None),
    (tracker, "score_points", "tracker.score_points", None),
    (tracker, "plan_rotations", "tracker.plan_rotations", None),
    (ik, "solve", "ik.solve", _solve_result),
    (skeleton, "fk_and_jacobians", "skeleton.fk_jac", None),
    (skeleton, "keypoint_positions", "skeleton.fk", None),
    (skeleton, "forward_kinematics", "skeleton.fk", None),
    (smooth, "smooth_and_refit", "smooth.refit", None),
    (smooth.TrajectoryFilter, "step_positions", "smooth.filter", None),
]


# ---------------------------------------------------------------------------
# Analysis

def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def _descendants(spans, root):
    """Spans below ``root`` (spans are recorded in start order)."""
    inside = {root.id}
    for s in spans[root.id + 1:]:
        if s.parent in inside:
            inside.add(s.id)
    inside.discard(root.id)
    return [spans[i] for i in sorted(inside)]


def layer_metrics(tracer, n_cameras, lattice_k, overhead_pct):
    """Per-layer metrics of the traced ``pipeline.track`` calls (and the
    setup and CLI spans around them), normalised per tracked frame unless
    the name says otherwise."""
    spans = tracer.spans
    selfs = self_times(spans)
    tracks = [s for s in spans if s.name == "pipeline.track"]
    track_ids = {t.id for t in tracks}
    records = [f for t in tracks for f in t.attrs["sequence"].frames]
    frames = max(len(records), 1)
    inner = [s for t in tracks for s in _descendants(spans, t)]

    def pick(name, pool=inner):
        return [s for s in pool if s.name == name]

    def ms(pool):
        return 1000.0 * sum(s.duration for s in pool) / frames

    def self_ms(pool):
        return 1000.0 * sum(selfs[s.id] for s in pool) / frames

    def per_frame(pool):
        return len(pool) / frames

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    gets = pick("pcm.get")
    reads = pick("pcm.read")
    renders = pick("synth.render")
    projects = pick("calib.project")
    lattice = pick("tracker.lattice_search") + pick("tracker.score_points")
    refits = pick("smooth.refit")
    refit_ids = {s.id for s in refits}
    solves = pick("ik.solve")
    stage1 = [s for s in solves if s.parent in track_ids]
    stage2 = [s for s in solves if s.parent in refit_ids]
    fk_jac = pick("skeleton.fk_jac")
    fk = pick("skeleton.fk")

    setup_solves = []
    for init in pick("pipeline.initialize", spans):
        setup_solves += [s for s in _descendants(spans, init)
                         if s.name == "ik.solve"]

    writes = pick("pipeline.write", spans)
    probe_ms, probe_gets = 0.0, 0
    track = tracks[-1]
    enclosing = [s for s in pick("cli.main", spans)
                 if s.start <= track.start and track.end <= s.end]
    if enclosing:
        main = enclosing[-1]
        probe_ms = 1000.0 * (track.start - main.start)
        probe_gets = sum(1 for s in _descendants(spans, main)
                         if s.name == "pcm.get" and s.end <= track.start)

    rotated = [a != 0.0 for f in records for a in f.rotations.values()]
    edge = [max(abs(v) for v in f.lattice_offsets[lb]) == lattice_k
            for f in records for lb in KEYPOINTS]
    keys = {(s.attrs["camera"], s.attrs["frame"], s.attrs["rotation"])
            for s in gets}

    def it(pool, key):
        return [s.attrs[key] for s in pool]

    values = {
        "pcm.get_calls_per_frame": (per_frame(gets), "count"),
        "pcm.get_ms_per_frame": (ms(gets), "ms"),
        "pcm.read_ms_per_frame": (ms(reads), "ms"),
        "pcm.read_mb_per_frame": (sum(s.attrs["bytes"] for s in reads)
                                  / 1e6 / frames, "MB"),
        "pcm.distinct_frame_ratio": (len(keys) / len(gets) if gets else 0.0,
                                     "ratio"),
        "synth.render_calls_per_frame": (per_frame(renders), "count"),
        "synth.render_ms_per_frame": (ms(renders), "ms"),
        "calib.project_calls_per_frame": (per_frame(projects), "count"),
        "calib.project_ms_per_frame": (ms(projects), "ms"),
        "tracker.lattice_self_ms_per_frame": (self_ms(lattice), "ms"),
        "tracker.samples_per_frame": (
            len(KEYPOINTS) * (2 * lattice_k + 1) ** 3 * n_cameras, "count"),
        "tracker.plan_ms_per_frame": (ms(pick("tracker.plan_rotations")), "ms"),
        "tracker.rotated_camera_ratio": (mean(rotated), "ratio"),
        "tracker.edge_hit_ratio": (mean(edge), "ratio"),
        "ik.stage1_ms_per_frame": (ms(stage1), "ms"),
        "ik.stage1_self_ms_per_frame": (self_ms(stage1), "ms"),
        "ik.stage1_iterations_mean": (mean(it(stage1, "iterations")), "count"),
        "ik.stage1_cap_ratio": (mean(it(stage1, "cap")), "ratio"),
        "ik.stage2_ms_per_frame": (ms(stage2), "ms"),
        "ik.stage2_iterations_mean": (mean(it(stage2, "iterations")), "count"),
        "ik.stage2_cap_ratio": (mean(it(stage2, "cap")), "ratio"),
        "ik.setup_solves": (len(setup_solves), "count"),
        "ik.setup_ms": (1000.0 * sum(s.duration for s in setup_solves), "ms"),
        "skeleton.fk_jac_calls_per_frame": (per_frame(fk_jac), "count"),
        "skeleton.fk_jac_ms_per_frame": (ms(fk_jac), "ms"),
        "skeleton.fk_calls_per_frame": (per_frame(fk), "count"),
        "skeleton.fk_ms_per_frame": (ms(fk), "ms"),
        "smooth.refit_ms_per_frame": (ms(refits), "ms"),
        "smooth.filter_ms_per_frame": (ms(pick("smooth.filter")), "ms"),
        "pipeline.self_ms_per_frame": (self_ms(tracks), "ms"),
        "pipeline.write_ms": (1000.0 * sum(s.duration for s in writes), "ms"),
        "pipeline.write_mb": (sum(s.attrs["bytes"] for s in writes) / 1e6,
                              "MB"),
        "cli.probe_ms": (probe_ms, "ms"),
        "cli.probe_get_calls": (probe_gets, "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {name: {"value": float(v), "unit": unit}
            for name, (v, unit) in values.items()}
