"""The benchmark workloads and how one run of each is measured.

Each run sets up several times (median reported as ``setup_s``), tracks a
short warm-up segment that is discarded, then repeats one fixed tracking
call until ``seconds`` have passed (at least once).  The tracked frames are
fixed per workload, so accuracy and the output digest depend on the seed
only.  A traced run sets up once under the layer tracer and reports the
per-layer metrics of one traced tracking call; the tracing overhead comes
from an untraced and a traced call over the same frames (the first
``OVERHEAD_FRAMES`` in memory, the whole ``mocapfuse track`` on disk).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
from dataclasses import dataclass
from mocapfuse import cli, pcm, pipeline, skeleton, smooth, synth
from mocapfuse.labels import KEYPOINTS
from mocapfuse.tracker import LatticeConfig

import checks
from tracing import LAYERS, TRACK_ONLY, Tracer, clock, cpu_clock, layer_metrics

SETUPS = 3
WARMUP_FRAMES = 2
SMOKE_FRAMES = 3
OVERHEAD_FRAMES = 60

# Acceptance 2 asks rotated sampling to cut LowerBody MPJPE by >= 30 %
# against the same scene tracked with rotation off.  Tracking that twin
# would double the run, so the bar is taken against the smallest
# rotation-off LowerBody MPJPE over seeds 0-3 on the same frames, as
# ``python3 perfbench/reference.py rotation-off`` prints it.
ROTATION_OFF_LOWER_MM = 25.48
ACCEPTANCE2_REDUCTION = 0.30

# Half the period of the acceptance-2 scene (8 s), so that the run tracks
# through the inversion (frame 132) in a ~30 s call.
HANDSTAND_PERIOD_S = 4.0


def walk_scene(seed):
    return synth.SceneSpec(
        motion=synth.walk_like(),
        noise=synth.NoiseModel(jitter_px=1.0, amplitude_std=0.1),
        seed=seed)


def handstand_scene(seed):
    return synth.SceneSpec(
        motion=synth.handstand_like(period_s=HANDSTAND_PERIOD_S),
        tilt_bias=synth.TiltBias(enabled=True, jitter_px=10.0),
        seed=seed)


def handstand_config(rotation=True):
    return pipeline.PipelineConfig(
        lattice=LatticeConfig(s=15.0, rotation_enabled=rotation),
        filter=smooth.FilterSpec(cutoff_hz=10.0, sample_rate_hz=60.0),
        lattice_center="stage1")


ACCEPTANCE1 = checks.Bars(mpjpe_max_mm=15.0, joint_error_max_mm=50.0)


@dataclass(frozen=True)
class Workload:
    name: str
    scene: object          # seed -> SceneSpec
    config: object         # () -> PipelineConfig
    end_frame: int         # tracking stops before this frame index
    bars: checks.Bars
    on_disk: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("handstand_rot", handstand_scene, handstand_config, 140,
             checks.Bars(lower_mpjpe_max_mm=(1.0 - ACCEPTANCE2_REDUCTION)
                         * ROTATION_OFF_LOWER_MM)),
    # Frames 0-9 go to initialization, 10-29 are tracked.
    Workload("walk_disk_cli", walk_scene, pipeline.PipelineConfig, 30,
             ACCEPTANCE1, on_disk=True),
    # Not in BENCHMARK.json: its speed depends too much on the seed (see
    # README.md).  Kept so that the measurement can be repeated.
    Workload("walk_mem", walk_scene, pipeline.PipelineConfig, 160,
             ACCEPTANCE1),
)}


class FrameStamper(pcm.PcmProvider):
    """Pass-through provider that stamps the clock whenever the requested
    frame index changes; the stamps are the tracker's frame boundaries."""

    def __init__(self, inner):
        self.inner = inner
        self.stamps = []
        self._frame = None

    def get(self, camera_id, frame_index, rotation_deg=0.0):
        if frame_index != self._frame:
            self._frame = frame_index
            self.stamps.append(clock())
        return self.inner.get(camera_id, frame_index, rotation_deg)


def frame_ms(stamps, track_span):
    """Per-frame wall ms of one ``pipeline.track`` call."""
    times = [t for t in stamps if track_span.start <= t <= track_span.end]
    times.append(track_span.end)
    return [1000.0 * (b - a) for a, b in zip(times, times[1:])]


@dataclass
class Rep:
    """One tracking call."""
    frames: int
    seconds: float         # wall time
    cpu_seconds: float     # process CPU time, recorded only
    frame_ms: list
    poses: list
    positions: list

    @property
    def fps(self):
        return self.frames / self.seconds


class Run:
    """What one run measured, checked and traced."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.setup_s = []
        self.setup_cpu_s = []
        self.reps = []
        self.attempted = 0
        self.failed = 0
        self.reasons = {}
        self.accuracy = {}
        self.digests = []
        self.dataset = {}
        self.layers = None
        self.tracer = None
        self.notes = {}

    def _count(self, why, n):
        self.reasons[why] = self.reasons.get(why, 0) + n

    def check(self, rep, model, gt, expected_frames):
        """Check one repetition's output and return the repetition."""
        flags, reasons, acc = checks.check_frames(
            model, rep.poses, rep.positions, gt, self.workload.bars)
        missing = max(expected_frames - len(flags), 0)
        self.attempted += expected_frames
        self.failed += sum(flags) + missing
        for why, n in reasons.items():
            self._count(why, n)
        if missing:
            self._count("frames missing from output", missing)
        self.digests.append(checks.digest(rep.positions))
        if not self.accuracy:
            self.accuracy = acc
        if self.digests[-1] != self.digests[0]:
            self.fail_all("output differs between repetitions")
        return rep

    def fail_all(self, why):
        self._count(why, self.attempted - self.failed)
        self.failed = self.attempted


def _repeat(seconds, once):
    reps = []
    begin = clock()
    while not reps or clock() - begin < seconds:
        reps.append(once())
    return reps


# ---------------------------------------------------------------------------
# In-memory workloads (SyntheticProvider)

def run_in_memory(w: Workload, seed, seconds, trace, smoke):
    run = Run(w, seed)
    spec = w.scene(seed)
    rig = synth.build_rig(spec)
    config = w.config()
    template = skeleton.human_skeleton()
    layers = Tracer()

    for _ in range(1 if trace else SETUPS):
        with layers.installed(LAYERS if trace else []):
            t0, cpu = clock(), cpu_clock()
            provider = synth.SyntheticProvider(spec, rig)
            model, pose0, _, first = pipeline.initialize(
                provider, rig, template, config)
            run.setup_s.append(clock() - t0)
            run.setup_cpu_s.append(cpu_clock() - cpu)

    frames = range(first, first + SMOKE_FRAMES if smoke else w.end_frame)
    gt_model = synth.build_model(spec)
    gt = [synth.ground_truth_positions(spec, i, gt_model) for i in frames]

    def track(tracer, targets, frame_range):
        stamper = FrameStamper(synth.SyntheticProvider(spec, rig))
        cpu = cpu_clock()
        with tracer.installed(targets):
            seq = pipeline.track(stamper, rig, model, pose0, config,
                                 frame_range)
        cpu = cpu_clock() - cpu
        span = tracer.last("pipeline.track")
        return Rep(len(seq.frames), span.duration, cpu,
                   frame_ms(stamper.stamps, span),
                   [f.pose_stage2 for f in seq.frames],
                   seq.positions("stage2"))

    def checked(rep):
        return run.check(rep, model, gt, len(frames))

    track(Tracer(), TRACK_ONLY, frames[:WARMUP_FRAMES])
    if trace:
        # Tracing overhead: an untraced call over the first frames against
        # the same frames of the traced call.
        untraced = track(Tracer(), TRACK_ONLY, frames[:OVERHEAD_FRAMES])
        run.reps = [checked(track(layers, LAYERS, frames))]
        n = untraced.frames
        traced_s = sum(run.reps[0].frame_ms[:n]) / 1000.0
        if checks.digest(untraced.positions) != \
                checks.digest(run.reps[0].positions[:n]):
            run.fail_all("tracing changed the output")
        run.tracer = layers
        run.layers = layer_metrics(layers, rig.n_c, config.lattice.k,
                                   100.0 * (traced_s / untraced.seconds - 1.0))
    else:
        run.reps = _repeat(seconds,
                           lambda: checked(track(Tracer(), TRACK_ONLY, frames)))
    run.dataset = {"provider": "SyntheticProvider", "cameras": rig.n_c,
                   "frames": len(frames),
                   "bytes_per_camera_frame": _pcm_bytes(spec),
                   "bytes_on_disk": 0}
    return run


def _pcm_bytes(spec):
    h = int(round(spec.image_height * spec.heatmap_scale))
    w = int(round(spec.image_width * spec.heatmap_scale))
    return len(KEYPOINTS) * h * w * 4


# ---------------------------------------------------------------------------
# On-disk workload (synth.generate + the mocapfuse CLI)

@contextlib.contextmanager
def _stamped_directory_provider():
    """Make the CLI's DirectoryProvider a FrameStamper around the real one."""
    real = pcm.DirectoryProvider
    stampers = []

    def factory(root):
        stampers.append(FrameStamper(real(root)))
        return stampers[-1]

    pcm.DirectoryProvider = factory
    try:
        yield stampers
    finally:
        pcm.DirectoryProvider = real


def _cli(tracer, targets, argv):
    """``mocapfuse <argv>`` in this process; returns (wall seconds, CPU
    seconds, frame stamps)."""
    with _stamped_directory_provider() as stampers, \
            tracer.installed(targets), \
            contextlib.redirect_stdout(io.StringIO()):
        t0, cpu = clock(), cpu_clock()
        code = cli.main(argv)
        elapsed, cpu = clock() - t0, cpu_clock() - cpu
    if code != 0:
        raise RuntimeError(f"mocapfuse {argv[0]} exited with code {code}")
    return elapsed, cpu, [t for s in stampers for t in s.stamps]


def _check_free_space(spec, n_frames, path):
    need = n_frames * spec.camera_count * _pcm_bytes(spec)
    free = shutil.disk_usage(path).free
    if free < need + (1 << 30):
        raise OSError(f"dataset needs {need / 1e9:.2f} GB plus 1 GB headroom, "
                      f"{free / 1e9:.2f} GB free under {path}")
    return need


def _read_pose_csv(path):
    """Stage-2 pose vectors from the CLI's pose.csv (frame, time_s, q...)."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[float(v) for v in row[2:]] for row in rows]


def run_disk(w: Workload, seed, seconds, trace, smoke, workdir):
    run = Run(w, seed)
    spec = w.scene(seed)
    n_frames = w.end_frame if not smoke else 10 + SMOKE_FRAMES + 1
    data = os.path.join(workdir, "dataset")
    os.makedirs(workdir)
    need = _check_free_space(spec, n_frames, workdir)
    synth.generate(spec, n_frames, data)
    pcm_bytes = sum(os.path.getsize(os.path.join(d, f))
                    for d, _, files in os.walk(os.path.join(data, "pcm"))
                    for f in files)
    run.dataset = {"provider": "DirectoryProvider", "cameras": spec.camera_count,
                   "frames": n_frames, "bytes_on_disk": pcm_bytes,
                   "bytes_needed_estimate": need}

    common = ["--calib", os.path.join(data, "calib.json"),
              "--pcm-dir", os.path.join(data, "pcm")]
    init_dir = os.path.join(workdir, "init")
    layers = Tracer()
    for _ in range(1 if trace else SETUPS):
        elapsed, cpu, _ = _cli(layers, LAYERS if trace else [],
                               ["init", *common, "--out", init_dir])
        run.setup_s.append(elapsed)
        run.setup_cpu_s.append(cpu)
    with open(os.path.join(init_dir, "init_state.json"), encoding="utf-8") as fh:
        first = json.load(fh)["first_track_frame"]
    skeleton_args = ["--skeleton", os.path.join(init_dir, "skeleton.json")]
    _cli(Tracer(), [], ["track", *common, *skeleton_args,
                        "--end-frame", str(first + 1),
                        "--out", os.path.join(workdir, "warmup")])

    out = os.path.join(workdir, "track")
    model = skeleton.load_skeleton(os.path.join(init_dir, "skeleton.json"))
    gt_indices, gt_all = synth.read_ground_truth_csv(
        os.path.join(data, "ground_truth.csv"))
    gt = [gt_all[gt_indices.index(i)] for i in range(first, n_frames)]

    def track(tracer, targets):
        elapsed, cpu, stamps = _cli(
            tracer, targets, ["track", *common, *skeleton_args, "--out", out])
        span = tracer.last("pipeline.track")
        _, positions = pipeline.read_positions_csv(
            os.path.join(out, "positions.csv"), stage="stage2")
        rep = Rep(n_frames - first, elapsed, cpu, frame_ms(stamps, span),
                  _read_pose_csv(os.path.join(out, "pose.csv")), positions)
        return run.check(rep, model, gt, n_frames - first)

    if trace:
        untraced = track(Tracer(), TRACK_ONLY)
        run.reps = [untraced, track(layers, LAYERS)]
        run.tracer = layers
        run.layers = layer_metrics(
            layers, spec.camera_count, w.config().lattice.k,
            100.0 * (untraced.fps / run.reps[1].fps - 1.0))
    else:
        run.reps = _repeat(seconds, lambda: track(Tracer(), TRACK_ONLY))

    eval_dir = os.path.join(workdir, "eval")
    _cli(Tracer(), [], ["eval", "--pred", os.path.join(out, "positions.csv"),
                        "--gt", os.path.join(data, "ground_truth.csv"),
                        "--out", eval_dir])
    with open(os.path.join(eval_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    reported = {"mpjpe_mm": summary["mpjpe_mm"]["Total"],
                "mpjpe_lower_mm": summary["mpjpe_mm"]["LowerBody"],
                "pck50_pct": summary["pck_percent"]["@50mm"]["Total"]}
    if any(abs(reported[k] - run.accuracy[k]) > 1e-9 for k in reported):
        run.fail_all("eval summary disagrees with positions.csv")
    run.notes["eval_summary"] = reported
    return run
