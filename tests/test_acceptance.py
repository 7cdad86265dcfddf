"""Acceptance suite: one test per shipped guarantee.

Each test prints a single ``acceptance N PASS`` line with the measured
numbers so a release log can quote them directly.
"""

import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from conftest import small_scene
from helpers import (DictProvider, biquad_response, frame_with_channel,
                     gaussian_grid, marker_set, no_rotation, objective)
from mocapfuse import cli, ik, metrics, pcm, pipeline, skeleton as sk, smooth, synth, tracker
from mocapfuse.calib import (CameraRig, look_at_camera, pixel_to_ray,
                             project_points)
from mocapfuse.labels import KEYPOINT_INDEX, KEYPOINTS
from mocapfuse.tracker import LatticeConfig

from test_ik import planar_analytic, planar_two_link, tight_settings, wrap


def run_mpjpe(seq, gt_by_index, group=metrics.TOTAL, stage="stage2"):
    pred = seq.positions(stage)
    gt = [gt_by_index[f.index] for f in seq.frames]
    return metrics.mpjpe(pred, gt, group), pred, gt


@pytest.fixture(scope="module")
def walk_run():
    """Full-resolution 300-frame walk scene tracked with default settings."""
    spec = synth.SceneSpec(motion=synth.walk_like())
    rig = synth.build_rig(spec)
    provider = synth.SyntheticProvider(spec, rig, n_frames=300)
    config = pipeline.PipelineConfig()
    t0 = time.perf_counter()
    model, pose0, _, first = pipeline.initialize(
        provider, rig, sk.human_skeleton(), config)
    seq = pipeline.track(provider, rig, model, pose0, config,
                         range(first, 300))
    elapsed = time.perf_counter() - t0
    gt_model = synth.build_model(spec)
    gt = {i: synth.ground_truth_positions(spec, i, gt_model)
          for i in seq.frame_indices()}
    return {"spec": spec, "rig": rig, "model": model, "pose0": pose0,
            "first": first, "seq": seq, "gt": gt, "elapsed": elapsed,
            "gt_model": gt_model}


@pytest.fixture(scope="module")
def handstand_runs():
    """Slow inversion scene with detector degradation on tilted bodies,
    tracked once with rotated sampling off and once with it on."""
    spec = synth.SceneSpec(
        motion=synth.handstand_like(),
        tilt_bias=synth.TiltBias(enabled=True, jitter_px=10.0))
    rig = synth.build_rig(spec)
    n = 260

    def config(rotation):
        return pipeline.PipelineConfig(
            lattice=LatticeConfig(s=15.0, rotation_enabled=rotation),
            filter=smooth.FilterSpec(cutoff_hz=10.0, sample_rate_hz=60.0),
            lattice_center="stage1")

    provider = synth.SyntheticProvider(spec, rig, n_frames=n)
    model, pose0, _, first = pipeline.initialize(
        provider, rig, sk.human_skeleton(), config(False))
    runs = {}
    for rotation in (False, True):
        prov = synth.SyntheticProvider(spec, rig, n_frames=n)
        runs[rotation] = pipeline.track(prov, rig, model, pose0,
                                        config(rotation), range(first, n))
    gt_model = synth.build_model(spec)
    gt = {i: synth.ground_truth_positions(spec, i, gt_model)
          for i in runs[True].frame_indices()}
    return {"model": model, "runs": runs, "gt": gt}


@pytest.fixture(scope="module")
def bent_elbow_run():
    """Reduced-resolution bent-elbow swing used for the smoothing contrast."""
    spec = small_scene(motion=synth.bent_elbow_like())
    rig = synth.build_rig(spec)
    provider = synth.SyntheticProvider(spec, rig, n_frames=100)
    # Stage-1 search centers: the brisk swing outruns the causal filter's
    # group delay, so smoothed centers would trail the joints.
    config = pipeline.PipelineConfig(lattice_center="stage1")
    model, pose0, _, first = pipeline.initialize(
        provider, rig, sk.human_skeleton(), config)
    seq = pipeline.track(provider, rig, model, pose0, config,
                         range(first, 90))
    return {"model": model, "seq": seq, "config": config}


def test_acceptance_1_end_to_end_accuracy_and_runtime(walk_run):
    err, pred, gt = run_mpjpe(walk_run["seq"], walk_run["gt"])
    pck = metrics.pck3d(pred, gt, metrics.TOTAL, tau=50.0)
    assert err <= 15.0
    assert pck == 100.0
    assert walk_run["elapsed"] <= 60.0

    # The fine-lattice variant (s=5 mm) must hold the same accuracy bar.
    spec, rig = walk_run["spec"], walk_run["rig"]
    provider = synth.SyntheticProvider(spec, rig, n_frames=300)
    config = pipeline.PipelineConfig(lattice=LatticeConfig(s=5.0, k=3))
    seq5 = pipeline.track(provider, rig, walk_run["model"], walk_run["pose0"],
                          config, range(walk_run["first"],
                                        walk_run["first"] + 60))
    err5, _, _ = run_mpjpe(seq5, walk_run["gt"])
    assert err5 <= 15.0
    print(f"acceptance 1 PASS: MPJPE {err:.2f} mm (s=5: {err5:.2f} mm), "
          f"PCK@50 {pck:.1f}%, runtime {walk_run['elapsed']:.1f} s")


def test_acceptance_2_rotation_benefit_on_inverted_motion(handstand_runs):
    runs, gt = handstand_runs["runs"], handstand_runs["gt"]
    err_off, _, _ = run_mpjpe(runs[False], gt, metrics.LOWER_BODY)
    err_on, _, _ = run_mpjpe(runs[True], gt, metrics.LOWER_BODY)
    reduction = (err_off - err_on) / err_off
    assert reduction >= 0.30

    # Confidence-score series: with rotated sampling the total PCM score must
    # dominate the non-rotated run over the frames where rotation engaged.
    off_by_index = {f.index: f for f in runs[False].frames}
    tilted = [f for f in runs[True].frames
              if any(a != 0.0 for a in f.rotations.values())]
    assert len(tilted) > 50
    wins = sum(sum(f.weights) > sum(off_by_index[f.index].weights)
               for f in tilted)
    assert wins / len(tilted) >= 0.9
    print(f"acceptance 2 PASS: LowerBody MPJPE {err_on:.2f} mm on vs "
          f"{err_off:.2f} mm off ({100 * reduction:.1f}% lower), score "
          f"dominance on {wins}/{len(tilted)} tilted frames")


def test_acceptance_3_link_length_invariance_and_contrast(
        walk_run, handstand_runs, bent_elbow_run):
    def check_sequence(model, seq):
        lengths = model.link_lengths()
        worst = 0.0
        for f in seq.frames:
            # Joints that carry a keypoint are read from the output rows,
            # the others from FK of the output pose.
            points = sk.forward_kinematics(model, f.pose_stage2)
            points.update(zip(KEYPOINTS, f.positions_stage2))
            for joint in model.joints:
                if joint.parent < 0:
                    continue
                parent = model.joints[joint.parent].name
                d = np.linalg.norm(points[joint.name] - points[parent])
                worst = max(worst, abs(d - lengths[joint.name])
                            / lengths[joint.name])
        assert worst <= 1e-9
        return worst

    worst = max(
        check_sequence(walk_run["model"], walk_run["seq"]),
        check_sequence(handstand_runs["model"], handstand_runs["runs"][False]),
        check_sequence(handstand_runs["model"], handstand_runs["runs"][True]),
        check_sequence(bent_elbow_run["model"], bent_elbow_run["seq"]))

    # Contrast: filtering raw positions directly (no pose re-solve) visibly
    # stretches the forearm while the bent arm rotates.
    model, seq = bent_elbow_run["model"], bent_elbow_run["seq"]
    traj = smooth.TrajectoryFilter(bent_elbow_run["config"].filter)
    forearm = model.link_lengths()["r_wrist"]
    naive_worst = 0.0
    for f in seq.frames:
        naive = traj.step_positions(f.positions_stage1)
        d = np.linalg.norm(naive[KEYPOINT_INDEX["r_wrist"]]
                           - naive[KEYPOINT_INDEX["r_elbow"]])
        naive_worst = max(naive_worst, abs(d - forearm))
    assert naive_worst > 1.0
    print(f"acceptance 3 PASS: worst relative link deviation {worst:.2e}; "
          f"naive position filtering deviates up to {naive_worst:.2f} mm")


def test_acceptance_4_ik_correctness(rng):
    model = planar_two_link()

    # Closed-form agreement on the planar 2-link arm.
    worst_angle = 0.0
    for _ in range(40):
        r = rng.uniform(120.0, 520.0)
        phi = rng.uniform(-math.pi, math.pi)
        target = np.array([r * math.cos(phi), r * math.sin(phi), 0.0])
        markers = marker_set(positions={"r_wrist": target},
                             weights={"r_wrist": 1.0})
        result = ik.solve(model, rng.normal(0, 0.2, 2), markers,
                          tight_settings())
        best = min(
            max(abs(wrap(result.q[0] - q0)), abs(wrap(result.q[1] - q1)))
            for q0, q1 in planar_analytic(target))
        worst_angle = max(worst_angle, best)
    assert worst_angle <= 1e-6

    # Objective gradient vs central finite differences, 100 random instances.
    human = sk.human_skeleton()
    eps = 1e-6
    worst_grad = 0.0
    for _ in range(100):
        q = rng.normal(0, 0.4, human.total_dof)
        labels = ("neck", "r_wrist", "l_wrist", "r_ankle", "l_ankle", "nose")
        fk = sk.forward_kinematics(human, q)
        markers = marker_set(
            positions={lb: fk[lb] + rng.normal(0, 30.0, 3) for lb in labels},
            weights={lb: rng.uniform(0.2, 2.0) for lb in labels})
        pos, jac = sk.fk_and_jacobians(human, q)
        grad = np.zeros(human.total_dof)
        for lb in labels:
            i, row = human.keypoints.index(lb), KEYPOINT_INDEX[lb]
            grad -= markers.weights[row] * (jac[i].T
                                            @ (markers.positions[row] - pos[i]))
        fd = np.zeros(human.total_dof)
        for i in range(human.total_dof):
            qp, qm = q.copy(), q.copy()
            qp[i] += eps
            qm[i] -= eps
            fd[i] = (objective(human, qp, markers)
                     - objective(human, qm, markers)) / (2 * eps)
        rel = np.abs(grad - fd).max() / max(1.0, np.abs(fd).max())
        worst_grad = max(worst_grad, rel)
    assert worst_grad <= 1e-5

    # Uniformly rescaling all marker weights must not move the argmin.
    worst_rescale = 0.0
    for c in (0.1, 7.3):
        for _ in range(10):
            r = rng.uniform(150.0, 500.0)
            phi = rng.uniform(-math.pi, math.pi)
            target = np.array([r * math.cos(phi), r * math.sin(phi), 0.0])
            q_init = rng.normal(0, 0.1, 2)
            a = ik.solve(model, q_init,
                         marker_set(positions={"r_wrist": target},
                                    weights={"r_wrist": 1.0}),
                         tight_settings())
            b = ik.solve(model, q_init,
                         marker_set(positions={"r_wrist": target},
                                    weights={"r_wrist": c}),
                         tight_settings())
            worst_rescale = max(worst_rescale, np.abs(a.q - b.q).max())
    assert worst_rescale <= 1e-8
    print(f"acceptance 4 PASS: analytic {worst_angle:.2e} rad, gradient "
          f"{worst_grad:.2e} rel, weight-rescale drift {worst_rescale:.2e}")


def random_case_rig(rng, n_cams, w, h):
    cams = []
    for cid in range(n_cams):
        az = rng.uniform(0, 2 * math.pi)
        dist = rng.uniform(2000.0, 4000.0)
        pos = (dist * math.cos(az), dist * math.sin(az),
               rng.uniform(800.0, 2200.0))
        cams.append(look_at_camera(cid, pos, (0.0, 0.0, 1000.0), w * 4, h * 4,
                                   rng.uniform(200.0, 400.0)))
    return CameraRig(cameras=tuple(cams))


def exhaustive_lattice_oracle(center, label, provider, rig, s, k):
    """Candidate-by-candidate rescore, visiting offsets in tie-break order
    (Chebyshev distance to center, then lexicographic)."""
    offs = [(a, b, c) for a in range(-k, k + 1) for b in range(-k, k + 1)
            for c in range(-k, k + 1)]
    offs.sort(key=lambda o: (max(abs(o[0]), abs(o[1]), abs(o[2])), o))
    best = None
    for off in offs:
        p = center + s * np.array(off, dtype=float)
        score = 0.0
        for camera in rig.cameras:
            frame = provider.get(camera.id, 0, 0.0)
            px, in_front = project_points(camera, p)
            if in_front:
                score += pcm.sample_channels(frame, KEYPOINT_INDEX[label],
                                            px, [True])[0]
        if best is None or score > best[0]:
            best = (score, off, p)
    return best


def test_acceptance_5_lattice_search_oracle(rng):
    w, h = 64, 48
    cases = [(1, 10.0)] * 700 + [(2, 5.0)] * 200 + [(3, 10.0)] * 50 \
        + [(3, 5.0)] * 50
    tie_cases = 0
    for case_index, (k, s) in enumerate(cases):
        n_cams = int(rng.integers(2, 4))
        rig = random_case_rig(rng, n_cams, w, h)
        label = KEYPOINTS[int(rng.integers(len(KEYPOINTS)))]
        center = rng.normal(0.0, 200.0, 3) + np.array([0.0, 0.0, 1000.0])
        true_point = center + rng.normal(0.0, s * k / 2.0, 3)
        flat = case_index % 10 == 0
        tie_cases += flat
        frames = {}
        for camera in rig.cameras:
            if flat:
                # Flat heatmap: every candidate ties, the center must win.
                grid = np.full((h, w), 0.5, dtype=np.float32)
            else:
                px, in_front = project_points(camera, true_point)
                grid = rng.uniform(0.0, 0.2, (h, w))
                if in_front:
                    grid = grid + gaussian_grid(h, w, px[0] * 0.25,
                                                px[1] * 0.25,
                                                rng.uniform(2.0, 5.0))
                grid = np.clip(grid, 0.0, 1.0)
            frames[(camera.id, 0, 0)] = frame_with_channel(
                label, grid.astype(np.float32), scale=0.25,
                camera_id=camera.id)
        provider = DictProvider(frames)
        cfg = LatticeConfig(s=s, k=k)
        # Every keypoint is searched around the center; only ``label``'s
        # channel holds evidence.
        markers = tracker.lattice_search(np.tile(center, (len(KEYPOINTS), 1)),
                                         provider, rig, cfg, 0,
                                         no_rotation(rig))
        row = KEYPOINT_INDEX[label]
        p, score = markers.positions[row], markers.weights[row]
        o_score, o_off, o_p = exhaustive_lattice_oracle(center, label,
                                                        provider, rig, s, k)
        npt.assert_allclose(p, o_p, atol=1e-9)
        assert tuple(markers.offsets[row]) == o_off
        assert score == pytest.approx(o_score, abs=1e-12)
        if case_index % 10 == 0:
            npt.assert_allclose(p, center, atol=0.0)
    assert len(cases) >= 1000
    print(f"acceptance 5 PASS: {len(cases)} randomized cases (incl. "
          f"{tie_cases} all-tie cases) agree with the exhaustive "
          f"rescoring oracle")


def test_acceptance_6_triangulation_and_length_identification(walk_run, rng):
    worst = 0.0
    for _ in range(200):
        rig = random_case_rig(rng, int(rng.integers(2, 6)), 256, 192)
        point = rng.normal(0.0, 400.0, 3) + np.array([0.0, 0.0, 1000.0])
        pixels = {}
        for camera in rig.cameras:
            px, in_front = project_points(camera, point)
            if in_front:
                pixels[camera.id] = px + rng.normal(0.0, 0.5, 2)
        if len(pixels) < 2:
            continue
        rows = np.array([[pixels.get(c.id, (np.nan, np.nan))]
                         for c in rig.cameras])              # (n_c, 1, 2)
        est = pipeline.triangulate(rows, rig)[0][0]
        A = np.zeros((3, 3))
        b = np.zeros(3)
        for cam_id, px in pixels.items():
            origin, d = pixel_to_ray(rig.camera(cam_id), px)
            P = np.eye(3) - np.outer(d, d)
            A += P
            b += P @ origin
        oracle = np.linalg.lstsq(A, b, rcond=None)[0]
        worst = max(worst, np.abs(est - oracle).max())
    assert worst <= 1e-9

    truth = walk_run["gt_model"].link_lengths()
    identified = walk_run["model"].link_lengths()
    worst_link = max(abs(identified[name] - truth[name])
                     for name in truth)
    assert worst_link <= 1.0
    print(f"acceptance 6 PASS: triangulation vs normal-equations oracle "
          f"{worst:.2e} mm; link identification within {worst_link:.3f} mm")


def test_acceptance_7_filter_properties():
    spec = smooth.FilterSpec(cutoff_hz=5.0, sample_rate_hz=60.0)
    worst_dc = 0.0
    for cutoff, fs in ((5.0, 60.0), (1.0, 30.0), (12.0, 120.0), (0.5, 60.0)):
        b0, b1, b2, a1, a2 = smooth.design_biquad(
            smooth.FilterSpec(cutoff_hz=cutoff, sample_rate_hz=fs))
        worst_dc = max(worst_dc, abs((b0 + b1 + b2) / (1.0 + a1 + a2) - 1.0))
    assert worst_dc <= 1e-12

    coeffs = smooth.design_biquad(spec)
    x = np.zeros(200)
    x[0] = 1.0
    traj = smooth.TrajectoryFilter(spec)
    # An impulse in every coordinate of the (18, 3) keypoint rows.
    out = [traj.step_positions(np.full((len(KEYPOINTS), 3), v)) for v in x]
    b0, b1, b2, a1, a2 = coeffs
    x1 = x2 = y1 = y2 = x[0]     # registers primed with the first sample
    worst_imp = 0.0
    for i, xi in enumerate(x):
        y = b0 * xi + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2
        worst_imp = max(worst_imp, np.abs(out[i] - y).max())
        x2, x1 = x1, xi
        y2, y1 = y1, y
    assert worst_imp <= 1e-12

    atten_db = 20.0 * math.log10(abs(biquad_response(coeffs, 15.0, 60.0)))
    assert atten_db <= -18.0
    print(f"acceptance 7 PASS: DC gain error {worst_dc:.2e}, impulse oracle "
          f"error {worst_imp:.2e}, 15 Hz attenuation {-atten_db:.1f} dB")


def test_acceptance_8_metrics_oracle(rng):
    model = sk.human_skeleton()
    gt = [sk.forward_kinematics(model, rng.normal(0, 0.3, model.total_dof))
          for _ in range(6)]
    pred = [{lb: p + rng.normal(0, 40.0, 3) for lb, p in f.items()}
            for f in gt]
    worst = 0.0
    for group in metrics.GROUPS:
        errs = [np.linalg.norm(pf[lb] - gf[lb])
                for pf, gf in zip(pred, gt) for lb in group.labels]
        worst = max(worst, abs(metrics.mpjpe(pred, gt, group)
                               - float(np.mean(errs))))
        for tau in (50.0, 100.0, 150.0):
            brute = 100.0 * np.mean([e < tau for e in errs])
            worst = max(worst, abs(metrics.pck3d(pred, gt, group, tau)
                                   - brute))
    assert worst <= 1e-12

    taus = [25.0, 50.0, 100.0, 150.0, 300.0]
    vals = [metrics.pck3d(pred, gt, metrics.TOTAL, t) for t in taus]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    print(f"acceptance 8 PASS: metric oracle error {worst:.2e}, PCK "
          f"monotone over taus {taus}")


def test_acceptance_9_track_determinism(tmp_path):
    spec = small_scene(motion=synth.walk_like())
    data = tmp_path / "data"
    synth.generate(spec, 20, data)
    init_dir = tmp_path / "init"
    assert cli.main(["init", "--calib", str(data / "calib.json"),
                     "--pcm-dir", str(data / "pcm"),
                     "--out", str(init_dir)]) == 0
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["track", "--calib", str(data / "calib.json"),
                         "--pcm-dir", str(data / "pcm"),
                         "--skeleton", str(init_dir / "skeleton.json"),
                         "--out", str(out)]) == 0
        outputs.append(out)
    for name in ("positions.csv", "pose.csv", "diagnostics.csv", "run.json"):
        assert (outputs[0] / name).read_bytes() == \
            (outputs[1] / name).read_bytes()
    print("acceptance 9 PASS: repeated track runs byte-identical "
          "(positions, pose, diagnostics, run metadata)")
