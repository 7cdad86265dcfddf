"""Why smoothing re-solves the pose instead of filtering positions.

A low-pass filter applied directly to 3D joint positions treats each joint
independently, so during rotation the filtered joints drift apart or
together — the skeleton's link lengths visibly breathe. The pipeline instead
filters the keypoint trajectories and then re-solves the pose
(``smooth.smooth_and_refit``), so every output frame is a valid
configuration of the rigid skeleton.

This demo tracks an arm-swing motion with bent elbows and compares the
forearm length of (a) the stage-2 output and (b) the stage-1 positions
passed through the same ``smooth.TrajectoryFilter`` with no re-solve.
"""

import numpy as np

from mocapfuse import pipeline, skeleton as sk, smooth, synth
from mocapfuse.labels import KEYPOINT_INDEX


def main():
    spec = synth.SceneSpec(
        motion=synth.bent_elbow_like(),
        image_width=320, image_height=240, focal_px=300.0,
        camera_distance_mm=2800.0, sigma_px=4.0, heatmap_scale=1.0)
    rig = synth.build_rig(spec)
    provider = synth.SyntheticProvider(spec, rig, n_frames=100)
    config = pipeline.PipelineConfig()
    model, pose0, _, first = pipeline.initialize(
        provider, rig, sk.human_skeleton(), config)
    seq = pipeline.track(provider, rig, model, pose0, config, range(first, 90))

    forearm = model.link_lengths()["r_wrist"]
    # The same filter as stage 2's, without the re-solve after it.
    naive_filter = smooth.TrajectoryFilter(config.filter)

    worst_naive = 0.0
    worst_refit = 0.0
    wrist, elbow = KEYPOINT_INDEX["r_wrist"], KEYPOINT_INDEX["r_elbow"]
    for f in seq.frames:
        # Rows of the (18, 3) position arrays are keypoints in KEYPOINTS order.
        naive = naive_filter.step_positions(f.positions_stage1)
        d_naive = np.linalg.norm(naive[wrist] - naive[elbow])
        d_refit = np.linalg.norm(f.positions_stage2[wrist]
                                 - f.positions_stage2[elbow])
        worst_naive = max(worst_naive, abs(d_naive - forearm))
        worst_refit = max(worst_refit, abs(d_refit - forearm))

    print(f"calibrated forearm length: {forearm:.2f} mm")
    print(f"worst deviation, naive position filtering: {worst_naive:.3f} mm")
    print(f"worst deviation, filtered-then-refit:      {worst_refit:.2e} mm")


if __name__ == "__main__":
    main()
