import math

import numpy as np
import numpy.testing as npt
import pytest

from helpers import biquad_response
from mocapfuse import skeleton as sk, smooth
from mocapfuse.pipeline import PipelineConfig
from mocapfuse.labels import KEYPOINT_INDEX, KEYPOINTS


def spec_5_60(**kw):
    return smooth.FilterSpec(cutoff_hz=5.0, sample_rate_hz=60.0, **kw)


class TestFilterSpec:
    def test_cutoff_at_nyquist_rejected(self):
        with pytest.raises(ValueError):
            smooth.FilterSpec(cutoff_hz=30.0, sample_rate_hz=60.0)

    def test_cutoff_zero_rejected(self):
        with pytest.raises(ValueError):
            smooth.FilterSpec(cutoff_hz=0.0, sample_rate_hz=60.0)

    def test_only_biquads(self):
        # The filter order is fixed at 2; a config cannot ask for another.
        with pytest.raises(ValueError, match="'filter.order'"):
            PipelineConfig.from_dict({"filter": {"order": 4}})

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            smooth.FilterSpec(cutoff_hz=5.0, sample_rate_hz=60.0, mode="zero")


class TestDesignBiquad:
    def test_dc_gain_is_one(self):
        for cutoff, fs in ((5.0, 60.0), (1.0, 30.0), (12.0, 120.0), (0.3, 60.0)):
            b0, b1, b2, a1, a2 = smooth.design_biquad(
                smooth.FilterSpec(cutoff_hz=cutoff, sample_rate_hz=fs))
            dc = (b0 + b1 + b2) / (1.0 + a1 + a2)
            assert abs(dc - 1.0) <= 1e-12

    def test_stopband_attenuation(self):
        coeffs = smooth.design_biquad(spec_5_60())
        mag = abs(biquad_response(coeffs, 15.0, 60.0))
        assert 20.0 * math.log10(mag) <= -18.0

    def test_monotone_magnitude(self):
        coeffs = smooth.design_biquad(spec_5_60())
        freqs = np.linspace(0.1, 29.9, 200)
        mags = np.abs(biquad_response(coeffs, freqs, 60.0))
        assert np.all(np.diff(mags) < 0)


def run_filter(coeffs, samples):
    state = smooth.FilterState(coeffs, 1)
    return np.array([state.step(np.array([s]))[0] for s in samples])


def reference_difference_equation(coeffs, samples, prime):
    """Direct, index-by-index transcription of the biquad recurrence."""
    b0, b1, b2, a1, a2 = coeffs
    x1 = x2 = y1 = y2 = prime
    out = []
    for x in samples:
        y = b0 * x + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2
        out.append(y)
        x2, x1 = x1, x
        y2, y1 = y1, y
    return np.array(out)


class TestFilterStep:
    def test_constant_input_passes_through(self):
        coeffs = smooth.design_biquad(spec_5_60())
        out = run_filter(coeffs, np.full(200, 3.7))
        npt.assert_allclose(out, 3.7, atol=1e-12)

    def test_priming_first_output_equals_input(self):
        coeffs = smooth.design_biquad(spec_5_60())
        state = smooth.FilterState(coeffs, 3)
        first = state.step(np.array([5.0, -2.0, 0.25]))
        npt.assert_allclose(first, [5.0, -2.0, 0.25], atol=1e-12)

    def test_impulse_response_matches_reference(self):
        coeffs = smooth.design_biquad(spec_5_60())
        x = np.zeros(100)
        x[0] = 1.0
        # Priming fills the registers with the first sample, so the oracle
        # must be primed at the impulse value too.
        expected = reference_difference_equation(coeffs, x, prime=1.0)
        npt.assert_allclose(run_filter(coeffs, x), expected, atol=1e-12)

    def test_random_input_matches_reference(self, rng):
        coeffs = smooth.design_biquad(spec_5_60())
        x = rng.normal(0, 10, 300)
        expected = reference_difference_equation(coeffs, x, prime=x[0])
        npt.assert_allclose(run_filter(coeffs, x), expected, atol=1e-12)

    def test_nyquist_attenuation(self):
        coeffs = smooth.design_biquad(spec_5_60())
        x = np.array([1.0, -1.0] * 150)
        out = run_filter(coeffs, x)
        steady = out[200:]
        assert np.abs(steady).max() <= 10 ** (-18.0 / 20.0)

    def test_linearity(self, rng):
        coeffs = smooth.design_biquad(spec_5_60())
        x = rng.normal(0, 5, 200)
        z = rng.normal(0, 5, 200)
        a, b = 2.5, -1.25
        lhs = run_filter(coeffs, a * x + b * z)
        rhs = a * run_filter(coeffs, x) + b * run_filter(coeffs, z)
        npt.assert_allclose(lhs, rhs, atol=1e-10)

    def test_causal_latency_is_positive(self):
        coeffs = smooth.design_biquad(spec_5_60())
        t = np.arange(400) / 60.0
        x = np.sin(2 * np.pi * 2.0 * t)
        y = run_filter(coeffs, x)
        lags = np.arange(-20, 21)
        xc = [np.dot(np.roll(y, -lag)[50:-50], x[50:-50]) for lag in lags]
        assert lags[int(np.argmax(xc))] > 0

    def test_non_finite_input_rejected_state_unchanged(self):
        coeffs = smooth.design_biquad(spec_5_60())
        state = smooth.FilterState(coeffs, 1)
        state.step(np.array([1.0]))
        y1_before = state.y1.copy()
        with pytest.raises(ValueError):
            state.step(np.array([np.nan]))
        npt.assert_array_equal(state.y1, y1_before)

    def test_channel_count_enforced(self):
        coeffs = smooth.design_biquad(spec_5_60())
        state = smooth.FilterState(coeffs, 2)
        with pytest.raises(ValueError):
            state.step(np.zeros(3))


class TestFiltFilt:
    def test_zero_phase_on_band_limited_signal(self):
        coeffs = smooth.design_biquad(spec_5_60())
        t = np.arange(600) / 60.0
        x = np.sin(2 * np.pi * 1.0 * t)
        y = smooth.filtfilt(coeffs, x)[:, 0]
        lags = np.arange(-20, 21)
        xc = [np.dot(np.roll(y, -lag)[60:-60], x[60:-60]) for lag in lags]
        assert lags[int(np.argmax(xc))] == 0

    def test_constant_preserved(self):
        coeffs = smooth.design_biquad(spec_5_60())
        y = smooth.filtfilt(coeffs, np.full(100, -2.5))
        npt.assert_allclose(y[:, 0], -2.5, atol=1e-12)


class TestSmoothAndRefit:
    def make_filter(self):
        return smooth.TrajectoryFilter(spec_5_60())

    def smooth_and_refit(self, model, q, traj):
        """Stage 2 of the pose ``q``, fed its FK as the stage-1 positions:
        the stage-2 pose and the smoothed positions."""
        result, smoothed = smooth.smooth_and_refit(
            model, q, sk.keypoint_positions(model, q, KEYPOINTS), traj)
        return result.q, smoothed

    def test_stationary_pose_is_fixed_point(self, rng):
        model = sk.human_skeleton()
        q = rng.normal(0, 0.2, model.total_dof)
        q[model.dofs_of("pelvis")[:3]] = [0.0, 0.0, 1000.0]
        traj = self.make_filter()
        q_prev = q
        for _ in range(5):
            q_prev, _ = self.smooth_and_refit(model, q_prev, traj)
        fk_in = sk.forward_kinematics(model, q)
        fk_out = sk.forward_kinematics(model, q_prev)
        for lb in KEYPOINTS:
            npt.assert_allclose(fk_out[lb], fk_in[lb], atol=1e-6)

    def test_priming_frame_passes_through(self, rng):
        model = sk.human_skeleton()
        q = rng.normal(0, 0.2, model.total_dof)
        traj = self.make_filter()
        q2, smoothed = self.smooth_and_refit(model, q, traj)
        fk = sk.forward_kinematics(model, q)
        for i, lb in enumerate(KEYPOINTS):
            npt.assert_allclose(smoothed[i], fk[lb], atol=1e-12)

    def test_link_lengths_invariant_under_motion(self, rng):
        model = sk.human_skeleton()
        traj = self.make_filter()
        lengths = model.link_lengths()
        elbow, root_rx = model.dofs_of("r_elbow"), model.dofs_of("pelvis")[3]
        q = np.zeros(model.total_dof)
        for frame in range(20):
            q = q.copy()
            q[elbow] = 0.8 * math.sin(0.4 * frame)   # swing the right elbow
            q[root_rx] = 0.2 * math.sin(0.25 * frame)
            q2, smoothed = self.smooth_and_refit(model, q, traj)
            fk = sk.forward_kinematics(model, q2)
            for joint in model.joints:
                if joint.parent < 0:
                    continue
                parent = model.joints[joint.parent].name
                d = np.linalg.norm(fk[joint.name] - fk[parent])
                assert abs(d - lengths[joint.name]) <= 1e-9 * lengths[joint.name]

    def test_naive_filtering_contrast_changes_link_lengths(self):
        # The smoothed raw positions themselves (what a position-only filter
        # would output) stretch the forearm while the elbow swings.
        model = sk.human_skeleton()
        traj = self.make_filter()
        worst = 0.0
        forearm = model.link_lengths()["r_wrist"]
        for frame in range(60):
            q = np.zeros(model.total_dof)
            q[model.dofs_of("r_elbow")] = 1.2 * math.sin(0.5 * frame)
            _, smoothed = self.smooth_and_refit(model, q, traj)
            d = np.linalg.norm(smoothed[KEYPOINT_INDEX["r_wrist"]]
                               - smoothed[KEYPOINT_INDEX["r_elbow"]])
            worst = max(worst, abs(d - forearm))
        assert worst > 1.0
