import csv
import json
import math
import re

import numpy as np
import pytest

from mocapfuse import metrics, skeleton as sk
from mocapfuse.labels import KEYPOINTS


def pose_frames(n, rng, spread=0.3):
    model = sk.human_skeleton()
    return [sk.forward_kinematics(model,
                                  rng.normal(0, spread, model.total_dof))
            for _ in range(n)]


def offset_frames(frames, delta):
    return [{lb: p + np.asarray(delta, dtype=float) for lb, p in f.items()}
            for f in frames]


class TestGroups:
    def test_membership(self):
        assert set(metrics.HEAD.labels) == {"nose", "r_ear", "l_ear"}
        assert "r_eye" not in metrics.TOTAL.labels
        assert "l_eye" not in metrics.TOTAL.labels
        assert len(metrics.TOTAL.labels) == 16
        assert set(metrics.LOWER_BODY.labels) == {
            "r_hip", "l_hip", "r_knee", "l_knee", "r_ankle", "l_ankle"}
        assert set(metrics.UPPER_BODY.labels) == {
            "neck", "r_shoulder", "l_shoulder", "r_elbow", "l_elbow",
            "r_wrist", "l_wrist"}

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            metrics.PartGroup("bad", ("nose", "chin"))


class TestMpjpe:
    def test_identical_frames_zero(self, rng):
        frames = pose_frames(4, rng)
        assert metrics.mpjpe(frames, frames) == 0.0

    def test_zero_frames_refused(self):
        for score in (metrics.mpjpe, metrics.pck3d):
            with pytest.raises(ValueError, match="no frames"):
                score([], [])

    def test_uniform_offset_exact(self, rng):
        frames = pose_frames(3, rng)
        shifted = offset_frames(frames, (6.0, 8.0, 0.0))
        for group in metrics.GROUPS:
            assert metrics.mpjpe(shifted, frames, group) == pytest.approx(
                10.0, abs=1e-12)

    def test_matches_brute_force(self, rng):
        gt = pose_frames(5, rng)
        pred = [{lb: p + rng.normal(0, 20, 3) for lb, p in f.items()}
                for f in gt]
        for group in metrics.GROUPS:
            acc = [np.linalg.norm(pf[lb] - gf[lb])
                   for pf, gf in zip(pred, gt) for lb in group.labels]
            assert metrics.mpjpe(pred, gt, group) == pytest.approx(
                float(np.mean(acc)), abs=1e-12)

    def test_frame_count_mismatch(self, rng):
        frames = pose_frames(3, rng)
        with pytest.raises(ValueError):
            metrics.mpjpe(frames[:2], frames)

    def test_missing_label_named(self, rng):
        frames = pose_frames(2, rng)
        broken = [dict(f) for f in frames]
        del broken[1]["r_knee"]
        with pytest.raises(KeyError, match="r_knee"):
            metrics.mpjpe(broken, frames)


class TestPck:
    def test_perfect_prediction(self, rng):
        frames = pose_frames(3, rng)
        assert metrics.pck3d(frames, frames) == 100.0

    def test_half_split_exact(self, rng):
        gt = pose_frames(1, rng)
        pred = [dict(gt[0])]
        labels = metrics.TOTAL.labels
        for i, lb in enumerate(labels):
            d = 10.0 if i < len(labels) // 2 else 90.0
            pred[0][lb] = gt[0][lb] + np.array([d, 0.0, 0.0])
        assert metrics.pck3d(pred, gt, tau=50.0) == pytest.approx(50.0,
                                                                  abs=1e-12)

    def test_threshold_is_strict(self):
        gt = [{lb: np.zeros(3) for lb in KEYPOINTS}]
        pred = offset_frames(gt, (50.0, 0.0, 0.0))
        assert metrics.pck3d(pred, gt, tau=50.0) == 0.0
        assert metrics.pck3d(pred, gt, tau=50.0 + 1e-9) == 100.0

    def test_monotone_in_tau(self, rng):
        gt = pose_frames(4, rng)
        pred = [{lb: p + rng.normal(0, 40, 3) for lb, p in f.items()}
                for f in gt]
        taus = [10.0, 25.0, 50.0, 100.0, 200.0]
        vals = [metrics.pck3d(pred, gt, tau=t) for t in taus]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf, True])
    def test_bad_tau(self, rng, tau):
        """A threshold that is not a finite number > 0 is refused by value:
        NaN would score 0 %, inf 100 % and True (1 mm) pass as a number."""
        frames = pose_frames(1, rng)
        with pytest.raises(ValueError, match=re.escape(f"got {tau!r}")):
            metrics.pck3d(frames, frames, tau=tau)


class TestSummary:
    def test_structure_and_consistency(self, rng):
        gt = pose_frames(3, rng)
        pred = offset_frames(gt, (0.0, 0.0, 30.0))
        out = metrics.summary(pred, gt)
        assert set(out) == {"mpjpe_mm", "pck_percent"}
        assert out["mpjpe_mm"]["Total"] == pytest.approx(30.0, abs=1e-12)
        assert out["pck_percent"]["@50mm"]["Total"] == 100.0
        assert out["pck_percent"]["@150mm"]["LowerBody"] == 100.0

    def test_write_summary_round_trip(self, rng, tmp_path):
        gt = pose_frames(2, rng)
        pred = offset_frames(gt, (0.0, 40.0, 0.0))
        path = tmp_path / "summary.json"
        metrics.write_summary(pred, gt, path)
        payload = json.loads(path.read_text())
        assert payload == metrics.summary(pred, gt)


class TestEmitSeries:
    def weights(self, n):
        return [{lb: 2.0 for lb in KEYPOINTS} for _ in range(n)]

    def test_rows(self, rng, tmp_path):
        gt = pose_frames(3, rng)
        pred = offset_frames(gt, (5.0, 0.0, 0.0))
        path = tmp_path / "series.csv"
        metrics.emit_series([4, 5, 7], pred, self.weights(3), gt, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert metrics.SERIES_HEADER == ["frame", "mpjpe_total",
                                         "mpjpe_lowerbody", "pcm_score_total"]
        assert list(rows[0]) == metrics.SERIES_HEADER
        assert [row["frame"] for row in rows] == ["4", "5", "7"]
        for row in rows:
            assert float(row["mpjpe_total"]) == pytest.approx(5.0, abs=1e-12)
            assert float(row["pcm_score_total"]) == 36.0

    def test_length_mismatch(self, rng, tmp_path):
        gt = pose_frames(2, rng)
        pred = offset_frames(gt, (0, 0, 0))
        with pytest.raises(ValueError):
            metrics.emit_series([0, 1], pred, self.weights(2), gt[:1],
                                tmp_path / "x.csv")
