import builtins
import csv
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import mocapfuse
from conftest import small_scene
from helpers import bad_numbers, tree_at, value_id
from mocapfuse import (cli, metrics, pcm, pipeline, skeleton as sk, synth,
                       tracker)
from mocapfuse.calib import load_rig, project_points
from mocapfuse.labels import KEYPOINT_INDEX


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small generated dataset driven entirely through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    spec = small_scene(motion=synth.walk_like())
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(synth.spec_to_json(spec)))
    out = root / "data"
    rc = cli.main(["synth", "--spec", str(spec_path), "--frames", "30",
                   "--out", str(out)])
    assert rc == 0
    return root, out


@pytest.fixture(scope="module")
def init_run(dataset):
    root, data = dataset
    out = root / "init"
    rc = cli.main(["init", "--calib", str(data / "calib.json"),
                   "--pcm-dir", str(data / "pcm"), "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def track_run(dataset, init_run):
    root, data = dataset
    out = root / "track"
    rc = cli.main(["track", "--calib", str(data / "calib.json"),
                   "--pcm-dir", str(data / "pcm"),
                   "--skeleton", str(init_run / "skeleton.json"),
                   "--out", str(out)])
    assert rc == 0
    return out


class TestHappyPath:
    def test_synth_outputs(self, dataset):
        root, data = dataset
        for name in ("calib.json", "scene.json", "ground_truth.csv"):
            assert (data / name).exists()
        assert (data / "pcm" / "cam0" / "rot0" / "frame29.pcm").exists()

    def test_init_outputs(self, init_run):
        assert (init_run / "skeleton.json").exists()
        state = json.loads((init_run / "init_state.json").read_text())
        model = sk.load_skeleton(init_run / "skeleton.json")
        assert len(state["pose0"]) == model.total_dof \
            == sk.human_skeleton().total_dof
        assert state["first_track_frame"] >= 1

    def test_track_outputs(self, track_run):
        for name in ("positions.csv", "pose.csv", "run.json",
                     "diagnostics.csv"):
            assert (track_run / name).exists()
            assert not (track_run / (name + ".tmp")).exists()

    def test_eval_metrics(self, dataset, track_run, tmp_path):
        root, data = dataset
        out = tmp_path / "eval"
        rc = cli.main(["eval", "--pred", str(track_run / "positions.csv"),
                       "--gt", str(data / "ground_truth.csv"),
                       "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mpjpe_mm"]["Total"] < 40.0
        assert summary["pck_percent"]["@150mm"]["Total"] == 100.0
        series = (out / "series.csv").read_text().strip().splitlines()
        assert len(series) > 1


    def test_eval_reads_positions_once(self, dataset, track_run, tmp_path,
                                       monkeypatch):
        """eval opens positions.csv once; series.csv carries each tracked
        frame's errors and the sum of its stage-2 weights in file order."""
        root, data = dataset
        pred = track_run / "positions.csv"
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        rc = cli.main(["eval", "--pred", str(pred),
                       "--gt", str(data / "ground_truth.csv"),
                       "--out", str(tmp_path / "eval")])
        monkeypatch.undo()
        assert rc == 0
        assert opened.count(str(pred)) == 1

        positions, weights = {}, {}
        with open(pred, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if row["stage"] == "stage2":
                    idx = int(row["frame"])
                    positions.setdefault(idx, {})[row["label"]] = np.array(
                        [float(row[k]) for k in ("x_mm", "y_mm", "z_mm")])
                    weights.setdefault(idx, []).append(float(row["weight"]))
        gt_indices, gt = synth.read_ground_truth_csv(data / "ground_truth.csv")
        gt = dict(zip(gt_indices, gt))
        expected = [",".join(metrics.SERIES_HEADER)]
        for idx in sorted(positions):
            expected.append(",".join([
                str(idx),
                repr(metrics.mpjpe([positions[idx]], [gt[idx]])),
                repr(metrics.mpjpe([positions[idx]], [gt[idx]],
                                   metrics.LOWER_BODY)),
                repr(float(sum(weights[idx])))]))
        series = (tmp_path / "eval" / "series.csv").read_text()
        assert series.splitlines() == expected


class TestDeterminism:
    def test_repeated_track_runs_byte_identical(self, dataset, init_run,
                                                tmp_path):
        root, data = dataset
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main(["track", "--calib", str(data / "calib.json"),
                           "--pcm-dir", str(data / "pcm"),
                           "--skeleton", str(init_run / "skeleton.json"),
                           "--init-state", str(init_run / "init_state.json"),
                           "--out", str(out)])
            assert rc == 0
            outputs.append(out)
        for name in ("positions.csv", "pose.csv", "diagnostics.csv"):
            assert (outputs[0] / name).read_bytes() == \
                (outputs[1] / name).read_bytes()


def test_end_of_sequence_probe_decodes_no_pcm(tmp_path, monkeypatch):
    """Without --end-frame, track finds the last frame from the file tree:
    no .pcm file is decoded before pipeline.track starts."""
    spec = small_scene(image_width=160, image_height=120, focal_px=150.0,
                       sigma_px=3.0, motion=synth.walk_like())
    synth.generate(spec, 4, tmp_path / "data")
    model = synth.build_model(spec)
    sk.save_skeleton(model, tmp_path / "skeleton.json")
    (tmp_path / "init_state.json").write_text(json.dumps({
        "pose0": list(synth.ground_truth_pose(spec, 1)),
        "first_track_frame": 1}))

    decoded, tracked = [], []
    read_pcm, track = pcm.read_pcm, pipeline.track

    def counting_read(path):
        decoded.append(path)
        return read_pcm(path)

    def recording_track(provider, rig, model, pose0, config, frames):
        tracked.append((len(decoded), frames))
        return track(provider, rig, model, pose0, config, frames)

    monkeypatch.setattr(pcm, "read_pcm", counting_read)
    monkeypatch.setattr(pipeline, "track", recording_track)
    assert cli.main(["track", "--calib", str(tmp_path / "data" / "calib.json"),
                     "--pcm-dir", str(tmp_path / "data" / "pcm"),
                     "--skeleton", str(tmp_path / "skeleton.json"),
                     "--out", str(tmp_path / "out")]) == 0
    assert tracked == [(0, range(1, 4))]
    run = json.loads((tmp_path / "out" / "run.json").read_text())
    assert run["frames"] == [1, 4]


# The older human model's extra coordinates, which move no keypoint.
_OLDER_DOFS = {"r_wrist": ("rz",), "l_wrist": ("rz",),
               "r_ankle": ("rx", "ry"), "l_ankle": ("rx", "ry")}


def older_layout(model, pose):
    """The model and pose in the older 40-DOF layout: wrist rz and ankle
    rx/ry coordinates, held at zero."""
    older = sk.SkeletonModel(joints=tuple(
        sk.Joint(j.name, j.parent, j.direction, j.length,
                 j.dofs + _OLDER_DOFS.get(j.name, ()))
        for j in model.joints), keypoint_map=model.keypoint_map)
    q = np.zeros(older.total_dof)
    for j in model.joints:
        own = model.dofs_of(j.name)
        q[older.dofs_of(j.name)[:len(own)]] = np.asarray(pose)[own]
    return older, q


class TestOlderSkeletonFiles:
    def write_older_state(self, init_run, tmp_path):
        model = sk.load_skeleton(init_run / "skeleton.json")
        state = json.loads((init_run / "init_state.json").read_text())
        older, pose0 = older_layout(model, state["pose0"])
        assert older.total_dof == 40
        sk.save_skeleton(older, tmp_path / "skeleton.json")
        (tmp_path / "init_state.json").write_text(
            json.dumps(dict(state, pose0=pose0.tolist())))
        return state["first_track_frame"]

    def track(self, dataset, out, skeleton, init_state, end):
        root, data = dataset
        return cli.main(["track", "--calib", str(data / "calib.json"),
                         "--pcm-dir", str(data / "pcm"),
                         "--skeleton", str(skeleton),
                         "--init-state", str(init_state),
                         "--end-frame", str(end), "--out", str(out)])

    def test_older_40_dof_pair_still_tracks(self, dataset, init_run,
                                            tmp_path):
        first = self.write_older_state(init_run, tmp_path)
        out = tmp_path / "track"
        assert self.track(dataset, out, tmp_path / "skeleton.json",
                          tmp_path / "init_state.json", first + 4) == 0
        lines = (out / "pose.csv").read_text().splitlines()
        assert lines[0].split(",")[2:] == [f"q{i}" for i in range(40)]
        assert len(lines) == 5

    def test_40_wide_pose_with_34_dof_skeleton_exits_one(
            self, dataset, init_run, tmp_path, capsys):
        first = self.write_older_state(init_run, tmp_path)
        out = tmp_path / "track"
        assert self.track(dataset, out, init_run / "skeleton.json",
                          tmp_path / "init_state.json", first + 4) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: SkeletonError")
        assert "(40,)" in err[0] and "34" in err[0]
        assert not out.exists()


class TestFlags:
    def test_flag_overrides_recorded_in_run_metadata(self, dataset, init_run,
                                                     tmp_path):
        root, data = dataset
        out = tmp_path / "custom"
        rc = cli.main(["track", "--calib", str(data / "calib.json"),
                       "--pcm-dir", str(data / "pcm"),
                       "--skeleton", str(init_run / "skeleton.json"),
                       "--out", str(out),
                       "--lattice-s", "12", "--lattice-k", "2",
                       "--cutoff-hz", "8", "--rotation", "off",
                       "--filter-mode", "offline",
                       "--end-frame", "15"])
        assert rc == 0
        run = json.loads((out / "run.json").read_text())
        assert run["config"]["lattice"]["s"] == 12.0
        assert run["config"]["lattice"]["k"] == 2
        assert run["config"]["filter"]["cutoff_hz"] == 8.0
        assert run["config"]["filter"]["mode"] == "offline"
        assert run["config"]["lattice"]["rotation_enabled"] is False

    def test_config_file_with_flag_precedence(self, dataset, init_run,
                                              tmp_path):
        root, data = dataset
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"lattice": {"s": 25.0, "k": 2},
                                   "filter": {"cutoff_hz": 3.0}}))
        out = tmp_path / "cfgrun"
        rc = cli.main(["track", "--config", str(cfg),
                       "--calib", str(data / "calib.json"),
                       "--pcm-dir", str(data / "pcm"),
                       "--skeleton", str(init_run / "skeleton.json"),
                       "--out", str(out), "--lattice-s", "14",
                       "--end-frame", "14"])
        assert rc == 0
        run = json.loads((out / "run.json").read_text())
        assert run["config"]["lattice"]["s"] == 14.0   # flag wins
        assert run["config"]["lattice"]["k"] == 2      # file survives
        assert run["config"]["filter"]["cutoff_hz"] == 3.0


    def track(self, dataset, init_run, out, *extra):
        root, data = dataset
        return cli.main(["track", "--calib", str(data / "calib.json"),
                         "--pcm-dir", str(data / "pcm"),
                         "--skeleton", str(init_run / "skeleton.json"),
                         "--out", str(out), "--end-frame", "13", *extra])

    def test_config_file_reaches_lattice_center(self, dataset, init_run,
                                                tmp_path, capsys):
        """A run.json written while the lattice could be centered on stage 2
        is refused with one line naming the key."""
        tree = pipeline.PipelineConfig().to_dict()
        tree["lattice_center"] = "stage2"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"version": 1, "config": tree}))
        assert self.track(dataset, init_run, tmp_path / "run",
                          "--config", str(cfg)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: ValueError: lattice_center must be 'stage1', got 'stage2'"]
        assert not (tmp_path / "run").exists()

    def test_run_json_round_trips_through_config(self, dataset, init_run,
                                                 tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert self.track(dataset, init_run, first, "--lattice-s", "12",
                          "--lattice-k", "2", "--cutoff-hz", "8",
                          "--rotation", "on", "--filter-mode", "offline") == 0
        assert self.track(dataset, init_run, second,
                          "--config", str(first / "run.json")) == 0
        old = json.loads((first / "run.json").read_text())["config"]
        new = json.loads((second / "run.json").read_text())["config"]
        assert new == old
        assert old["lattice"]["rotation_enabled"] is True

    def test_unknown_config_key_exits_one(self, dataset, init_run, tmp_path,
                                          capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"lattice": {"spacing": 5}}))
        assert self.track(dataset, init_run, tmp_path / "run",
                          "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lattice.spacing" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("payload, flags, refusal", [
        ({"lattice": 5}, [], "lattice must be a JSON object, got 5"),
        ({"lattice": 5}, ["--lattice-s", "12"],
         "lattice must be a JSON object, got 5"),
        ({"config": {"filter": [1]}}, [],
         "filter must be a JSON object, got [1]"),
        ({"config": {"filter": [1]}}, ["--cutoff-hz", "4"],
         "filter must be a JSON object, got [1]"),
    ], ids=["int_section", "int_section_and_flag", "list_section",
            "list_section_and_flag"])
    def test_section_that_is_not_an_object_exits_one(
            self, dataset, init_run, tmp_path, capsys, payload, flags,
            refusal):
        """A config section that is not an object is refused by name,
        whether or not one of track's flags sets a key in it."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(payload))
        assert self.track(dataset, init_run, tmp_path / "run",
                          "--config", str(cfg), *flags) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: ValueError: config {refusal}"]
        assert not (tmp_path / "run").exists()

    def test_flag_overrides_a_wrong_file_value(self, dataset, init_run,
                                               tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"lattice": {"s": "wide"}}))
        assert self.track(dataset, init_run, tmp_path / "run",
                          "--config", str(cfg), "--lattice-s", "12") == 0
        run = json.loads((tmp_path / "run" / "run.json").read_text())
        assert run["config"]["lattice"]["s"] == 12.0

    @pytest.mark.parametrize("flag, value, refusal", [
        ("--lattice-s", "nan", "s must be a finite float > 0, got nan"),
        ("--lattice-k", "1000", "k must be a finite int in [1, 30], got 1000")],
        ids=["nan_spacing", "k_above_the_cap"])
    def test_bad_lattice_flag_exits_one_before_reading(
            self, dataset, init_run, tmp_path, capsys, monkeypatch, flag,
            value, refusal):
        """A NaN spacing, or a half-extent whose lattice would not fit in
        memory, is refused as config before any PCM file is read or any
        lattice built (a call would fail the test, not allocate it)."""
        reads = []
        read_pcm = pcm.read_pcm
        monkeypatch.setattr(pcm, "read_pcm",
                            lambda path: reads.append(path) or read_pcm(path))

        def no_lattice(k):
            raise AssertionError(f"lattice of k={k} built")

        monkeypatch.setattr(tracker, "lattice_offsets", no_lattice)
        assert self.track(dataset, init_run, tmp_path / "run",
                          flag, value) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: ValueError: config lattice: {refusal}"]
        assert reads == []
        assert not (tmp_path / "run").exists()

    def test_older_run_json_with_ik_section_exits_one(self, dataset, init_run,
                                                      tmp_path, capsys):
        """A run.json written while the IK tolerances and the tilt threshold
        were config values is refused until those keys are deleted."""
        assert self.track(dataset, init_run, tmp_path / "first") == 0
        run = json.loads((tmp_path / "first" / "run.json").read_text())
        run["config"]["ik"] = {"max_iterations": 50, "step_tol": 1e-08,
                               "residual_tol": 0.0001,
                               "translation_scale": 500.0}
        run["config"]["lattice"]["tilt_threshold_deg"] = 45.0
        older = tmp_path / "older.json"
        older.write_text(json.dumps(run, indent=2, sort_keys=True))
        assert self.track(dataset, init_run, tmp_path / "second",
                          "--config", str(older)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: ValueError: unknown config key 'ik'"]
        del run["config"]["ik"], run["config"]["lattice"]["tilt_threshold_deg"]
        older.write_text(json.dumps(run))
        assert self.track(dataset, init_run, tmp_path / "second",
                          "--config", str(older)) == 0
        assert (tmp_path / "second" / "run.json").read_bytes() == \
            (tmp_path / "first" / "run.json").read_bytes()


class TestUsageErrors:
    def test_track_without_calib_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["track", "--pcm-dir", "x", "--skeleton", "s.json",
                      "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--calib" in capsys.readouterr().err

    def test_track_without_skeleton_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["track", "--calib", "c.json", "--pcm-dir", "x",
                      "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--skeleton" in capsys.readouterr().err

    def test_init_without_pcm_dir_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["init", "--calib", "c.json", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--pcm-dir" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["track", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--config", "--calib", "--pcm-dir", "--skeleton",
                     "--out", "--lattice-s", "--lattice-k", "--cutoff-hz",
                     "--rotation", "--filter-mode"):
            assert flag in out
        with pytest.raises(SystemExit):
            cli.main(["synth", "--help"])
        assert "--seed" in capsys.readouterr().out

    def test_tracking_flags_belong_to_track_only(self, capsys):
        flags = {"--lattice-s": "12", "--lattice-k": "2", "--cutoff-hz": "8",
                 "--rotation": "on", "--filter-mode": "offline"}
        with pytest.raises(SystemExit) as exc:
            cli.main(["init", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--config", "--calib", "--pcm-dir", "--out",
                     "--skeleton"):
            assert flag in out
        for flag, value in flags.items():
            assert flag not in out
            with pytest.raises(SystemExit) as exc:
                cli.main(["init", "--calib", "c.json", "--pcm-dir", "p",
                          "--out", "o", flag, value])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err


def link_two_frames(data, rig, first, tmp_path):
    """A PCM directory of links to the dataset's files of frames ``first``
    and ``first + 1``, every camera at rotation 0."""
    pcm_dir = str(tmp_path / "pcm")
    for c in rig.cameras:
        for f in (first, first + 1):
            path = pcm.frame_path(pcm_dir, c.id, f)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            os.symlink(pcm.frame_path(str(data / "pcm"), c.id, f), path)
    return pcm_dir


class TestRuntimeErrors:
    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        rc = cli.main(["eval", "--pred", str(tmp_path / "nope.csv"),
                       "--gt", str(tmp_path / "nope2.csv"),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError:")

    def test_bad_calibration_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "calib.json"
        bad.write_text("{not json")
        rc = cli.main(["init", "--calib", str(bad), "--pcm-dir", "x",
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_calibration_directory_exits_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["track", "--calib", str(tmp_path), "--pcm-dir", "x",
                       "--skeleton", "skeleton.json", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: MalformedCalibration")
        assert str(tmp_path) in err[0]
        assert not out.exists()

    def test_nan_focal_length_names_the_calibration_file(
            self, dataset, init_run, tmp_path, capsys):
        """A calibration whose camera 1 has "fx": NaN is refused by file
        and camera before anything is tracked."""
        root, data = dataset
        payload = json.loads((data / "calib.json").read_text())
        payload["cameras"][1]["fx"] = math.nan
        calib = tmp_path / "calib.json"
        calib.write_text(json.dumps(payload))
        out = tmp_path / "track"
        rc = cli.main(["track", "--calib", str(calib),
                       "--pcm-dir", str(data / "pcm"),
                       "--skeleton", str(init_run / "skeleton.json"),
                       "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: CalibrationError: {calib}: camera 1: fx must be a finite "
            f"float > 0, got nan"]
        assert not out.exists()

    def test_track_without_pcm_files_exits_one(self, dataset, init_run,
                                               tmp_path, capsys):
        root, data = dataset
        empty = tmp_path / "no_pcm"
        out = tmp_path / "track"
        rc = cli.main(["track", "--calib", str(data / "calib.json"),
                       "--pcm-dir", str(empty),
                       "--skeleton", str(init_run / "skeleton.json"),
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        first = json.loads(
            (init_run / "init_state.json").read_text())["first_track_frame"]
        assert len(err) == 1 and err[0].startswith("error: FrameMissing")
        cam0 = load_rig(str(data / "calib.json")).cameras[0].id
        assert err[0].endswith(pcm.frame_path(str(empty), cam0, first))
        assert not out.exists()

    def test_nan_in_a_sampled_window_exits_one(self, dataset, init_run,
                                               tmp_path, capsys):
        """A NaN under the neck's initial projection, in a file of the first
        tracked frame, is refused where it is read: one error line naming
        camera, frame and rotation, and no output directory."""
        root, data = dataset
        rig = load_rig(str(data / "calib.json"))
        model = sk.load_skeleton(init_run / "skeleton.json")
        state = json.loads((init_run / "init_state.json").read_text())
        first, camera = state["first_track_frame"], rig.cameras[2]
        pcm_dir = link_two_frames(data, rig, first, tmp_path)
        path = pcm.frame_path(pcm_dir, camera.id, first)
        frame = pcm.read_pcm(path)
        neck = sk.keypoint_positions(model, np.array(state["pose0"]))[
            [model.keypoints.index("neck")]]
        px, _ = project_points(camera, neck)
        x, y = np.floor(px[0] * frame.scale).astype(int)
        channels = frame.channels.copy()
        channels[KEYPOINT_INDEX["neck"], y, x] = np.nan
        os.remove(path)
        pcm.write_pcm(dataclasses.replace(frame, channels=channels), path)
        out = tmp_path / "track"
        rc = cli.main(["track", "--calib", str(data / "calib.json"),
                       "--pcm-dir", pcm_dir,
                       "--skeleton", str(init_run / "skeleton.json"),
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"error: PcmFormatError: camera {camera.id} frame {first} "
            f"rotation 0.0 deg: channel values outside [0, 1] or NaN")
        assert not out.exists()

    @pytest.mark.parametrize("scale", [np.nan, np.inf])
    def test_non_finite_scale_exits_one(self, dataset, init_run, tmp_path,
                                        capsys, scale):
        """A .pcm file of the first tracked frame whose header scale (float32
        at byte 32) is NaN or inf is refused with one error line naming it."""
        root, data = dataset
        rig = load_rig(str(data / "calib.json"))
        first = json.loads(
            (init_run / "init_state.json").read_text())["first_track_frame"]
        pcm_dir = link_two_frames(data, rig, first, tmp_path)
        path = pcm.frame_path(pcm_dir, rig.cameras[0].id, first)
        with open(path, "rb") as fh:
            raw = bytearray(fh.read())
        raw[32:36] = struct.pack("<f", scale)
        os.remove(path)
        with open(path, "wb") as fh:
            fh.write(raw)
        out = tmp_path / "track"
        rc = cli.main(["track", "--calib", str(data / "calib.json"),
                       "--pcm-dir", pcm_dir,
                       "--skeleton", str(init_run / "skeleton.json"),
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"error: PcmFormatError: {path}: scale must be a finite float "
            f"> 0, got {scale}")
        assert not out.exists()

    def test_directory_at_a_frame_path_exits_one(self, dataset, init_run,
                                                 tmp_path, capsys):
        """A directory where camera 0's frame 5 belongs: the end-of-sequence
        probe counts it, and tracking refuses it with one error line."""
        root, data = dataset
        rig = load_rig(str(data / "calib.json"))
        pcm_dir = link_two_frames(data, rig, 4, tmp_path)
        path = pcm.frame_path(pcm_dir, rig.cameras[0].id, 5)
        os.remove(path)
        os.mkdir(path)
        assert isinstance(pcm.DirectoryProvider(pcm_dir).get(
            rig.cameras[1].id, 5), pcm.HeatmapFrame)
        out = tmp_path / "track"
        rc = cli.main(["track", "--calib", str(data / "calib.json"),
                       "--pcm-dir", pcm_dir,
                       "--skeleton", str(init_run / "skeleton.json"),
                       "--start-frame", "4", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: PcmFormatError: {path}: not a regular file"]
        assert not out.exists()

    def test_track_empty_frame_range_exits_one(self, dataset, init_run,
                                               tmp_path, capsys):
        root, data = dataset
        out = tmp_path / "track"
        rc = cli.main(["track", "--calib", str(data / "calib.json"),
                       "--pcm-dir", str(data / "pcm"),
                       "--skeleton", str(init_run / "skeleton.json"),
                       "--start-frame", "12", "--end-frame", "12",
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ValueError")
        assert "[12, 12)" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("payload, error, key", [
        ([], "ValueError", "JSON object"),
        ({"first_track_frame": 12}, "ValueError", "'pose0'"),
        ({"first_track_frame": "12", "pose0": [0.0]}, "ValueError",
         "'first_track_frame'"),
        ({"first_track_frame": True, "pose0": [0.0] * 34}, "ValueError",
         "'first_track_frame'"),
        ({"first_track_frame": 12, "pose0": [math.nan] + [0.0] * 33},
         "SkeletonError", "'pose0': pose contains non-finite values"),
        ({"first_track_frame": 12, "pose0": ["x"] + [0.0] * 33},
         "ValueError", "'pose0': could not convert"),
        ({"first_track_frame": 12, "pose0": [0.0] * 33 + [True]},
         "SkeletonError", "'pose0': pose contains a value that is not"),
    ], ids=["list", "no_pose0", "string_frame", "bool_frame", "nan_pose",
            "string_pose", "bool_pose"])
    def test_malformed_init_state_names_the_file(self, dataset, init_run,
                                                 tmp_path, capsys,
                                                 payload, error, key):
        """Every value is checked, the pose against the skeleton, before
        anything is tracked; a bool is no frame index."""
        root, data = dataset
        state = tmp_path / "init_state.json"
        state.write_text(json.dumps(payload))
        out = tmp_path / "track"
        rc = cli.main(["track", "--calib", str(data / "calib.json"),
                       "--pcm-dir", str(data / "pcm"),
                       "--skeleton", str(init_run / "skeleton.json"),
                       "--init-state", str(state), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {error}: {state}: ")
        assert key in err[0]
        assert not out.exists()

    def test_eval_of_zero_frames_exits_one(self, dataset, tmp_path, capsys):
        root, data = dataset
        pred = tmp_path / "positions.csv"
        pipeline.write_positions_csv(
            pipeline.MotionSequence(frames=[], sample_rate_hz=60.0), pred)
        out = tmp_path / "eval"
        rc = cli.main(["eval", "--pred", str(pred),
                       "--gt", str(data / "ground_truth.csv"),
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: ValueError: {pred}: no 'stage2' rows to score"]
        assert not (out / "summary.json").exists()
        assert not (out / "summary.json.tmp").exists()

    def test_failed_eval_leaves_no_output_directory(self, dataset, tmp_path,
                                                    capsys):
        """A failed eval removes the --out directory it created and keeps
        one that was there before, with its contents."""
        root, data = dataset
        pred = tmp_path / "positions.csv"
        pipeline.write_positions_csv(
            pipeline.MotionSequence(frames=[], sample_rate_hz=60.0), pred)

        def run(out):
            return cli.main(["eval", "--pred", str(pred),
                             "--gt", str(data / "ground_truth.csv"),
                             "--out", str(out)])

        assert run(tmp_path / "new") == 1
        assert not (tmp_path / "new").exists()
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "notes.txt").write_text("kept")
        assert run(tmp_path / "old") == 1
        assert os.listdir(tmp_path / "old") == ["notes.txt"]

    @pytest.mark.parametrize("edit, named", [
        (lambda tree: {k: v for k, v in tree.items() if k != "joints"},
         "missing key 'joints'"),
        (lambda tree: dict(tree, joints=[dict(j, parent="zz") if i == 1 else j
                                         for i, j in enumerate(tree["joints"])]),
         "'zz'"),
        (lambda tree: [], "must be a JSON object, not a list"),
        (lambda tree: dict(tree, joints=[dict(j, length=math.nan) if i == 3
                                         else j for i, j in
                                         enumerate(tree["joints"])]),
         "joint neck: length must be a finite float > 0, got nan"),
        (lambda tree: dict(tree, joints=[dict(j, length=math.inf) if i == 3
                                         else j for i, j in
                                         enumerate(tree["joints"])]),
         "joint neck: length must be a finite float > 0, got inf"),
    ], ids=["missing_joints", "unknown_parent", "top_level_list",
            "nan_length", "infinite_length"])
    def test_bad_skeleton_file_exits_one(self, dataset, tmp_path, capsys,
                                         edit, named):
        root, data = dataset
        path = tmp_path / "skeleton.json"
        sk.save_skeleton(sk.human_skeleton(), path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        rc = cli.main(["init", "--calib", str(data / "calib.json"),
                       "--pcm-dir", str(data / "pcm"),
                       "--skeleton", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: SkeletonError")
        assert str(path) in err[0] and named in err[0]
        assert not (tmp_path / "out").exists()

    def test_template_without_trunk_joint_exits_one(self, dataset, tmp_path,
                                                    capsys):
        """init --skeleton with a template that lacks a joint the length
        rules name exits 1 with one line naming it."""
        root, data = dataset
        path = tmp_path / "skeleton.json"
        sk.save_skeleton(sk.human_skeleton(), path)
        path.write_text(path.read_text().replace('"waist"', '"spine"'))
        rc = cli.main(["init", "--calib", str(data / "calib.json"),
                       "--pcm-dir", str(data / "pcm"),
                       "--skeleton", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: SkeletonError: skeleton template lacks joints that "
            "initialization needs: waist"]
        assert not (tmp_path / "out").exists()

    def write_without_keypoint(self, source, path, label):
        tree = json.loads(source.read_text())
        del tree["keypoints"][label]
        path.write_text(json.dumps(tree))

    def test_template_without_keypoint_exits_one(self, dataset, tmp_path,
                                                 capsys):
        """init --skeleton with a template that places no l_ear exits 1
        with one line naming it, before it reads a PCM frame."""
        root, data = dataset
        path = tmp_path / "skeleton.json"
        sk.save_skeleton(sk.human_skeleton(), tmp_path / "full.json")
        self.write_without_keypoint(tmp_path / "full.json", path, "l_ear")
        rc = cli.main(["init", "--calib", str(data / "calib.json"),
                       "--pcm-dir", str(data / "pcm"),
                       "--skeleton", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: SkeletonError: skeleton lacks keypoints: l_ear"]
        assert not (tmp_path / "out").exists()

    def test_track_with_skeleton_without_keypoint_exits_one(
            self, dataset, init_run, tmp_path, capsys):
        """track --skeleton with a file that places no l_knee exits 1 with
        one line naming it, instead of tracking without that marker."""
        root, data = dataset
        path = tmp_path / "skeleton.json"
        self.write_without_keypoint(init_run / "skeleton.json", path,
                                    "l_knee")
        rc = cli.main(["track", "--calib", str(data / "calib.json"),
                       "--pcm-dir", str(data / "pcm"),
                       "--skeleton", str(path),
                       "--init-state", str(init_run / "init_state.json"),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: SkeletonError: skeleton lacks keypoints: l_knee"]
        assert not (tmp_path / "out").exists()

    def test_invalid_log_level_is_usage_error(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("MOCAPFUSE_LOG", "verbose")
        rc = cli.main(["eval", "--pred", str(tmp_path / "p.csv"),
                       "--gt", str(tmp_path / "g.csv"),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "MOCAPFUSE_LOG" in err[0] and "'verbose'" in err[0]

    def test_init_past_the_last_frame_names_it(self, tmp_path, capsys):
        """init on a 6-frame walk, whose every frame agrees, exits 1 with one
        line naming the missing frame 6, not the keypoints."""
        data = tmp_path / "data"
        assert cli.main(["synth", "--preset", "walk", "--frames", "6",
                         "--out", str(data)]) == 0
        capsys.readouterr()
        rc = cli.main(["init", "--calib", str(data / "calib.json"),
                       "--pcm-dir", str(data / "pcm"),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: InitializationError: no 3D agreement "
                                 "run found; frame 6 is missing")
        assert "keypoints" not in err[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe\x00"])
    @pytest.mark.parametrize("option", ["--calib", "--skeleton", "--config",
                                        "--init-state", "--spec"])
    def test_undecodable_json_names_the_file(self, dataset, init_run,
                                             tmp_path, capsys, option,
                                             content):
        """Every JSON file the CLI reads names its path in the one error
        line when it is broken JSON or not UTF-8."""
        root, data = dataset
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out = tmp_path / "out"
        if option == "--spec":
            argv = ["synth", "--spec", str(bad), "--frames", "1"]
        else:
            files = {"--calib": data / "calib.json",
                     "--skeleton": init_run / "skeleton.json",
                     "--init-state": init_run / "init_state.json",
                     option: bad}
            argv = ["track", "--pcm-dir", str(data / "pcm"),
                    *(str(v) for item in files.items() for v in item)]
        assert cli.main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"{bad}: " in err[0]
        assert not out.exists()

    def test_unknown_spec_preset_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"motion": {"preset": "custom"}}))
        rc = cli.main(["synth", "--spec", str(spec), "--frames", "1",
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError") and "'custom'" in err

    @pytest.mark.parametrize("payload, named", [
        ([], "JSON object"),
        ({"camera_cout": 4}, "camera_cout"),
        ({"sigma_px": "8"}, "sigma_px"),
        ({"heatmap_scale": 0}, "heatmap_scale"),
        ({"fps": -60}, "fps"),
        ({"focal_px": float("nan")}, "focal_px"),
        ({"image_width": 320.5}, "image_width"),
        ({"camera_count": 4.0}, "camera_count"),
        ({"motion": "walk"}, "motion"),
        ({"tilt_bias": {"enabled": "no"}}, "'tilt_bias.enabled' must be bool"),
        ({"noise": {"jitter_px": "1"}}, "'noise.jitter_px' must be float"),
        ({"seed": 1.5}, "'seed' must be int"),
        ({"motion": {"preset": "walk", "hold_frames": "12"}},
         "'motion.hold_frames' must be int"),
        ({"motion": {"preset": "walk", "period_s": 4.0}}, "'motion.period_s'"),
        ({"noise": {"jiter_px": 1.0}}, "'noise.jiter_px'"),
        ({"look_at_mm": "origin"}, "'look_at_mm' must be list"),
        ({"camera_distance_mm": 0}, "camera_distance_mm"),
        ({"camera_distance_mm": float("nan")}, "camera_distance_mm"),
        ({"camera_height_mm": float("nan")}, "camera_height_mm"),
        ({"look_at_mm": [0, 0]}, "look_at_mm"),
        ({"subject_scale": -1}, "subject_scale"),
        ({"noise": {"jitter_px": -1}}, "noise: jitter_px"),
        ({"noise": {"amplitude_std": -0.5}}, "noise: amplitude_std"),
        ({"noise": {"false_peak_rate": 1.5}}, "noise: false_peak_rate"),
        ({"seed": -1, "noise": {"jitter_px": 1.0}}, "seed"),
        ({"tilt_bias": {"floor": 1.5}}, "tilt_bias: floor"),
        ({"look_at_mm": [math.nan, 0, 0]}, "look_at_mm"),
        ({"look_at_mm": [True, 0, 0]}, "look_at_mm"),
        ({"look_at_mm": [10 ** 400, 0, 0]}, "look_at_mm"),
        # Straight below camera 0 of the default rig.
        ({"look_at_mm": [4200.0 * math.cos(math.pi / 4),
                         4200.0 * math.sin(math.pi / 4), 0.0]},
         "look_at_mm: camera 0: "),
        ({"motion": {"preset": "walk", "hold_frames": -5}},
         "config motion: hold_frames must be a finite int >= 0, got -5"),
        *(pytest.param(tree_at(key, value), named,
                       id=f"{key}={value_id(value)}")
          for key, value, named in bad_numbers(
              synth.SceneSpec(motion=synth.PresetMotion()))),
    ])
    def test_bad_spec_names_the_file_and_writes_nothing(
            self, tmp_path, capsys, payload, named):
        if isinstance(payload, dict):
            payload = {"motion": {"preset": "walk"}, **payload}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload))
        out = tmp_path / "out"
        rc = cli.main(["synth", "--spec", str(spec), "--frames", "1",
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: ValueError: {spec}: ")
        assert named in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("frames", ["0", "-3"])
    def test_frames_below_one_is_usage_error(self, tmp_path, capsys, frames):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth", "--frames", frames, "--out", str(out)])
        assert exc.value.code == 2
        assert "--frames" in capsys.readouterr().err
        assert not out.exists()


def with_cell(lines, row, column, value):
    """CSV ``lines`` with the cell at ``lines[row]``, ``column`` set."""
    cells = lines[row].split(",")
    cells[column] = value
    return lines[:row] + [",".join(cells)] + lines[row + 1:]


class TestEvalInputs:
    """eval refuses a keypoint CSV it cannot score with one line that names
    the file, and names frames by their index."""

    def run_eval(self, pred, gt, out, capsys):
        rc = cli.main(["eval", "--pred", str(pred), "--gt", str(gt),
                       "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1 and len(err) == 1 and not out.exists()
        return err[0]

    def test_tracked_output_is_not_ground_truth(self, track_run, tmp_path,
                                                capsys):
        """eval of one run's positions.csv against itself scored every
        frame's stage 2 against its own stage-2 rows (MPJPE 0.0)."""
        pred = track_run / "positions.csv"
        err = self.run_eval(pred, pred, tmp_path / "eval", capsys)
        assert err == (f"error: ValueError: {pred}: has a 'stage' column, so "
                       f"it is tracked output, not ground truth")

    @pytest.mark.parametrize("which, edit, named", [
        ("pred", None, "no 'weight' or 'stage' column"),
        ("gt", lambda lines: ["a,b,c", "1,2,3"],
         "no 'frame' or 'label' or 'x_mm' or 'y_mm' or 'z_mm' column"),
        ("gt", lambda lines: with_cell(lines, 5, 3, "abc"),
         "line 6: could not convert string to float: 'abc'"),
        # Line 20 is the first stage-2 row: the header, then 18 of stage 1.
        ("pred", lambda lines: with_cell(lines, 19, 6, "x"),
         "line 20: could not convert string to float: 'x'"),
        # A non-finite cell used to be scored: "Total": NaN in summary.json.
        ("gt", lambda lines: with_cell(lines, 5, 3, "nan"),
         "line 6: x_mm must be a finite float, got nan"),
        ("gt", lambda lines: with_cell(lines, 5, 5, "-inf"),
         "line 6: z_mm must be a finite float, got -inf"),
        ("pred", lambda lines: with_cell(lines, 19, 4, "inf"),
         "line 20: y_mm must be a finite float, got inf"),
        ("pred", lambda lines: with_cell(lines, 19, 6, "NaN"),
         "line 20: weight must be a finite float, got NaN"),
    ], ids=["ground-truth-as-pred", "other-columns", "gt-cell", "weight-cell",
            "gt-nan", "gt-inf", "pred-inf", "weight-nan"])
    def test_unreadable_csv_is_named(self, dataset, track_run, tmp_path,
                                     capsys, which, edit, named):
        root, data = dataset
        paths = {"pred": track_run / "positions.csv",
                 "gt": data / "ground_truth.csv"}
        if edit is None:
            paths[which] = data / "ground_truth.csv"
        else:
            lines = paths[which].read_text().splitlines()
            paths[which] = tmp_path / f"{which}.csv"
            paths[which].write_text("\n".join(edit(lines)) + "\n")
        err = self.run_eval(paths["pred"], paths["gt"], tmp_path / "eval",
                            capsys)
        assert err == f"error: ValueError: {paths[which]}: {named}"

    def test_a_prediction_without_stage2_rows_is_named(
            self, dataset, track_run, tmp_path, capsys):
        """A positions.csv cut to its stage-1 rows ended in "no frames to
        score", which names no file."""
        root, data = dataset
        lines = (track_run / "positions.csv").read_text().splitlines()
        pred = tmp_path / "positions.csv"
        pred.write_text("\n".join(lines[:1] + [
            line for line in lines[1:] if line.endswith(",stage1")]) + "\n")
        err = self.run_eval(pred, data / "ground_truth.csv",
                            tmp_path / "eval", capsys)
        assert err == f"error: ValueError: {pred}: no 'stage2' rows to score"

    def without(self, data, tmp_path, keep):
        """ground_truth.csv without the rows ``keep`` refuses."""
        lines = (data / "ground_truth.csv").read_text().splitlines()
        gt = tmp_path / "gt.csv"
        gt.write_text("\n".join(lines[:1] + [
            line for line in lines[1:] if keep(line.split(","))]) + "\n")
        return gt

    def test_a_tracked_frame_without_ground_truth_is_named(
            self, dataset, track_run, tmp_path, capsys):
        root, data = dataset
        pred = track_run / "positions.csv"
        frame = pipeline.read_positions_csv(pred)[0][1]
        gt = self.without(data, tmp_path, lambda row: int(row[0]) != frame)
        err = self.run_eval(pred, gt, tmp_path / "eval", capsys)
        assert err == (f"error: ValueError: {gt}: no ground truth for "
                       f"tracked frame {frame}")

    def test_a_missing_keypoint_is_named_by_frame_index(
            self, dataset, track_run, tmp_path, capsys):
        root, data = dataset
        pred = track_run / "positions.csv"
        frame = pipeline.read_positions_csv(pred)[0][2]
        gt = self.without(data, tmp_path, lambda row: (
            int(row[0]), row[2]) != (frame, "l_knee"))
        err = self.run_eval(pred, gt, tmp_path / "eval", capsys)
        assert err == (f"error: ValueError: {gt}: frame {frame} has no "
                       f"keypoint 'l_knee'")


class TestInstalledEntryPoint:
    def test_console_script_smoke(self, tmp_path):
        spec = small_scene(image_width=160, image_height=120, focal_px=150.0,
                           sigma_px=3.0, motion=synth.walk_like())
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(synth.spec_to_json(spec)))
        # The child process does not inherit pytest's pythonpath setting.
        package_root = os.path.dirname(os.path.dirname(mocapfuse.__file__))
        env = dict(os.environ, MOCAPFUSE_LOG="INFO", PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "mocapfuse.cli", "synth",
             "--spec", str(spec_path), "--frames", "2",
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "wrote 2 frames" in proc.stdout
