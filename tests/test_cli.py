"""Command-line behavior: exit codes, config handling, artifact reproducibility."""

import os
import re

import numpy as np
import pytest

from pointpipe import classical as cl
from pointpipe import cli
from pointpipe import evalsuite as ev
from pointpipe import imaging as im
from pointpipe import synthdata as sd
from pointpipe.cli import COMMANDS, main
from pointpipe.config import ConfigError, Option, parse_config_file, resolve
from pointpipe.neural import ARCH_PRESETS, PointNet, save_weights


def run(argv):
    return main(argv)


def dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            out[name] = f.read()
    return out


class TestConfigMachinery:
    def test_parse_file_with_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nsynth.count = 5\n\nsynth.out = data  # trailing\n")
        pairs, base = parse_config_file(p)
        assert pairs == {"synth.count": "5", "synth.out": "data"}
        assert base == str(tmp_path)

    def test_paths_resolve_relative_to_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("s.out = sub/dir\n")
        pairs, base = parse_config_file(p)
        schema = [Option("s.out", "path")]
        cfg = resolve(schema, {"s"}, pairs, base, {})
        assert cfg["s.out"] == str(tmp_path / "sub" / "dir")

    def test_unknown_key_in_declared_section_rejected(self):
        schema = [Option("s.known", "int", 1)]
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve(schema, {"s"}, {"s.mystery": "1"}, None, {})

    def test_foreign_sections_ignored(self):
        schema = [Option("s.known", "int", 1)]
        cfg = resolve(schema, {"s"}, {"other.key": "x"}, None, {})
        assert cfg["s.known"] == 1

    def test_cli_overrides_file(self):
        schema = [Option("s.n", "int", 1)]
        cfg = resolve(schema, {"s"}, {"s.n": "5"}, None, {"s__n": "9"})
        assert cfg["s.n"] == 9

    def test_missing_required_named(self):
        schema = [Option("s.out", "path")]
        with pytest.raises(ConfigError, match="s.out"):
            resolve(schema, {"s"}, {}, None, {})

    def test_bad_bool(self):
        schema = [Option("s.flag", "bool", False)]
        with pytest.raises(ConfigError):
            resolve(schema, {"s"}, {"s.flag": "maybe"}, None, {})


class TestExitCodes:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0

    def test_subcommand_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            run(["synth", "--help"])
        assert exc.value.code == 0

    def test_missing_required_key_exits_2(self, capsys):
        assert run(["synth"]) == 2
        assert "synth.out" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"synth.out = {tmp_path}/d\nsynth.bogus = 1\n")
        assert run(["synth", "--config", str(cfg)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_runtime_error_exits_3(self, tmp_path):
        assert run(["detect", "--input", str(tmp_path / "missing.pgm"),
                    "--weights", "harris", "--out", str(tmp_path / "o")]) == 3

    def test_truncated_files_exit_3_with_offsets(self, tmp_path, capsys):
        img = tmp_path / "img.pgm"
        im.write_pgm(img, np.zeros((16, 16), dtype=np.float32))
        half = tmp_path / "half.pgm"
        half.write_bytes(img.read_bytes()[:140])
        five = tmp_path / "five.pgm"
        five.write_bytes(b"P5\n16")
        weights = tmp_path / "half.spw"
        save_weights(weights, PointNet(ARCH_PRESETS["micro"], with_descriptor=False, seed=0).store)
        weights.write_bytes(weights.read_bytes()[: weights.stat().st_size // 2])
        cases = [(half, "harris", "pixel data from byte 13"), (five, "harris", "header ends at byte 5"),
                 (img, str(weights), "of tensor '")]
        for image, det, expect in cases:
            assert run(["detect", "--input", str(image), "--weights", det, "--out", str(tmp_path / "o")]) == 3
            err = capsys.readouterr().err
            assert "TruncatedFile" in err and expect in err, err

    def test_diverging_training_exits_3_without_weights(self, tmp_path, capsys, recwarn):
        out = tmp_path / "m.spw"
        assert run(["train-magicpoint", "--out", str(out), "--iterations", "30", "--batch", "2",
                    "--lr", "1e30"]) == 3
        err = capsys.readouterr().err
        assert "TrainingDiverged: loss is nan at iteration" in err, err
        assert "no checkpoint that gave a finite loss and gradients was written" in err, err
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)], [str(w) for w in recwarn]

    def test_non_finite_weights_exit_3(self, tmp_path, capsys):
        image = tmp_path / "img.pgm"
        im.write_pgm(image, sd.render_composite((48, 48), np.random.default_rng(0)).image)
        model = PointNet(ARCH_PRESETS["micro"], with_descriptor=False, seed=0)
        model.store["enc3.w"].data[0, 0, 1, 1] = np.nan
        weights = tmp_path / "nan.spw"
        save_weights(weights, model.store)
        assert run(["detect", "--input", str(image), "--weights", str(weights), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert f"ValueError: {weights}: tensor 'enc3.w' holds a NaN or infinite value" in err, err
        assert sorted(os.listdir(tmp_path)) == ["img.pgm", "nan.spw"]

    def test_bad_retraining_settings_exit_3_before_labeling(self, tmp_path, capsys):
        images = tmp_path / "images"
        images.mkdir()
        im.write_pgm(images / "a.pgm", sd.render_composite((48, 48), np.random.default_rng(0)).image)
        out = tmp_path / "labels"
        assert run(["adapt-label", "--images", str(images), "--weights", "harris", "--out", str(out),
                    "--nh", "2", "--rounds", "2", "--train-batch", "0"]) == 3
        assert "TrainConfig.batch_size must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("crop", ["92", "128", "0"])
    def test_bad_retraining_crop_exits_3_before_labeling(self, tmp_path, capsys, crop):
        images = tmp_path / "images"
        images.mkdir()
        im.write_pgm(images / "a.pgm", sd.render_composite((96, 96), np.random.default_rng(0)).image)
        out = tmp_path / "labels"
        argv = ["adapt-label", "--images", str(images), "--weights", "harris", "--out", str(out), "--nh", "2",
                "--crop", crop]
        assert run(argv + ["--rounds", "2"]) == 3
        err = capsys.readouterr().err
        assert f"adapt.crop must be a multiple of 8 from 8 to the smallest image side 96, got {crop}" in err, err
        assert not out.exists()
        # without a retrain the crop is unused
        assert run(argv + ["--rounds", "1"]) == 0

    def test_zero_rounds_exit_3_without_output(self, tmp_path, capsys):
        images = tmp_path / "images"
        images.mkdir()
        im.write_pgm(images / "a.pgm", sd.render_composite((48, 48), np.random.default_rng(0)).image)
        out = tmp_path / "labels"
        assert run(["adapt-label", "--images", str(images), "--weights", "harris", "--out", str(out),
                    "--rounds", "0"]) == 3
        assert "rounds must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("nh_list, code, message", [
        ("1,x", 2, "--nh-list (exp_nh.nh_list): expected comma-separated integers, got '1,x'"),
        ("1,0", 3, "need at least one homography"),
    ])
    def test_bad_nh_list_rejected_before_work(self, tmp_path, capsys, nh_list, code, message):
        assert run(["exp-nh-sweep", "--weights", "harris", "--count", "1", "--height", "48", "--width", "48",
                    "--nh-list", nh_list, "--out", str(tmp_path / "nh.csv")]) == code
        out, err = capsys.readouterr()
        assert message in err
        assert out == ""
        assert os.listdir(tmp_path) == []

    def test_negative_point_budget_exits_3(self, tmp_path, capsys):
        image = tmp_path / "img.pgm"
        im.write_pgm(image, sd.render_composite((48, 48), np.random.default_rng(0)).image)
        commands = [["detect", "--input", str(image), "--weights", "harris", "--out", str(tmp_path / "o"),
                     "--top-k", "-1"],
                    ["eval-detector", "--detectors", "harris", "--count", "1", "--height", "48", "--width", "48",
                     "--out", str(tmp_path / "r.csv"), "--n-points", "-1"]]
        for argv in commands:
            assert run(argv) == 3, argv[0]
            assert "DetectorProtocol.n_points must be >= 0 (0 keeps every point), got -1" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["img.pgm"]

    def test_nan_nms_radius_exits_3_without_output(self, tmp_path, capsys):
        image = tmp_path / "img.pgm"
        im.write_pgm(image, sd.render_composite((48, 48), np.random.default_rng(0)).image)
        commands = [
            (["detect", "--input", str(image), "--weights", "harris", "--out", str(tmp_path / "o")],
             "DetectorProtocol.nms_radius must be a number >= 0, got nan"),
            (["eval-detector", "--detectors", "harris", "--count", "1", "--height", "48", "--width", "48",
              "--out", str(tmp_path / "r.csv")], "DetectorProtocol.nms_radius must be a number >= 0, got nan"),
            (["adapt-label", "--images", str(tmp_path), "--weights", "harris", "--out", str(tmp_path / "labels"),
              "--nh", "2"], "AdaptConfig.nms_radius must be a number >= 0, got nan"),
        ]
        for argv, message in commands:
            assert run(argv + ["--nms", "nan"]) == 3, argv[0]
            assert message in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["img.pgm"]

    @pytest.mark.parametrize("command", [
        ["match", "--image-a", "{tmp}/a.pgm", "--image-b", "{tmp}/b.pgm", "--out", "{tmp}/o"],
        ["eval-matching", "--count", "1", "--out", "{tmp}/r.csv"],
    ])
    @pytest.mark.parametrize("flags, message", [
        (["--nms", "nan"], "--nms must be a number >= 0, got nan"),
        (["--nms", "-1"], "--nms must be a number >= 0, got -1.0"),
    ])
    def test_bad_matching_nms_exits_3_before_loading(self, tmp_path, capsys, command, flags, message):
        # the weight file does not exist: the radius is checked before it is read
        argv = [arg.format(tmp=tmp_path) for arg in command] + ["--weights", str(tmp_path / "unread.spw")]
        assert run(argv + flags) == 3
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_negative_match_budget_exits_3_before_loading(self, tmp_path, capsys):
        assert run(["match", "--weights", str(tmp_path / "unread.spw"), "--image-a", "a.pgm", "--image-b", "b.pgm",
                    "--out", str(tmp_path / "o"), "--top-k", "-1"]) == 3
        assert "--top-k must be >= 0 (0 keeps every point), got -1" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, flags, message", [
        (["synth", "--out", "{tmp}/s", "--count", "1"], ["--height", "20"],
         "config key synth.height: must be at least 32, got 20"),
        (["synth", "--out", "{tmp}/s", "--count", "1"], ["--width", "31"],
         "config key synth.width: must be at least 32, got 31"),
        (["train-magicpoint", "--out", "{tmp}/w/mp.spw", "--iterations", "1"], ["--height", "100"],
         "config key train_mp.height: must be at least 32 and a multiple of 8, got 100"),
        (["train-magicpoint", "--out", "{tmp}/w/mp.spw", "--iterations", "1"], ["--width", "24"],
         "config key train_mp.width: must be at least 32 and a multiple of 8, got 24"),
    ])
    def test_bad_image_size_exits_3_before_output(self, tmp_path, capsys, command, flags, message):
        assert run([arg.format(tmp=tmp_path) for arg in command] + flags) == 3
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_detect_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        image = tmp_path / "img.pgm"
        im.write_pgm(image, sd.render_composite((48, 48), np.random.default_rng(0)).image)
        assert run(["detect", "--input", str(image), "--weights", "harris", "--out", str(tmp_path / "o"),
                    "--threads", threads]) == 2
        assert f"config key detect.threads: must be >= 1, got {threads}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["img.pgm"]

    def test_detect_threads_from_config_file(self, tmp_path, capsys, monkeypatch):
        image = tmp_path / "img.pgm"
        im.write_pgm(image, sd.render_composite((48, 48), np.random.default_rng(0)).image)
        used = []
        monkeypatch.setattr(cli, "parallel_map",
                            lambda fn, items, threads: used.append(threads) or list(map(fn, items)))
        config = tmp_path / "run.cfg"
        argv = ["detect", "--config", str(config), "--input", str(image), "--weights", "harris",
                "--out", str(tmp_path / "o")]
        config.write_text("detect.threads = 2\n")
        assert run(argv) == 0
        assert run(argv + ["--threads", "3"]) == 0
        assert used == [2, 3]
        config.write_text("detect.threads = 0\n")
        assert run(argv) == 2
        assert "config key detect.threads: must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["exp-noise-sweep", "exp-noise-types"])
    @pytest.mark.parametrize("eps, shown", [("-1", "-1.0"), ("0", "0.0"), ("nan", "nan"), ("inf", "inf")])
    def test_bad_noise_eps_exits_3_before_rendering(self, tmp_path, capsys, monkeypatch, command, eps, shown):
        monkeypatch.setattr(sd, "sample_from", lambda *args: pytest.fail("a shape was rendered"))
        assert run([command, "--detectors", "harris", "--count", "2", "--eps", eps,
                    "--out", str(tmp_path / "r.csv")]) == 3
        assert f"DetectorProtocol.eps must be a finite number > 0, got {shown}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_negative_label_budget_exits_3_before_adapting(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cl, "harris", lambda image: pytest.fail("the detector ran"))
        images = tmp_path / "images"
        images.mkdir()
        im.write_pgm(images / "a.pgm", sd.render_composite((48, 48), np.random.default_rng(0)).image)
        out = tmp_path / "labels"
        assert run(["adapt-label", "--images", str(images), "--weights", "harris", "--out", str(out),
                    "--nh", "2", "--top-k", "-1"]) == 3
        assert "--top-k must be >= 0 (0 keeps every point), got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--ransac-iters", "0"], "RansacParams.max_iters must be >= 1, got 0"),
        (["--ransac-iters", "-5"], "RansacParams.max_iters must be >= 1, got -5"),
        (["--ransac-threshold", "-1"], "RansacParams.threshold must be a finite number > 0, got -1.0"),
        (["--ransac-threshold", "nan"], "RansacParams.threshold must be a finite number > 0, got nan"),
    ])
    def test_bad_ransac_settings_exit_3_before_output(self, tmp_path, capsys, flags, message):
        image = tmp_path / "img.pgm"
        im.write_pgm(image, sd.render_composite((48, 48), np.random.default_rng(0)).image)
        weights = tmp_path / "sp.spw"
        save_weights(weights, PointNet(ARCH_PRESETS["micro"], with_descriptor=True, seed=0).store)
        assert run(["match", "--weights", str(weights), "--image-a", str(image), "--image-b", str(image),
                    "--out", str(tmp_path / "o")] + flags) == 3
        assert message in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["img.pgm", "sp.spw"]

    def test_ransac_failure_exits_3_without_output(self, tmp_path, capsys):
        # every point of the first image matches the same point of the second, so every sample is collinear
        images = tmp_path / "images"
        assert run(["synth", "--count", "3", "--height", "240", "--width", "320", "--seed", "4",
                    "--out", str(images)]) == 0
        weights = os.path.join(os.path.dirname(__file__), "..", "perfbench", "fixtures", "joint.spw")
        out = tmp_path / "o"
        assert run(["match", "--weights", weights, "--image-a", str(images / "000000.pgm"),
                    "--image-b", str(images / "000001.pgm"), "--out", str(out), "--ransac-iters", "1"]) == 3
        assert "could not draw a non-degenerate minimal sample" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, code, message", [
        (["--eps", "-2", "--eps-list", "1,-3"], 3, "MatchingProtocol.eps must be a finite number > 0, got -2.0"),
        (["--eps-list", "1,-3"], 3, "MatchingProtocol.eps_list entries must be finite numbers > 0, got -3.0"),
        (["--eps-list", "1,inf"], 3, "MatchingProtocol.eps_list entries must be finite numbers > 0, got inf"),
        (["--eps-list", ""], 2, "--eps-list (eval_match.eps_list): expected comma-separated numbers, got ''"),
        (["--eps-list", "1,,3"], 2, "--eps-list (eval_match.eps_list): expected comma-separated numbers"),
        (["--n-points", "-1"], 3, "MatchingProtocol.n_points must be >= 0 (0 keeps every point), got -1"),
    ])
    def test_bad_matching_eps_rejected_before_work(self, tmp_path, capsys, flags, code, message):
        assert run(["eval-matching", "--weights", str(tmp_path / "unread.spw"), "--count", "1",
                    "--out", str(tmp_path / "r.csv")] + flags) == code
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, value", [
        (["synth", "--out", "{tmp}/s"], "-3"),
        (["eval-detector", "--detectors", "harris", "--out", "{tmp}/r.csv"], "-2"),
        (["eval-detector", "--detectors", "harris", "--images", "{tmp}", "--out", "{tmp}/r.csv"], "-1"),
        (["eval-matching", "--weights", "{tmp}/unread.spw", "--out", "{tmp}/r.csv"], "0"),
        (["exp-noise-sweep", "--detectors", "harris", "--out", "{tmp}/r.csv"], "-1"),
        (["exp-noise-types", "--detectors", "harris", "--out", "{tmp}/r.csv"], "0"),
        (["exp-nh-sweep", "--weights", "harris", "--out", "{tmp}/r.csv"], "-1"),
    ])
    def test_counts_below_one_exit_2(self, tmp_path, capsys, command, value):
        section = {"synth": "synth", "eval-detector": "eval_det", "eval-matching": "eval_match",
                   "exp-noise-sweep": "exp_noise", "exp-noise-types": "exp_noise", "exp-nh-sweep": "exp_nh"}
        im.write_pgm(tmp_path / "a.pgm", np.zeros((16, 16), dtype=np.float32))
        argv = [arg.format(tmp=tmp_path) for arg in command] + ["--count", value]
        assert run(argv) == 2
        assert f"config key {section[command[0]]}.count: must be >= 1, got {value}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["a.pgm"]

    @pytest.mark.parametrize("argv", [["synth", "--threads", "2"], ["detect", "--deterministic"]])
    def test_removed_flags_are_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_bad_category_exits_2(self, tmp_path):
        assert run(["synth", "--out", str(tmp_path / "d"), "--count", "1",
                    "--mix", "dodecahedron:1"]) == 2


def test_readme_command_table_names_every_subcommand():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        table = f.read().split("| command | what it does |", 1)[1].split("\n\n", 1)[0]
    named = [name for row in table.splitlines() if row.startswith("| `")
             for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    commands = [n for name, aliases, *_ in COMMANDS for n in [name, *aliases]]
    assert sorted(named) == sorted(commands)


class TestNoiseExperimentData:
    def test_eval_shapes_are_not_training_shapes(self, tmp_path, monkeypatch):
        scored = []
        monkeypatch.setattr(im, "add_noise", lambda image, spec: image)
        monkeypatch.setattr(ev, "detector_gt_metrics", lambda det, samples, eps: (scored.append(samples) or 0.0, 0.0, 0))
        assert run(["exp-noise-types", "--detectors", "harris", "--count", "100",
                    "--out", str(tmp_path / "kinds.csv")]) == 0
        # shapes without points (blank or noise-only categories) are equal in any two streams
        training = {sd.sample_at(sd.StreamConfig(seed=0), i).points.tobytes() for i in range(100)} - {b""}
        assert len(scored[0]) == 100 and len(training) > 70
        assert not training & {s.points.tobytes() for s in scored[0]}


class TestSynthCommand:
    def test_writes_expected_artifacts(self, tmp_path):
        out = tmp_path / "data"
        assert run(["synth", "--out", str(out), "--count", "4", "--seed", "5"]) == 0
        names = sorted(os.listdir(out))
        assert "manifest.txt" in names
        assert "000000.pgm" in names and "000003.pts" in names
        manifest = (out / "manifest.txt").read_text().strip().splitlines()
        assert len(manifest) == 4
        idx, category = manifest[0].split()
        assert idx == "000000"
        assert category in {c.value for c in sd.ShapeCategory}

    def test_synth_dump_alias(self, tmp_path):
        out = tmp_path / "data"
        assert run(["synth-dump", "--out", str(out), "--count", "1"]) == 0
        assert (out / "000000.pgm").exists()

    def test_golden_run_byte_identical(self, tmp_path, tiny_chain):
        a = tmp_path / "a"
        b = tmp_path / "b"
        argv = ["synth", "--count", "6", "--seed", "11"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert dir_bytes(a) == dir_bytes(b)
        # the whole chain again in a fresh directory
        again = tmp_path / "chain"
        again.mkdir()
        run_chain(again)
        for name in ("mp.spw", "sp.spw", "mp_loss.csv", "sp_loss.csv", "report.csv"):
            assert (again / name).read_bytes() == (tiny_chain / name).read_bytes(), name
        assert dir_bytes(again / "labels" / "round_1") == dir_bytes(tiny_chain / "labels" / "round_1")

    def test_points_match_images(self, tmp_path):
        out = tmp_path / "data"
        run(["synth", "--out", str(out), "--count", "3", "--noise", "false", "--seed", "2"])
        cfg = sd.StreamConfig(seed=2, noise=False)
        for i in range(3):
            img = im.read_pgm(out / f"{i:06d}.pgm")
            sample = sd.sample_at(cfg, i)
            np.testing.assert_allclose(img, sample.image, atol=0.5 / 255 + 1e-6)


def run_chain(root):
    """Run the small end-to-end chain with its config file in root."""
    cfg = root / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                "synth.out = data",
                "synth.count = 8",
                "synth.seed = 3",
                "train_mp.out = mp.spw",
                "train_mp.iterations = 25",
                "train_mp.batch = 4",
                "train_mp.seed = 3",
                "train_mp.log = mp_loss.csv",
                "adapt.images = data",
                "adapt.weights = mp.spw",
                "adapt.out = labels",
                "adapt.nh = 3",
                "adapt.rounds = 1",
                "adapt.seed = 3",
                "train_sp.images = data",
                "train_sp.labels = labels/round_1",
                "train_sp.base = mp.spw",
                "train_sp.out = sp.spw",
                "train_sp.iterations = 15",
                "train_sp.batch = 2",
                "train_sp.seed = 3",
                "train_sp.log = sp_loss.csv",
                "eval_match.weights = sp.spw",
                "eval_match.count = 3",
                "eval_match.out = report.csv",
                "eval_match.seed = 3",
            ]
        )
        + "\n"
    )
    for cmd in ["synth", "train-magicpoint", "adapt-label", "train-superpoint", "eval-matching"]:
        assert run([cmd, "--config", str(cfg)]) == 0, cmd


@pytest.fixture(scope="module")
def tiny_chain(tmp_path_factory):
    """One small end-to-end run shared by the composition tests."""
    root = tmp_path_factory.mktemp("chain")
    run_chain(root)
    return root


def odd_sized_image(path):
    """A 75 x 100 composite: neither side is a multiple of 8."""
    im.write_pgm(path, sd.render_composite((75, 100), np.random.default_rng(8)).image)
    return path


class TestPipelineComposition:
    def test_chain_artifacts_exist(self, tiny_chain):
        assert (tiny_chain / "mp.spw").exists()
        assert (tiny_chain / "sp.spw").exists()
        assert (tiny_chain / "labels" / "round_1" / "meta.txt").exists()
        assert (tiny_chain / "report.csv").exists()
        lines = (tiny_chain / "mp_loss.csv").read_text().splitlines()
        assert lines[0] == "iter,loss_total,loss_det,loss_desc,grad_norm"

    def test_matching_report_summary_columns(self, tiny_chain):
        lines = (tiny_chain / "report.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[-6:] == ["nn_map", "matching_score", "estimated", "no_matches", "no_features",
                               "estimation_failed"]
        summary = dict(zip(header, lines[-1].split(",")))
        assert summary["pair"] == "summary"
        assert 0.0 <= float(summary["nn_map"]) <= 1.0 and 0.0 <= float(summary["matching_score"]) <= 1.0
        assert int(summary["estimated"]) + int(summary["estimation_failed"]) == 3
        assert all(line.endswith(",,,,,,") for line in lines[1:-1])

    def test_label_files_align_with_images(self, tiny_chain):
        images = sorted(p for p in os.listdir(tiny_chain / "data") if p.endswith(".pgm"))
        labels = sorted(os.listdir(tiny_chain / "labels" / "round_1"))
        assert len([l for l in labels if l.endswith(".pts")]) == len(images)

    def test_detect_command(self, tiny_chain, tmp_path):
        out = tmp_path / "det"
        code = run(["detect", "--input", str(tiny_chain / "data" / "000000.pgm"),
                    "--weights", str(tiny_chain / "mp.spw"), "--out", str(out)])
        assert code == 0
        assert (out / "000000.pts").exists()
        assert (out / "000000_overlay.pgm").exists()

    def test_detect_any_image_size(self, tiny_chain, tmp_path):
        out = tmp_path / "det"
        image = odd_sized_image(tmp_path / "odd.pgm")
        assert run(["detect", "--input", str(image), "--weights", str(tiny_chain / "mp.spw"),
                    "--out", str(out)]) == 0
        pts = sd.read_points(out / "odd.pts")
        assert len(pts)
        assert pts[:, 0].min() >= 0 and pts[:, 0].max() <= 99
        assert pts[:, 1].min() >= 0 and pts[:, 1].max() <= 74

    def test_detect_classical(self, tiny_chain, tmp_path):
        out = tmp_path / "det_fast"
        assert run(["detect", "--input", str(tiny_chain / "data"), "--weights", "fast",
                    "--out", str(out)]) == 0
        assert len([n for n in os.listdir(out) if n.endswith(".pts")]) == 8

    def test_match_command(self, tiny_chain, tmp_path):
        out = tmp_path / "match"
        code = run(["match", "--weights", str(tiny_chain / "sp.spw"),
                    "--image-a", str(tiny_chain / "data" / "000000.pgm"),
                    "--image-b", str(tiny_chain / "data" / "000001.pgm"),
                    "--out", str(out)])
        assert code == 0
        assert (out / "matches.csv").exists()
        assert (out / "estimated.htxt").exists()
        assert (out / "side_by_side.pgm").exists()

    def test_match_any_image_size(self, tiny_chain, tmp_path):
        out = tmp_path / "match"
        image = odd_sized_image(tmp_path / "odd.pgm")
        assert run(["match", "--weights", str(tiny_chain / "sp.spw"), "--image-a", str(image),
                    "--image-b", str(image), "--out", str(out)]) == 0
        rows = np.loadtxt(out / "matches.csv", delimiter=",", skiprows=1, ndmin=2)
        assert len(rows)
        xs, ys = rows[:, [2, 4]], rows[:, [3, 5]]
        assert xs.min() >= 0 and xs.max() <= 99
        assert ys.min() >= 0 and ys.max() <= 74

    def test_eval_detector_command(self, tiny_chain, tmp_path):
        out = tmp_path / "report.csv"
        code = run(["eval-detector", "--detectors", f"magic:{tiny_chain / 'mp.spw'},harris",
                    "--count", "2", "--height", "96", "--width", "96",
                    "--out", str(out), "--seed", "4"])
        assert code == 0
        text = out.read_text()
        assert "magic" in text and "harris" in text and "random" in text

    def test_train_reproducible_weights(self, tiny_chain, tmp_path):
        out1 = tmp_path / "w1.spw"
        out2 = tmp_path / "w2.spw"
        argv = ["train-magicpoint", "--iterations", "5", "--batch", "2", "--seed", "9"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_exp_square_sweep(self, tiny_chain, tmp_path):
        out = tmp_path / "sq.csv"
        assert run(["exp-square-sweep", "--weights", str(tiny_chain / "mp.spw"),
                    "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "width,center_confidence,corner_confidence"
        assert len(lines) == 1 + len(range(3, 92, 2))

    def test_exp_noise_types(self, tiny_chain, tmp_path):
        out = tmp_path / "kinds.csv"
        assert run(["exp-noise-types", "--detectors", "harris", "--count", "2",
                    "--out", str(out), "--seed", "5"]) == 0
        kinds = {ln.split(",")[0] for ln in out.read_text().strip().splitlines()[1:]}
        assert kinds == set(im.NOISE_KINDS)

    def test_exp_noise_sweep_grid(self, tiny_chain, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["exp-noise-sweep", "--detectors", "harris", "--count", "2",
                    "--out", str(out), "--seed", "5"]) == 0
        svals = [float(ln.split(",")[0]) for ln in out.read_text().strip().splitlines()[1:]]
        assert svals == [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]

    def test_exp_nh_sweep(self, tiny_chain, tmp_path):
        out = tmp_path / "nh.csv"
        assert run(["exp-nh-sweep", "--weights", str(tiny_chain / "mp.spw"),
                    "--count", "2", "--height", "96", "--width", "96",
                    "--nh-list", "1,3", "--out", str(out), "--seed", "5"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n_homographies,repeatability"
        assert len(lines) == 3

    def test_threads_flag_matches_sequential(self, tiny_chain, tmp_path):
        # the learned detector's threads share one model
        for weights in ("harris", str(tiny_chain / "mp.spw")):
            out1 = tmp_path / os.path.basename(weights) / "t1"
            out4 = tmp_path / os.path.basename(weights) / "t4"
            base = ["detect", "--input", str(tiny_chain / "data"), "--weights", weights]
            assert run(base + ["--out", str(out1), "--threads", "1"]) == 0
            assert run(base + ["--out", str(out4), "--threads", "4"]) == 0
            assert dir_bytes(out1) == dir_bytes(out4), weights
