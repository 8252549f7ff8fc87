"""Command-line behavior: exit codes, config handling, artifact reproducibility."""

import hashlib
import os
import re
import threading

import numpy as np
import pytest

from pointpipe import blas
from pointpipe import classical as cl
from pointpipe import cli
from pointpipe import evalsuite as ev
from pointpipe import imaging as im
from pointpipe import synthdata as sd
from pointpipe.cli import COMMANDS, main
from pointpipe.config import REQUIRED, RULES, ConfigError, Option, parse_config_file, resolve
from pointpipe.neural import ARCH_PRESETS, PointNet, save_weights


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "perfbench", "fixtures")


def run(argv):
    return main(argv)


def tree_bytes(path):
    """{relative path: bytes} of every file under path, or {'': bytes} of a file."""
    if os.path.isfile(path):
        with open(path, "rb") as f:
            return {"": f.read()}
    out = {}
    for root, _, names in os.walk(path):
        for name in names:
            with open(os.path.join(root, name), "rb") as f:
                out[os.path.relpath(os.path.join(root, name), path)] = f.read()
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

    def test_default_word_of_a_path_is_kept(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("s.images = composites\ns.other = composites\n")
        pairs, base = parse_config_file(p)
        schema = [Option("s.images", "path", "composites"), Option("s.other", "path")]
        cfg = resolve(schema, {"s"}, pairs, base, {})
        assert cfg == {"s.images": "composites", "s.other": str(tmp_path / "composites")}

    def test_words_a_path_type_names_are_kept(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("s.weights = shi\ns.spec = fast\ns.other = shi\ns.file = w.spw\n")
        pairs, base = parse_config_file(p)
        schema = [Option("s.weights", "path|harris|shi|fast"), Option("s.spec", "path|harris|shi|fast"),
                  Option("s.other", "path"), Option("s.file", "path|harris|shi|fast")]
        cfg = resolve(schema, {"s"}, pairs, base, {})
        assert cfg == {"s.weights": "shi", "s.spec": "fast", "s.other": str(tmp_path / "shi"),
                       "s.file": str(tmp_path / "w.spw")}

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

    @pytest.mark.parametrize("kind, accepted, rejected", [
        ("count", ["1", "7"], ["0", "-5"]),
        ("budget", ["0", "300"], ["-1"]),
        ("radius", ["0", "4.5", "inf"], ["-1", "nan", "-inf"]),
        ("distance", ["0.5", "3"], ["0", "-1", "nan", "inf"]),
        ("side", ["32", "97"], ["31", "0"]),
        ("cells", ["32", "96"], ["24", "31", "36"]),
        ("count list", ["1", "1,10,100"], ["1,0", "-1"]),
        ("distance list", ["3", "1,3,5"], ["1,inf", "0"]),
        ("str|micro|full", ["micro", "full"], ["bogus", "", "Micro"]),
        ("threshold", ["0.015", "0", "-2"], ["nan", "inf", "-inf"]),
        ("steps", ["0", "2000"], ["-1"]),
    ])
    def test_each_rule_at_its_edges(self, kind, accepted, rejected):
        schema = [Option("s.v", kind)]
        for raw in accepted:
            resolve(schema, {"s"}, {"s.v": raw}, None, {})
        for raw in rejected:
            with pytest.raises(ConfigError, match=r"^config key s\.v: (each entry )?must be "):
                resolve(schema, {"s"}, {"s.v": raw}, None, {})

    def test_defaults_are_typed_and_checked(self):
        schema = [Option("s.nh", "count list", "1,10,100"), Option("s.eps", "distance list", "1,3,5")]
        assert resolve(schema, {"s"}, {}, None, {}) == {"s.nh": (1, 10, 100), "s.eps": (1.0, 3.0, 5.0)}
        with pytest.raises(ConfigError, match="config key s.nms: must be a number >= 0, got -1.0"):
            resolve([Option("s.nms", "radius", -1.0)], {"s"}, {}, None, {})


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
        model.store.params["enc3.w"].data[0, 0, 1, 1] = np.nan
        weights = tmp_path / "nan.spw"
        save_weights(weights, model.store)
        assert run(["detect", "--input", str(image), "--weights", str(weights), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert f"ValueError: {weights}: tensor 'enc3.w' holds a NaN or infinite value" in err, err
        assert sorted(os.listdir(tmp_path)) == ["img.pgm", "nan.spw"]

    def test_bad_retraining_settings_exit_2_before_labeling(self, tmp_path, capsys):
        images = tmp_path / "images"
        images.mkdir()
        im.write_pgm(images / "a.pgm", sd.render_composite((48, 48), np.random.default_rng(0)).image)
        out = tmp_path / "labels"
        assert run(["adapt-label", "--images", str(images), "--weights", "harris", "--out", str(out),
                    "--nh", "2", "--rounds", "2", "--train-batch", "0"]) == 2
        assert "config key adapt.train_batch: must be >= 1, got 0" in capsys.readouterr().err
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
        assert ("adapt.crop must be multiples of 8 from 8 up to the images' whole-cell fit (96, 96), "
                f"got ({crop}, {crop})") in err, err
        assert not out.exists()
        # without a retrain the crop is unused
        assert run(argv + ["--rounds", "1"]) == 0

    def test_zero_rounds_exit_2_without_output(self, tmp_path, capsys):
        images = tmp_path / "images"
        images.mkdir()
        im.write_pgm(images / "a.pgm", sd.render_composite((48, 48), np.random.default_rng(0)).image)
        out = tmp_path / "labels"
        assert run(["adapt-label", "--images", str(images), "--weights", "harris", "--out", str(out),
                    "--rounds", "0"]) == 2
        assert "config key adapt.rounds: must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_point_budget_exits_2(self, tmp_path, capsys):
        image = tmp_path / "img.pgm"
        im.write_pgm(image, sd.render_composite((48, 48), np.random.default_rng(0)).image)
        commands = [["detect", "--input", str(image), "--weights", "harris", "--out", str(tmp_path / "o"),
                     "--top-k", "-1"],
                    ["eval-detector", "--detectors", "harris", "--count", "1", "--height", "48", "--width", "48",
                     "--out", str(tmp_path / "r.csv"), "--n-points", "-1"]]
        rules = [("detect.top_k", ">= 0 (0 keeps every point)"), ("eval_det.n_points", ">= 1")]
        for argv, (key, rule) in zip(commands, rules):
            assert run(argv) == 2, argv[0]
            assert f"config key {key}: must be {rule}, got -1" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["img.pgm"]

    def test_nan_nms_radius_exits_2_without_output(self, tmp_path, capsys):
        image = tmp_path / "img.pgm"
        im.write_pgm(image, sd.render_composite((48, 48), np.random.default_rng(0)).image)
        commands = [
            (["detect", "--input", str(image), "--weights", "harris", "--out", str(tmp_path / "o")], "detect.nms"),
            (["eval-detector", "--detectors", "harris", "--count", "1", "--height", "48", "--width", "48",
              "--out", str(tmp_path / "r.csv")], "eval_det.nms"),
            (["adapt-label", "--images", str(tmp_path), "--weights", "harris", "--out", str(tmp_path / "labels"),
              "--nh", "2"], "adapt.nms"),
        ]
        for argv, key in commands:
            assert run(argv + ["--nms", "nan"]) == 2, argv[0]
            assert f"config key {key}: must be a number >= 0, got nan" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["img.pgm"]

    @pytest.mark.parametrize("command", [
        ["match", "--image-a", "{tmp}/a.pgm", "--image-b", "{tmp}/b.pgm", "--out", "{tmp}/o"],
        ["eval-matching", "--count", "1", "--out", "{tmp}/r.csv"],
    ])
    @pytest.mark.parametrize("value, shown", [("nan", "nan"), ("-1", "-1.0")])
    def test_bad_matching_nms_exits_2_before_loading(self, tmp_path, capsys, command, value, shown):
        # the weight file does not exist: the radius is checked before it is read
        argv = [arg.format(tmp=tmp_path) for arg in command] + ["--weights", str(tmp_path / "unread.spw")]
        assert run(argv + ["--nms", value]) == 2
        key = {"match": "match.nms", "eval-matching": "eval_match.nms"}[command[0]]
        assert f"config key {key}: must be a number >= 0, got {shown}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_negative_match_budget_exits_2_before_loading(self, tmp_path, capsys):
        assert run(["match", "--weights", str(tmp_path / "unread.spw"), "--image-a", "a.pgm", "--image-b", "b.pgm",
                    "--out", str(tmp_path / "o"), "--top-k", "-1"]) == 2
        assert "config key match.top_k: must be >= 0 (0 keeps every point), got -1" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, flags, message", [
        (["synth", "--out", "{tmp}/s", "--count", "1"], ["--height", "20"],
         "config key synth.height: must be >= 32, got 20"),
        (["synth", "--out", "{tmp}/s", "--count", "1"], ["--width", "31"],
         "config key synth.width: must be >= 32, got 31"),
        (["train-magicpoint", "--out", "{tmp}/w/mp.spw", "--iterations", "1"], ["--height", "100"],
         "config key train_mp.height: must be >= 32 and a multiple of 8, got 100"),
        (["train-magicpoint", "--out", "{tmp}/w/mp.spw", "--iterations", "1"], ["--width", "24"],
         "config key train_mp.width: must be >= 32 and a multiple of 8, got 24"),
    ])
    def test_bad_image_size_exits_2_before_output(self, tmp_path, capsys, command, flags, message):
        assert run([arg.format(tmp=tmp_path) for arg in command] + flags) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_negative_label_budget_exits_2_before_adapting(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cl, "harris", lambda image: pytest.fail("the detector ran"))
        images = tmp_path / "images"
        images.mkdir()
        im.write_pgm(images / "a.pgm", sd.render_composite((48, 48), np.random.default_rng(0)).image)
        out = tmp_path / "labels"
        assert run(["adapt-label", "--images", str(images), "--weights", "harris", "--out", str(out),
                    "--nh", "2", "--top-k", "-1"]) == 2
        assert "config key adapt.top_k: must be >= 0 (0 keeps every point), got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, field, message", [
        (["--ransac-iters", "0"], "RansacParams.max_iters", "match.ransac_iters: must be >= 1, got 0"),
        (["--ransac-iters", "-5"], "RansacParams.max_iters", "match.ransac_iters: must be >= 1, got -5"),
        (["--ransac-threshold", "-1"], "RansacParams.threshold",
         "match.ransac_threshold: must be a finite number > 0, got -1.0"),
        (["--ransac-threshold", "nan"], "RansacParams.threshold",
         "match.ransac_threshold: must be a finite number > 0, got nan"),
    ])
    def test_bad_ransac_settings_exit_2_before_output(self, tmp_path, capsys, flags, field, message):
        # the match setting that fills the RansacParams field rejects the value with exit 2,
        # even with a readable weight file and images, and nothing is written
        assert field.split(".")[1] in ev.RansacParams.__dataclass_fields__
        image = tmp_path / "img.pgm"
        im.write_pgm(image, sd.render_composite((48, 48), np.random.default_rng(0)).image)
        weights = tmp_path / "sp.spw"
        save_weights(weights, PointNet(ARCH_PRESETS["micro"], with_descriptor=True, seed=0).store)
        assert run(["match", "--weights", str(weights), "--image-a", str(image), "--image-b", str(image),
                    "--out", str(tmp_path / "o")] + flags) == 2
        assert f"config key {message}" in capsys.readouterr().err
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

    @pytest.mark.parametrize("flags, message", [
        (["--eps", "-2"], "config key eval_match.eps: must be a finite number > 0, got -2.0"),
        (["--eps-list", "1,-3"], "config key eval_match.eps_list: each entry must be a finite number > 0, got -3.0"),
        (["--eps-list", "1,inf"], "config key eval_match.eps_list: each entry must be a finite number > 0, got inf"),
        (["--eps-list", ""], "config key eval_match.eps_list: cannot parse '' as distance list"),
        (["--eps-list", "1,,3"], "config key eval_match.eps_list: cannot parse '1,,3' as distance list"),
        (["--n-points", "-1"], "config key eval_match.n_points: must be >= 0 (0 keeps every point), got -1"),
    ])
    def test_bad_matching_eps_rejected_before_work(self, tmp_path, capsys, flags, message):
        assert run(["eval-matching", "--weights", str(tmp_path / "unread.spw"), "--count", "1",
                    "--out", str(tmp_path / "r.csv")] + flags) == 2
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, value", [
        (["synth", "--out", "{tmp}/s", "--count"], "-3"),
        (["eval-detector", "--detectors", "harris", "--out", "{tmp}/r.csv", "--count"], "-2"),
        (["eval-detector", "--detectors", "harris", "--images", "{tmp}", "--out", "{tmp}/r.csv", "--count"], "-1"),
        (["eval-matching", "--weights", "{tmp}/unread.spw", "--out", "{tmp}/r.csv", "--count"], "0"),
        (["reproduce", "--weights", "{tmp}/unread.spw", "--out", "{tmp}/o", "--samples"], "-1"),
        (["reproduce", "--weights", "{tmp}/unread.spw", "--out", "{tmp}/o", "--pairs"], "0"),
        (["reproduce", "--weights", "{tmp}/unread.spw", "--out", "{tmp}/o", "--images", "{tmp}", "--pairs"], "-1"),
    ])
    def test_counts_below_one_exit_2(self, tmp_path, capsys, command, value):
        section = {"synth": "synth", "eval-detector": "eval_det", "eval-matching": "eval_match",
                   "reproduce": "reproduce"}
        im.write_pgm(tmp_path / "a.pgm", np.zeros((16, 16), dtype=np.float32))
        assert run([arg.format(tmp=tmp_path) for arg in command] + [value]) == 2
        key = f"{section[command[0]]}.{command[-1].removeprefix('--')}"
        assert f"config key {key}: must be >= 1, got {value}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["a.pgm"]

    @pytest.mark.parametrize("command, section", [
        (["eval-detector", "--detectors", "harris", "--count", "1", "--height", "48", "--width", "48",
          "--n-points", "20"], "eval_det"),
        (["reproduce", "--weights", os.path.join(FIXTURES, "detector.spw"), "--samples", "1", "--pairs", "1"],
         "reproduce"),
    ])
    def test_composites_from_config_file_equal_the_flag(self, tmp_path, monkeypatch, command, section):
        monkeypatch.setattr(cli, "NH_LIST", (1,))  # one warp count keeps the reproduce run short
        config = tmp_path / "run.cfg"
        config.write_text(f"{section}.images = composites\n")
        assert run(command + ["--config", str(config), "--out", str(tmp_path / "file")]) == 0
        assert run(command + ["--images", "composites", "--out", str(tmp_path / "flag")]) == 0
        assert tree_bytes(tmp_path / "file") == tree_bytes(tmp_path / "flag")

    @pytest.mark.parametrize("command, section, word", [
        (["detect", "--input", "{tmp}/images"], "detect", "harris"),
        (["detect", "--input", "{tmp}/images/a.pgm"], "detect", "fast"),
        (["adapt-label", "--images", "{tmp}/images", "--nh", "2"], "adapt", "shi"),
    ])
    def test_detector_words_from_config_file_equal_the_flag(self, tmp_path, command, section, word):
        (tmp_path / "images").mkdir()
        for name, seed in (("a", 0), ("b", 1)):
            image = sd.render_composite((48, 48), np.random.default_rng(seed)).image
            im.write_pgm(tmp_path / "images" / f"{name}.pgm", image)
        config = tmp_path / "run.cfg"
        config.write_text(f"{section}.weights = {word}\n")
        command = [arg.format(tmp=tmp_path) for arg in command]
        assert run(command + ["--config", str(config), "--out", str(tmp_path / "file")]) == 0
        assert run(command + ["--weights", word, "--out", str(tmp_path / "flag")]) == 0
        assert tree_bytes(tmp_path / "file") == tree_bytes(tmp_path / "flag")

    def test_fast_as_a_dense_map_from_config_file_exits_2_as_from_the_flag(self, tmp_path, capsys):
        (tmp_path / "images").mkdir()
        im.write_pgm(tmp_path / "images" / "a.pgm", sd.render_composite((48, 48), np.random.default_rng(0)).image)
        config = tmp_path / "run.cfg"
        config.write_text("adapt.weights = fast\n")
        command = ["adapt-label", "--images", str(tmp_path / "images"), "--out", str(tmp_path / "labels")]
        message = "config error: fast produces points, not a dense map; use harris/shi or weights"
        assert run(command + ["--config", str(config)]) == 2
        assert message in capsys.readouterr().err
        assert run(command + ["--weights", "fast"]) == 2
        assert message in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["images", "run.cfg"]

    def test_detect_workers_run_one_blas_thread(self, tmp_path, monkeypatch):
        (tmp_path / "images").mkdir()
        for i in range(3):
            image = sd.render_composite((48, 48), np.random.default_rng(i)).image
            im.write_pgm(tmp_path / "images" / f"{i}.pgm", image)
        blas_threads = {"count": 8}
        monkeypatch.setattr(blas.ONE_BLAS_THREAD, "_calls",
                            (lambda: blas_threads["count"], lambda count: blas_threads.update(count=count)))
        seen = []
        harris = cl.harris
        monkeypatch.setattr(cl, "harris", lambda image: seen.append(blas_threads["count"]) or harris(image))
        base = ["detect", "--input", str(tmp_path / "images"), "--weights", "harris"]
        monkeypatch.setattr(blas, "usable_cores", lambda: 1)
        assert run(base + ["--out", str(tmp_path / "t1")]) == 0
        assert seen == [8] * 3 and blas_threads["count"] == 8
        seen.clear()
        monkeypatch.setattr(blas, "usable_cores", lambda: 3)
        assert run(base + ["--out", str(tmp_path / "t3")]) == 0
        assert seen == [1] * 3 and blas_threads["count"] == 8
        assert tree_bytes(tmp_path / "t1") == tree_bytes(tmp_path / "t3")

    def test_detect_workers_run_in_the_callers_errstate(self, tmp_path, monkeypatch):
        (tmp_path / "images").mkdir()
        for i in range(3):
            image = sd.render_composite((48, 48), np.random.default_rng(i)).image
            im.write_pgm(tmp_path / "images" / f"{i}.pgm", image)
        monkeypatch.setattr(blas, "usable_cores", lambda: 3)
        seen = []
        harris = cl.harris
        monkeypatch.setattr(cl, "harris",
                            lambda image: seen.append((threading.get_ident(), np.geterr()["divide"])) or harris(image))
        with np.errstate(divide="raise"):
            assert run(["detect", "--input", str(tmp_path / "images"), "--weights", "harris",
                        "--out", str(tmp_path / "out")]) == 0
        assert len({ident for ident, _ in seen}) > 1
        assert [mode for _, mode in seen] == ["raise"] * 3

    @pytest.mark.parametrize("argv", [["synth", "--threads", "2"], ["detect", "--deterministic"],
                                      *([name, "--help"] for name in ("exp-noise-sweep", "exp-noise-types",
                                                                      "exp-square-sweep", "exp-nh-sweep")),
                                      ["detect", "--threads", "2"], ["synth-dump", "--help"]])
    def test_removed_flags_are_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_bad_category_exits_2(self, tmp_path):
        assert run(["synth", "--out", str(tmp_path / "d"), "--count", "1",
                    "--mix", "dodecahedron:1"]) == 2

    @pytest.mark.parametrize("mix, message", [
        ("star:0", "the category weights must sum to > 0, got 'star:0'"),
        ("star:x", "the weight of star must be a finite number >= 0, got 'x'"),
        ("star:-1,cube:2", "the weight of star must be a finite number >= 0, got '-1'"),
        ("star:nan", "the weight of star must be a finite number >= 0, got 'nan'"),
        ("dodecahedron:1", "unknown shape category 'dodecahedron'"),
        ("star:1,star:0", "category star is given twice"),
    ])
    @pytest.mark.parametrize("command, section", [
        (["synth", "--out", "{tmp}/d", "--count", "1"], "synth"),
        (["train-magicpoint", "--out", "{tmp}/w/mp.spw", "--iterations", "1"], "train_mp"),
    ])
    def test_bad_mix_exits_2_before_output(self, tmp_path, capsys, command, section, mix, message):
        assert run([arg.format(tmp=tmp_path) for arg in command] + ["--mix", mix]) == 2
        assert f"config key {section}.mix: {message}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, key", [
        (["adapt-label", "--images", "{tmp}/data", "--weights", "harris", "--out", "{tmp}/labels", "--nh", "2",
          "--rounds", "2"], "adapt.arch"),
        (["train-superpoint", "--images", "{tmp}/data", "--labels", "{tmp}/data", "--out", "{tmp}/sp.spw"],
         "train_sp.arch"),
    ])
    def test_unknown_arch_exits_2_before_reading_or_writing(self, tmp_path, capsys, monkeypatch, command, key):
        assert run(["synth", "--out", str(tmp_path / "data"), "--count", "2"]) == 0
        data = tree_bytes(tmp_path / "data")
        monkeypatch.setattr(im, "read_pgm", lambda path: pytest.fail("an image was read"))
        assert run([arg.format(tmp=tmp_path) for arg in command] + ["--arch", "bogus"]) == 2
        assert f"config key {key}: must be one of micro, full, got 'bogus'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["data"]
        assert tree_bytes(tmp_path / "data") == data


def test_readme_command_table_names_every_subcommand():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        table = f.read().split("| command | what it does |", 1)[1].split("\n\n", 1)[0]
    named = [name for row in table.splitlines() if row.startswith("| `")
             for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    commands = [name for name, *_ in COMMANDS]
    assert sorted(named) == sorted(commands)


BAD_VALUES = {"count": "0", "budget": "-1", "steps": "-1", "radius": "nan", "distance": "0", "side": "31",
              "cells": "36", "threshold": "nan", "str": "bogus"}


def rule_of(opt):
    """The rule-table row of an option whose type restricts its values (a RULES type or "str"), else None."""
    kind, *words = opt.type.split("|")
    if kind == "str":
        return "str" if words else None
    item = kind.removesuffix(" list")
    return item if item in RULES else None


RULED = [(name, opt) for name, _, schema, _ in COMMANDS for opt in schema if rule_of(opt)]


@pytest.mark.parametrize("command, opt", RULED, ids=[f"{name}-{opt.key}" for name, opt in RULED])
def test_bad_value_exits_2_before_work(tmp_path, capsys, command, opt):
    schema = next(schema for name, _, schema, _ in COMMANDS if name == command)
    argv = [command]
    for required in (o for o in schema if o.default is REQUIRED):
        argv += [required.flag, str(tmp_path / required.key)]
    bad = BAD_VALUES[rule_of(opt)]
    assert run(argv + [opt.flag, "1," + bad if opt.type.endswith(" list") else bad]) == 2
    out, err = capsys.readouterr()
    assert f"config key {opt.key}: " in err and out == ""
    assert os.listdir(tmp_path) == []


def test_readme_rule_table_matches_the_schema():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        table = f.read().split("| type | a value must be | keys |", 1)[1].split("\n\n", 1)[0]
    rules, keys, words = {}, {}, {}
    for row in table.splitlines()[2:]:
        kind, rule, names = (cell.strip() for cell in row.strip("|").split("|"))
        kind = re.findall(r"`([^`]+)`", kind)[0]
        rules[kind] = rule
        keys[kind] = {n for n in re.findall(r"`([^`]+)`", names) if "." in n}
        words[kind] = {n for n in re.findall(r"`([^`]+)`", names) if "." not in n}
    schema_keys = {}
    for _, opt in RULED:
        schema_keys.setdefault(rule_of(opt), set()).add(opt.key)
    assert keys == schema_keys
    assert {kind: rules[kind] for kind in RULES} == {kind: rule for kind, (_, _, rule) in RULES.items()}
    assert words["str"] == {w for _, opt in RULED if rule_of(opt) == "str" for w in opt.type.split("|")[1:]}


class TestNoiseExperimentData:
    def test_eval_shapes_are_not_training_shapes(self):
        scored = cli.noise_samples(100, 0)
        # shapes without points (blank or noise-only categories) are equal in any two streams
        training = {sd.sample_at(sd.StreamConfig(seed=0), i).points.tobytes() for i in range(100)} - {b""}
        assert len(scored) == 100 and len(training) > 70
        assert not training & {s.points.tobytes() for s in scored}


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

    def test_smallest_size_renders_every_category(self, tmp_path):
        out = tmp_path / "data"
        assert run(["synth", "--out", str(out), "--count", "30", "--height", "32", "--width", "48"]) == 0
        categories = {line.split()[1] for line in (out / "manifest.txt").read_text().splitlines()}
        assert "star" in categories and len(os.listdir(out)) == 61

    def test_golden_run_byte_identical(self, tmp_path, tiny_chain):
        a = tmp_path / "a"
        b = tmp_path / "b"
        argv = ["synth", "--count", "6", "--seed", "11"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert tree_bytes(a) == tree_bytes(b)
        # the whole chain again in a fresh directory
        again = tmp_path / "chain"
        again.mkdir()
        run_chain(again)
        for name in ("mp.spw", "sp.spw", "mp_loss.csv", "sp_loss.csv", "report.csv"):
            assert (again / name).read_bytes() == (tiny_chain / name).read_bytes(), name
        assert tree_bytes(again / "labels" / "round_1") == tree_bytes(tiny_chain / "labels" / "round_1")

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


DETECTOR_NAMES = ("learned", "harris", "shi", "fast")


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    """The four tables of one small reproduce run: the fixture detector, 2 shapes, 2 pairs of 48 x 48 images."""
    root = tmp_path_factory.mktemp("reproduce")
    (root / "images").mkdir()
    for i in range(2):
        im.write_pgm(root / "images" / f"{i}.pgm", sd.render_composite((48, 48), np.random.default_rng(i)).image)
    assert run(["reproduce", "--weights", os.path.join(FIXTURES, "detector.spw"), "--samples", "2", "--pairs", "2",
                "--seed", "5", "--images", str(root / "images"), "--out", str(root / "out")]) == 0
    return root / "out"


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

    @pytest.mark.parametrize("sizes", [[(64, 64), (64, 80)], [(75, 100), (75, 100)]])
    def test_train_superpoint_any_image_size(self, tmp_path, sizes):
        data = tmp_path / "data"
        data.mkdir()
        for i, size in enumerate(sizes):
            sample = sd.render_composite(size, np.random.default_rng(i))
            im.write_pgm(data / f"{i}.pgm", sample.image)
            sd.write_points(data / f"{i}.pts", sample.points)
        # at seed 1 a batch holds both sizes of the first list
        assert run(["train-superpoint", "--images", str(data), "--labels", str(data), "--out", str(tmp_path / "sp.spw"),
                    "--iterations", "2", "--batch", "2", "--seed", "1"]) == 0

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

    @pytest.mark.parametrize("command, iterations, lines", [
        (["train-magicpoint", "--height", "32", "--width", "32"], 5, 3),
        (["train-superpoint", "--images", "{data}", "--labels", "{data}"], 6, 4),
    ])
    def test_training_progress_on_stderr(self, tiny_chain, tmp_path, capsys, command, iterations, lines):
        command = [arg.format(data=tiny_chain / "data") for arg in command]
        common = ["--iterations", str(iterations), "--log-every", "2", "--batch", "2", "--seed", "4"]
        assert run(command + common + ["--out", str(tmp_path / "w.spw"), "--log", str(tmp_path / "log.csv")]) == 0
        out, err = capsys.readouterr()
        logged = [row.split(",") for row in (tmp_path / "log.csv").read_text().splitlines()[1:]]
        assert len(logged) == lines
        # one line per logged step: the CSV's 0-based iteration and loss_total, then the wall time
        progress = [re.fullmatch(rf"iter (\d+)/{iterations} loss (\S+) elapsed \d+\.\d s", line)
                    for line in err.splitlines()]
        assert all(progress) and len(progress) == lines
        assert [(m[1], m[2]) for m in progress] == [(row[0], f"{float(row[1]):.4f}") for row in logged]
        # wall time never reaches stdout or the CSV
        assert "elapsed" not in out and out.splitlines()[1] == f"weights -> {tmp_path / 'w.spw'}"

    def test_train_reproducible_weights(self, tiny_chain, tmp_path):
        out1 = tmp_path / "w1.spw"
        out2 = tmp_path / "w2.spw"
        argv = ["train-magicpoint", "--iterations", "5", "--batch", "2", "--seed", "9"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_exp_square_sweep(self, reproduced):
        lines = (reproduced / "square_sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "width,center_confidence,corner_confidence"
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(3, 92, 2))

    def test_exp_noise_types(self, reproduced):
        rows = [line.split(",") for line in (reproduced / "noise_types.csv").read_text().strip().splitlines()[1:]]
        assert [row[:2] for row in rows] == [[kind, name] for kind in im.NOISE_KINDS for name in DETECTOR_NAMES]

    def test_exp_noise_sweep_grid(self, reproduced):
        rows = [line.split(",") for line in (reproduced / "noise_sweep.csv").read_text().strip().splitlines()[1:]]
        grid = ["0.00", "0.25", "0.50", "0.75", "1.00", "1.25", "1.50", "1.75", "2.00"]
        assert [row[:2] for row in rows] == [[s, name] for s in grid for name in DETECTOR_NAMES]

    def test_exp_nh_sweep(self, reproduced):
        rows = [line.split(",") for line in (reproduced / "nh_sweep.csv").read_text().strip().splitlines()[1:]]
        assert [row[:2] for row in rows] == [[nh, name] for nh in ("1", "10", "100")
                                             for name in ("learned", "harris", "shi")]

    def test_threads_flag_matches_sequential(self, tiny_chain, tmp_path, monkeypatch):
        # detect at one worker and at three; the learned detector's workers share one model
        for weights in ("harris", str(tiny_chain / "mp.spw")):
            out1 = tmp_path / os.path.basename(weights) / "w1"
            out3 = tmp_path / os.path.basename(weights) / "w3"
            base = ["detect", "--input", str(tiny_chain / "data"), "--weights", weights]
            monkeypatch.setattr(blas, "usable_cores", lambda: 1)
            assert run(base + ["--out", str(out1)]) == 0
            monkeypatch.setattr(blas, "usable_cores", lambda: 3)
            assert run(base + ["--out", str(out3)]) == 0
            assert tree_bytes(out1) == tree_bytes(out3), weights


class TestReproduce:
    def test_tables_keep_the_bytes_of_the_experiment_commands(self, reproduced):
        # recorded from exp-noise-sweep, exp-noise-types (--detectors learned:W,harris,shi,fast --count 2)
        # and exp-square-sweep at the same weights and seed, before reproduce replaced them
        digests = {name: hashlib.sha256((reproduced / name).read_bytes()).hexdigest()
                   for name in ("noise_sweep.csv", "noise_types.csv", "square_sweep.csv")}
        assert digests == {
            "noise_sweep.csv": "b09f186ab7d8565d36bbe08200602b347ed2cd7bd7ffe3c00f04061ec503f5f4",
            "noise_types.csv": "471bda10e03b696e4df392ecd78bee556d2579d7c781dc264d886652429f143e",
            "square_sweep.csv": "555fd187b62a69c0718a801618d52bf84f42c379db4d09809cfdce5a4e8f025e",
        }
        # each detector's rows are those of exp-nh-sweep --weights W, harris or shi --count 2
        assert (reproduced / "nh_sweep.csv").read_text() == (
            "n_homographies,detector,repeatability\n"
            "1,learned,0.812500\n1,harris,0.895067\n1,shi,0.927254\n"
            "10,learned,0.881888\n10,harris,0.879943\n10,shi,0.917017\n"
            "100,learned,0.864939\n100,harris,0.911071\n100,shi,0.928689\n"
        )
        assert sorted(os.listdir(reproduced)) == ["nh_sweep.csv", "noise_sweep.csv", "noise_types.csv",
                                                  "square_sweep.csv"]

    def test_schema_has_six_settings(self):
        schema = next(schema for name, _, schema, _ in COMMANDS if name == "reproduce")
        assert [opt.key for opt in schema] == [f"reproduce.{key}" for key in
                                               ("weights", "out", "images", "samples", "pairs", "seed")]

    def test_bad_weights_exit_3_before_output(self, tmp_path, capsys):
        assert run(["reproduce", "--weights", str(tmp_path / "missing.spw"), "--out", str(tmp_path / "o")]) == 3
        assert "missing.spw" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestEvalDetectorBytes:
    """eval-detector's CSV at the budgets of one point and of direction 2's protocol."""

    @pytest.mark.parametrize("n_points, digest", [
        (1, "219e36998e21d128d1a4b7f046e2626a871cda0176f4cfbda36c1330e652d4eb"),
        (300, "d911eafa6eaf37a888b04ce8f0c4b76cfd06a935eb0f182e79cb89cc1b462a22"),
    ])
    def test_csv_digest(self, tmp_path, n_points, digest):
        # recorded while every budgeted selection ran greedy NMS on all candidates
        out = tmp_path / "r.csv"
        detectors = "harris,shi,fast,learned:" + os.path.join(FIXTURES, "detector.spw")
        assert run(["eval-detector", "--detectors", detectors, "--count", "3", "--n-points", str(n_points),
                    "--seed", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
