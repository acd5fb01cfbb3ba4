"""End-to-end command line coverage: every subcommand plus the exit-code contract."""

import importlib.util
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from helpers import synthetic_dataset
from lidarsynth import cli, config as C, formats, training as TR
from lidarsynth.radar import RadarCube, range_angle_map, range_transform, range_velocity_map


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synthesized dataset plus one short training run, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "toy.cfg"
    cfg_path.write_text(
        C.config_text(C.toy_config(overrides={"train.epochs": "2"})), encoding="utf-8"
    )
    data = root / "data"
    assert cli.main(["synth", "--out", str(data), "--num", "24",
                     "--config", str(cfg_path)]) == cli.EXIT_OK
    ckpt = root / "run" / "model.lsck"
    assert cli.main(["train", "--data", str(data), "--config", str(cfg_path),
                     "--out", str(ckpt)]) == cli.EXIT_OK
    return {"root": root, "cfg": cfg_path, "data": data, "ckpt": ckpt}


# -- usage errors -------------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == cli.EXIT_USAGE
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_is_usage_error():
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE


def test_missing_required_flag_is_usage_error(capsys):
    assert cli.main(["synth", "--num", "1"]) == cli.EXIT_USAGE
    assert "--out" in capsys.readouterr().err


def test_bad_flag_value_is_usage_error(tmp_path):
    assert cli.main(["synth", "--out", str(tmp_path), "--num", "lots"]) == cli.EXIT_USAGE


def _readme_cli_lines() -> list[str]:
    """Every line of README.md's fenced blocks that starts with `lidarsynth `."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```")[1::2]
    return [line for block in blocks for line in block.splitlines() if line.startswith("lidarsynth ")]


def test_readme_shows_cli_lines():
    assert len(_readme_cli_lines()) >= 8


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_line_parses(line):
    cli.build_parser().parse_args(shlex.split(line)[1:])  # a UsageError fails the test


# -- synth --------------------------------------------------------------------------


def test_synth_writes_expected_layout(workspace):
    dirs = sorted(p.name for p in workspace["data"].iterdir())
    assert len(dirs) == 24
    assert dirs[0] == "sample_000000"
    files = sorted(p.name for p in (workspace["data"] / "sample_000000").iterdir())
    assert files == [
        "camera.lstf", "depth.lstf", "meta.txt", "radar_cube.lstf",
        "range_angle.lstf", "range_velocity.lstf", "target_raster.lstf",
    ]
    meta = (workspace["data"] / "sample_000003" / "meta.txt").read_text()
    assert "scenario=campus_day" in meta


def test_synth_is_deterministic(tmp_path, workspace):
    again = tmp_path / "again"
    assert cli.main(["synth", "--out", str(again), "--num", "2",
                     "--config", str(workspace["cfg"])]) == cli.EXIT_OK
    for sample in ("sample_000000", "sample_000001"):
        for name in ("camera.lstf", "radar_cube.lstf", "target_raster.lstf"):
            a = (workspace["data"] / sample / name).read_bytes()
            b = (again / sample / name).read_bytes()
            assert a == b, f"{sample}/{name} differs"


def test_synth_single_profile(tmp_path, workspace):
    out = tmp_path / "plaza"
    assert cli.main(["synth", "--out", str(out), "--num", "2", "--profile", "plaza_day",
                     "--config", str(workspace["cfg"])]) == cli.EXIT_OK
    for d in out.iterdir():
        assert "scenario=plaza_day" in (d / "meta.txt").read_text()


def test_synth_then_load_matches_synthetic_dataset(tmp_path):
    cfg = C.toy_config()
    cfg_path = tmp_path / "toy.cfg"
    cfg_path.write_text(C.config_text(cfg), encoding="utf-8")
    out = tmp_path / "data"
    assert cli.main(["synth", "--out", str(out), "--num", "6", "--profile", "mixed",
                     "--seed", "5", "--config", str(cfg_path)]) == cli.EXIT_OK
    loaded = TR.load_dataset(out, cfg.grid)
    want = synthetic_dataset(6, "mixed", cfg.grid, cfg.radar, cfg.cam_width, cfg.cam_height, seed=5)
    assert [s.scenario_id for s in loaded] == [s.scenario_id for s in want]
    for got, exp in zip(loaded, want):
        for name in ("camera", "depth", "range_angle", "range_velocity"):
            a, b = got.modality(name), exp.modality(name)
            assert a.shape == b.shape and np.array_equal(a.view(np.uint32), b.view(np.uint32)), name
        assert np.array_equal(got.target.data.view(np.uint32), exp.target.data.view(np.uint32))


def test_synth_unknown_profile_is_bad_input(tmp_path):
    assert cli.main(["synth", "--out", str(tmp_path / "x"), "--num", "1",
                     "--profile", "lunar_night"]) == cli.EXIT_BAD_INPUT


def test_synth_unknown_profile_creates_no_directory(tmp_path):
    out = tmp_path / "x"
    assert cli.main(["synth", "--out", str(out), "--num", "1",
                     "--profile", "lunar_night"]) == cli.EXIT_BAD_INPUT
    assert not out.exists()


def test_synth_into_a_directory_with_samples_is_bad_input(tmp_path, workspace):
    out = tmp_path / "data"
    shutil.copytree(workspace["data"] / "sample_000000", out / "sample_000000")
    before = {p.name: p.read_bytes() for p in (out / "sample_000000").iterdir()}
    assert cli.main(["synth", "--out", str(out), "--num", "3", "--seed", "100",
                     "--config", str(workspace["cfg"])]) == cli.EXIT_BAD_INPUT
    assert [p.name for p in out.iterdir()] == ["sample_000000"]
    assert {p.name: p.read_bytes() for p in (out / "sample_000000").iterdir()} == before


@pytest.mark.parametrize("num", ["0", "-1"])
def test_synth_count_below_one_is_usage_error(tmp_path, num):
    out = tmp_path / "x"
    assert cli.main(["synth", "--out", str(out), "--num", num]) == cli.EXIT_USAGE
    assert not out.exists()


def test_synth_negative_seed_is_usage_error_and_creates_no_directory(tmp_path, capsys):
    out = tmp_path / "x"
    assert cli.main(["synth", "--out", str(out), "--num", "2", "--seed", "-1"]) == cli.EXIT_USAGE
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["fusion.n_heads = 0", "encoder.depth.patch_size = 0"])
def test_synth_config_with_a_zero_head_count_or_patch_size_is_bad_input(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "x"
    assert cli.main(["synth", "--out", str(out), "--num", "1", "--config", str(cfg)]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "line 1" in err and line.partition(" = ")[0] in err
    assert not out.exists()


# -- preprocess-radar ---------------------------------------------------------------


def test_preprocess_radar_matches_library(tmp_path, workspace):
    interleaved = formats.read_lstf(workspace["data"] / "sample_000000" / "radar_cube.lstf")
    cube_path = tmp_path / "cube.lstf"
    formats.write_lstf(cube_path, interleaved)
    ra, rv = tmp_path / "ra.lstf", tmp_path / "rv.lstf"
    assert cli.main(["preprocess-radar", "--cube", str(cube_path),
                     "--out-ra", str(ra), "--out-rv", str(rv)]) == cli.EXIT_OK
    ranged = range_transform(RadarCube.from_interleaved(interleaved))
    np.testing.assert_array_equal(formats.read_lstf(ra), range_angle_map(ranged))
    np.testing.assert_array_equal(formats.read_lstf(rv), range_velocity_map(ranged))


def test_preprocess_radar_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.lstf"
    bad.write_bytes(b"not a tensor at all")
    assert cli.main(["preprocess-radar", "--cube", str(bad), "--out-ra",
                     str(tmp_path / "a"), "--out-rv", str(tmp_path / "b")]) == cli.EXIT_BAD_INPUT


def test_preprocess_radar_rejects_wrong_rank(tmp_path):
    flat = tmp_path / "flat.lstf"
    formats.write_lstf(flat, np.ones((4, 4), dtype=np.float32))
    assert cli.main(["preprocess-radar", "--cube", str(flat), "--out-ra",
                     str(tmp_path / "a"), "--out-rv", str(tmp_path / "b")]) == cli.EXIT_BAD_INPUT


def test_missing_input_file_is_bad_input(tmp_path):
    assert cli.main(["preprocess-radar", "--cube", str(tmp_path / "nope.lstf"),
                     "--out-ra", str(tmp_path / "a"), "--out-rv",
                     str(tmp_path / "b")]) == cli.EXIT_BAD_INPUT


# -- rasterize / derasterize --------------------------------------------------------


def test_raster_point_cloud_round_trip(tmp_path, workspace):
    grid = C.toy_config().grid
    rng = np.random.default_rng(11)
    data = np.zeros((grid.n_rows, grid.n_cols), dtype=np.float32)
    rows = rng.integers(0, grid.n_rows, size=60)
    cols = rng.integers(0, grid.n_cols, size=60)
    data[rows, cols] = rng.uniform(1.0, 99.0, size=60).astype(np.float32)

    raster_path = tmp_path / "raster.lstf"
    formats.write_lstf(raster_path, data)
    points_path = tmp_path / "points.lspc"
    back_path = tmp_path / "back.lstf"
    assert cli.main(["derasterize", "--raster", str(raster_path), "--grid",
                     str(workspace["cfg"]), "--out", str(points_path)]) == cli.EXIT_OK
    points = formats.read_lspc(points_path)
    assert points.shape == (np.count_nonzero(data), 3)
    assert cli.main(["rasterize", "--points", str(points_path), "--grid",
                     str(workspace["cfg"]), "--out", str(back_path)]) == cli.EXIT_OK
    back = formats.read_lstf(back_path)
    # the point cloud file stores float32 coordinates, so values can wiggle an ulp
    assert (back != 0).sum() == (data != 0).sum()
    np.testing.assert_allclose(back, data, rtol=1e-5, atol=1e-4)


def test_rasterize_reports_dropped_points(tmp_path, workspace, capsys):
    pts = np.array([[10.0, 0.0, 0.0], [500.0, 0.0, 0.0]], dtype=np.float32)
    points_path = tmp_path / "pts.lspc"
    formats.write_lspc(points_path, pts)
    out = tmp_path / "r.lstf"
    assert cli.main(["rasterize", "--points", str(points_path), "--grid",
                     str(workspace["cfg"]), "--out", str(out)]) == cli.EXIT_OK
    assert "dropped 1" in capsys.readouterr().err


def test_derasterize_rejects_wrong_shape(tmp_path, workspace):
    bad = tmp_path / "bad.lstf"
    formats.write_lstf(bad, np.ones((4, 4), dtype=np.float32))
    assert cli.main(["derasterize", "--raster", str(bad), "--grid",
                     str(workspace["cfg"]), "--out", str(tmp_path / "p")]) == cli.EXIT_BAD_INPUT


# -- train / eval -------------------------------------------------------------------


def test_train_writes_checkpoint_and_history(workspace):
    assert workspace["ckpt"].exists()
    history = (workspace["ckpt"].parent / "history.txt").read_text().splitlines()
    assert len(history) == 2
    for line in history:
        assert re.fullmatch(r"\d+\t\d+\.\d{8}\t\d+\.\d{8}\t[0-9.e-]+", line)
    assert history[0].startswith("1\t")
    assert history[0].endswith("\t0.001")

    cfg_text, ckpt, adam = TR.load_checkpoint(workspace["ckpt"])
    cfg = C.parse_config(cfg_text)
    assert cfg.train.epochs == 2
    assert adam == {}  # only model weights are persisted
    assert ckpt.epoch in (1, 2)


def test_eval_writes_report(workspace, capsys):
    report_path = workspace["root"] / "report.txt"
    assert cli.main(["eval", "--data", str(workspace["data"]), "--ckpt",
                     str(workspace["ckpt"]), "--report", str(report_path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "baseline" in out
    report = TR.EvalReport.from_text(report_path.read_text())
    assert set(report.per_scenario) == {
        "plaza_day", "garage_night", "roadside_dusk", "campus_day"
    }
    assert report.baseline_zeros > 0.0
    assert report.overall < report.baseline_zeros


def test_eval_checks_config_consistency(workspace, tmp_path):
    other = tmp_path / "other.cfg"
    other.write_text(
        C.config_text(C.toy_config(overrides={"train.epochs": "2", "train.alpha": "2.0"}))
    )
    args = ["eval", "--data", str(workspace["data"]), "--ckpt", str(workspace["ckpt"]),
            "--report", str(tmp_path / "r.txt"), "--config", str(other)]
    assert cli.main(args) == cli.EXIT_BAD_INPUT
    assert cli.main(args[:-2]) == cli.EXIT_OK  # the same run without --config
    matching = ["eval", "--data", str(workspace["data"]), "--ckpt", str(workspace["ckpt"]),
                "--report", str(tmp_path / "r2.txt"), "--config", str(workspace["cfg"])]
    assert cli.main(matching) == cli.EXIT_OK


def test_eval_accepts_equivalent_config_spelling(workspace, tmp_path):
    # the checkpoint holds `train.alpha = 10.0` and `model.fusion_bypass = false`
    respelled = tmp_path / "respelled.cfg"
    respelled.write_text(C.config_text(C.toy_config(overrides={
        "train.epochs": "02", "train.alpha": "10", "model.fusion_bypass": "no",
    })))
    assert cli.main(["eval", "--data", str(workspace["data"]), "--ckpt", str(workspace["ckpt"]),
                     "--report", str(tmp_path / "r.txt"), "--config", str(respelled)]) == cli.EXIT_OK


def test_eval_reads_config_text_with_removed_keys(workspace, tmp_path):
    # dump-config files and checkpoints written before the keys were removed carry them
    old = tmp_path / "old.cfg"
    old.write_text(workspace["cfg"].read_text() + "encoder.camera.frozen = true\nfusion.n_layers = 1\n"
                   "decoder.seed_h = 5\ndecoder.seed_w = 4\nradar.noise_sigma = 0.02\nsplit.test = 0.2\n")
    reports = [tmp_path / "r.txt", tmp_path / "old-r.txt"]
    for cfg_path, report in zip((workspace["cfg"], old), reports):
        assert cli.main(["eval", "--data", str(workspace["data"]), "--ckpt", str(workspace["ckpt"]),
                         "--report", str(report), "--config", str(cfg_path)]) == cli.EXIT_OK
    assert reports[0].read_bytes() == reports[1].read_bytes()


def test_eval_rejects_checkpoint_with_malformed_meta_state(workspace, tmp_path):
    # meta.state holds (epoch, val_mmse); one value is a malformed file, not a crash
    ckpt = tmp_path / "bad-meta.lsck"
    formats.write_lsck(ckpt, workspace["cfg"].read_text(), {"meta.state": np.array([3.0], dtype=np.float32)})
    assert cli.main(["eval", "--data", str(workspace["data"]), "--ckpt", str(ckpt),
                     "--report", str(tmp_path / "r.txt")]) == cli.EXIT_BAD_INPUT


def test_eval_with_an_empty_test_split_is_bad_input(workspace, tmp_path):
    # five samples of one scenario split 0.8/0.2 leave 4/1/0: nothing to test on
    data = tmp_path / "five"
    for i in range(0, 20, 4):
        shutil.copytree(workspace["data"] / f"sample_{i:06d}", data / f"sample_{i:06d}")
    cfg = C.toy_config(overrides={"train.epochs": "2", "split.train": "0.8", "split.val": "0.2"})
    ckpt = tmp_path / "m.lsck"
    formats.write_lsck(ckpt, C.config_text(cfg), formats.read_lsck(workspace["ckpt"])[1])
    report = tmp_path / "r.txt"
    assert cli.main(["eval", "--data", str(data), "--ckpt", str(ckpt),
                     "--report", str(report)]) == cli.EXIT_BAD_INPUT
    assert not report.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_scenario_named_like_a_report_line_is_bad_input(workspace, tmp_path, command):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    meta = data / "sample_000005" / "meta.txt"
    meta.write_text(re.sub(r"(?m)^scenario=.*$", "scenario=overall", meta.read_text()))
    out = tmp_path / "out"
    args = {
        "train": ["train", "--data", str(data), "--config", str(workspace["cfg"]), "--out", str(out)],
        "eval": ["eval", "--data", str(data), "--ckpt", str(workspace["ckpt"]), "--report", str(out)],
    }[command]
    assert cli.main(args) == cli.EXIT_BAD_INPUT
    assert not out.exists()


def test_train_rejects_a_removed_key_with_another_value(workspace, tmp_path):
    cfg = tmp_path / "two-layers.cfg"
    cfg.write_text(workspace["cfg"].read_text() + "fusion.n_layers = 2\n")
    out = tmp_path / "m.lsck"
    assert cli.main(["train", "--data", str(workspace["data"]), "--config", str(cfg),
                     "--out", str(out)]) == cli.EXIT_BAD_INPUT
    assert not out.exists()


def test_train_one_sample_training_split_is_bad_input(workspace, tmp_path):
    # two samples of one scenario split 1/0/1: one sample makes no batch-norm batch
    data = tmp_path / "two"
    for name in ("sample_000000", "sample_000004"):
        shutil.copytree(workspace["data"] / name, data / name)
    out = tmp_path / "m.lsck"
    assert cli.main(["train", "--data", str(data), "--config", str(workspace["cfg"]),
                     "--out", str(out)]) == cli.EXIT_BAD_INPUT
    assert not out.exists()


def test_train_empty_validation_split_is_bad_input(workspace, tmp_path):
    # three samples per scenario split 1/0/2: no validation sample to choose the best epoch by
    data = tmp_path / "twelve"
    for i in range(12):
        shutil.copytree(workspace["data"] / f"sample_{i:06d}", data / f"sample_{i:06d}")
    out = tmp_path / "m.lsck"
    assert cli.main(["train", "--data", str(data), "--config", str(workspace["cfg"]),
                     "--out", str(out)]) == cli.EXIT_BAD_INPUT
    assert not out.exists() and not (tmp_path / "history.txt").exists()


def test_train_ablation_bypasses_fusion(workspace, tmp_path):
    # the no-fusion variant is chosen by its config key alone
    ckpt = tmp_path / "ablation.lsck"
    assert cli.main(["train", "--data", str(workspace["data"]), "--config", str(workspace["cfg"]),
                     "--out", str(ckpt), "--ablation", "no-fusion"]) == cli.EXIT_USAGE
    nofusion = tmp_path / "nofusion.cfg"
    nofusion.write_text(workspace["cfg"].read_text(encoding="utf-8") + "model.fusion_bypass = true\n",
                        encoding="utf-8")
    assert cli.main(["train", "--data", str(workspace["data"]), "--config",
                     str(nofusion), "--out", str(ckpt)]) == cli.EXIT_OK
    cfg_text, loaded, _ = TR.load_checkpoint(ckpt)
    assert C.parse_config(cfg_text).model.fusion_bypass is True
    fusion_keys = [k for k in loaded.params if k.startswith("fusion.")]
    assert sorted(fusion_keys) == ["fusion.proj.bias", "fusion.proj.weight"]


def test_train_divergence_exits_numeric(workspace, tmp_path):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(workspace["cfg"].read_text() + "train.lr_early = 1e30\n", encoding="utf-8")
    out = tmp_path / "run" / "m.lsck"
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow is the divergence under test
        status = cli.main(["train", "--data", str(workspace["data"]), "--config", str(cfg), "--out", str(out)])
    assert status == cli.EXIT_NUMERIC
    assert not out.parent.exists()


def _poisoned_copy(data: Path, root: Path, sample: str, name: str, value: float) -> Path:
    """A copy of the dataset with one value of one sample array replaced."""
    copy = root / "poisoned"
    shutil.copytree(data, copy)
    path = copy / sample / f"{name}.lstf"
    arr = formats.read_lstf(path)
    arr.flat[0] = value
    formats.write_lstf(path, arr)
    return copy


def test_train_on_a_non_finite_sample_is_bad_input(workspace, tmp_path, capsys):
    data = _poisoned_copy(workspace["data"], tmp_path, "sample_000000", "depth", np.inf)
    out = tmp_path / "run" / "m.lsck"
    assert cli.main(["train", "--data", str(data), "--config", str(workspace["cfg"]),
                     "--out", str(out)]) == cli.EXIT_BAD_INPUT
    assert str(Path("sample_000000", "depth.lstf")) in capsys.readouterr().err
    assert not out.parent.exists()


def test_eval_on_a_non_finite_sample_is_bad_input(workspace, tmp_path, capsys):
    # 24 mixed samples: sample 23 is the last campus_day sample, in the test split
    data = _poisoned_copy(workspace["data"], tmp_path, "sample_000023", "camera", np.nan)
    report = tmp_path / "report.txt"
    assert cli.main(["eval", "--data", str(data), "--ckpt", str(workspace["ckpt"]),
                     "--report", str(report)]) == cli.EXIT_BAD_INPUT
    assert str(Path("sample_000023", "camera.lstf")) in capsys.readouterr().err
    assert not report.exists()


def test_eval_of_a_checkpoint_holding_a_nan_is_bad_input(workspace, tmp_path, capsys):
    # a NaN decoder bias makes every prediction NaN, so no MMSE of the report is finite
    config_text, tensors = formats.read_lsck(workspace["ckpt"])
    tensors["decoder.fc.bias"][0] = np.nan
    ckpt = tmp_path / "nan.lsck"
    formats.write_lsck(ckpt, config_text, tensors)
    report = tmp_path / "report.txt"
    assert cli.main(["eval", "--data", str(workspace["data"]), "--ckpt", str(ckpt),
                     "--report", str(report)]) == cli.EXIT_BAD_INPUT
    assert "test sample 0 (" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize(
    "command, sample, name",
    [("train", "sample_000000", "target_raster"), ("eval", "sample_000023", "range_angle")],
)
def test_a_missing_array_of_a_sample_the_stage_reads_is_bad_input(workspace, tmp_path, capsys, command, sample, name):
    # sample 0 is in the training split, sample 23 in the test split
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    (data / sample / f"{name}.lstf").unlink()
    out = tmp_path / "out" / "file"
    argv = {"train": ["--config", str(workspace["cfg"]), "--out", str(out)],
            "eval": ["--ckpt", str(workspace["ckpt"]), "--report", str(out)]}[command]
    assert cli.main([command, "--data", str(data), *argv]) == cli.EXIT_BAD_INPUT
    assert str(Path(sample, f"{name}.lstf")) in capsys.readouterr().err
    assert not out.parent.exists()


def test_train_does_not_read_the_test_split(workspace, tmp_path):
    # sample 23 is in the test split: train never reads it, so a NaN there changes nothing
    data = _poisoned_copy(workspace["data"], tmp_path, "sample_000023", "camera", np.nan)
    out = tmp_path / "run" / "model.lsck"
    assert cli.main(["train", "--data", str(data), "--config", str(workspace["cfg"]),
                     "--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == workspace["ckpt"].read_bytes()


def test_train_missing_dataset_is_bad_input(workspace, tmp_path):
    assert cli.main(["train", "--data", str(tmp_path / "empty"), "--config",
                     str(workspace["cfg"]), "--out", str(tmp_path / "m.lsck")]) == cli.EXIT_BAD_INPUT


# -- render / dump-config -----------------------------------------------------------


def test_render_writes_pgm(tmp_path, workspace):
    raster = workspace["data"] / "sample_000000" / "target_raster.lstf"
    out = tmp_path / "view.pgm"
    assert cli.main(["render", "--raster", str(raster), "--out", str(out)]) == cli.EXIT_OK
    payload = out.read_bytes()
    assert payload.startswith(b"P5")
    arr = formats.read_lstf(raster)
    header, _, pixels = payload.partition(b"255\n")
    assert f"{arr.shape[1]} {arr.shape[0]}".encode() in header
    assert len(pixels) == arr.size


def test_render_rejects_non_2d(tmp_path, workspace):
    cube = workspace["data"] / "sample_000000" / "radar_cube.lstf"
    assert cli.main(["render", "--raster", str(cube),
                     "--out", str(tmp_path / "x.pgm")]) == cli.EXIT_BAD_INPUT


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_render_rejects_non_finite(tmp_path, bad):
    raster = tmp_path / "r.lstf"
    formats.write_lstf(raster, np.array([[1.0, bad], [2.0, 3.0]], dtype=np.float32))
    out = tmp_path / "r.pgm"
    assert cli.main(["render", "--raster", str(raster), "--out", str(out)]) == cli.EXIT_BAD_INPUT
    assert not out.exists()


def test_dump_config_round_trips(tmp_path, capsys):
    out = tmp_path / "defaults.cfg"
    assert cli.main(["dump-config", "--out", str(out)]) == cli.EXIT_OK
    assert C.parse_config(out.read_text()).raw == C.default_config().raw

    assert cli.main(["dump-config", "--toy"]) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert C.parse_config(text).raw == C.toy_config().raw


# -- scripts/run_toy_experiment.py --------------------------------------------------


def test_toy_experiment_script_leaves_only_its_three_artifacts(tmp_path):
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_toy_experiment.py"
    spec = importlib.util.spec_from_file_location("run_toy_experiment", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "toy"
    # five samples per scenario split 3/1/1: the smallest set with a validation split
    assert script.main(["--samples", "20", "--epochs", "1", "--ablation", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["history.txt", "model.lsck", "report.txt"]
    assert len((out / "history.txt").read_text().splitlines()) == 1
    report = TR.EvalReport.from_text((out / "report.txt").read_text())
    assert report.ablation_no_fusion is not None
