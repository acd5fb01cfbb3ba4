"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

Each test prints `criterion N: PASS` or `criterion N: FAIL` on the real
stdout (past pytest's capture) so the gate can be read off the run log.
"""

import time
from dataclasses import replace

import numpy as np

from helpers import GRAD_SUITE, check_case, legacy_grid, naive_dft, synthetic_dataset
from lidarsynth import config as C
from lidarsynth import training as TR
from lidarsynth.geometry import GridSpec, PolarRaster, derasterize_arrays, rasterize_with_stats
from lidarsynth.model import MODALITIES, EncoderConfig, Model, _param_shapes
from lidarsynth.radar import RadarCube, range_transform
from lidarsynth.tensor import Tensor


def _verdict(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_fft_oracle(capsys):
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst_dft = 0.0
    worst_parseval = 0.0
    for n in range(1, 65):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = range_transform(RadarCube(x.reshape(1, n, 1))).data.reshape(n)
        want = naive_dft(x)
        worst_dft = max(worst_dft, float(np.linalg.norm(got - want) / np.linalg.norm(want)))
        energy = float(np.sum(np.abs(x) ** 2))
        spectral = float(np.sum(np.abs(got) ** 2) / n)
        worst_parseval = max(worst_parseval, abs(energy - spectral) / energy)
    elapsed = time.perf_counter() - t0
    ok = worst_dft < 1e-6 and worst_parseval <= 1e-5 and elapsed < 10.0
    _verdict(
        capsys, 1, ok,
        f"dft rel err {worst_dft:.2e}, parseval rel err {worst_parseval:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_raster_round_trip(capsys):
    grid = GridSpec()
    region_rows = tuple(
        int(round((hi - lo) / step)) for lo, hi, step in grid.phi_regions
    )
    dims_ok = (grid.n_rows, grid.n_cols) == (1088, 1440) and region_rows == (220, 640, 228)

    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    exact = True
    dropped_total = 0
    for _ in range(1000):
        data = np.zeros((grid.n_rows, grid.n_cols), dtype=np.float32)
        k = int(rng.integers(0, 41))
        if k:
            rows = rng.integers(0, grid.n_rows, size=k)
            cols = rng.integers(0, grid.n_cols, size=k)
            data[rows, cols] = rng.uniform(1.0, 99.0, size=k).astype(np.float32)
        raster = PolarRaster(grid=grid, data=data)
        back, dropped = rasterize_with_stats(derasterize_arrays(raster), grid)
        dropped_total += dropped
        if not np.array_equal(back.data, data):
            exact = False
            break
    elapsed = time.perf_counter() - t0
    ok = dims_ok and exact and dropped_total == 0 and elapsed < 30.0
    _verdict(
        capsys, 2, ok,
        f"dims {(grid.n_rows, grid.n_cols)}, regions {region_rows}, "
        f"bit-exact {exact}, dropped {dropped_total}, {elapsed:.2f}s",
    )


def test_criterion_3_gradient_suite(capsys):
    required = (
        "linear", "softmax", "attention", "layer_norm",
        "batch_norm", "conv_transpose", "relu", "mmse_loss",
    )
    counts = {
        op: sum(1 for label, _ in GRAD_SUITE if label.startswith(op)) for op in required
    }
    coverage_ok = all(v >= 3 for v in counts.values())

    t0 = time.perf_counter()
    failures = []
    for label, factory in GRAD_SUITE:
        try:
            check_case(label, factory)
        except AssertionError:
            failures.append(label)
    elapsed = time.perf_counter() - t0
    ok = coverage_ok and not failures and elapsed < 120.0
    _verdict(
        capsys, 3, ok,
        f"coverage {counts}, failures {failures or 'none'}, {elapsed:.2f}s",
    )


def test_criterion_4_decoder_shapes(capsys):
    base = C.default_config().model
    shapes = {name: shape for name, shape, _, _ in _param_shapes(base)}
    chain_ok = (
        base.decoder.channel_chain == (1, 256, 128, 64, 64, 1)
        and base.seed_shape == (45, 34)
        and shapes["decoder.deconv.0.weight"] == (1, 256, 4, 4)
        and shapes["decoder.deconv.1.weight"] == (256, 128, 4, 4)
        and shapes["decoder.deconv.2.weight"] == (128, 64, 4, 4)
        and shapes["decoder.deconv.3.weight"] == (64, 64, 4, 4)
        and shapes["decoder.deconv.4.weight"] == (64, 1, 4, 4)
    )

    # real decodes at full output size; stub encoders keep construction cheap
    stub = EncoderConfig(image_size=(16, 16), patch_size=16, depth=1, n_heads=2,
                         d_model=16, ffn_dim=32)
    cfg = replace(base, encoders=dict.fromkeys(MODALITIES, stub))
    rng = np.random.default_rng(1004)
    out = Model(cfg).decode(Tensor(rng.standard_normal((2, 1024)).astype(np.float32)))
    default_ok = out.shape == (2, 1, 1440, 1088)

    legacy = replace(cfg, grid=legacy_grid())
    out2 = Model(legacy).decode(Tensor(rng.standard_normal((1, 1024)).astype(np.float32)))
    legacy_ok = out2.shape == (1, 1, 1440, 960)

    ok = chain_ok and default_ok and legacy_ok
    _verdict(
        capsys, 4, ok,
        f"chain {base.decoder.channel_chain}, default {out.shape}, legacy {out2.shape}",
    )


def test_criterion_5_loss_band(capsys):
    grid = GridSpec()
    mask = TR.weight_mask(grid, (-1.71875, 2.1875), 10.0)
    rows = np.flatnonzero(mask == 10.0)
    band_ok = (
        rows[0] == 430
        and rows[-1] == 679
        and len(rows) == 250
        and float(mask.sum()) == 250 * 10.0 + (grid.n_rows - 250) * 1.0
    )

    target = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    hand_mask = np.array([10.0, 1.0], dtype=np.float32)
    via_numpy = TR.mmse_numpy(np.zeros((2, 2), dtype=np.float32), target, hand_mask)
    via_tensor = float(TR.mmse_loss(Tensor(np.zeros((2, 2), dtype=np.float32)), target, hand_mask).data)
    hand_ok = abs(via_numpy - 18.75) < 1e-9 and abs(via_tensor - 18.75) < 1e-4

    ok = bool(band_ok and hand_ok)
    _verdict(
        capsys, 5, ok,
        f"rows [{rows[0]}, {rows[-1]}] n={len(rows)}, hand example {via_numpy} / {via_tensor}",
    )


def test_criterion_6_training_recipe(capsys, toy_cfg, toy_dataset, toy_run):
    cfg = TR.TrainConfig()
    schedule_ok = (
        all(TR.lr_for_epoch(cfg, e) == 1e-3 for e in range(1, 11))
        and all(TR.lr_for_epoch(cfg, e) == 1e-4 for e in range(11, 21))
        and [h.lr for h in toy_run.history] == [1e-3] * 10 + [1e-4] * 10
    )

    tr, va, te = TR.split(toy_dataset)
    split_ok = (len(tr), len(va), len(te)) == (120, 40, 40)
    for sid in {s.scenario_id for s in toy_dataset}:
        group = [s for s in toy_dataset if s.scenario_id == sid]
        split_ok = split_ok and all(
            a is b for a, b in zip([s for s in tr if s.scenario_id == sid], group[:30])
        )
        split_ok = split_ok and all(
            a is b for a, b in zip([s for s in va if s.scenario_id == sid], group[30:40])
        )
        split_ok = split_ok and all(
            a is b for a, b in zip([s for s in te if s.scenario_id == sid], group[40:])
        )

    # 120 training samples at batch 32 -> 4 optimizer steps/epoch, 80 over 20 epochs
    store = toy_run.model.store
    batch_ok = cfg.batch_size == 32 and toy_cfg.train.batch_size == 32 and store.t == 80

    ok = schedule_ok and split_ok and batch_ok
    _verdict(
        capsys, 6, ok,
        f"schedule {schedule_ok}, split {split_ok}, batch steps {store.t}",
    )


def test_criterion_7_toy_end_to_end(capsys, toy_cfg, toy_dataset, toy_run, timings):
    t0 = time.perf_counter()
    dataset_ok = len(toy_dataset) == 200 and len({s.scenario_id for s in toy_dataset}) == 4

    history = toy_run.history
    ratio = history[-1].train_mmse / history[0].train_mmse
    a_ok = len(history) == 20 and ratio <= 0.50

    _, _, test = TR.split(toy_dataset, toy_cfg.split)
    model = TR.model_from_checkpoint(toy_cfg.model, toy_run.best)
    report = TR.evaluate(model, test, toy_cfg.train, toy_cfg.train.batch_size)
    b_ok = report.overall <= 0.70 * report.baseline_zeros

    # the no-fusion ablation: same data, split and schedule, fusion layer skipped
    ablation_cfg = replace(toy_cfg.model, fusion_bypass=True)
    ablation_run = TR.train(toy_dataset, ablation_cfg, toy_cfg.train, toy_cfg.split)
    ablation_model = TR.model_from_checkpoint(ablation_cfg, ablation_run.best)
    ablation_report = TR.evaluate(ablation_model, test, toy_cfg.train, toy_cfg.train.batch_size)
    merged = replace(report, ablation_no_fusion=ablation_report.overall)
    parsed = TR.EvalReport.from_text(merged.to_text())  # text keeps 6 decimals
    c_ok = (
        len(ablation_run.history) == 20
        and set(ablation_report.per_scenario) == set(report.per_scenario)
        and np.isfinite(ablation_report.overall)
        and all(np.isfinite(v) for v in ablation_report.per_scenario.values())
        and set(parsed.per_scenario) == set(report.per_scenario)
        and abs(parsed.ablation_no_fusion - ablation_report.overall) < 1e-5
        and abs(parsed.overall - report.overall) < 1e-5
    )

    local = time.perf_counter() - t0
    total = timings.get("toy_dataset", 0.0) + timings.get("toy_train", 0.0) + local
    time_ok = total < 600.0

    ok = dataset_ok and a_ok and b_ok and c_ok and time_ok
    _verdict(
        capsys, 7, ok,
        f"train ratio {ratio:.3f} (<=0.50), test {report.overall:.2f} vs zeros "
        f"{report.baseline_zeros:.2f} (<=0.70x), ablation {ablation_report.overall:.2f}, "
        f"{total:.1f}s",
    )


def test_criterion_8_determinism(capsys, toy_cfg, toy_dataset, toy_run):
    regenerated = synthetic_dataset(
        200, "mixed", toy_cfg.grid, toy_cfg.radar, toy_cfg.cam_width, toy_cfg.cam_height, seed=0
    )
    rerun = TR.train(regenerated, toy_cfg.model, toy_cfg.train, toy_cfg.split)
    worst = 0.0
    for a, b in zip(toy_run.history, rerun.history):
        worst = max(
            worst,
            abs(a.train_mmse - b.train_mmse) / max(abs(a.train_mmse), 1e-12),
            abs(a.val_mmse - b.val_mmse) / max(abs(a.val_mmse), 1e-12),
        )
    ok = len(rerun.history) == len(toy_run.history) and worst <= 1e-5
    _verdict(capsys, 8, ok, f"worst relative history drift {worst:.2e}")
