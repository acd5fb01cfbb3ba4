"""Loss, masking, splits, schedule, training loop, checkpoints, evaluation."""

import gc
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

from lidarsynth import config as C
from lidarsynth import formats
from lidarsynth import model as M
from lidarsynth import tensor as T
from lidarsynth import training as TR
from lidarsynth.geometry import GridSpec
from lidarsynth.model import EMBED_DIM, Model, MODALITIES
from lidarsynth.optim import adam_step
from lidarsynth.synthgen import PROFILE_ORDER, PROFILES, export_sample, generate_scene, plan_scenes
from lidarsynth.tensor import Tensor

from helpers import glibc_mallopt, grad_norms, synthetic_dataset


# -- weight mask --------------------------------------------------------------------


def test_weight_mask_matches_row_center_oracle(toy_cfg):
    grid = toy_cfg.grid
    band = (-1.71875, 2.1875)
    mask = TR.weight_mask(grid, band, 10.0)
    centers = grid.row_centers()
    want = np.where((centers >= band[0]) & (centers < band[1]), 10.0, 1.0)
    np.testing.assert_array_equal(mask, want.astype(np.float32))
    rows = np.flatnonzero(mask == 10.0)
    assert rows[0] == 46 and rows[-1] == 76


def test_weight_mask_default_grid_rows():
    grid = GridSpec()
    mask = TR.weight_mask(grid, (-1.71875, 2.1875), 10.0)
    rows = np.flatnonzero(mask == 10.0)
    assert rows[0] == 430
    assert rows[-1] == 679
    assert len(rows) == 250
    assert (mask[np.flatnonzero(mask != 10.0)] == 1.0).all()


def test_weight_mask_rejects_bad_bands(toy_cfg):
    with pytest.raises(ValueError):
        TR.weight_mask(toy_cfg.grid, (2.0, 2.0), 10.0)
    with pytest.raises(ValueError):
        TR.weight_mask(toy_cfg.grid, (-70.0, 0.0), 10.0)
    with pytest.raises(ValueError):
        TR.weight_mask(toy_cfg.grid, (0.0, 80.0), 10.0)


# -- loss ---------------------------------------------------------------------------


def test_mmse_hand_example():
    # rows weighted 10 and 1: (10*1 + 10*4 + 1*9 + 1*16) / 4 = 18.75
    target = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    pred = np.zeros((2, 2), dtype=np.float32)
    mask = np.array([10.0, 1.0], dtype=np.float32)
    assert TR.mmse_numpy(pred, target, mask) == pytest.approx(18.75, rel=1e-12)
    loss = TR.mmse_loss(Tensor(pred), target, mask)
    assert float(loss.data) == pytest.approx(18.75, rel=1e-6)


def test_mmse_loss_matches_numpy_twin():
    rng = np.random.default_rng(0)
    pred = rng.random((3, 6, 5)).astype(np.float32)
    target = rng.random((3, 6, 5)).astype(np.float32)
    mask = np.where(rng.random(6) < 0.5, 10.0, 1.0).astype(np.float32)
    want = TR.mmse_numpy(pred, target, mask)
    got = float(TR.mmse_loss(Tensor(pred), target, mask).data)
    assert got == pytest.approx(want, rel=1e-5)


def test_mmse_scales_quadratically():
    rng = np.random.default_rng(1)
    pred = rng.random((4, 3)).astype(np.float64)
    target = np.zeros_like(pred)
    mask = np.ones(4)
    base = TR.mmse_numpy(pred, target, mask)
    assert TR.mmse_numpy(3.0 * pred, target, mask) == pytest.approx(9.0 * base, rel=1e-12)


def test_mmse_perfect_prediction_is_zero():
    t = np.random.default_rng(2).random((5, 7))
    assert TR.mmse_numpy(t, t, np.ones(5)) == 0.0


def test_mmse_rejects_mask_length_mismatch():
    with pytest.raises(ValueError):
        TR.mmse_loss(Tensor(np.zeros((4, 3), dtype=np.float32)), np.zeros((4, 3)), np.ones(3))


# -- split --------------------------------------------------------------------------


def _fake_samples(counts: dict[str, int]) -> list[TR.Sample]:
    grid = C.toy_config().grid
    target = np.zeros((grid.n_rows, grid.n_cols))
    out = []
    for sid, n in counts.items():
        for i in range(n):
            out.append(
                TR.Sample(
                    arrays={
                        "camera": np.full((2, 2), i, dtype=np.float32),
                        "depth": np.zeros((2, 2), dtype=np.float32),
                        "range_angle": np.zeros((2, 2), dtype=np.float32),
                        "range_velocity": np.zeros((2, 2), dtype=np.float32),
                        "target_raster": target,
                    },
                    grid=grid,
                    scenario_id=sid,
                )
            )
    return out


def test_split_fractions_floor_per_scenario():
    tr, va, te = TR.split(_fake_samples({"a": 10}))
    assert (len(tr), len(va), len(te)) == (6, 2, 2)
    tr, va, te = TR.split(_fake_samples({"a": 11}))
    assert (len(tr), len(va), len(te)) == (6, 2, 3)


def test_split_counts_survive_binary_rounding_of_the_fraction():
    # 0.7 * 90 is 62.99999999999999 in binary floating point
    spec = TR.SplitSpec(train=0.7, val=0.2)
    assert [len(part) for part in TR.split(_fake_samples({"a": 90}), spec)] == [63, 18, 9]


def test_split_default_counts_are_the_exact_floors():
    for n in range(1, 1001):
        samples = _fake_samples({"a": n})
        assert [len(part) for part in TR.split(samples)] == [6 * n // 10, 2 * n // 10, n - 6 * n // 10 - 2 * n // 10]


def test_split_is_sequential_and_partitions():
    samples = _fake_samples({"a": 10, "b": 7})
    tr, va, te = TR.split(samples)
    ids = lambda part, sid: [s.modality("camera")[0, 0] for s in part if s.scenario_id == sid]
    assert ids(tr, "a") == list(range(6))
    assert ids(va, "a") == [6.0, 7.0]
    assert ids(te, "a") == [8.0, 9.0]
    # 7 samples: floor(4.2)=4 train, floor(1.4)=1 val, 2 test
    assert ids(tr, "b") == list(range(4))
    assert ids(va, "b") == [4.0]
    assert ids(te, "b") == [5.0, 6.0]
    assert len(tr) + len(va) + len(te) == len(samples)


def test_split_spec_validation():
    # test gets the rest, so a test fraction that leaves some over is rejected in the config
    assert TR.SplitSpec(train=0.5, val=0.2) == C.parse_config("split.train = 0.5\n").split
    with pytest.raises(ValueError):
        C.parse_config("split.train = 0.5\nsplit.val = 0.2\nsplit.test = 0.2\n")
    with pytest.raises(ValueError):
        TR.SplitSpec(train=1.2, val=-0.1)
    with pytest.raises(ValueError):
        TR.SplitSpec(train=0.9, val=0.2)
    TR.SplitSpec(train=0.7, val=0.3)  # leaving nothing for test is allowed


# -- schedule and config ------------------------------------------------------------


def test_lr_schedule_switches_after_epoch_ten():
    cfg = TR.TrainConfig()
    assert [TR.lr_for_epoch(cfg, e) for e in (1, 5, 10)] == [1e-3] * 3
    assert [TR.lr_for_epoch(cfg, e) for e in (11, 15, 20)] == [1e-4] * 3
    with pytest.raises(ValueError):
        TR.lr_for_epoch(cfg, 0)


def test_train_config_defaults_and_validation():
    cfg = TR.TrainConfig()
    assert cfg.batch_size == 32
    assert cfg.epochs == 20
    assert cfg.band == (-1.71875, 2.1875)
    assert cfg.alpha == 10.0
    with pytest.raises(ValueError):
        TR.TrainConfig(batch_size=1)
    with pytest.raises(ValueError):
        TR.TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TR.TrainConfig(alpha=0.0)
    with pytest.raises(ValueError):
        TR.TrainConfig(band=(3.0, -1.0))


# -- training loop ------------------------------------------------------------------


def test_training_history_shape_and_best(tiny_run, tiny_cfg):
    history = tiny_run.history
    assert len(history) == tiny_cfg.train.epochs
    assert [h.epoch for h in history] == list(range(1, len(history) + 1))
    for h in history:
        assert h.lr == TR.lr_for_epoch(tiny_cfg.train, h.epoch)
        assert np.isfinite(h.train_mmse) and np.isfinite(h.val_mmse)
    best_val = min(h.val_mmse for h in history)
    assert tiny_run.best.val_mmse == pytest.approx(best_val, rel=1e-12)


def test_training_loss_decreases(tiny_run):
    history = tiny_run.history
    assert history[-1].train_mmse < history[0].train_mmse


def test_training_is_deterministic(tiny_cfg, tiny_dataset):
    rerun = TR.train(tiny_dataset, tiny_cfg.model, tiny_cfg.train, tiny_cfg.split)
    again = TR.train(tiny_dataset, tiny_cfg.model, tiny_cfg.train, tiny_cfg.split)
    for a, b in zip(rerun.history, again.history):
        assert a.train_mmse == b.train_mmse
        assert a.val_mmse == b.val_mmse


def test_each_training_step_starts_with_no_graph_alive(monkeypatch, tiny_cfg, tiny_dataset):
    # a step's autodiff graph must be gone before the next step's forward pass
    forward_batch = Model.forward_batch
    graph_nodes = []

    def counting(self, *args, train_rng=None, **kwargs):
        if train_rng is not None:
            gc.collect()
            graph_nodes.append(sum(1 for o in gc.get_objects() if isinstance(o, Tensor) and o._parents))
        return forward_batch(self, *args, train_rng=train_rng, **kwargs)

    monkeypatch.setattr(Model, "forward_batch", counting)
    TR.train(tiny_dataset, tiny_cfg.model, replace(tiny_cfg.train, epochs=2, batch_size=8), tiny_cfg.split)
    assert len(graph_nodes) > 2
    assert graph_nodes == [0] * len(graph_nodes)


def test_training_steps_reuse_the_heap_without_page_faults(tiny_cfg):
    # loading the package keeps freed memory mapped, so a batch-32 toy step
    # reuses the previous step's temporaries; without it glibc trims the heap
    # top and every step faults about 8.5k pages back
    resource = pytest.importorskip("resource")
    if glibc_mallopt() is None:
        pytest.skip("the C library has no mallopt")
    grid, cfg = tiny_cfg.grid, tiny_cfg.train
    model = Model(tiny_cfg.model)
    rng = np.random.default_rng(0)
    emb = rng.standard_normal((32, len(MODALITIES), EMBED_DIM)).astype(np.float32)
    targets = rng.random((32, grid.n_rows, grid.n_cols)).astype(np.float32)
    mask = TR.weight_mask(grid, cfg.band, cfg.alpha)
    dropout_rng = np.random.default_rng(1)
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        TR._step_loss(model, emb, targets, mask, dropout_rng)
        adam_step(model.store, cfg.lr_early)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000


def test_training_diverges_on_nan_input(tiny_cfg, tiny_dataset):
    corrupted = list(tiny_dataset)
    bad_cam = corrupted[0].modality("camera").copy()
    bad_cam[0, 0] = np.nan
    corrupted[0] = replace(corrupted[0], arrays={**corrupted[0].arrays, "camera": bad_cam})
    cfg = replace(tiny_cfg.train, epochs=1)
    with pytest.raises(TR.TrainingDiverged):
        TR.train(corrupted, tiny_cfg.model, cfg, tiny_cfg.split)


def test_train_rejects_empty_split(tiny_cfg):
    with pytest.raises(ValueError):
        TR.train([], tiny_cfg.model, tiny_cfg.train, tiny_cfg.split)


def test_train_rejects_one_sample_training_split(tiny_cfg, tiny_dataset):
    # two samples of one scenario split 1/0/1; one sample makes no batch, so
    # training would take no step and report a loss of 0
    pair = [tiny_dataset[0], tiny_dataset[4]]
    assert pair[0].scenario_id == pair[1].scenario_id
    assert [len(part) for part in TR.split(pair, tiny_cfg.split)] == [1, 0, 1]
    with pytest.raises(ValueError, match="at least 2"):
        TR.train(pair, tiny_cfg.model, tiny_cfg.train, tiny_cfg.split)


def test_train_rejects_empty_validation_split(tiny_cfg, tiny_dataset):
    # three samples per scenario split 1/0/2; validation MMSE picks the best
    # epoch, so there is nothing to pick it by
    twelve = tiny_dataset[:12]
    assert [len(part) for part in TR.split(twelve, tiny_cfg.split)] == [4, 0, 8]
    with pytest.raises(ValueError, match="validation split is empty"):
        TR.train(twelve, tiny_cfg.model, tiny_cfg.train, tiny_cfg.split)


def _embed_in_chunks_of(monkeypatch, cfg: M.ModelConfig, chunk: int) -> None:
    """Shrink the row budget so that ``_cached_embeddings`` embeds ``chunk`` samples per call."""
    longest = max(enc.n_patches + 1 for enc in cfg.encoders.values())
    monkeypatch.setattr(TR, "_EMBED_ROWS", chunk * longest)
    assert TR._embed_chunk(cfg) == chunk


def _embed_call_sizes(monkeypatch) -> list[int]:
    """Record the samples of every later ``Model.embed`` call, in call order."""
    sizes: list[int] = []
    embed = Model.embed

    def counting(self, batch):
        sizes.append(len(batch[MODALITIES[0]]))
        return embed(self, batch)

    monkeypatch.setattr(Model, "embed", counting)
    return sizes


def test_embed_chunks_hold_the_paper_config_to_32_samples_and_a_toy_split_in_one(monkeypatch):
    assert TR._embed_chunk(C.default_config().model) <= 32
    assert TR._embed_chunk(C.toy_config().model) >= 200
    # a budget under one sequence still embeds one sample per call
    monkeypatch.setattr(TR, "_EMBED_ROWS", 1)
    assert TR._embed_chunk(C.toy_config().model) == 1


def test_cached_embeddings_match_per_sample_embed(monkeypatch, tiny_cfg, tiny_dataset):
    model = Model(tiny_cfg.model)
    samples = tiny_dataset[:7]  # two full chunks of 3 and a trailing chunk of 1
    _embed_in_chunks_of(monkeypatch, tiny_cfg.model, 3)
    sizes = _embed_call_sizes(monkeypatch)
    cached = TR._cached_embeddings(model, samples)
    assert sizes == [3, 3, 1]
    assert cached.shape == (7, len(MODALITIES), EMBED_DIM)
    with T.no_grad():
        batched = model.embed(TR._batch_arrays(samples, np.arange(len(samples)))).data
        # each chunk is one embed call: its rows are the cache's rows bit for bit
        for start in range(0, len(samples), 3):
            idx = np.arange(start, min(start + 3, len(samples)))
            np.testing.assert_array_equal(cached[idx], model.embed(TR._batch_arrays(samples, idx)).data)
    # other batch sizes agree up to the GEMM's summation order
    np.testing.assert_allclose(cached, batched, rtol=0, atol=1e-5)
    for i, s in enumerate(samples):
        single = model.embed({name: s.modality(name)[None] for name in MODALITIES}).data
        assert single.shape == (1, len(MODALITIES), EMBED_DIM)
        np.testing.assert_allclose(batched[i], single[0], rtol=0, atol=1e-5)


def test_train_embeds_its_training_and_validation_splits_in_one_call(monkeypatch, tiny_cfg, tiny_dataset):
    tr, va, _ = TR.split(tiny_dataset, tiny_cfg.split)
    sizes = _embed_call_sizes(monkeypatch)
    TR.train(tiny_dataset, tiny_cfg.model, replace(tiny_cfg.train, epochs=1), tiny_cfg.split)
    assert sizes == [len(tr) + len(va)]


def test_evaluate_embeds_its_split_in_one_call(monkeypatch, tiny_cfg, tiny_dataset):
    _, _, test = TR.split(tiny_dataset, tiny_cfg.split)
    model = Model(tiny_cfg.model)
    sizes = _embed_call_sizes(monkeypatch)
    TR.evaluate(model, test, tiny_cfg.train, batch_size=3)
    assert sizes == [len(test)]


@pytest.mark.parametrize("bad_epoch, value", [(1, np.nan), (3, np.inf)], ids=["nan_first", "inf_later"])
def test_a_non_finite_validation_mmse_aborts_naming_its_epoch(monkeypatch, tiny_cfg, tiny_dataset, bad_epoch, value):
    # NaN compares False against every MMSE, so a NaN epoch kept as best would stay best
    eval_mmse = TR._eval_mmse
    epochs: list[int] = []

    def failing(*args):
        epochs.append(len(epochs) + 1)
        return value if len(epochs) == bad_epoch else eval_mmse(*args)

    monkeypatch.setattr(TR, "_eval_mmse", failing)
    with pytest.raises(TR.TrainingDiverged, match=rf"at epoch {bad_epoch}$"):
        TR.train(tiny_dataset, tiny_cfg.model, replace(tiny_cfg.train, epochs=4), tiny_cfg.split)
    assert epochs[-1] == bad_epoch


def test_eval_mmse_from_raw_samples_matches_forward_batch_oracle(monkeypatch, tiny_cfg, tiny_dataset):
    # embeddings cached over the same chunks as the raw forward_batch oracle
    cfg = tiny_cfg.model
    model = Model(cfg)
    _embed_in_chunks_of(monkeypatch, cfg, 3)
    bn_before = model.bn_state_arrays()
    samples = tiny_dataset[:7]
    targets = np.stack([s.target.data for s in samples]) / np.float32(cfg.grid.max_range)
    mask = TR.weight_mask(cfg.grid, tiny_cfg.train.band, tiny_cfg.train.alpha)

    got = TR._eval_mmse(model, TR._cached_embeddings(model, samples), targets, mask, batch_size=3)
    for name, arr in model.bn_state_arrays().items():
        np.testing.assert_array_equal(arr, bn_before[name])

    per_sample = []
    with T.no_grad():
        for start in range(0, len(samples), 3):
            chunk = samples[start : start + 3]
            batch = {name: np.stack([s.modality(name) for s in chunk]) for name in MODALITIES}
            out = model.forward_batch(batch).data
            per_sample += [TR.mmse_numpy(o, t, mask) for o, t in zip(out, targets[start : start + 3])]
    assert got == np.mean(per_sample)


# -- step-one golden ---------------------------------------------------------------

# loss and per-component gradient L2 norms of the first training step below,
# before any Adam update; a rounding-level change stays well inside 1e-4
# relative, while a wiring or scaling fault in one component moves its norm
STEP_ONE_GOLDEN = {
    "loss": 0.2500857,
    "fusion.type_embed": 0.005880044,
    "fusion.layers.0.ln1": 0.002044069,
    "fusion.layers.0.attn": 0.06687096,
    "fusion.layers.0.ln2": 0.002363845,
    "fusion.layers.0.ffn": 0.1217718,
    "fusion.final_ln": 0.004713315,
    "fusion.proj": 0.1688522,
    "decoder.fc": 0.1716117,
    "decoder.deconv.0": 0.1184244,
    "decoder.bn.0": 0.002915963,
    "decoder.deconv.1": 0.09259381,
    "decoder.bn.1": 0.004470778,
    "decoder.deconv.2": 0.107409,
    "decoder.bn.2": 0.002722179,
    "decoder.deconv.3": 0.1330748,
    "decoder.bn.3": 0.01616036,
    "decoder.deconv.4": 0.5059265,
}


def test_step_one_loss_and_gradient_norms_match_golden(toy_cfg):
    # four toy samples (one per profile), the toy model at its config seed,
    # one batch of all four, dropout drawn from a generator seeded 5
    samples = synthetic_dataset(
        4, "mixed", toy_cfg.grid, toy_cfg.radar, toy_cfg.cam_width, toy_cfg.cam_height, seed=11
    )
    model = Model(toy_cfg.model)
    assert toy_cfg.train.normalize_ranges
    targets = np.array([s.target.data for s in samples], dtype=np.float32) / toy_cfg.grid.max_range
    mask = TR.weight_mask(toy_cfg.grid, toy_cfg.train.band, toy_cfg.train.alpha)
    emb = TR._cached_embeddings(model, samples)
    out = model.forward_batch(embeddings=Tensor(emb), train_rng=np.random.default_rng(5))
    loss = TR.mmse_loss(out, targets, mask)
    loss.backward()
    got = {"loss": float(loss.data), **grad_norms(model.store)}
    assert got.keys() == STEP_ONE_GOLDEN.keys()
    for key, want in STEP_ONE_GOLDEN.items():
        assert got[key] == pytest.approx(want, rel=1e-4), key


def test_whole_model_gradient_matches_central_differences_along_random_directions(monkeypatch):
    # a mini model (narrow fusion feedforward and latent, thin decoder) on one
    # fixed batch of four toy samples; every loss evaluation redraws dropout
    # from a generator seeded 5, so all of them see the same mask
    for name, value in (("FUSION_HEADS", 4), ("FUSION_FFN_DIM", 32), ("LATENT_DIM", 32)):
        monkeypatch.setattr(M, name, value)
    cfg = C.toy_config(overrides={"decoder.filters": "4,4,2,2"})
    samples = synthetic_dataset(4, "mixed", cfg.grid, cfg.radar, cfg.cam_width, cfg.cam_height, seed=11)
    model = Model(cfg.model)
    store = model.store
    targets = np.array([s.target.data for s in samples], dtype=np.float32) / cfg.grid.max_range
    mask = TR.weight_mask(cfg.grid, cfg.train.band, cfg.train.alpha)
    emb = Tensor(TR._cached_embeddings(model, samples))

    def loss():
        out = model.forward_batch(embeddings=emb, train_rng=np.random.default_rng(5))
        return TR.mmse_loss(out, targets, mask)

    loss().backward()
    grads = store.grads.astype(np.float64)
    # the differences run in float64: every trainable tensor views `theta`, the arena's float64 twin
    theta = store.values.astype(np.float64)
    lo = 0
    for name in store.trainable_names():
        p = store[name]
        p.data = theta[lo : lo + p.size].reshape(p.shape)
        lo += p.size
    base = theta.copy()

    def loss_at(point):
        theta[:] = point
        with T.no_grad():
            return float(loss().data)

    # step and bound from a sweep over 32 directions: for h from 1e-6 to 1e-4
    # the worst relative error was 8.0e-5 (the float32 rounding of the
    # gradient); it was 3.3e-4 at h = 3e-4 and passed 1e-3 for h >= 1e-3,
    # where the curvature shows
    h = 1e-4
    rng = np.random.default_rng(0)
    for _ in range(4):
        v = rng.standard_normal(base.size)
        v /= np.linalg.norm(v)
        numeric = (loss_at(base + h * v) - loss_at(base - h * v)) / (2.0 * h)
        analytic = float(grads @ v)
        assert abs(numeric - analytic) <= 1e-3 * abs(analytic), (numeric, analytic)


# -- checkpoints --------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, tiny_run, tiny_cfg):
    path = tmp_path / "model.lsck"
    cfg_text = C.config_text(tiny_cfg)
    adam = {"fusion.proj.weight.m": np.arange(6, dtype=np.float32).reshape(2, 3)}
    TR.save_checkpoint(path, cfg_text, tiny_run.best, adam=adam)

    text, ckpt, adam_back = TR.load_checkpoint(path)
    assert text == cfg_text
    assert ckpt.epoch == tiny_run.best.epoch
    assert ckpt.val_mmse == pytest.approx(tiny_run.best.val_mmse, rel=1e-6)
    assert set(ckpt.params) == set(tiny_run.best.params)
    for name, arr in tiny_run.best.params.items():
        np.testing.assert_array_equal(ckpt.params[name], arr)
    assert set(ckpt.bn_state) == set(tiny_run.best.bn_state)
    for name in ckpt.bn_state:
        assert ".running_mean" in name or ".running_var" in name
        np.testing.assert_array_equal(ckpt.bn_state[name], tiny_run.best.bn_state[name])
    np.testing.assert_array_equal(adam_back["fusion.proj.weight.m"], adam["fusion.proj.weight.m"])


def test_checkpoint_without_adam_loads_empty_dict(tmp_path, tiny_run, tiny_cfg):
    path = tmp_path / "model.lsck"
    TR.save_checkpoint(path, C.config_text(tiny_cfg), tiny_run.best)
    _, _, adam = TR.load_checkpoint(path)
    assert adam == {}


def test_load_checkpoint_requires_meta_state(tmp_path):
    path = tmp_path / "no-meta.lsck"
    formats.write_lsck(path, "", {"decoder.fc.bias": np.ones(4, dtype=np.float32)})
    with pytest.raises(formats.MalformedFileError, match="meta.state"):
        TR.load_checkpoint(path)


@pytest.mark.parametrize("shape", [(1,), (3,), (2, 1)])
def test_load_checkpoint_rejects_malformed_meta_state(tmp_path, shape):
    path = tmp_path / "model.lsck"
    formats.write_lsck(path, "", {"meta.state": np.ones(shape, dtype=np.float32)})
    with pytest.raises(formats.MalformedFileError, match="meta.state"):
        TR.load_checkpoint(path)


def test_model_from_checkpoint_restores_predictions(tiny_run, tiny_cfg, tiny_dataset):
    final = TR._snapshot(tiny_run.model, len(tiny_run.history), tiny_run.history[-1].val_mmse)
    model = TR.model_from_checkpoint(tiny_cfg.model, final)
    for name in model.store.params:
        np.testing.assert_array_equal(model.store[name].data, tiny_run.model.store[name].data)
    _, _, test = TR.split(tiny_dataset, tiny_cfg.split)
    a = TR.evaluate(model, test, tiny_cfg.train, tiny_cfg.train.batch_size)
    b = TR.evaluate(tiny_run.model, test, tiny_cfg.train, tiny_cfg.train.batch_size)
    assert a.overall == pytest.approx(b.overall, rel=1e-6)


def test_single_sample_forward_matches_its_batched_row(tiny_run, tiny_cfg, tiny_dataset):
    # a one-sample pass runs its few-row products one row at a time, a batched pass as GEMMs
    _, _, test = TR.split(tiny_dataset, tiny_cfg.split)
    batch = {m: np.stack([s.modality(m) for s in test]) for m in MODALITIES}
    rows = np.clip(tiny_run.model.forward_batch(batch).data, 0.0, tiny_cfg.grid.max_range)
    bound = 1e-5 * np.max(np.abs(rows))
    assert bound > 0.0
    for i, s in enumerate(test):
        raster = tiny_run.model.forward({m: s.modality(m) for m in MODALITIES})
        assert np.max(np.abs(raster.data - rows[i])) <= bound, i


def test_model_from_checkpoint_draws_no_fresh_weights(monkeypatch, tiny_run, tiny_cfg):
    def no_init(*args, **kwargs):
        raise AssertionError("init_params must not run when loading a checkpoint")

    monkeypatch.setattr(M, "init_params", no_init)
    # writable arrays, as read_lsck returns them
    ckpt = replace(tiny_run.best, params={name: arr.copy() for name, arr in tiny_run.best.params.items()})
    model = TR.model_from_checkpoint(tiny_cfg.model, ckpt)
    assert list(model.store.params) == [name for name, _, _, _ in M._param_shapes(tiny_cfg.model)]
    assert model.store.trainable_names() == tiny_run.model.store.trainable_names()
    trainable = set(model.store.trainable_names())
    for name, arr in ckpt.params.items():
        got = model.store[name].data
        if name in trainable:
            assert not np.shares_memory(got, arr)
        else:
            # a frozen float32 array is used as it is, and made read-only
            assert got is arr and not got.flags.writeable
        np.testing.assert_array_equal(got.view(np.uint32), arr.view(np.uint32))


def test_adam_step_on_loaded_model_leaves_checkpoint_unchanged(tiny_run, tiny_cfg):
    model = TR.model_from_checkpoint(tiny_cfg.model, tiny_run.best)
    trainable = model.store.trainable_names()
    before = {name: tiny_run.best.params[name].copy() for name in trainable}
    for name in trainable:
        model.store[name].grad[...] = 1.0
    adam_step(model.store, 1e-2)
    assert not np.array_equal(model.store["fusion.proj.weight"].data, before["fusion.proj.weight"])
    for name in trainable:
        np.testing.assert_array_equal(tiny_run.best.params[name], before[name])


def test_backward_leaves_no_trace_of_the_previous_step(tiny_cfg, tiny_dataset):
    batch = TR._batch_arrays(tiny_dataset, np.arange(4))
    targets = np.stack([s.target.data for s in tiny_dataset[:4]])
    mask = TR.weight_mask(tiny_cfg.grid, tiny_cfg.train.band, tiny_cfg.train.alpha)

    def backward(model):
        out = model.forward_batch(batch, train_rng=np.random.default_rng(3))
        TR.mmse_loss(out, targets, mask).backward()

    model = Model(tiny_cfg.model)
    backward(model)
    adam_step(model.store, 1e-3)
    step1 = TR.Checkpoint(
        params=model.store.copy_values(), bn_state=model.bn_state_arrays(), epoch=1, val_mmse=0.0
    )
    backward(model)
    fresh = TR.model_from_checkpoint(tiny_cfg.model, step1)
    backward(fresh)
    for name in model.store.trainable_names():
        got, want = model.store[name].grad, fresh.store[name].grad
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32), err_msg=name)


def test_model_from_checkpoint_rejects_mismatched_params(tiny_run, tiny_cfg):
    params = tiny_run.best.params
    unknown = {**params, "decoder.extra.weight": np.zeros(3, dtype=np.float32)}
    missing = {n: a for n, a in params.items() if n != "decoder.fc.bias"}
    reshaped = {**params, "decoder.fc.bias": np.zeros(3, dtype=np.float32)}
    with pytest.raises(KeyError):
        TR.model_from_checkpoint(tiny_cfg.model, replace(tiny_run.best, params=unknown))
    with pytest.raises(ValueError):
        TR.model_from_checkpoint(tiny_cfg.model, replace(tiny_run.best, params=missing))
    with pytest.raises(ValueError):
        TR.model_from_checkpoint(tiny_cfg.model, replace(tiny_run.best, params=reshaped))


def test_snapshots_share_frozen_params_and_copy_trainable_ones(tiny_cfg, tiny_dataset):
    # a run of its own: the adam_step below would change the shared tiny_run model
    result = TR.train(tiny_dataset[:20], tiny_cfg.model, replace(tiny_cfg.train, epochs=2), tiny_cfg.split)
    store = result.model.store
    trainable = store.trainable_names()
    frozen = [name for name in store.params if name not in trainable]
    assert frozen and trainable
    final = TR._snapshot(result.model, 2, result.history[-1].val_mmse)
    for snap in (result.best, final):
        for name in frozen:
            assert snap.params[name] is store[name].data
            assert not snap.params[name].flags.writeable
        for name in trainable:
            assert snap.params[name] is not store[name].data
    before = {name: (result.best.params[name].copy(), final.params[name].copy()) for name in trainable}
    for name in trainable:
        store[name].grad[...] = 1.0
    adam_step(store, 1e-2)
    for name in trainable:
        np.testing.assert_array_equal(result.best.params[name], before[name][0])
        np.testing.assert_array_equal(final.params[name], before[name][1])
    with pytest.raises(ValueError):
        store[frozen[0]].data[...] = 0.0


# -- evaluation ---------------------------------------------------------------------


def test_evaluate_matches_direct_oracle(tiny_run, tiny_cfg, tiny_dataset):
    _, _, test = TR.split(tiny_dataset, tiny_cfg.split)
    model = TR.model_from_checkpoint(tiny_cfg.model, tiny_run.best)
    report = TR.evaluate(model, test, tiny_cfg.train, tiny_cfg.train.batch_size)

    grid = tiny_cfg.grid
    mask = TR.weight_mask(grid, tiny_cfg.train.band, tiny_cfg.train.alpha)
    scale = grid.max_range if tiny_cfg.train.normalize_ranges else 1.0
    per_sample = []
    for s in test:
        batch = {n: s.modality(n)[None] for n in MODALITIES}
        pred = np.clip(model.forward_batch(batch).data[0] * scale, 0.0, grid.max_range)
        per_sample.append(TR.mmse_numpy(pred, s.target.data, mask))
    assert report.overall == pytest.approx(np.mean(per_sample), rel=1e-5)
    assert set(report.per_scenario) == {s.scenario_id for s in test}
    counts = {sid: sum(1 for s in test if s.scenario_id == sid) for sid in report.per_scenario}
    weighted = sum(report.per_scenario[sid] * counts[sid] for sid in counts) / len(test)
    assert report.overall == pytest.approx(weighted, rel=1e-6)

    zeros = np.zeros((grid.n_rows, grid.n_cols), dtype=np.float32)
    want_base = np.mean([TR.mmse_numpy(zeros, s.target.data, mask) for s in test])
    assert report.baseline_zeros == pytest.approx(want_base, rel=1e-6)


def test_evaluate_denormalizes_when_configured(toy_cfg, tiny_dataset):
    model = Model(toy_cfg.model)
    samples = tiny_dataset[:3]
    cfg_norm = TR.TrainConfig(normalize_ranges=True)
    report = TR.evaluate(model, samples, cfg_norm, batch_size=3)

    grid = toy_cfg.grid
    mask = TR.weight_mask(grid, cfg_norm.band, cfg_norm.alpha)
    batch = {n: np.stack([s.modality(n) for s in samples]) for n in MODALITIES}
    preds = np.clip(model.forward_batch(batch).data * grid.max_range, 0.0, grid.max_range)
    want = np.mean([TR.mmse_numpy(preds[i], s.target.data, mask) for i, s in enumerate(samples)])
    assert report.overall == pytest.approx(want, rel=1e-5)


def test_evaluate_refuses_an_empty_split(tiny_run, tiny_cfg):
    with pytest.raises(ValueError, match="evaluation split is empty"):
        TR.evaluate(tiny_run.model, [], tiny_cfg.train, tiny_cfg.train.batch_size)


def test_eval_report_text_round_trip():
    report = TR.EvalReport(
        per_scenario={"plaza_day": 1.25, "garage_night": 2.5},
        overall=1.875,
        baseline_zeros=10.0,
    )
    back = TR.EvalReport.from_text(report.to_text())
    assert back == report
    with_abl = replace(report, ablation_no_fusion=3.125)
    assert TR.EvalReport.from_text(with_abl.to_text()) == with_abl


def test_eval_report_rejects_malformed_text():
    with pytest.raises(ValueError):
        TR.EvalReport.from_text("plaza_day\t1.0\n")  # no overall/baseline
    with pytest.raises(ValueError):
        TR.EvalReport.from_text("overall without tab\n")


@pytest.mark.parametrize("key", ["overall", "a"])
def test_eval_report_rejects_a_repeated_line(key):
    text = "a\t1\noverall\t2\nbaseline_zeros\t3\n" + f"{key}\t9\n"
    with pytest.raises(ValueError, match=f"repeated report line '{key}'"):
        TR.EvalReport.from_text(text)


# -- dataset assembly ---------------------------------------------------------------


def test_synthetic_dataset_cycles_profiles(tiny_dataset):
    ids = [s.scenario_id for s in tiny_dataset]
    assert ids[:4] == list(PROFILE_ORDER)
    for i, sid in enumerate(ids):
        assert sid == PROFILE_ORDER[i % 4]


def test_synthetic_dataset_shapes(tiny_dataset, toy_cfg):
    s = tiny_dataset[0]
    assert s.modality("camera").shape == (toy_cfg.cam_height, toy_cfg.cam_width)
    assert s.modality("range_angle").shape == (toy_cfg.radar.n_rx, toy_cfg.radar.n_samples)
    assert s.modality("range_velocity").shape == (toy_cfg.radar.n_chirps, toy_cfg.radar.n_samples)
    assert s.target.data.shape == (toy_cfg.grid.n_rows, toy_cfg.grid.n_cols)


def test_load_dataset_round_trips_export(tmp_path, toy_cfg):
    grid, radar = toy_cfg.grid, toy_cfg.radar
    prof = PROFILES["plaza_day"]
    radar_p = replace(radar, noise_sigma=prof.noise_sigma)
    for i in range(2):
        scene = generate_scene(7 + i, prof)
        export_sample(
            scene, grid, radar_p, toy_cfg.cam_width, toy_cfg.cam_height,
            tmp_path / f"sample_{i:05d}", seed=7 + i, scenario=prof.name,
        )
    loaded = TR.load_dataset(tmp_path, grid)
    want = synthetic_dataset(
        2, "plaza_day", grid, radar, toy_cfg.cam_width, toy_cfg.cam_height, seed=7
    )
    assert len(loaded) == 2
    for got, exp in zip(loaded, want):
        assert got.scenario_id == exp.scenario_id == "plaza_day"
        for name in MODALITIES:
            np.testing.assert_array_equal(got.modality(name), exp.modality(name))
        np.testing.assert_array_equal(got.target.data, exp.target.data)


@pytest.mark.parametrize("scenario", ["overall", "baseline_zeros", "ablation_no_fusion", "a\tb"])
def test_load_dataset_rejects_a_scenario_the_report_cannot_hold(tmp_path, toy_cfg, scenario):
    # a report line per scenario: "overall" would overwrite the overall line, a tab split its key
    prof = PROFILES["plaza_day"]
    radar = replace(toy_cfg.radar, noise_sigma=prof.noise_sigma)
    for i, name in enumerate((prof.name, scenario)):
        export_sample(generate_scene(7 + i, prof), toy_cfg.grid, radar, toy_cfg.cam_width, toy_cfg.cam_height,
                      tmp_path / f"sample_{i:06d}", seed=7 + i, scenario=name)
    with pytest.raises(formats.MalformedFileError, match="sample_000001"):
        TR.load_dataset(tmp_path, toy_cfg.grid)


def _export_one(root, toy_cfg):
    """One plaza_day sample directory under root; returns its path."""
    prof = PROFILES["plaza_day"]
    radar = replace(toy_cfg.radar, noise_sigma=prof.noise_sigma)
    out = root / "sample_000000"
    export_sample(generate_scene(7, prof), toy_cfg.grid, radar, toy_cfg.cam_width, toy_cfg.cam_height,
                  out, seed=7, scenario=prof.name)
    return out


def test_load_dataset_reads_no_radar_cube(tmp_path, toy_cfg):
    (_export_one(tmp_path, toy_cfg) / "radar_cube.lstf").unlink()
    [sample] = TR.load_dataset(tmp_path, toy_cfg.grid)
    assert list(sample.arrays) == [*MODALITIES, "target_raster"] and sample.scenario_id == "plaza_day"
    for name in MODALITIES:
        assert sample.modality(name).ndim == 2
    assert sample.target.data.shape == (toy_cfg.grid.n_rows, toy_cfg.grid.n_cols)


@pytest.mark.parametrize(
    "meta, error",
    [
        (None, FileNotFoundError),
        ("seed=7\n", formats.MalformedFileError),
        ("scenario=plaza_day\nscenario=campus_day\n", formats.MalformedFileError),
    ],
    ids=["missing", "no_scenario", "two_scenarios"],
)
def test_load_dataset_needs_one_scenario_line_in_meta(tmp_path, toy_cfg, meta, error):
    meta_path = _export_one(tmp_path, toy_cfg) / "meta.txt"
    if meta is None:
        meta_path.unlink()
    else:
        meta_path.write_text(meta, encoding="utf-8")
    with pytest.raises(error, match="meta.txt"):
        TR.load_dataset(tmp_path, toy_cfg.grid)


def test_load_dataset_rejects_empty_dir(tmp_path, toy_cfg):
    with pytest.raises(ValueError):
        TR.load_dataset(tmp_path, toy_cfg.grid)


# -- which arrays each stage reads ---------------------------------------------


@pytest.fixture(scope="module")
def disk_dataset(tmp_path_factory):
    """20 mixed toy samples on disk, 5 per scenario: 3 training, 1 validation and 1 test sample each."""
    cfg = C.toy_config()
    root = tmp_path_factory.mktemp("disk_dataset")
    for i, (seed, prof, scene, radar) in enumerate(plan_scenes(20, "mixed", cfg.radar, 3)):
        export_sample(scene, cfg.grid, radar, cfg.cam_width, cfg.cam_height, root / f"sample_{i:06d}",
                      seed=seed, scenario=prof.name)
    return root


def _loaded_and_split(root, cfg):
    """The loaded samples, their split, and each sample's directory name."""
    samples = TR.load_dataset(root, cfg.grid)
    names = {id(s): f"sample_{i:06d}" for i, s in enumerate(samples)}
    return samples, TR.split(samples, cfg.split), names


def _count_reads(monkeypatch) -> list[tuple[str, str]]:
    """Wrap formats.read_lstf; the returned list gets (sample directory, array) of every read."""
    reads = []
    read = formats.read_lstf

    def counting(path):
        reads.append((Path(path).parent.name, Path(path).stem))
        return read(path)

    monkeypatch.setattr(formats, "read_lstf", counting)
    return reads


def _each_array_once(samples, names) -> list[tuple[str, str]]:
    return sorted((names[id(s)], a) for s in samples for a in (*MODALITIES, "target_raster"))


def test_load_dataset_and_split_read_no_array(disk_dataset, toy_cfg, monkeypatch):
    reads = _count_reads(monkeypatch)
    _, parts, _ = _loaded_and_split(disk_dataset, toy_cfg)
    assert [len(part) for part in parts] == [12, 4, 4]
    assert reads == []


def test_evaluate_reads_each_test_array_once_and_no_other_sample(disk_dataset, toy_cfg, monkeypatch):
    _, (_, _, test), names = _loaded_and_split(disk_dataset, toy_cfg)
    model = Model(toy_cfg.model)
    reads = _count_reads(monkeypatch)
    TR.evaluate(model, test, toy_cfg.train, toy_cfg.train.batch_size)
    assert len(reads) == 5 * len(test)
    assert sorted(reads) == _each_array_once(test, names)


def test_train_reads_each_training_and_validation_array_once_and_no_test_sample(disk_dataset, toy_cfg, monkeypatch):
    samples, (tr, va, _), names = _loaded_and_split(disk_dataset, toy_cfg)
    reads = _count_reads(monkeypatch)
    TR.train(samples, toy_cfg.model, replace(toy_cfg.train, epochs=1), toy_cfg.split)
    assert sorted(reads) == _each_array_once(tr + va, names)
