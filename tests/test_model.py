"""Model architecture: embedding widths, fusion, decoder chain, freezing, init."""

import gc
import hashlib
import json
import weakref

import numpy as np
import pytest
from dataclasses import replace

from helpers import full_encode, legacy_grid, reference_init_params
from lidarsynth import config as C
from lidarsynth import model as M
from lidarsynth import tensor as T


@pytest.fixture(scope="module")
def toy_model(toy_cfg):
    return M.Model(toy_cfg.model)


def _toy_inputs(cfg, rng, batch=None):
    shape = lambda s: s if batch is None else (batch,) + s
    return {
        "camera": rng.random(shape((cfg.cam_height, cfg.cam_width))).astype(np.float32),
        "depth": rng.random(shape((cfg.cam_height, cfg.cam_width))).astype(np.float32),
        "range_angle": rng.random(shape((cfg.radar.n_rx, cfg.radar.n_samples))).astype(np.float32),
        "range_velocity": rng.random(
            shape((cfg.radar.n_chirps, cfg.radar.n_samples))
        ).astype(np.float32),
    }


# -- configuration -----------------------------------------------------------------


def test_default_config_matches_grid():
    cfg = C.default_config().model
    assert cfg.seed_shape == (45, 34)
    assert tuple(M.UPSCALE * d for d in cfg.seed_shape) == (1440, 1088)
    assert cfg.decoder.channel_chain == (1, 256, 128, 64, 64, 1)


def test_legacy_config_dimensions():
    # the grid alone sets the decoder's seed map
    cfg = C.parse_config("grid.phi_regions = -60:-5:0.25;-5:5:0.015625;5:30:0.25\n").model
    assert cfg.grid == legacy_grid()
    assert cfg.seed_shape == (45, 30)
    assert tuple(M.UPSCALE * d for d in cfg.seed_shape) == (1440, 960)


def test_config_rejects_grid_decoder_mismatch():
    # 360 columns: five doublings cannot reach them from a whole seed map
    with pytest.raises(ValueError, match="multiple of 32"):
        C.parse_config("grid.theta = -180:180:1\n")


def test_encoder_config_validation():
    with pytest.raises(ValueError):
        M.EncoderConfig(image_size=(50, 64), patch_size=16)
    with pytest.raises(ValueError):
        M.EncoderConfig(image_size=(64, 64), patch_size=16, d_model=100, n_heads=9)


# -- parameter enumeration and init ---------------------------------------------------


def test_param_count_is_sum_of_shapes(toy_cfg):
    shapes = M._param_shapes(toy_cfg.model)
    assert sum(M.param_breakdown(toy_cfg.model).values()) == sum(int(np.prod(s)) for _, s, _, _ in shapes)


def test_toy_decoder_param_count_by_hand(toy_cfg):
    # fc: 1024*20+20; deconvs (1,8),(8,8),(8,4),(4,4),(4,1) with 4x4 kernels
    # and biases; batch norm gain+bias on the four hidden layers
    want = (1024 * 20 + 20) + (128 + 8) + (1024 + 8) + (512 + 4) + (256 + 4) + (64 + 1) + 48
    assert M.param_breakdown(toy_cfg.model)["decoder"] == want


def test_default_decoder_kernel_chain():
    shapes = dict((n, s) for n, s, _, _ in M._param_shapes(C.default_config().model))
    assert shapes["decoder.deconv.0.weight"] == (1, 256, 4, 4)
    assert shapes["decoder.deconv.1.weight"] == (256, 128, 4, 4)
    assert shapes["decoder.deconv.2.weight"] == (128, 64, 4, 4)
    assert shapes["decoder.deconv.3.weight"] == (64, 64, 4, 4)
    assert shapes["decoder.deconv.4.weight"] == (64, 1, 4, 4)
    assert shapes["decoder.fc.weight"] == (1024, 45 * 34)


# sha256 of every (name, shape, init kind, trainable) in creation order for
# toy_config().model and default_config().model, taken before the shape code
# was refactored; init_params draws in this order, so any reorder would change
# every initial weight
PARAM_SHAPES_DIGEST = {
    "toy": (137, "4af2b8add69ed05749c9039b335ebd07c7d85b1a3a27ff2ce8a482ccf541f05e"),
    "default": (329, "32687fad8f2b25b3008c655fcaa5b8fa9ffc15f08dcd7d754fa6b77ab4bbde11"),
}


@pytest.mark.parametrize("label", sorted(PARAM_SHAPES_DIGEST))
def test_param_shapes_match_golden_digest(label):
    cfg = C.toy_config().model if label == "toy" else C.default_config().model
    shapes = M._param_shapes(cfg)
    encoded = json.dumps([[name, list(shape), kind, trainable] for name, shape, kind, trainable in shapes])
    assert (len(shapes), hashlib.sha256(encoded.encode()).hexdigest()) == PARAM_SHAPES_DIGEST[label]


def test_init_is_seeded_and_distributed(toy_cfg):
    assert toy_cfg.model.seed == 0
    a = M.init_params(toy_cfg.model)
    b = M.init_params(toy_cfg.model)
    c = M.init_params(replace(toy_cfg.model, seed=1))
    np.testing.assert_array_equal(a["fusion.proj.weight"].data, b["fusion.proj.weight"].data)
    assert (a["fusion.proj.weight"].data != c["fusion.proj.weight"].data).any()

    w = a["fusion.layers.0.ffn.w1"].data
    assert abs(w.mean()) < 4 * 0.02 / np.sqrt(w.size)
    assert abs(w.std() - 0.02) < 0.001

    np.testing.assert_array_equal(a["fusion.final_ln.gain"].data, 1.0)
    np.testing.assert_array_equal(a["fusion.final_ln.bias"].data, 0.0)
    np.testing.assert_array_equal(a["decoder.fc.bias"].data, 0.0)

    bn_gain = a["decoder.bn.0.gain"].data
    assert abs(bn_gain.mean() - 1.0) < 0.05
    assert (bn_gain != 1.0).any()


def test_frozen_weights_are_read_only_float32_uniform_draws(toy_cfg):
    # U(-0.02*sqrt(3), 0.02*sqrt(3)) has standard deviation 0.02
    store = M.init_params(toy_cfg.model)
    limit = np.float32(0.02 * np.sqrt(3.0))
    shapes = M._param_shapes(toy_cfg.model)
    frozen = [name for name, _, kind, trainable in shapes if kind == M._INIT_NORMAL and not trainable]
    assert {name.split(".", 1)[0] for name in frozen} == set(M.MODALITIES)
    for name in frozen:
        a = store[name].data
        assert a.dtype == np.float32 and a.flags.c_contiguous and not a.flags.writeable, name
        assert np.abs(a).max() <= limit, name
        assert abs(a.std() - 0.02) < 0.001, name


def test_encoder_size_moves_no_other_draw(toy_cfg, monkeypatch):
    # every encoder and the trainable parameters draw from their own seeds;
    # each store starts from an empty registry, so b draws its own encoders
    # rather than viewing a's
    monkeypatch.setattr(M, "_frozen_encoders", weakref.WeakValueDictionary())
    a = M.init_params(toy_cfg.model)
    deeper = C.toy_config({"encoder.camera.depth": "2"}).model
    assert deeper.encoders["camera"].depth != toy_cfg.model.encoders["camera"].depth
    monkeypatch.setattr(M, "_frozen_encoders", weakref.WeakValueDictionary())
    b = M.init_params(deeper)
    kept = [name for name in a.params if not name.startswith("camera.")]
    assert set(a.trainable_names()) < set(kept)
    for name in kept:
        assert not np.shares_memory(a[name].data, b[name].data), name
        np.testing.assert_array_equal(a[name].data, b[name].data, err_msg=name)


def _frozen_names(cfg):
    return [name for name, _, _, trainable in M._param_shapes(cfg) if not trainable]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("label", ["toy", "mini"])
def test_init_params_matches_reference_draw(toy_cfg, monkeypatch, label, seed):
    # an empty registry, so every encoder is drawn here rather than shared
    monkeypatch.setattr(M, "_frozen_encoders", weakref.WeakValueDictionary())
    cfg = replace(toy_cfg.model if label == "toy" else _mini_cfg(toy_cfg, 2), seed=seed)
    got, want = M.init_params(cfg), reference_init_params(cfg)
    assert list(got.params) == list(want.params)
    assert got.trainable_names() == want.trainable_names()
    for name, p in want.params.items():
        a = got[name].data
        assert (a.shape, a.dtype, got[name].requires_grad) == (p.shape, p.dtype, p.requires_grad), name
        np.testing.assert_array_equal(a.view(np.uint32), p.data.view(np.uint32), err_msg=name)


def test_live_models_share_frozen_arrays_only(toy_cfg):
    a, b = M.Model(toy_cfg.model), M.Model(toy_cfg.model)
    for name in _frozen_names(toy_cfg.model):
        assert np.shares_memory(a.store[name].data, b.store[name].data), name
    for name in a.store.trainable_names():
        assert not np.shares_memory(a.store[name].data, b.store[name].data), name


def test_model_seed_keys_the_frozen_encoders(toy_cfg):
    a, b = M.Model(toy_cfg.model), M.Model(replace(toy_cfg.model, seed=1))
    drawn = {name for name, _, kind, trainable in M._param_shapes(toy_cfg.model) if kind == M._INIT_NORMAL}
    for name in _frozen_names(toy_cfg.model):
        assert not np.shares_memory(a.store[name].data, b.store[name].data), name
        if name in drawn:
            assert (a.store[name].data != b.store[name].data).any(), name


def test_encoder_config_keys_its_own_encoder_only(toy_cfg):
    deeper = C.toy_config({"encoder.camera.depth": "2"}).model
    a, b = M.Model(toy_cfg.model), M.Model(deeper)
    for name in _frozen_names(toy_cfg.model):
        assert np.shares_memory(a.store[name].data, b.store[name].data) == (not name.startswith("camera.")), name
    a_camera = [a.store[name].data for name in _frozen_names(toy_cfg.model) if name.startswith("camera.")]
    for name in _frozen_names(deeper):
        if name.startswith("camera."):
            assert not any(np.shares_memory(b.store[name].data, other) for other in a_camera), name


def test_frozen_encoders_live_as_long_as_a_holder(toy_cfg, monkeypatch):
    registry = weakref.WeakValueDictionary()
    monkeypatch.setattr(M, "_frozen_encoders", registry)
    model = M.Model(toy_cfg.model)
    first = {name: model.store[name].data.copy() for name in _frozen_names(toy_cfg.model)}
    snapshot = model.store.copy_values()
    assert len(registry) == len(M.MODALITIES)
    del model
    gc.collect()
    assert len(registry) == len(M.MODALITIES)  # the snapshot still views every encoder
    del snapshot
    gc.collect()
    assert len(registry) == 0
    again = M.Model(toy_cfg.model)
    for name, values in first.items():
        np.testing.assert_array_equal(again.store[name].data.view(np.uint32), values.view(np.uint32), err_msg=name)


def test_model_rejects_incomplete_store(toy_cfg):
    store = M.init_params(toy_cfg.model)
    del store.params["decoder.fc.bias"]
    with pytest.raises(ValueError):
        M.Model(toy_cfg.model, store=store)


# -- encoders ----------------------------------------------------------------------


def _patches_by_slicing(images, p):
    """Patch (i, j) of image b is images[b, i*p:(i+1)*p, j*p:(j+1)*p], raveled row by row."""
    b, h, w = images.shape
    return np.array(
        [
            [images[k, i * p : (i + 1) * p, j * p : (j + 1) * p].ravel() for i in range(h // p) for j in range(w // p)]
            for k in range(b)
        ]
    )


# (4, 64) with patch 4 is the toy range-angle map, (64, 64) with 16 the toy camera
@pytest.mark.parametrize("image_size, patch_size", [((8, 12), 4), ((12, 8), 2), ((4, 64), 4), ((64, 64), 16)])
def test_patchify_matches_slice_loop_oracle(image_size, patch_size):
    cfg = M.EncoderConfig(image_size=image_size, patch_size=patch_size)
    images = np.random.default_rng(0).random((3,) + image_size)
    got = M._patchify(images, cfg)
    assert got.shape == (3, cfg.n_patches, cfg.patch_dim)
    assert got.dtype == np.float32 and got.flags.c_contiguous
    np.testing.assert_array_equal(got, _patches_by_slicing(images.astype(np.float32), patch_size))


@pytest.mark.parametrize("shape", [(8, 12), (2, 1, 8, 12), (2, 12, 8), (2, 8, 16)])
def test_patchify_rejects_unbatched_and_misshaped_images(shape):
    cfg = M.EncoderConfig(image_size=(8, 12), patch_size=4)
    with pytest.raises(ValueError, match="8, 12"):
        M._patchify(np.zeros(shape, dtype=np.float32), cfg)


def test_every_encoder_outputs_embed_dim(toy_cfg, toy_model):
    rng = np.random.default_rng(0)
    sample = _toy_inputs(toy_cfg, rng)
    for name in M.MODALITIES:
        emb = toy_model.encode_batch(name, sample[name][None])
        assert emb.shape == (1, M.EMBED_DIM)


def test_encoder_batch_matches_single(toy_cfg, toy_model):
    rng = np.random.default_rng(1)
    batch = _toy_inputs(toy_cfg, rng, batch=3)
    out = toy_model.encode_batch("camera", batch["camera"])
    assert out.shape == (3, M.EMBED_DIM)
    single = toy_model.encode_batch("camera", batch["camera"][1:2])
    np.testing.assert_allclose(out.data[1], single.data[0], rtol=2e-4, atol=1e-5)


def test_embedding_responds_to_input(toy_cfg, toy_model):
    rng = np.random.default_rng(2)
    sample = _toy_inputs(toy_cfg, rng)
    a = toy_model.encode_batch("depth", sample["depth"][None]).data
    b = toy_model.encode_batch("depth", sample["depth"][None] * 0.5 + 0.1).data
    assert (a != b).any()


def test_embed_stacks_modalities(toy_cfg, toy_model):
    batch = _toy_inputs(toy_cfg, np.random.default_rng(3), batch=2)
    emb = toy_model.embed(batch)
    assert emb.shape == (2, 4, M.EMBED_DIM)
    for j, name in enumerate(M.MODALITIES):
        np.testing.assert_array_equal(emb.data[:, j], toy_model.encode_batch(name, batch[name]).data)


def test_model_config_needs_one_encoder_per_modality(toy_cfg):
    encoders = toy_cfg.model.encoders
    for wrong in ({k: v for k, v in encoders.items() if k != "depth"}, {**encoders, "lidar": encoders["camera"]}):
        with pytest.raises(ValueError, match="one per modality"):
            replace(toy_cfg.model, encoders=wrong)


def _mini_cfg(toy_cfg, depth):
    # 6 patches + the class token, 8 wide, 2 heads
    enc = M.EncoderConfig(image_size=(8, 12), patch_size=4, depth=depth, n_heads=2, d_model=8, ffn_dim=16)
    return replace(toy_cfg.model, encoders=dict.fromkeys(M.MODALITIES, enc))


def _mini_model(toy_cfg, depth):
    return M.Model(_mini_cfg(toy_cfg, depth))


@pytest.mark.parametrize("depth", [1, 2])
def test_pruned_encoder_matches_full_encoder(toy_cfg, depth):
    model = _mini_model(toy_cfg, depth)
    images = np.random.default_rng(depth).random((3, 8, 12)).astype(np.float32)
    with T.no_grad():
        got = model.encode_batch("camera", images).data
        want = full_encode(model, "camera", images).data
    # measured: at most 1.5e-8 apart on values up to 0.21
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


@pytest.mark.parametrize("batch", [1, 32])
def test_toy_encoders_match_full_encoder(toy_cfg, toy_model, batch):
    # the toy width (768, 12 heads, float32), where the last block's folded
    # key/value products round differently from the full block's
    inputs = _toy_inputs(toy_cfg, np.random.default_rng(batch), batch=batch)
    for name in M.MODALITIES:
        with T.no_grad():
            got = toy_model.encode_batch(name, inputs[name]).data
            want = full_encode(toy_model, name, inputs[name]).data
        # measured: at most 2.2e-6 apart on values up to 2.3, on these inputs and three other seeds
        np.testing.assert_allclose(got, want, rtol=0, atol=5e-6, err_msg=name)


# -- fusion ------------------------------------------------------------------------


def test_fuse_produces_latent(toy_cfg, toy_model):
    rng = np.random.default_rng(4)
    emb = T.Tensor(rng.standard_normal((1, 4, 768)).astype(np.float32))
    latent = toy_model.fuse(emb)
    assert latent.shape == (1, M.LATENT_DIM)
    batched = toy_model.fuse(T.Tensor(rng.standard_normal((2, 4, 768)).astype(np.float32)))
    assert batched.shape == (2, M.LATENT_DIM)


def test_fuse_is_sensitive_to_slot_order(toy_model):
    rng = np.random.default_rng(5)
    emb = rng.standard_normal((1, 4, 768)).astype(np.float32)
    a = toy_model.fuse(T.Tensor(emb)).data
    b = toy_model.fuse(T.Tensor(emb[:, ::-1].copy())).data
    # modality type embeddings break permutation symmetry
    assert np.abs(a - b).max() > 1e-6


def test_fuse_rejects_wrong_token_count(toy_model):
    with pytest.raises(ValueError):
        toy_model.fuse(T.Tensor(np.zeros((1, 3, 768), dtype=np.float32)))


def test_fuse_and_decode_reject_unbatched_input(toy_model):
    with pytest.raises(ValueError):
        toy_model.fuse(T.Tensor(np.zeros((4, 768), dtype=np.float32)))
    with pytest.raises(ValueError):
        toy_model.decode(T.Tensor(np.zeros(1024, dtype=np.float32)))


def test_fusion_bypass_skips_transformer(toy_cfg):
    bypass_cfg = replace(toy_cfg.model, fusion_bypass=True)
    model = M.Model(bypass_cfg)
    fusion_params = [n for n in model.store.params if n.startswith("fusion.")]
    assert sorted(fusion_params) == ["fusion.proj.bias", "fusion.proj.weight"]
    emb = T.Tensor(np.random.default_rng(7).standard_normal((1, 4, 768)).astype(np.float32))
    latent = model.fuse(emb)
    # bypass is a plain affine map of the concatenated embeddings
    want = emb.data.reshape(1, -1) @ model.store["fusion.proj.weight"].data
    want = want + model.store["fusion.proj.bias"].data
    np.testing.assert_allclose(latent.data, want, rtol=2e-4, atol=1e-5)


# -- decoder -----------------------------------------------------------------------


def test_decode_doubles_five_times(toy_cfg, toy_model):
    latent = T.Tensor(np.random.default_rng(8).standard_normal((1, 1024)).astype(np.float32))
    out = toy_model.decode(latent)
    seed_h, seed_w = toy_cfg.model.seed_shape
    assert out.shape == (1, 1, seed_h * 32, seed_w * 32)
    assert (out.data >= 0.0).all()


def test_forward_batch_orientation(toy_cfg, toy_model):
    batch = _toy_inputs(toy_cfg, np.random.default_rng(9), batch=2)
    out = toy_model.forward_batch(batch)
    assert out.shape == (2, toy_cfg.grid.n_rows, toy_cfg.grid.n_cols)


def test_forward_returns_valid_raster(toy_cfg, toy_model):
    sample = _toy_inputs(toy_cfg, np.random.default_rng(10))
    raster = toy_model.forward(sample)
    assert raster.grid is toy_cfg.grid or raster.grid == toy_cfg.grid
    assert raster.data.shape == (toy_cfg.grid.n_rows, toy_cfg.grid.n_cols)
    assert raster.data.min() >= 0.0
    assert raster.data.max() <= toy_cfg.grid.max_range


def test_forward_batch_accepts_precomputed_embeddings(toy_cfg, toy_model):
    batch = _toy_inputs(toy_cfg, np.random.default_rng(11), batch=2)
    embs = toy_model.embed(batch)
    direct = toy_model.forward_batch(batch)
    cached = toy_model.forward_batch(embeddings=T.Tensor(embs.data.copy()))
    np.testing.assert_array_equal(direct.data, cached.data)
    with pytest.raises(ValueError):
        toy_model.forward_batch()


# -- training steps and evaluation passes ------------------------------------------


def _bn_unchanged(model, before):
    after = model.bn_state_arrays()
    return all(np.array_equal(after[name], arr) for name, arr in before.items())


def test_evaluation_pass_leaves_running_stats_unchanged(toy_cfg):
    model = M.Model(toy_cfg.model)
    batch = _toy_inputs(toy_cfg, np.random.default_rng(12), batch=2)
    before = model.bn_state_arrays()
    first = model.forward_batch(batch).data
    model.forward({name: arr[0] for name, arr in batch.items()})
    assert _bn_unchanged(model, before)
    np.testing.assert_array_equal(model.forward_batch(batch).data, first)


def test_training_pass_updates_running_stats_draws_from_rng_and_repeats(toy_cfg):
    batch = _toy_inputs(toy_cfg, np.random.default_rng(13), batch=2)
    models = [M.Model(toy_cfg.model) for _ in range(2)]
    before = models[0].bn_state_arrays()
    rngs = [np.random.default_rng(5) for _ in models]
    rng_state = rngs[0].bit_generator.state
    outs = [m.forward_batch(batch, train_rng=rng).data for m, rng in zip(models, rngs)]
    assert not _bn_unchanged(models[0], before)
    assert rngs[0].bit_generator.state != rng_state
    np.testing.assert_array_equal(outs[0], outs[1])
    assert _bn_unchanged(models[1], models[0].bn_state_arrays())


def test_load_bn_state_arrays_names_a_missing_or_misshaped_statistic(toy_cfg, toy_model):
    before = toy_model.bn_state_arrays()
    stray = dict(before, **{"decoder.bn.7.running_mean": np.zeros(3, dtype=np.float32),
                            "fusion.running_var": np.ones(3, dtype=np.float32)})
    with pytest.raises(KeyError, match=r"decoder\.bn\.7\.running_mean"):
        toy_model.load_bn_state_arrays(stray)
    missing = dict(before)
    del missing["decoder.bn.2.running_var"]
    with pytest.raises(KeyError, match=r"decoder\.bn\.2\.running_var"):
        toy_model.load_bn_state_arrays(missing)
    misshaped = dict(before, **{"decoder.bn.1.running_mean": np.zeros(3, dtype=np.float32)})
    with pytest.raises(ValueError, match=r"decoder\.bn\.1\.running_mean"):
        toy_model.load_bn_state_arrays(misshaped)
    assert _bn_unchanged(toy_model, before)


def test_only_a_training_pass_records_a_graph(toy_cfg, toy_model):
    batch = _toy_inputs(toy_cfg, np.random.default_rng(14), batch=2)
    out = toy_model.forward_batch(batch)
    assert not out.requires_grad and out._parents == ()
    out = toy_model.forward_batch(batch, train_rng=np.random.default_rng(0))
    assert out.requires_grad and out._parents


# -- freezing ----------------------------------------------------------------------


def test_frozen_encoders_are_not_trainable(toy_cfg):
    model = M.Model(toy_cfg.model)
    trainable = set(model.store.trainable_names())
    assert trainable  # fusion + decoder
    for name in trainable:
        assert name.startswith(("fusion.", "decoder."))
    frozen = set(model.store.params) - trainable
    assert any(n.startswith("camera.") for n in frozen)


def test_gradients_reach_all_trainable_params(toy_cfg, tiny_dataset):
    from lidarsynth import training as TR

    batch = {
        name: np.stack([s.modality(name) for s in tiny_dataset[:2]])
        for name in M.MODALITIES
    }
    targets = np.stack([s.target.data for s in tiny_dataset[:2]])
    mask = TR.weight_mask(toy_cfg.grid, (-1.71875, 2.1875), 10.0)
    for cfg in (toy_cfg.model, replace(toy_cfg.model, fusion_bypass=True)):
        model = M.Model(cfg)
        # backward writes each view it reaches, so a view still NaN was never reached
        model.store.grads.fill(np.nan)
        out = model.forward_batch(batch, train_rng=np.random.default_rng(0))
        TR.mmse_loss(out, targets, mask).backward()
        trainable = model.store.trainable_names()
        assert trainable
        for name in trainable:
            grad = model.store[name].grad
            assert np.isfinite(grad).all() and grad.any(), name
        for name in model.store.params:
            if name not in trainable:
                assert model.store[name].grad is None, name
