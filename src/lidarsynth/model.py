"""Multimodal network: four frozen patch encoders, a fusion encoder, a LiDAR decoder.

Each modality image is split into fixed-size patches, linearly embedded,
and run through a small pre-norm transformer; the classification-token
output is projected to a common 768-wide embedding.  Nothing else leaves an
encoder, so its last block computes the class token's row only: only the
class token queries and runs through the feedforward, and it attends to
every token through key and value projections folded into its query row,
so no token's key or value is formed.  The four embeddings
form a 4-token sequence that one fusion encoder layer mixes (with learned
type embeddings so slots stay distinguishable), after which the tokens are
concatenated and projected to a 1024 latent.  The decoder expands that
latent through a fully connected layer to a seed map, the grid divided by
32, and five transposed convolutions, each doubling H and W
(``tensor.conv_transpose2d``), into the output raster.

The decoder's height axis runs along azimuth and its width axis along
elevation; ``Model.forward`` transposes into raster layout (rows =
elevation bins, columns = azimuth bins).
"""

from __future__ import annotations

import contextlib
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from lidarsynth import tensor as T
from lidarsynth.geometry import GridSpec, PolarRaster
from lidarsynth.optim import ParamStore
from lidarsynth.tensor import AttentionParams, Tensor

__all__ = [
    "MODALITIES",
    "EMBED_DIM",
    "FUSION_HEADS",
    "FUSION_FFN_DIM",
    "FUSION_DROPOUT",
    "LATENT_DIM",
    "EncoderConfig",
    "DecoderConfig",
    "ModelConfig",
    "Model",
    "init_params",
    "param_breakdown",
]

MODALITIES = ("camera", "depth", "range_angle", "range_velocity")
# every encoder projects its class token to this width; the fusion stage
# and its modality type embeddings are defined in terms of it
EMBED_DIM = 768
# the fusion stage: one pre-norm layer that wide, then a projection of the
# concatenated tokens to the latent the decoder reads
FUSION_HEADS = 12
FUSION_FFN_DIM = 2048
FUSION_DROPOUT = 0.1  # applied in training steps only
LATENT_DIM = 1024
N_DECONV = 5
UPSCALE = 2 ** N_DECONV  # each transposed convolution doubles H and W


@dataclass(frozen=True)
class EncoderConfig:
    """One single-channel modality encoder: patchify, embed, ``depth`` pre-norm layers, project.

    No config key sets the widths: every encoder is ViT-Base wide (768, 12
    heads, feedforward 3072); tests build small stub encoders with them.
    """

    image_size: tuple[int, int]
    patch_size: int = 16
    depth: int = 4
    n_heads: int = 12
    d_model: int = 768
    ffn_dim: int = 3072

    def __post_init__(self):
        h, w = self.image_size
        if h < 1 or w < 1:
            raise ValueError("image dims must be positive")
        if self.patch_size < 1 or self.n_heads < 1:
            raise ValueError(f"patch_size {self.patch_size} and n_heads {self.n_heads} must be at least 1")
        if h % self.patch_size or w % self.patch_size:
            raise ValueError(
                f"image size {self.image_size} not divisible by patch {self.patch_size}"
            )
        if self.d_model % self.n_heads:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.n_heads} heads")
        if self.depth < 1:
            raise ValueError(f"depth {self.depth} must be at least 1, or the class token never sees the image")
        if self.ffn_dim < 1:
            raise ValueError("ffn_dim must be positive")

    @property
    def n_patches(self) -> int:
        h, w = self.image_size
        return (h // self.patch_size) * (w // self.patch_size)

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size


@dataclass(frozen=True)
class DecoderConfig:
    """The four hidden transposed-convolution widths; the grid fixes the seed map."""

    filters: tuple[int, int, int, int] = (256, 128, 64, 64)

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(self.filters))
        if len(self.filters) != 4 or any(f < 1 for f in self.filters):
            raise ValueError(f"filters must be four positive ints, got {self.filters}")

    @property
    def channel_chain(self) -> tuple[int, ...]:
        return (1,) + self.filters + (1,)


@dataclass(frozen=True)
class ModelConfig:
    encoders: dict[str, EncoderConfig]  # one per MODALITIES name
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    grid: GridSpec = field(default_factory=GridSpec)
    seed: int = 0
    fusion_bypass: bool = False

    def __post_init__(self):
        if set(self.encoders) != set(MODALITIES):
            raise ValueError(f"encoders {sorted(self.encoders)} are not one per modality {MODALITIES}")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be non-negative")
        if self.grid.n_cols % UPSCALE or self.grid.n_rows % UPSCALE:
            raise ValueError(
                f"grid {self.grid.n_cols} cols x {self.grid.n_rows} rows is not a multiple of "
                f"{UPSCALE}, the decoder's upscale factor"
            )

    @property
    def seed_shape(self) -> tuple[int, int]:
        """Decoder seed map dims: height along azimuth (columns), width along elevation (rows)."""
        return (self.grid.n_cols // UPSCALE, self.grid.n_rows // UPSCALE)


# -- parameter enumeration ----------------------------------------------------

_INIT_NORMAL = "normal"       # Normal(0, 0.02) if trainable, else uniform with that std
_INIT_BN_GAIN = "bn_gain"     # Normal(1, 0.02)
_INIT_ZEROS = "zeros"
_INIT_ONES = "ones"

# the one fusion layer's name, which checkpoints and the parameter-shape digest carry
_FUSION_BLOCK = "fusion.layers.0"


def _block_shapes(prefix: str, d: int, ffn_dim: int, trainable: bool) -> list[tuple[str, tuple, str, bool]]:
    """One pre-norm transformer block: attention then feedforward, each behind a layer norm."""
    out = [
        (f"{prefix}.ln1.gain", (d,), _INIT_ONES, trainable),
        (f"{prefix}.ln1.bias", (d,), _INIT_ZEROS, trainable),
    ]
    for proj in ("wq", "wk", "wv", "wo"):
        out.append((f"{prefix}.attn.{proj}", (d, d), _INIT_NORMAL, trainable))
    for b in ("bq", "bk", "bv", "bo"):
        out.append((f"{prefix}.attn.{b}", (d,), _INIT_ZEROS, trainable))
    return out + [
        (f"{prefix}.ln2.gain", (d,), _INIT_ONES, trainable),
        (f"{prefix}.ln2.bias", (d,), _INIT_ZEROS, trainable),
        (f"{prefix}.ffn.w1", (d, ffn_dim), _INIT_NORMAL, trainable),
        (f"{prefix}.ffn.b1", (ffn_dim,), _INIT_ZEROS, trainable),
        (f"{prefix}.ffn.w2", (ffn_dim, d), _INIT_NORMAL, trainable),
        (f"{prefix}.ffn.b2", (d,), _INIT_ZEROS, trainable),
    ]


def _encoder_shapes(name: str, cfg: EncoderConfig) -> list[tuple[str, tuple, str, bool]]:
    """An encoder's parameters; encoders stand in for pre-trained ones, so none is trainable."""
    d = cfg.d_model
    out = [
        (f"{name}.patch_embed.weight", (cfg.patch_dim, d), _INIT_NORMAL, False),
        (f"{name}.patch_embed.bias", (d,), _INIT_ZEROS, False),
        (f"{name}.cls_token", (1, d), _INIT_NORMAL, False),
        (f"{name}.pos_embed", (cfg.n_patches + 1, d), _INIT_NORMAL, False),
    ]
    for i in range(cfg.depth):
        out += _block_shapes(f"{name}.layers.{i}", d, cfg.ffn_dim, False)
    out += [
        (f"{name}.final_ln.gain", (d,), _INIT_ONES, False),
        (f"{name}.final_ln.bias", (d,), _INIT_ZEROS, False),
        (f"{name}.head.weight", (d, EMBED_DIM), _INIT_NORMAL, False),
        (f"{name}.head.bias", (EMBED_DIM,), _INIT_ZEROS, False),
    ]
    return out


def _param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple, str, bool]]:
    """Every parameter's (name, shape, init kind, trainable), in creation order."""
    shapes: list[tuple[str, tuple, str, bool]] = []
    for name in MODALITIES:
        shapes.extend(_encoder_shapes(name, cfg.encoders[name]))

    d = EMBED_DIM
    if not cfg.fusion_bypass:
        shapes.append(("fusion.type_embed", (len(MODALITIES), d), _INIT_NORMAL, True))
        shapes += _block_shapes(_FUSION_BLOCK, d, FUSION_FFN_DIM, True)
        shapes += [
            ("fusion.final_ln.gain", (d,), _INIT_ONES, True),
            ("fusion.final_ln.bias", (d,), _INIT_ZEROS, True),
        ]
    concat_dim = len(MODALITIES) * d
    shapes += [
        ("fusion.proj.weight", (concat_dim, LATENT_DIM), _INIT_NORMAL, True),
        ("fusion.proj.bias", (LATENT_DIM,), _INIT_ZEROS, True),
    ]

    seed_h, seed_w = cfg.seed_shape
    shapes += [
        ("decoder.fc.weight", (LATENT_DIM, seed_h * seed_w), _INIT_NORMAL, True),
        ("decoder.fc.bias", (seed_h * seed_w,), _INIT_ZEROS, True),
    ]
    chain = cfg.decoder.channel_chain
    k = T.DECONV_KERNEL
    for i in range(N_DECONV):
        shapes += [
            (f"decoder.deconv.{i}.weight", (chain[i], chain[i + 1], k, k), _INIT_NORMAL, True),
            (f"decoder.deconv.{i}.bias", (chain[i + 1],), _INIT_ZEROS, True),
        ]
        if i < N_DECONV - 1:
            shapes += [
                (f"decoder.bn.{i}.gain", (chain[i + 1],), _INIT_BN_GAIN, True),
                (f"decoder.bn.{i}.bias", (chain[i + 1],), _INIT_ZEROS, True),
            ]
    return shapes


# (model seed, modality, EncoderConfig) -> that encoder's frozen buffer, held
# weakly: an entry lives as long as some model, snapshot or checkpoint holds
# one of its views, so a model built while another holds the same encoder
# draws nothing and adds no memory for it
_frozen_encoders: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _frozen_encoder(seed: int, name: str, enc_cfg: EncoderConfig) -> dict[str, np.ndarray]:
    """Every parameter of encoder ``name``, keyed by parameter name: read-only float32 views of one buffer.

    The buffer holds the parameters in ``_encoder_shapes`` order.  It is
    drawn from child ``MODALITIES.index(name)`` of ``SeedSequence(seed)``, or
    shared with the live model that already drew it.  ``normal`` weights stand
    in for pre-trained ones, which nothing trains, so they take the cheaper
    uniform draw with standard deviation 0.02: U(-0.02*sqrt(3), 0.02*sqrt(3)).
    """
    shapes = _encoder_shapes(name, enc_cfg)
    bounds = np.cumsum([math.prod(shape) for _, shape, _, _ in shapes])
    key = (seed, name, enc_cfg)
    flat = _frozen_encoders.get(key)
    if flat is None:
        # zeros, so the biases need no write; the draw overwrites every weight
        flat = np.zeros(int(bounds[-1]), dtype=np.float32)
        # the child SeedSequence(seed).spawn() gives at this index
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(MODALITIES.index(name),)))
        limit = 0.02 * math.sqrt(3.0)  # a Python float, so the arithmetic stays in float32
        for (_, _, kind, _), a in zip(shapes, np.split(flat, bounds[:-1])):
            if kind == _INIT_ONES:
                a.fill(1.0)
            elif kind == _INIT_NORMAL:
                rng.random(dtype=np.float32, out=a)
                a -= 0.5
                a *= 2 * limit
        flat.flags.writeable = False
        _frozen_encoders[key] = flat
    return {pname: a.reshape(shape) for (pname, shape, _, _), a in zip(shapes, np.split(flat, bounds[:-1]))}


def init_params(cfg: ModelConfig) -> ParamStore:
    """Fresh float32 parameters drawn from ``cfg.seed``, each value once, into the array that keeps it.

    ``SeedSequence(cfg.seed)`` has one child per encoder, in MODALITIES
    order, and one more for every trainable parameter, so no encoder's size
    moves another encoder's or a trainable draw.  Each generator draws in
    ``_param_shapes`` order.

    - Each encoder's parameters are read-only views of ``_frozen_encoder``'s
      buffer, which every live model with the same seed and encoder config
      shares.
    - Trainable ``normal`` weights are Normal(0, 0.02) and batch-norm gains
      Normal(1, 0.02), drawn straight into the store's arena views.
    - Biases are zeros and layer-norm gains ones.
    """
    frozen: dict[str, np.ndarray] = {}
    for modality in MODALITIES:
        frozen.update(_frozen_encoder(cfg.seed, modality, cfg.encoders[modality]))
    shapes = _param_shapes(cfg)

    def initial(name: str, shape: tuple, kind: str, trainable: bool) -> np.ndarray:
        if not trainable:
            return frozen[name]
        if kind == _INIT_ONES:
            return np.ones(shape, dtype=np.float32)
        return np.zeros(shape, dtype=np.float32)  # a draw is made below, in the store's own buffer

    store = ParamStore(
        (name, initial(name, shape, kind, trainable), trainable) for name, shape, kind, trainable in shapes
    )
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(len(MODALITIES),)))
    for name, _, kind, trainable in shapes:
        if trainable and kind in (_INIT_NORMAL, _INIT_BN_GAIN):
            view = store[name].data
            rng.standard_normal(dtype=np.float32, out=view)
            view *= 0.02
            if kind == _INIT_BN_GAIN:
                view += 1.0
    return store


def param_breakdown(cfg: ModelConfig) -> dict[str, int]:
    """Parameter totals keyed by top-level component name."""
    out: dict[str, int] = {}
    for name, shape, _, _ in _param_shapes(cfg):
        top = name.split(".", 1)[0]
        out[top] = out.get(top, 0) + int(np.prod(shape))
    return out


# -- forward passes -----------------------------------------------------------


def _patchify(images: np.ndarray, cfg: EncoderConfig) -> np.ndarray:
    """[B, H, W] -> [B, n_patches, patch_dim] float32, patches in row-major order.

    Patch (i, j) of image b is ``images[b, i*p:(i+1)*p, j*p:(j+1)*p]``
    flattened row by row, for patch edge p.
    """
    imgs = np.asarray(images, dtype=np.float32)
    h, w = cfg.image_size
    if imgs.ndim != 3 or imgs.shape[1:] != (h, w):
        raise ValueError(f"expected images of shape [B, {h}, {w}], got {imgs.shape}")
    b = imgs.shape[0]
    p = cfg.patch_size
    nh, nw = h // p, w // p
    patches = imgs.reshape(b, nh, p, nw, p).transpose(0, 1, 3, 2, 4)
    return np.ascontiguousarray(patches).reshape(b, nh * nw, p * p)


class Model:
    """A parameter store bound to its configuration, plus batch-norm running statistics.

    The model holds no mode.  A pass is a training step exactly when
    ``forward_batch`` is handed a generator: dropout draws from it and batch
    norm uses, and updates, batch statistics.  Every other pass is an
    evaluation pass: deterministic, with running statistics left unchanged
    and no autodiff graph recorded.
    """

    def __init__(self, cfg: ModelConfig, store: ParamStore | None = None):
        self.cfg = cfg
        self.store = store if store is not None else init_params(cfg)
        for name, shape, _, _ in _param_shapes(cfg):
            if name not in self.store:
                raise ValueError(f"parameter store missing {name!r}")
            if self.store[name].shape != shape:
                raise ValueError(f"parameter {name!r} has shape {self.store[name].shape}, want {shape}")
        self.bn_stats: dict[str, np.ndarray] = {}
        for i, c in enumerate(cfg.decoder.filters):
            self.bn_stats[f"decoder.bn.{i}.running_mean"] = np.zeros(c, dtype=np.float32)
            self.bn_stats[f"decoder.bn.{i}.running_var"] = np.ones(c, dtype=np.float32)

    # encoders

    def encode_batch(self, name: str, images: np.ndarray) -> Tensor:
        """[B, H, W] images -> [B, 768] class-token embeddings.

        Every block but the last computes all tokens, since the next block
        reads them all; the last computes the class token only, attending
        to every token without forming their keys and values (see
        ``tensor.multi_head_self_attention``).
        """
        cfg = self.cfg.encoders[name]
        s = self.store
        x = T.linear(Tensor(_patchify(images, cfg)), s[f"{name}.patch_embed.weight"], s[f"{name}.patch_embed.bias"])
        b = x.shape[0]
        ones = Tensor(np.ones((b, 1, 1), dtype=np.float32))
        cls = T.mul(T.reshape(s[f"{name}.cls_token"], (1, 1, cfg.d_model)), ones)
        x = T.concat([cls, x])
        x = T.add(x, s[f"{name}.pos_embed"])
        for i in range(cfg.depth):
            x = self._block(x, f"{name}.layers.{i}", cfg.n_heads, n_queries=1 if i == cfg.depth - 1 else None)
        cls_out = T.layer_norm(x[:, 0], s[f"{name}.final_ln.gain"], s[f"{name}.final_ln.bias"])
        return T.linear(cls_out, s[f"{name}.head.weight"], s[f"{name}.head.bias"])

    def _attn_params(self, prefix: str) -> AttentionParams:
        s = self.store
        return AttentionParams(
            wq=s[f"{prefix}.wq"], wk=s[f"{prefix}.wk"], wv=s[f"{prefix}.wv"], wo=s[f"{prefix}.wo"],
            bq=s[f"{prefix}.bq"], bk=s[f"{prefix}.bk"], bv=s[f"{prefix}.bv"], bo=s[f"{prefix}.bo"],
        )

    def _block(
        self,
        x: Tensor,
        p: str,
        n_heads: int,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
        n_queries: int | None = None,
    ) -> Tensor:
        """One pre-norm block.

        Only the first ``n_queries`` tokens (default all) query and go on
        through the feedforward, so the output has that many rows; they
        attend to every token.  Dropout draws from ``rng``; without one it
        is off.
        """
        s = self.store
        h = T.layer_norm(x, s[f"{p}.ln1.gain"], s[f"{p}.ln1.bias"])
        att = T.multi_head_self_attention(h, self._attn_params(f"{p}.attn"), n_heads, n_queries=n_queries)
        if n_queries is not None:
            x = x[:, :n_queries]
        x = T.add(x, T.dropout(att, dropout, rng))
        h = T.layer_norm(x, s[f"{p}.ln2.gain"], s[f"{p}.ln2.bias"])
        h = T.relu(T.linear(h, s[f"{p}.ffn.w1"], s[f"{p}.ffn.b1"]))
        h = T.linear(h, s[f"{p}.ffn.w2"], s[f"{p}.ffn.b2"])
        return T.add(x, T.dropout(h, dropout, rng))

    # fusion

    def fuse(self, embeddings: Tensor, train_rng: np.random.Generator | None = None) -> Tensor:
        """[B, 4, 768] modality embeddings -> [B, 1024] latent; dropout draws from ``train_rng``."""
        s = self.store
        x = embeddings
        if x.ndim != 3 or x.shape[1:] != (len(MODALITIES), EMBED_DIM):
            raise ValueError(f"fuse expects [B, {len(MODALITIES)}, {EMBED_DIM}], got {x.shape}")
        b, t, d = x.shape
        if not self.cfg.fusion_bypass:
            x = T.add(x, s["fusion.type_embed"])
            x = self._block(x, _FUSION_BLOCK, FUSION_HEADS, FUSION_DROPOUT, train_rng)
            x = T.layer_norm(x, s["fusion.final_ln.gain"], s["fusion.final_ln.bias"])

        flat = T.reshape(x, (b, t * d))
        return T.linear(flat, s["fusion.proj.weight"], s["fusion.proj.bias"])

    # decoder

    def decode(self, latent: Tensor, training: bool = False) -> Tensor:
        """[B, 1024] -> [B, 1, n_cols, n_rows], non-negative.

        With ``training`` batch norm normalizes by batch statistics and
        updates its running statistics; otherwise it uses them unchanged.
        """
        s = self.store
        if latent.ndim != 2:
            raise ValueError(f"decode expects [B, {LATENT_DIM}], got {latent.shape}")
        x = T.linear(latent, s["decoder.fc.weight"], s["decoder.fc.bias"])
        x = T.reshape(x, (x.shape[0], 1, *self.cfg.seed_shape))
        for i in range(N_DECONV):
            x = T.conv_transpose2d(x, s[f"decoder.deconv.{i}.weight"], s[f"decoder.deconv.{i}.bias"])
            if i < N_DECONV - 1:
                x = T.batch_norm2d(
                    x,
                    s[f"decoder.bn.{i}.gain"],
                    s[f"decoder.bn.{i}.bias"],
                    self.bn_stats[f"decoder.bn.{i}.running_mean"],
                    self.bn_stats[f"decoder.bn.{i}.running_var"],
                    training,
                )
            x = T.relu(x)
        return x

    # full pipeline

    def embed(self, batch: dict[str, np.ndarray]) -> Tensor:
        """Modality arrays (each [B, ...]) -> [B, 4, 768] embeddings, in MODALITIES order."""
        return T.stack([self.encode_batch(name, batch[name]) for name in MODALITIES])

    def forward_batch(
        self,
        batch: dict[str, np.ndarray] | None = None,
        embeddings: Tensor | None = None,
        train_rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Batched pass -> [B, n_rows, n_cols] raster values.

        Either raw modality arrays (each [B, H, W]) or their [B, 4, 768]
        embeddings, precomputed by ``embed``, may be supplied; encoders are
        frozen, so training steps pass embeddings.  Given ``train_rng`` the
        pass is a training step (see ``Model``) and records the graph that
        backward walks; every other pass records none.
        """
        if embeddings is None and batch is None:
            raise ValueError("need batch arrays or precomputed embeddings")
        with T.no_grad() if train_rng is None else contextlib.nullcontext():
            if embeddings is None:
                embeddings = self.embed(batch)
            latent = self.fuse(embeddings, train_rng=train_rng)
            out = self.decode(latent, training=train_rng is not None)  # [B, 1, n_cols, n_rows]
            out = T.reshape(out, (out.shape[0], out.shape[2], out.shape[3]))
            return T.transpose(out, (0, 2, 1))

    def forward(self, sample: dict[str, np.ndarray]) -> PolarRaster:
        """Inference surface: one sample in, a raster on the model grid out.

        The values are the network's own output clipped to [0, max_range].
        A model trained with ``train.normalize_ranges`` (the default)
        outputs training units, fractions of ``grid.max_range``, not
        meters; multiply by ``grid.max_range`` for meters, as ``evaluate`` does.
        """
        batch = {name: np.asarray(sample[name])[None] for name in MODALITIES}
        out = self.forward_batch(batch)
        values = np.clip(out.data[0], 0.0, self.cfg.grid.max_range).astype(np.float32)
        return PolarRaster(grid=self.cfg.grid, data=values)

    # batch-norm running statistics (model state outside the ParamStore)

    def bn_state_arrays(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.bn_stats.items()}

    def load_bn_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Replace every running statistic with a float32 copy of its entry in `arrays`, which holds no other name."""
        unknown = [name for name in arrays if name not in self.bn_stats]
        if unknown:
            raise KeyError(f"unknown batch-norm statistic {unknown[0]!r}")
        loaded = {}
        for name, arr in self.bn_stats.items():
            new = arrays.get(name)
            if new is None:
                raise KeyError(f"missing batch-norm statistic {name!r}")
            if new.shape != arr.shape:
                raise ValueError(f"batch-norm statistic {name!r} has shape {new.shape}, want {arr.shape}")
            loaded[name] = new.astype(np.float32, copy=True)
        self.bn_stats = loaded
