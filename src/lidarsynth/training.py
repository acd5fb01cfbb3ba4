"""Band-weighted MSE training loop, dataset split, and the evaluation harness.

The loss is a mean over every raster pixel of alpha_i * (y_i - yhat_i)^2,
where alpha_i is 10 inside a narrow elevation band around the horizon and
1 elsewhere.  Training uses Adam at its published constants (``optim.BETA1``
= 0.9, ``optim.BETA2`` = 0.999, ``optim.EPS`` = 1e-8) with a two-stage
learning rate (1e-3 for the first ten epochs, 1e-4 afterwards), seeded
per-epoch shuffling, and best-validation checkpoint selection.  Evaluation
reports per-scenario and overall MMSE next to an all-zeros baseline,
matching the structure of the headline comparison table.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from lidarsynth import formats
from lidarsynth import tensor as T
from lidarsynth.geometry import GridSpec, PolarRaster
from lidarsynth.model import EMBED_DIM, MODALITIES, Model, ModelConfig, _param_shapes
from lidarsynth.optim import ParamStore, adam_step
from lidarsynth.synthgen import read_sample
from lidarsynth.tensor import Tensor

log = logging.getLogger(__name__)

__all__ = [
    "Sample",
    "SplitSpec",
    "TrainConfig",
    "EvalReport",
    "Checkpoint",
    "EpochStats",
    "TrainResult",
    "TrainingDiverged",
    "weight_mask",
    "mmse_loss",
    "mmse_numpy",
    "lr_for_epoch",
    "split",
    "train",
    "write_history",
    "evaluate",
    "model_from_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "load_dataset",
]


@dataclass
class Sample:
    """One aligned multimodal observation with its LiDAR target.

    ``arrays`` maps each MODALITIES name and "target_raster" to its array.
    ``load_dataset`` passes a mapping that reads the file on each lookup and
    holds nothing, so a sample costs no memory until a stage reads it, and
    each read checks the file again; the tests pass a dict.
    """

    arrays: Mapping[str, np.ndarray]
    grid: GridSpec
    scenario_id: str

    def modality(self, name: str) -> np.ndarray:
        return self.arrays[name]

    @property
    def target(self) -> PolarRaster:
        return PolarRaster(self.grid, self.arrays["target_raster"])


@dataclass(frozen=True)
class SplitSpec:
    """Sequential per-scenario split fractions (no shuffling across boundaries); test gets the rest."""

    train: float = 0.6
    val: float = 0.2

    def __post_init__(self):
        if min(self.train, self.val) < 0.0:
            raise ValueError("split fractions must be non-negative")
        if self.train + self.val > 1.0 + 1e-9:
            raise ValueError("train and val fractions must sum to at most 1")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    epochs: int = 20
    lr_early: float = 1e-3
    lr_late: float = 1e-4
    lr_switch_epoch: int = 10  # last epoch (1-based) that still uses lr_early
    seed: int = 0
    band: tuple[float, float] = (-1.71875, 2.1875)
    alpha: float = 10.0
    normalize_ranges: bool = True

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2 (batch norm)")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be non-negative")
        if self.band[0] >= self.band[1]:
            raise ValueError(f"empty weight band {self.band}")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if min(self.lr_early, self.lr_late) <= 0.0 or self.lr_switch_epoch < 0:
            raise ValueError("learning rates must be positive and lr_switch_epoch non-negative")


def lr_for_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate for a 1-based epoch index."""
    if epoch < 1:
        raise ValueError("epochs are 1-based")
    return cfg.lr_early if epoch <= cfg.lr_switch_epoch else cfg.lr_late


# -- loss ---------------------------------------------------------------------


def weight_mask(grid: GridSpec, band: tuple[float, float], alpha: float) -> np.ndarray:
    """Per-row weights: alpha where the row's elevation center falls in [lo, hi).

    A band outside the grid's span, or one that holds no row center, raises ValueError.
    """
    lo, hi = band
    if lo >= hi:
        raise ValueError(f"empty band {band}")
    if lo < grid.phi_lo or hi > grid.phi_hi:
        raise ValueError(f"band {band} outside grid span [{grid.phi_lo}, {grid.phi_hi})")
    centers = grid.row_centers()
    inside = (centers >= lo) & (centers < hi)
    if not inside.any():
        raise ValueError(f"band {band} holds no row center of the grid")
    return np.where(inside, alpha, 1.0).astype(np.float32)


def mmse_loss(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean over all pixels of mask-weighted squared error; differentiable in pred.

    pred is [rows, cols] or [batch, rows, cols]; mask is one weight per row.
    """
    target = np.asarray(target, dtype=np.float32)
    if pred.shape != target.shape:
        raise ValueError(f"pred shape {pred.shape} vs target {target.shape}")
    n_rows = pred.shape[-2]
    mask = np.asarray(mask, dtype=np.float32)
    if mask.shape != (n_rows,):
        raise ValueError(f"mask must have one weight per row, got {mask.shape}")
    w = Tensor(mask.reshape(n_rows, 1))
    diff = T.sub(pred, Tensor(target))
    return T.mean(T.mul(T.mul(diff, diff), w))


def mmse_numpy(pred: np.ndarray, target: np.ndarray, mask: np.ndarray) -> float:
    """Plain-array twin of mmse_loss for evaluation and oracles."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"pred shape {pred.shape} vs target {target.shape}")
    w = np.asarray(mask, dtype=np.float64).reshape(-1, 1)
    return float(np.mean(w * (pred - target) ** 2))


# -- splitting ----------------------------------------------------------------


def split(samples: list[Sample], spec: SplitSpec = SplitSpec()) -> tuple[list[Sample], list[Sample], list[Sample]]:
    """Per-scenario sequential split: first train fraction, then val, rest test.

    Counts use floor for train and val, with the same 1e-9 slack that
    ``SplitSpec`` allows, so a product such as 0.7 * 90 = 62.99999999999999
    counts 63; the remainder goes to test.  Each part is grouped by
    scenario: it lists the scenarios in the order they first appear in
    ``samples``, and each scenario's samples in their order there.
    """
    by_scenario: dict[str, list[Sample]] = {}
    for s in samples:
        by_scenario.setdefault(s.scenario_id, []).append(s)
    tr: list[Sample] = []
    va: list[Sample] = []
    te: list[Sample] = []
    for group in by_scenario.values():
        n = len(group)
        n_tr = int(np.floor(spec.train * n + 1e-9))
        n_va = int(np.floor(spec.val * n + 1e-9))
        tr.extend(group[:n_tr])
        va.extend(group[n_tr : n_tr + n_va])
        te.extend(group[n_tr + n_va :])
    return tr, va, te


# -- training -----------------------------------------------------------------


class TrainingDiverged(RuntimeError):
    """A training loss or a validation MMSE became non-finite; training was aborted."""


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray]
    bn_state: dict[str, np.ndarray]
    epoch: int
    val_mmse: float


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    lr: float
    train_mmse: float
    val_mmse: float


@dataclass
class TrainResult:
    best: Checkpoint
    history: list[EpochStats]
    model: Model  # carries the final parameters


def _batch_arrays(samples: list[Sample], idx: np.ndarray) -> dict[str, np.ndarray]:
    return {
        name: np.stack([samples[i].modality(name) for i in idx]) for name in MODALITIES
    }


def _snapshot(model: Model, epoch: int, val_mmse: float) -> Checkpoint:
    return Checkpoint(
        params=model.store.copy_values(),
        bn_state=model.bn_state_arrays(),
        epoch=epoch,
        val_mmse=val_mmse,
    )


def _stacked_targets(samples: list[Sample], grid: GridSpec) -> np.ndarray:
    """[N, rows, cols] float32 targets of a split, each read once straight into its row."""
    out = np.empty((len(samples), grid.n_rows, grid.n_cols), dtype=np.float32)
    for row, s in zip(out, samples):
        row[...] = s.target.data
    return out


# rows of the longest encoder sequence that one ``Model.embed`` call may hold:
# 361 samples of the toy config's 17 tokens, where a call's cost is mostly
# streaming the frozen weights, and 31 of the paper config's 197, where a
# call is compute-bound and peaks about 15 MB higher per sample
_EMBED_ROWS = 6144


def _embed_chunk(cfg: ModelConfig) -> int:
    """Samples per ``Model.embed`` call: the row budget over the longest encoder sequence, at least 1."""
    longest = max(enc.n_patches + 1 for enc in cfg.encoders.values())
    return max(1, _EMBED_ROWS // longest)


def _cached_embeddings(model: Model, samples: list[Sample]) -> np.ndarray:
    """[N, 4, EMBED_DIM] embeddings of the frozen encoders, which record no graph.

    ``train`` computes them once per run for its training and validation
    splits together, and ``evaluate`` once for its split.  Each chunk of up
    to ``_embed_chunk`` samples is one ``Model.embed`` call: a call streams
    every frozen weight whatever its row count, so a toy split takes one
    call, while the paper config's chunks stay at or under 32 samples.
    Encoders hold no batch statistics, so a chunk embeds each sample as it
    would alone, up to the GEMM's summation order: with OpenBLAS on one
    thread, a chunk of 24 or more samples gives the same bits as any larger
    one, and smaller chunks differ by up to 2.6e-6 on toy-config values up
    to 2.4.
    """
    chunk = _embed_chunk(model.cfg)
    out = np.empty((len(samples), len(MODALITIES), EMBED_DIM), dtype=np.float32)
    for start in range(0, len(samples), chunk):
        idx = np.arange(start, min(start + chunk, len(samples)))
        out[idx] = model.embed(_batch_arrays(samples, idx)).data
    return out


def _predict(model: Model, embeddings: np.ndarray, batch_size: int) -> np.ndarray:
    """[N, rows, cols] outputs of evaluation passes from [N, 4, EMBED_DIM] embeddings, batch by batch."""
    out = np.empty((len(embeddings), model.cfg.grid.n_rows, model.cfg.grid.n_cols), dtype=np.float32)
    for start in range(0, len(embeddings), batch_size):
        chunk = slice(start, start + batch_size)
        out[chunk] = model.forward_batch(embeddings=Tensor(embeddings[chunk])).data
    return out


def _per_sample_mmse(preds, targets, mask: np.ndarray) -> np.ndarray:
    """``mmse_numpy`` of each prediction against its target, one value per sample."""
    return np.array([mmse_numpy(pred, target, mask) for pred, target in zip(preds, targets, strict=True)])


def _eval_mmse(model: Model, embeddings: np.ndarray, targets: np.ndarray, mask: np.ndarray, batch_size: int) -> float:
    """Mean training-unit MMSE over a split, from its embeddings."""
    return float(np.mean(_per_sample_mmse(_predict(model, embeddings, batch_size), targets, mask)))


def _step_loss(
    model: Model, embeddings: np.ndarray, targets: np.ndarray, mask: np.ndarray, rng: np.random.Generator
) -> float:
    """One training step's loss; when it is finite, backward writes its gradient into the store.

    The step's autodiff graph lives only inside this call, so none of it is
    held through the optimizer update or the next step.
    """
    out = model.forward_batch(embeddings=Tensor(embeddings), train_rng=rng)
    loss = mmse_loss(out, targets, mask)
    value = float(loss.data)
    if np.isfinite(value):
        loss.backward()
    return value


def train(
    dataset: list[Sample],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    split_spec: SplitSpec,
) -> TrainResult:
    """Mini-batch Adam on the band-weighted loss; returns the best state and the final model.

    The dataset is split internally (sequential per scenario), and only the
    training and validation splits are read: each model input once, when the
    frozen encoders embed both splits in passes sized by the row budget (see
    ``_cached_embeddings``), and each target once, into the stacked targets.
    Training steps and validation passes take ``batch_size`` samples.
    Batches are drawn in a seeded shuffled order each epoch; a trailing short
    batch is kept only if it has at least 2 samples.
    A training split under 2 samples or an empty validation split raises
    ValueError; a non-finite training loss or validation MMSE raises
    TrainingDiverged, naming the epoch.
    """
    tr, va, _ = split(dataset, split_spec)
    if len(tr) < 2:
        raise ValueError(f"training split has {len(tr)} samples; batch norm needs at least 2")
    if not va:
        raise ValueError("validation split is empty; the best checkpoint is chosen by validation MMSE")
    grid = model_cfg.grid
    mask = weight_mask(grid, train_cfg.band, train_cfg.alpha)
    scale = 1.0 / grid.max_range if train_cfg.normalize_ranges else 1.0

    seeds = np.random.SeedSequence(train_cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(seeds[0])
    dropout_rng = np.random.default_rng(seeds[1])

    model = Model(model_cfg)

    targets_tr, targets_va = _stacked_targets(tr, grid), _stacked_targets(va, grid)
    targets_tr *= scale
    targets_va *= scale

    emb = _cached_embeddings(model, tr + va)
    emb_tr, emb_va = emb[: len(tr)], emb[len(tr) :]

    history: list[EpochStats] = []
    best: Checkpoint | None = None
    n = len(tr)
    for epoch in range(1, train_cfg.epochs + 1):
        lr = lr_for_epoch(train_cfg, epoch)
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        seen = 0
        for start in range(0, n, train_cfg.batch_size):
            idx = order[start : start + train_cfg.batch_size]
            if len(idx) < 2:
                break  # batch norm needs at least 2 samples
            value = _step_loss(model, emb_tr[idx], targets_tr[idx], mask, dropout_rng)
            if not np.isfinite(value):
                raise TrainingDiverged(
                    f"non-finite loss {value} at epoch {epoch}, batch start {start}"
                )
            adam_step(model.store, lr)
            loss_sum += value * len(idx)
            seen += len(idx)
        train_mmse = loss_sum / max(seen, 1)
        val_mmse = _eval_mmse(model, emb_va, targets_va, mask, train_cfg.batch_size)
        if not np.isfinite(val_mmse):
            raise TrainingDiverged(f"non-finite validation MMSE {val_mmse} at epoch {epoch}")
        history.append(EpochStats(epoch=epoch, lr=lr, train_mmse=train_mmse, val_mmse=val_mmse))
        log.debug("epoch %d lr %.2g train %.6f val %.6f", epoch, lr, train_mmse, val_mmse)
        if best is None or val_mmse < best.val_mmse:
            best = _snapshot(model, epoch, val_mmse)

    return TrainResult(best=best, history=history, model=model)


def write_history(path, history: list[EpochStats]) -> None:
    """One tab-separated line per epoch: epoch, train MMSE, val MMSE, lr."""
    lines = [f"{h.epoch}\t{h.train_mmse:.8f}\t{h.val_mmse:.8f}\t{h.lr:g}\n" for h in history]
    formats.write_text(path, "".join(lines))


# -- evaluation ---------------------------------------------------------------


@dataclass
class EvalReport:
    """Per-scenario and overall MMSE, with the all-zeros baseline attached.

    Every field past ``per_scenario`` is one named report line (see
    _REPORT_KEYS); an optional line is left out while its field is None.
    """

    per_scenario: dict[str, float]
    overall: float
    baseline_zeros: float
    ablation_no_fusion: float | None = None

    def to_text(self) -> str:
        lines = [f"{sid}\t{v:.6f}" for sid, v in self.per_scenario.items()]
        for key in _REPORT_KEYS:
            value = getattr(self, key)
            if value is not None:
                lines.append(f"{key}\t{value:.6f}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "EvalReport":
        table: dict[str, float] = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            key, _, value = line.partition("\t")
            if not value:
                raise ValueError(f"malformed report line {line!r}")
            if key in table:
                raise ValueError(f"repeated report line {key!r}")
            table[key] = float(value)
        named = {key: table.pop(key) for key in _REPORT_KEYS if key in table}
        if "overall" not in named or "baseline_zeros" not in named:
            raise ValueError("report missing overall or baseline_zeros line")
        return cls(table, **named)


# the keys of EvalReport's own lines, in report order, which no scenario may take
_REPORT_KEYS = tuple(f.name for f in fields(EvalReport) if f.name != "per_scenario")


def model_from_checkpoint(model_cfg: ModelConfig, ckpt: Checkpoint) -> Model:
    """A model holding copies of the checkpoint's parameters and running statistics.

    The store is built straight from ``ckpt.params``, in the model's
    parameter order, without drawing fresh weights first.  An unknown name
    raises KeyError; a missing parameter or a wrong shape raises ValueError.
    """
    shapes = _param_shapes(model_cfg)
    unknown = set(ckpt.params).difference(name for name, _, _, _ in shapes)
    if unknown:
        raise KeyError(f"unknown parameter {min(unknown)!r}")
    store = ParamStore(
        (name, ckpt.params[name], trainable) for name, _, _, trainable in shapes if name in ckpt.params
    )
    model = Model(model_cfg, store)
    model.load_bn_state_arrays(ckpt.bn_state)
    return model


_META_NAME = "meta.state"


def save_checkpoint(
    path,
    config_text: str,
    ckpt: Checkpoint,
    adam: dict[str, np.ndarray] | None = None,
) -> None:
    """Write parameters, running statistics, and (optionally) Adam state."""
    tensors: dict[str, np.ndarray] = dict(ckpt.params)
    tensors.update(ckpt.bn_state)
    tensors[_META_NAME] = np.array([float(ckpt.epoch), ckpt.val_mmse], dtype=np.float32)
    if adam:
        for name, arr in adam.items():
            tensors[formats.ADAM_PREFIX + name] = arr
    formats.write_lsck(path, config_text, tensors)


def load_checkpoint(path) -> tuple[str, Checkpoint, dict[str, np.ndarray]]:
    """Read back (config text, checkpoint, adam state) from an LSCK file."""
    config_text, tensors = formats.read_lsck(path)
    adam = {k[len(formats.ADAM_PREFIX):]: v for k, v in tensors.items() if k.startswith(formats.ADAM_PREFIX)}
    meta = tensors.get(_META_NAME)
    if meta is None or meta.shape != (2,):
        got = "none" if meta is None else f"shape {meta.shape}"
        raise formats.MalformedFileError(f"{_META_NAME} must hold (epoch, val_mmse), got {got}")
    epoch, val = int(meta[0]), float(meta[1])
    params: dict[str, np.ndarray] = {}
    bn: dict[str, np.ndarray] = {}
    for name, arr in tensors.items():
        if name.startswith(formats.ADAM_PREFIX) or name == _META_NAME:
            continue
        if ".running_mean" in name or ".running_var" in name:
            bn[name] = arr
        else:
            params[name] = arr
    return config_text, Checkpoint(params=params, bn_state=bn, epoch=epoch, val_mmse=val), adam


def evaluate(
    model: Model,
    samples: list[Sample],
    train_cfg: TrainConfig,
    batch_size: int,
) -> EvalReport:
    """Evaluation passes of ``batch_size`` samples; per-sample MMSE in meters, grouped by scenario.

    The frozen encoders embed the split in passes sized by the row budget,
    not by ``batch_size`` (see ``_cached_embeddings``), so a toy split is
    one pass; the fusion and decoder passes take ``batch_size`` samples.
    Only these samples are read, each array once: the targets are stacked
    once, for the model's MMSE and the all-zeros baseline alike.  A sample
    whose MMSE is not finite (a checkpoint holding a NaN, say) raises
    ValueError, so no report is made of it.
    """
    if not samples:
        raise ValueError("evaluation split is empty")
    grid = model.cfg.grid
    mask = weight_mask(grid, train_cfg.band, train_cfg.alpha)
    scale = grid.max_range if train_cfg.normalize_ranges else 1.0
    preds = _predict(model, _cached_embeddings(model, samples), batch_size)
    targets = _stacked_targets(samples, grid)  # read after the passes, so not held through them
    per_sample = _per_sample_mmse(np.clip(preds * scale, 0.0, grid.max_range), targets, mask)
    bad = np.flatnonzero(~np.isfinite(per_sample))
    if bad.size:
        i = bad[0]
        raise ValueError(f"test sample {i} ({samples[i].scenario_id}) has a non-finite MMSE {per_sample[i]}")
    per_scenario: dict[str, float] = {}
    counts: dict[str, int] = {}
    for value, s in zip(per_sample, samples):
        per_scenario[s.scenario_id] = per_scenario.get(s.scenario_id, 0.0) + value
        counts[s.scenario_id] = counts.get(s.scenario_id, 0) + 1
    per_scenario = {k: v / counts[k] for k, v in per_scenario.items()}
    zeros = np.zeros((grid.n_rows, grid.n_cols), dtype=np.float32)
    return EvalReport(
        per_scenario=per_scenario,
        overall=float(per_sample.mean()),
        baseline_zeros=float(np.mean(_per_sample_mmse([zeros] * len(targets), targets, mask))),
    )


# -- dataset assembly ---------------------------------------------------------


def load_dataset(root, grid: GridSpec) -> list[Sample]:
    """The sample_* directories under root, as samples that read their arrays on access.

    Only each meta.txt is read here (see ``synthgen.read_sample``), so a
    malformed scenario is refused for every sample now, while a missing
    array file or a non-finite value is refused by the stage that reads it.
    """
    root = Path(root)
    dirs = sorted(p for p in root.iterdir() if p.is_dir() and p.name.startswith("sample_"))
    if not dirs:
        raise ValueError(f"no sample_* directories under {root}")
    samples = []
    for d in dirs:
        arrays, scenario = read_sample(d, MODALITIES + ("target_raster",))
        if scenario in _REPORT_KEYS or "\t" in scenario:
            raise formats.MalformedFileError(f"{d}: scenario {scenario!r} is a report key or holds a tab")
        samples.append(Sample(arrays, grid, scenario))
    return samples
