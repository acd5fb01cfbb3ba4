"""The three benchmark workloads: set-up, one loop iteration, output checks.

Every workload is a closed loop with one caller that waits for each result
before starting the next.  ``iterate`` runs one iteration and returns one
``Op`` per checked operation; only the program call inside ``timed`` is
timed, the checks that follow it are not.  A check that fails, or an
exception from the program, marks the op failed.
"""

from __future__ import annotations

import shutil
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from lidarsynth import config as configmod
from lidarsynth import formats, synthgen, training
from lidarsynth import tensor as T
from lidarsynth.model import MODALITIES, Model

# under benchmark seed s, sample i uses scene seed s * SEED_STRIDE + i;
# synth_toy's warm-up scenes use seeds from WARMUP_OFFSET up, whatever s is
SEED_STRIDE = 100_000
WARMUP_OFFSET = 90_000


@dataclass(frozen=True)
class Scale:
    """Input sizes; the self-check runs every workload at TINY."""

    train_samples: int = 56  # 14 per profile: a 32-sample train split, one full batch per epoch
    train_epochs: int = 4
    eval_samples: int = 200
    setup_repeats: int = 3
    synth_warmup: int = 4  # one scene of each profile


FULL = Scale()
TINY = Scale(train_samples=20, train_epochs=2, eval_samples=20, setup_repeats=2, synth_warmup=1)


@dataclass
class Op:
    kind: str
    seconds: float  # CPU seconds of the call, scaled to the reference speed after the window (speed.py)
    units: int  # train: optimizer steps; eval: samples forwarded; synth: samples written
    error: str | None = None
    mmse: float | None = None
    wall: float = 0.0  # wall seconds of the call


def write_sample(cfg: configmod.AppConfig, root: Path, i: int, scene_seed: int):
    """One ``lidarsynth synth`` sample: profile i mod 4 of ``mixed``."""
    prof = synthgen.resolve_profiles("mixed")[i % len(synthgen.PROFILE_ORDER)]
    scene = synthgen.generate_scene(scene_seed, prof)
    radar = replace(cfg.radar, noise_sigma=prof.noise_sigma)
    synthgen.export_sample(
        scene, cfg.grid, radar, cfg.cam_width, cfg.cam_height,
        root / f"sample_{i:06d}", seed=scene_seed, scenario=prof.name,
    )
    return scene, radar


def write_dataset(cfg: configmod.AppConfig, root: Path, n: int, seed: int) -> None:
    root.mkdir(parents=True)
    for i in range(n):
        write_sample(cfg, root, i, seed * SEED_STRIDE + i)


def expected_shapes(cfg: configmod.AppConfig) -> dict[str, tuple[int, ...]]:
    r = cfg.radar
    return {
        "camera": (cfg.cam_height, cfg.cam_width),
        "depth": (cfg.cam_height, cfg.cam_width),
        "radar_cube": (r.n_rx, r.n_samples, r.n_chirps, 2),
        "range_angle": (r.n_rx, r.n_samples),
        "range_velocity": (r.n_chirps, r.n_samples),
        "target_raster": (cfg.grid.n_rows, cfg.grid.n_cols),
    }


def check_sample(cfg, sample_dir: Path, reference: dict[str, np.ndarray]) -> str | None:
    """Shapes from the config, bit-identical read-back, value ranges."""
    files = sorted(p.name for p in sample_dir.iterdir())
    if files != sorted(synthgen.SAMPLE_FILES):
        return f"{sample_dir.name} holds {files}"
    for name, shape in expected_shapes(cfg).items():
        got = formats.read_lstf(sample_dir / f"{name}.lstf")
        if got.shape != shape:
            return f"{name} shape {got.shape}, config implies {shape}"
        want = np.ascontiguousarray(reference[name], dtype=np.float32)
        if want.shape != shape or not np.array_equal(got.view(np.uint32), want.view(np.uint32)):
            return f"{name} does not read back bit-identically"
        if not np.isfinite(got).all():
            return f"{name} has non-finite values"
        hi = 1.0 if name in ("range_angle", "range_velocity") else cfg.grid.max_range
        if name != "radar_cube" and (got.min() < 0.0 or got.max() > hi):
            return f"{name} outside [0, {hi}]"
    return None


def history_error(result: training.TrainResult, reference: training.TrainResult | None) -> str | None:
    h = result.history
    values = [v for e in h for v in (e.train_mmse, e.val_mmse)]
    if not np.isfinite(values).all():
        return "non-finite epoch MMSE"
    if not h[-1].train_mmse < h[0].train_mmse:
        return f"train MMSE did not fall: {h[0].train_mmse} -> {h[-1].train_mmse}"
    if reference is not None:
        ref = [v for e in reference.history for v in (e.train_mmse, e.val_mmse)]
        drift = float(np.max(np.abs(np.subtract(values, ref))))
        if len(ref) != len(values) or drift > 1e-5:
            return f"same-seed rerun drifted {drift} from the first run"
    return None


class Workload:
    op_kind = ""  # the kind of op whose latency is reported
    # the slope of log op CPU time on log reference-kernel time as the host's
    # load drifts, measured on a 2-vCPU Intel Xeon KVM guest (speed.py)
    elasticity: float
    min_iterations = 1
    aliases: dict[str, str] = {}  # workload-specific name -> shared end-to-end metric

    def __init__(self, scale: Scale, seed: int):
        self.scale = scale
        self.seed = seed

    def setup(self, root: Path) -> None:
        raise NotImplementedError

    def warm_up(self, timed) -> list[Op]:
        raise NotImplementedError

    def iterate(self, timed) -> list[Op]:
        raise NotImplementedError

    def end_to_end(self, ops: list[Op]) -> dict[str, float]:
        """samples_per_s, op_ms_p50, op_ms_p90, mmse_norm of the checked ops."""
        raise NotImplementedError

    def _latency(self, ops: list[Op]) -> dict[str, float]:
        ms = [o.seconds * 1e3 for o in ops if o.kind == self.op_kind]
        p50, p90 = np.quantile(ms, [0.5, 0.9])
        return {"op_ms_p50": float(p50), "op_ms_p90": float(p90)}


def _attempt(ops: list[Op], kind: str, units: int, timed, fn, check):
    """Run one timed program call, then its check; record the op either way."""
    try:
        out, seconds, wall = timed(fn)
    except Exception as e:  # the program failed: count it and keep the loop going
        ops.append(Op(kind, 0.0, units, error=f"{type(e).__name__}: {e}"))
        return None
    op = Op(kind, seconds, units, wall=wall)
    _run_check(op, check, out)
    ops.append(op)
    return out


def _run_check(op: Op, check, out) -> None:
    try:
        op.error = check(out, op)
    except Exception as e:
        op.error = f"check raised {type(e).__name__}: {e}"


class TrainToy(Workload):
    """The ``lidarsynth train`` body: load_dataset, train, save_checkpoint."""

    op_kind = "train"
    elasticity = 0.5  # the exponent that spread ten train runs least; ops are too long to regress
    min_iterations = 3  # ops take about 7 s, so a short window would hold only two
    aliases = {"train_samples_per_s": "samples_per_s", "train_val_mmse": "mmse_norm"}

    def setup(self, root: Path) -> None:
        self.cfg = configmod.toy_config({"train.epochs": str(self.scale.train_epochs)})
        self.cfg_text = configmod.config_text(self.cfg)
        self.data = root / "data"
        self.ckpt = root / "model.lsck"
        write_dataset(self.cfg, self.data, self.scale.train_samples, self.seed)

    def _op(self):
        dataset = training.load_dataset(self.data, self.cfg.grid)
        result = training.train(dataset, self.cfg.model, self.cfg.train, self.cfg.split)
        training.save_checkpoint(self.ckpt, self.cfg_text, result.best)
        return result

    def _check(self, result, op: Op) -> str | None:
        op.mmse = result.best.val_mmse
        if not self.ckpt.is_file() or self.ckpt.stat().st_size == 0:
            return "checkpoint not written"
        return history_error(result, self.reference)

    def warm_up(self, timed) -> list[Op]:
        n = len(training.split(training.load_dataset(self.data, self.cfg.grid), self.cfg.split)[0])
        bs = self.cfg.train.batch_size
        # train() stops an epoch at a trailing batch of fewer than 2 samples
        batches = [b for b in (min(bs, n - start) for start in range(0, n, bs)) if b >= 2]
        self.samples_per_op = self.cfg.train.epochs * sum(batches)
        self.steps_per_op = self.cfg.train.epochs * len(batches)
        self.reference = None
        ops: list[Op] = []
        self.reference = _attempt(ops, "warm_up", self.steps_per_op, timed, self._op, self._check)
        return ops

    def iterate(self, timed) -> list[Op]:
        ops: list[Op] = []
        _attempt(ops, self.op_kind, self.steps_per_op, timed, self._op, self._check)
        return ops

    def end_to_end(self, ops: list[Op]) -> dict[str, float]:
        return {
            "samples_per_s": statistics.median(self.samples_per_op / o.seconds for o in ops),
            **self._latency(ops),
            "mmse_norm": statistics.median(o.mmse for o in ops),
        }


class EvalToy(Workload):
    """Single-sample Model.forward per test sample, one batched evaluate per pass."""

    op_kind = "forward"
    elasticity = 0.6  # 0.65 for a single-sample forward, 0.5-0.6 fitted for the eval body
    aliases = {
        "forward_ms_p50": "op_ms_p50",
        "forward_ms_p90": "op_ms_p90",
        "eval_samples_per_s": "samples_per_s",
    }

    def setup(self, root: Path) -> None:
        cfg = configmod.toy_config()
        self.data = root / "data"
        self.ckpt = root / "model.lsck"
        write_dataset(cfg, self.data, self.scale.eval_samples, self.seed)
        model = Model(cfg.model)
        fresh = training.Checkpoint(
            params=model.store.copy_values(), bn_state=model.bn_state_arrays(), epoch=0, val_mmse=0.0
        )
        training.save_checkpoint(self.ckpt, configmod.config_text(cfg), fresh)
        self.ref = None

    def _eval_body(self):
        """What ``lidarsynth eval`` does, keeping the model for the forwards."""
        cfg_text, ckpt, _ = training.load_checkpoint(self.ckpt)
        cfg = configmod.parse_config(cfg_text)
        dataset = training.load_dataset(self.data, cfg.grid)
        _, _, test = training.split(dataset, cfg.split)
        model = training.model_from_checkpoint(cfg.model, ckpt)
        report = training.evaluate(model, test, cfg.train, cfg.train.batch_size)
        return cfg, model, test, report

    def _reference(self, cfg, model, test) -> None:
        """Batched eval-mode predictions of the test split and the MMSE they imply."""
        rows = []
        with T.no_grad():
            for start in range(0, len(test), cfg.train.batch_size):
                chunk = test[start : start + cfg.train.batch_size]
                batch = {m: np.stack([s.modality(m) for s in chunk]) for m in MODALITIES}
                rows.append(model.forward_batch(batch).data)
        self.ref = np.clip(np.concatenate(rows), 0.0, cfg.grid.max_range)
        scale = cfg.grid.max_range if cfg.train.normalize_ranges else 1.0
        mask = training.weight_mask(cfg.grid, cfg.train.band, cfg.train.alpha)
        meters = np.clip(self.ref * scale, 0.0, cfg.grid.max_range)
        self.ref_mmse = float(
            np.mean([training.mmse_numpy(meters[i], s.target.data, mask) for i, s in enumerate(test)])
        )

    def _check_report(self, out, op: Op) -> str | None:
        cfg, model, test, report = out
        if self.ref is None:
            self._reference(cfg, model, test)
        op.mmse = report.overall / cfg.grid.max_range**2
        values = [report.overall, report.baseline_zeros, *report.per_scenario.values()]
        if not np.isfinite(values).all():
            return "non-finite MMSE in the report"
        if not np.isclose(report.overall, self.ref_mmse, rtol=1e-6, atol=1e-9):
            return f"evaluate overall {report.overall} vs batched reference {self.ref_mmse}"
        return None

    def _pass(self, timed, kind: str) -> list[Op]:
        ops: list[Op] = []
        out = _attempt(ops, kind, 0, timed, self._eval_body, self._check_report)
        if out is None:
            return ops
        cfg, model, test, _ = out
        ops[-1].units = len(test)
        hi = cfg.grid.max_range
        shape = (cfg.grid.n_rows, cfg.grid.n_cols)
        for i, s in enumerate(test):
            arrays = {m: s.modality(m) for m in MODALITIES}

            def check(raster, op, i=i):
                y = raster.data
                if y.shape != shape or not np.isfinite(y).all() or y.min() < 0.0 or y.max() > hi:
                    return f"forward output shape {y.shape} or values outside [0, {hi}]"
                diff = float(np.max(np.abs(y - self.ref[i])))
                return f"forward differs from the batched row by {diff}" if diff > 1e-5 else None

            _attempt(ops, self.op_kind, 1, timed, lambda: model.forward(arrays), check)
        return ops

    def warm_up(self, timed) -> list[Op]:
        return self._pass(timed, "warm_up")

    def iterate(self, timed) -> list[Op]:
        return self._pass(timed, "evaluate")

    def end_to_end(self, ops: list[Op]) -> dict[str, float]:
        passes = [o for o in ops if o.kind == "evaluate"]
        return {
            "samples_per_s": statistics.median(o.units / o.seconds for o in passes),
            **self._latency(ops),
            "mmse_norm": statistics.median(o.mmse for o in passes),
        }


class SynthToy(Workload):
    """One ``lidarsynth synth`` sample per op: generate_scene plus export_sample."""

    op_kind = "synth"
    elasticity = 0.9  # measured for a synth sample
    aliases = {"synth_samples_per_s": "samples_per_s", "synth_sample_ms_p90": "op_ms_p90"}

    def setup(self, root: Path) -> None:
        # as with ``lidarsynth dump-config --toy`` followed by ``synth --config``
        root.mkdir(parents=True)
        cfg_path = root / "toy.cfg"
        cfg_path.write_text(configmod.config_text(configmod.toy_config()), encoding="utf-8")
        self.cfg = configmod.parse_config(cfg_path.read_text(encoding="utf-8"))
        self.out = root / "samples"
        self.out.mkdir()
        self.mask = training.weight_mask(self.cfg.grid, self.cfg.train.band, self.cfg.train.alpha)
        self.next_index = 0
        # the first scene of each profile pays for whatever the program prepares
        # on first use, so set-up includes it; the scenes are the same for every
        # seed, so set-up time does not vary with their clutter
        self.warm = [
            (i, write_sample(self.cfg, self.out, i, i))
            for i in range(WARMUP_OFFSET, WARMUP_OFFSET + self.scale.synth_warmup)
        ]

    def _check(self, out, op: Op, i: int, scene_seed: int) -> str | None:
        cfg = self.cfg
        scene, radar = out
        sample_dir = self.out / f"sample_{i:06d}"
        ref = synthgen.build_sample(scene, cfg.grid, radar, cfg.cam_width, cfg.cam_height, scene_seed)
        error = check_sample(cfg, sample_dir, ref)
        zeros = np.zeros(expected_shapes(cfg)["target_raster"], dtype=np.float32)
        op.mmse = training.mmse_numpy(zeros, ref["target_raster"], self.mask) / cfg.grid.max_range**2
        shutil.rmtree(sample_dir)
        return error

    def warm_up(self, timed) -> list[Op]:
        ops = []
        for i, out in self.warm:
            op = Op("warm_up", 0.0, 1)
            _run_check(op, lambda out, op: self._check(out, op, i, i), out)
            ops.append(op)
        return ops

    def iterate(self, timed) -> list[Op]:
        i = self.next_index
        self.next_index += 1
        scene_seed = self.seed * SEED_STRIDE + i
        ops: list[Op] = []
        _attempt(
            ops, self.op_kind, 1, timed,
            lambda: write_sample(self.cfg, self.out, i, scene_seed),
            lambda out, op: self._check(out, op, i, scene_seed),
        )
        return ops

    def end_to_end(self, ops: list[Op]) -> dict[str, float]:
        return {
            "samples_per_s": len(ops) / sum(o.seconds for o in ops),
            **self._latency(ops),
            "mmse_norm": statistics.median(o.mmse for o in ops),
        }


WORKLOADS = {"train_toy": TrainToy, "eval_toy": EvalToy, "synth_toy": SynthToy}

