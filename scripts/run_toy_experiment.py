"""Desk-scale experiment: synthesize a dataset, train, evaluate, optionally ablate.

Runs the whole pipeline in one process without touching sample directories
(everything stays in memory) and writes the checkpoint, loss history, and
evaluation report under --out.  With default arguments this is the same
configuration the acceptance suite exercises, finishing in a couple of
minutes on one core.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lidarsynth import config as configmod
from lidarsynth import training


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/toy", help="output directory")
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--profile", default="mixed")
    ap.add_argument("--ablation", action="store_true",
                    help="also train the no-fusion variant and compare")
    args = ap.parse_args()

    cfg = configmod.toy_config(overrides={
        "train.epochs": str(args.epochs),
        "train.seed": str(args.seed),
    })
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.monotonic()
    dataset = training.synthetic_dataset(
        args.samples, args.profile, cfg.grid, cfg.radar,
        cfg.cam_width, cfg.cam_height, seed=args.seed,
    )
    print(f"dataset: {len(dataset)} samples in {time.monotonic() - t0:.1f}s")

    t0 = time.monotonic()
    result = training.train(dataset, cfg.model, cfg.train, cfg.split)
    print(f"training: {len(result.history)} epochs in {time.monotonic() - t0:.1f}s")
    for h in result.history:
        print(f"  epoch {h.epoch:3d}  lr {h.lr:g}  train {h.train_mmse:.6f}  val {h.val_mmse:.6f}")

    _, _, test = training.split(dataset, cfg.split)
    model = training.model_from_checkpoint(cfg.model, result.best)
    report = training.evaluate(model, test, cfg.train)

    if args.ablation:
        ablation_report, _ = training.ablation_no_fusion(dataset, cfg.model, cfg.train, cfg.split)
        from dataclasses import replace
        report = replace(report, ablation_no_fusion=ablation_report.overall)

    training.save_checkpoint(out / "model.lsck", configmod.config_text(cfg), result.best)
    training.write_history(out / "history.txt", result.history)
    (out / "report.txt").write_text(report.to_text(), encoding="utf-8")

    print(f"\ntest MMSE by scenario (meters^2, band-weighted):")
    for sid, value in report.per_scenario.items():
        print(f"  {sid:15s} {value:10.4f}")
    print(f"  {'overall':15s} {report.overall:10.4f}")
    print(f"  {'all-zeros':15s} {report.baseline_zeros:10.4f}")
    if report.ablation_no_fusion is not None:
        print(f"  {'no-fusion':15s} {report.ablation_no_fusion:10.4f}")
    print(f"\nartifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
