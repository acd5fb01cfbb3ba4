"""Desk-scale experiment: synthesize a dataset, train, evaluate, optionally ablate.

Runs the CLI's `synth`, `train` and `eval` stages on the toy config (with
the given epochs and seed), keeping the samples in a temporary directory,
and leaves the checkpoint, loss history, and evaluation report under --out.
With --ablation it also trains and evaluates the no-fusion variant, the
same config with `model.fusion_bypass = true`, in the temporary directory
and adds its overall MMSE to the report.  With default arguments this is
the same configuration the acceptance suite exercises, finishing in a
couple of minutes on one core.
"""

import argparse
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lidarsynth import cli
from lidarsynth import config as configmod
from lidarsynth import formats
from lidarsynth.training import EvalReport


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/toy", help="output directory")
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--profile", default="mixed")
    ap.add_argument("--ablation", action="store_true",
                    help="also train the no-fusion variant and compare")
    args = ap.parse_args(argv)

    overrides = {"train.epochs": str(args.epochs), "train.seed": str(args.seed)}
    out = Path(args.out)
    ckpt, report_path = out / "model.lsck", out / "report.txt"

    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, data, nofusion = Path(tmp) / "toy.cfg", Path(tmp) / "data", Path(tmp) / "nofusion"
        cfg_path.write_text(configmod.config_text(configmod.toy_config(overrides)), encoding="utf-8")
        stages = [
            ("dataset", ["synth", "--out", data, "--num", args.samples, "--profile", args.profile,
                         "--seed", args.seed, "--config", cfg_path]),
            ("training", ["train", "--data", data, "--config", cfg_path, "--out", ckpt]),
            ("evaluation", ["eval", "--data", data, "--ckpt", ckpt, "--report", report_path]),
        ]
        if args.ablation:
            nofusion_cfg = Path(tmp) / "nofusion.cfg"
            nofusion_cfg.write_text(
                configmod.config_text(configmod.toy_config({**overrides, "model.fusion_bypass": "true"})),
                encoding="utf-8",
            )
            stages += [
                ("no-fusion training", ["train", "--data", data, "--config", nofusion_cfg,
                                        "--out", nofusion / "model.lsck"]),
                ("no-fusion evaluation", ["eval", "--data", data, "--ckpt", nofusion / "model.lsck",
                                          "--report", nofusion / "report.txt"]),
            ]
        for name, stage_argv in stages:
            t0 = time.monotonic()
            status = cli.main([str(a) for a in stage_argv])
            if status != cli.EXIT_OK:
                return status
            print(f"{name}: {time.monotonic() - t0:.1f}s")

        report = EvalReport.from_text(report_path.read_text(encoding="utf-8"))
        if args.ablation:
            ablation = EvalReport.from_text((nofusion / "report.txt").read_text(encoding="utf-8"))
            report = replace(report, ablation_no_fusion=ablation.overall)
            formats.write_text(report_path, report.to_text())

    # history.txt: epoch, train MMSE, val MMSE, lr per line
    for line in (out / "history.txt").read_text(encoding="utf-8").splitlines():
        epoch, train_mmse, val_mmse, lr = line.split("\t")
        print(f"  epoch {int(epoch):3d}  lr {lr}  train {float(train_mmse):.6f}  val {float(val_mmse):.6f}")

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
