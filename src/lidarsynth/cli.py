"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 malformed input, 3 numeric failure.

Subcommands cover the full pipeline: `synth` writes sample directories,
`preprocess-radar` turns a raw cube into the two normalized maps,
`rasterize`/`derasterize` convert between point clouds and range images,
`train` fits a model and writes a checkpoint plus history.txt, `eval`
produces the per-scenario report, `render` dumps a raster as a PGM, and
`dump-config` prints the documented defaults.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from lidarsynth import config as configmod
from lidarsynth import formats, training
from lidarsynth.geometry import PolarRaster, derasterize_arrays, rasterize_with_stats
from lidarsynth.radar import RadarCube, range_angle_map, range_transform, range_velocity_map
from lidarsynth.synthgen import export_sample, plan_scenes
from lidarsynth.training import TrainingDiverged

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage problems; we reserve 2 for bad input."""

    def error(self, message):
        raise UsageError(message)


def _load_config(path: str | None) -> configmod.AppConfig:
    if path is None:
        return configmod.default_config()
    return configmod.parse_config(Path(path).read_text(encoding="utf-8"))


# -- subcommands --------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.num < 1:
        raise UsageError(f"--num must be at least 1, got {args.num}")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    cfg = _load_config(args.config)
    plan = plan_scenes(args.num, args.profile, cfg.radar, args.seed)  # rejects an unknown profile
    out = Path(args.out)
    if out.is_dir() and any(p.is_dir() for p in out.glob("sample_*")):
        raise FileExistsError(f"{out} already holds sample directories; synth writes only into a fresh --out")
    out.mkdir(parents=True, exist_ok=True)
    for i, (seed, prof, scene, radar) in enumerate(plan):
        export_sample(
            scene,
            cfg.grid,
            radar,
            cfg.cam_width,
            cfg.cam_height,
            out / f"sample_{i:06d}",
            seed=seed,
            scenario=prof.name,
        )
    print(f"wrote {args.num} samples to {out}")
    return EXIT_OK


def cmd_preprocess_radar(args) -> int:
    cube = RadarCube.from_interleaved(formats.read_lstf(args.cube))
    ranged = range_transform(cube)
    formats.write_lstf(args.out_ra, range_angle_map(ranged))
    formats.write_lstf(args.out_rv, range_velocity_map(ranged))
    return EXIT_OK


def cmd_rasterize(args) -> int:
    grid = _load_config(args.grid).grid
    points = formats.read_lspc(args.points)
    raster, dropped = rasterize_with_stats(points.astype(np.float64), grid)
    formats.write_lstf(args.out, raster.data)
    if dropped:
        print(f"dropped {dropped} points outside the grid or range", file=sys.stderr)
    return EXIT_OK


def cmd_derasterize(args) -> int:
    grid = _load_config(args.grid).grid
    raster = PolarRaster(grid=grid, data=formats.read_lstf(args.raster))
    formats.write_lspc(args.out, derasterize_arrays(raster).astype(np.float32))
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    dataset = training.load_dataset(args.data, cfg.grid)
    result = training.train(dataset, cfg.model, cfg.train, cfg.split)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    training.save_checkpoint(out, configmod.config_text(cfg), result.best)
    training.write_history(out.parent / "history.txt", result.history)
    print(
        f"trained {cfg.train.epochs} epochs; best epoch {result.best.epoch} "
        f"(val {result.best.val_mmse:.6f}); checkpoint {out}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg_text, ckpt, _ = training.load_checkpoint(args.ckpt)
    cfg = configmod.parse_config(cfg_text)
    if args.config is not None:
        given = configmod.parse_config(Path(args.config).read_text(encoding="utf-8"))
        # compare parsed values: `raw` keeps each value's spelling (10 vs 10.0)
        if replace(given, raw=cfg.raw) != cfg:
            raise ValueError("checkpoint config differs from --config")
    dataset = training.load_dataset(args.data, cfg.grid)
    _, _, test = training.split(dataset, cfg.split)
    model = training.model_from_checkpoint(cfg.model, ckpt)
    report = training.evaluate(model, test, cfg.train, cfg.train.batch_size)
    formats.write_text(args.report, report.to_text())
    print(f"overall MMSE {report.overall:.6f} (all-zeros baseline {report.baseline_zeros:.6f})")
    return EXIT_OK


def cmd_render(args) -> int:
    arr = formats.read_lstf(args.raster)
    if arr.ndim != 2:
        raise ValueError(f"render expects a 2-D raster, got rank {arr.ndim}")
    formats.write_pgm(args.out, arr)
    return EXIT_OK


def cmd_dump_config(args) -> int:
    cfg = configmod.toy_config() if args.toy else configmod.default_config()
    text = configmod.config_text(cfg, docs=True)
    if args.out:
        formats.write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- wiring -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="lidarsynth", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("synth", help="generate sample directories")
    p.add_argument("--out", required=True)
    p.add_argument("--num", type=int, required=True)
    p.add_argument("--profile", default="mixed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess-radar", help="cube -> range-angle / range-velocity maps")
    p.add_argument("--cube", required=True)
    p.add_argument("--out-ra", required=True)
    p.add_argument("--out-rv", required=True)
    p.set_defaults(func=cmd_preprocess_radar)

    p = sub.add_parser("rasterize", help="point cloud -> polar range image")
    p.add_argument("--points", required=True)
    p.add_argument("--grid", help="config file defining the grid (defaults used if omitted)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rasterize)

    p = sub.add_parser("derasterize", help="polar range image -> point cloud")
    p.add_argument("--raster", required=True)
    p.add_argument("--grid", help="config file defining the grid (defaults used if omitted)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_derasterize)

    p = sub.add_parser("train", help="fit the model on a sample directory")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--config", help="cross-check against the embedded config")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("render", help="raster LSTF -> binary PGM image")
    p.add_argument("--raster", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("dump-config", help="print the documented configuration defaults")
    p.add_argument("--toy", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dump_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDiverged as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (formats.MalformedFileError, ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
