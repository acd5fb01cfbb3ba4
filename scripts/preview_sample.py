"""Render one synthetic sample as PGM images for eyeballing.

Builds all five aligned arrays of the first sample that ``lidarsynth synth``
writes for the same profile and seed, and writes grayscale previews (camera,
depth, the two radar maps, and the target range image) plus a short scene
description.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lidarsynth import config as configmod
from lidarsynth.formats import write_pgm
from lidarsynth.synthgen import build_sample, plan_scenes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="preview", help="output directory")
    ap.add_argument("--profile", default="plaza_day")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--full-scale", action="store_true",
                    help="use the full 1088x1440 grid and 224x224 camera")
    args = ap.parse_args()

    cfg = configmod.default_config() if args.full_scale else configmod.toy_config()
    # the plan `lidarsynth synth` follows, so the radar carries the profile's noise level
    [(_, prof, scene, radar)] = plan_scenes(1, args.profile, cfg.radar, args.seed)
    arrays = build_sample(scene, cfg.grid, radar, cfg.cam_width, cfg.cam_height, args.seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("camera", "depth", "range_angle", "range_velocity"):
        write_pgm(out / f"{name}.pgm", arrays[name])
    write_pgm(out / "target.pgm", arrays["target_raster"])

    print(f"profile {prof.name}, seed {args.seed}, brightness {scene.ambient_brightness:.2f}")
    for p in scene.primitives:
        r = float(np.hypot(p.center[0], p.center[1]))
        print(f"  {p.kind:8s} at {r:5.1f} m, size {p.size:.2f} m, "
              f"reflectivity {p.reflectivity:.2f}, velocity {p.radial_velocity:+.1f} m/s")
    hit = arrays["target_raster"] > 0
    print(f"target: {hit.sum()} occupied bins, nearest {arrays['target_raster'][hit].min():.1f} m"
          if hit.any() else "target: empty")
    print(f"previews in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
