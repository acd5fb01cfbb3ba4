"""lidarsynth: synthesize LiDAR polar range images from camera and radar inputs.

The package bundles a small reverse-mode autodiff engine over numpy, the
polar-grid geometry used for rasterizing point clouds, FMCW radar cube
preprocessing, a multimodal transformer (per-modality patch encoders, a
fusion layer, and a transposed-convolution decoder), procedural scene
generation for desk-scale experiments, and a training loop with a
band-weighted mean squared error objective.

Setting LIDARSYNTH_THREADS caps BLAS thread pools; it must take effect
before numpy loads its backend, hence the env handling ahead of imports.
"""

import os as _os

_threads = _os.environ.get("LIDARSYNTH_THREADS")
if _threads and _threads.isdigit():
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from lidarsynth.geometry import (
    GridSpec,
    PolarRaster,
    derasterize_arrays,
    rasterize_with_stats,
)
from lidarsynth.radar import (
    RadarCube,
    range_angle_map,
    range_transform,
    range_velocity_map,
)
from lidarsynth.tensor import Tensor, no_grad

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "PolarRaster",
    "RadarCube",
    "Tensor",
    "derasterize_arrays",
    "no_grad",
    "range_angle_map",
    "range_transform",
    "range_velocity_map",
    "rasterize_with_stats",
    "__version__",
]
