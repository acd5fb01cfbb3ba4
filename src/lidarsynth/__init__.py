"""lidarsynth: synthesize LiDAR polar range images from camera and radar inputs.

The package bundles a small reverse-mode autodiff engine over numpy, the
polar-grid geometry used for rasterizing point clouds, FMCW radar cube
preprocessing, a multimodal transformer (per-modality patch encoders, a
fusion layer, and a transposed-convolution decoder), procedural scene
generation for desk-scale experiments, and a training loop with a
band-weighted mean squared error objective.

Setting LIDARSYNTH_THREADS caps BLAS thread pools; it must take effect
before numpy loads its backend, hence the env handling ahead of imports.
When numpy is already loaded and a BLAS variable does not already hold that
count, the cap may not apply, and the "lidarsynth" logger warns once.
Loading the package also sets glibc's allocator to keep freed memory mapped
(see _keep_heap_mapped), for every stage of the process.
"""

import ctypes as _ctypes
import logging as _logging
import os as _os
import sys as _sys

_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_threads = _os.environ.get("LIDARSYNTH_THREADS")
if _threads and _threads.isdigit():
    if "numpy" in _sys.modules and any(_os.environ.get(_var) != _threads for _var in _BLAS_VARS):
        _logging.getLogger("lidarsynth").warning(
            "LIDARSYNTH_THREADS=%s is set after numpy loaded its BLAS, which may not keep to it: "
            "import lidarsynth before numpy, or set %s to %s too",
            _threads, ", ".join(_BLAS_VARS), _threads,
        )
    for _var in _BLAS_VARS:
        _os.environ.setdefault(_var, _threads)

# glibc mallopt parameters and the values the package sets: blocks under
# 32 MiB come from the heap, and a free heap top under 1 GiB is never given back
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 1 << 30


def _keep_heap_mapped() -> None:
    """Keep freed temporaries mapped, so the next training step, sample or pass does not page-fault them back.

    Calls glibc's mallopt; does nothing where the C library has none.  The
    setting is process-wide.
    """
    try:
        mallopt = _ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (_ctypes.c_int, _ctypes.c_int)
    mallopt.restype = _ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


_keep_heap_mapped()

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
