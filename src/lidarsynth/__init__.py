"""lidarsynth: synthesize LiDAR polar range images from camera and radar inputs.

Loading the package sets glibc's allocator to keep freed memory mapped (see
_keep_heap_mapped), for every stage of the process.
"""

import ctypes as _ctypes

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
