"""FMCW radar cube processing: range FFT, then range-angle / range-velocity maps.

A measurement cube is (receive antennas x samples per chirp x chirps per
frame), complex.  The range transform runs an FFT over the samples axis;
the two maps add a second FFT over the antennas axis (angle) or the chirps
axis (velocity), collapse the unused third axis by summing magnitudes,
center-shift the new axis, compress with log1p, and min-max normalize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadarCube",
    "range_transform",
    "range_angle_map",
    "range_velocity_map",
]


@dataclass
class RadarCube:
    """Complex I/Q cube with dims (n_rx, n_samples, n_chirps)."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex64)
        if self.data.ndim != 3:
            raise ValueError(f"cube must be 3-D (rx, samples, chirps), got shape {self.data.shape}")
        if min(self.data.shape) < 1:
            raise ValueError("all cube dims must be at least 1")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("cube contains non-finite values")

    def to_interleaved(self) -> np.ndarray:
        """Real view (n_rx, n_samples, n_chirps, 2) with (re, im) last."""
        out = np.empty(self.data.shape + (2,), dtype=np.float32)
        out[..., 0] = self.data.real
        out[..., 1] = self.data.imag
        return out

    @classmethod
    def from_interleaved(cls, arr: np.ndarray) -> "RadarCube":
        arr = np.asarray(arr, dtype=np.float32)
        if arr.ndim != 4 or arr.shape[-1] != 2:
            raise ValueError(f"interleaved cube must be (rx, samples, chirps, 2), got {arr.shape}")
        return cls(arr[..., 0] + 1j * arr[..., 1])


def range_transform(cube: RadarCube) -> RadarCube:
    """FFT every (rx, chirp) fiber along the samples axis; shape unchanged."""
    return RadarCube(np.fft.fft(cube.data.astype(np.complex128), axis=1).astype(np.complex64))


def _normalize(mag: np.ndarray) -> np.ndarray:
    compressed = np.log1p(mag)
    top = compressed.max()
    if top <= 0.0:
        return np.zeros_like(compressed, dtype=np.float32)
    lo = compressed.min()
    span = top - lo
    if span == 0.0:
        return np.ones_like(compressed, dtype=np.float32)
    return ((compressed - lo) / span).astype(np.float32)


def _fft_map(range_cube: RadarCube, fft_axis: int, sum_axis: int) -> np.ndarray:
    """FFT over ``fft_axis``, sum |.| over ``sum_axis``, center-shift the FFT axis, log1p, min-max.

    Input must already be range-transformed.  Returns float32 values in [0, 1],
    shape (n along ``fft_axis``, n_samples).
    """
    spec = np.fft.fft(range_cube.data.astype(np.complex128), axis=fft_axis)
    mag = np.abs(spec).sum(axis=sum_axis)  # the FFT axis and the samples axis, in cube order
    if fft_axis > sum_axis:
        mag = mag.T
    return _normalize(np.fft.fftshift(mag, axes=0))


def range_angle_map(range_cube: RadarCube) -> np.ndarray:
    """FFT over rx, sum over chirps (see ``_fft_map``); shape (n_rx, n_samples)."""
    return _fft_map(range_cube, fft_axis=0, sum_axis=2)


def range_velocity_map(range_cube: RadarCube) -> np.ndarray:
    """FFT over chirps, sum over rx (see ``_fft_map``); shape (n_chirps, n_samples)."""
    return _fft_map(range_cube, fft_axis=2, sum_axis=0)
