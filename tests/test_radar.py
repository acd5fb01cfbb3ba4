"""Radar cube processing tested against a naive DFT and closed-form tone peaks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import naive_dft
from lidarsynth import radar as R


def _random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _fiber_fft(x):
    """The pipeline's range FFT applied to one (rx, chirp) fiber holding x."""
    return R.range_transform(R.RadarCube(x.reshape(1, -1, 1))).data[0, :, 0]


# -- the range FFT on one fiber against the quadratic oracle ------------------------
# range_transform returns complex64, so bounds are set at single precision


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 31, 64])
def test_fft_matches_naive_dft(n):
    rng = np.random.default_rng(n)
    x = _random_complex(rng, n)
    got = _fiber_fft(x)
    want = naive_dft(x)
    scale = max(np.abs(want).max(), 1e-12)
    assert np.abs(got - want).max() / scale < 1e-6


@given(st.integers(1, 64), st.integers(0, 2**31 - 1))
def test_fft_is_linear(n, seed):
    rng = np.random.default_rng(seed)
    x, y = _random_complex(rng, n), _random_complex(rng, n)
    a = complex(rng.standard_normal(), rng.standard_normal())
    lhs = _fiber_fft(a * x + y)
    rhs = a * _fiber_fft(x) + _fiber_fft(y)
    assert np.abs(lhs - rhs).max() < 1e-6 * max(1.0, np.abs(rhs).max())


@given(st.integers(1, 64), st.integers(0, 2**31 - 1))
def test_parseval_energy_identity(n, seed):
    x = _random_complex(np.random.default_rng(seed), n)
    time_energy = float((np.abs(x) ** 2).sum())
    freq_energy = float((np.abs(_fiber_fft(x)) ** 2).sum()) / n
    assert abs(time_energy - freq_energy) <= 1e-5 * max(1.0, time_energy)


def test_fft_rejects_bad_rank_and_empty():
    for bad in (np.zeros((2, 2)), np.zeros((1, 0, 1)), np.zeros((3, 1, 1, 1))):
        with pytest.raises(ValueError):
            R.range_transform(R.RadarCube(bad))


# -- cube container ----------------------------------------------------------------


def test_cube_validates_rank_and_finiteness():
    with pytest.raises(ValueError):
        R.RadarCube(np.zeros((4, 8)))
    bad = np.zeros((2, 3, 4), dtype=np.complex64)
    bad[0, 0, 0] = complex(float("nan"), 0.0)
    with pytest.raises(ValueError):
        R.RadarCube(bad)


def test_interleaved_round_trip_is_exact():
    rng = np.random.default_rng(0)
    cube = R.RadarCube((rng.standard_normal((3, 5, 4)) + 1j * rng.standard_normal((3, 5, 4))))
    again = R.RadarCube.from_interleaved(cube.to_interleaved())
    np.testing.assert_array_equal(again.data, cube.data)


def test_from_interleaved_rejects_wrong_layout():
    with pytest.raises(ValueError):
        R.RadarCube.from_interleaved(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        R.RadarCube.from_interleaved(np.zeros((2, 3, 4, 3)))


# -- tone cubes with closed-form peak locations -------------------------------------


def _tone_cube(n_rx, n_samples, n_chirps, f_r, f_a=0.0, f_v=0.0, amp=1.0):
    k = np.arange(n_rx).reshape(-1, 1, 1)
    n = np.arange(n_samples).reshape(1, -1, 1)
    m = np.arange(n_chirps).reshape(1, 1, -1)
    return R.RadarCube(amp * np.exp(2j * np.pi * (f_r * n + f_a * k + f_v * m)))


def test_range_transform_peaks_at_tone_bin():
    cube = _tone_cube(4, 32, 8, f_r=10 / 32)
    ranged = R.range_transform(cube)
    assert ranged.data.shape == cube.data.shape
    assert ranged.data.dtype == np.complex64
    profile = np.abs(ranged.data[0, :, 0])
    assert int(profile.argmax()) == 10


def test_range_angle_map_peak_location():
    # angle tone at raw rx bin 1; fftshift moves it to row 1 + n_rx // 2
    cube = _tone_cube(4, 32, 8, f_r=10 / 32, f_a=1 / 4)
    m = R.range_angle_map(R.range_transform(cube))
    assert m.shape == (4, 32)
    row, col = np.unravel_index(m.argmax(), m.shape)
    assert (row, col) == (3, 10)


def test_range_velocity_map_peak_location():
    # velocity tone at raw chirp bin 3 -> shifted row 3 + n_chirps // 2
    cube = _tone_cube(4, 32, 8, f_r=10 / 32, f_v=3 / 8)
    m = R.range_velocity_map(R.range_transform(cube))
    assert m.shape == (8, 32)
    row, col = np.unravel_index(m.argmax(), m.shape)
    assert (row, col) == (7, 10)


def test_stationary_target_sits_at_zero_doppler_center():
    cube = _tone_cube(4, 32, 16, f_r=5 / 32, f_v=0.0)
    m = R.range_velocity_map(R.range_transform(cube))
    row, _ = np.unravel_index(m.argmax(), m.shape)
    assert row == 8  # center row after the shift


# -- the FFTs the pipeline runs, against the naive DFT ------------------------------

CUBE_SHAPES = [(1, 1, 1), (2, 5, 3), (3, 8, 5), (4, 16, 8), (5, 7, 6)]


def _random_cube(shape, seed):
    rng = np.random.default_rng(seed)
    return R.RadarCube(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _naive_dft_along(x, axis):
    """naive_dft applied to every 1-D fiber of x along axis, in complex128."""
    return np.apply_along_axis(naive_dft, axis, x.astype(np.complex128))


def _min_max_log1p(mag):
    compressed = np.log1p(mag)
    return (compressed - compressed.min()) / (compressed.max() - compressed.min())


@pytest.mark.parametrize("shape", CUBE_SHAPES)
@pytest.mark.parametrize("seed", [0, 1])
def test_range_transform_matches_naive_dft(shape, seed):
    cube = _random_cube(shape, seed)
    got = R.range_transform(cube).data
    want = _naive_dft_along(cube.data, axis=1)
    assert got.dtype == np.complex64
    # complex64 output: rounding relative to the largest coefficient
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6 * np.abs(want).max())


@pytest.mark.parametrize("shape", [s for s in CUBE_SHAPES if s != (1, 1, 1)])
@pytest.mark.parametrize("seed", [0, 1])
def test_range_maps_match_naive_dft_pipeline(shape, seed):
    ranged = R.range_transform(_random_cube(shape, seed))
    n_rx, _, n_chirps = shape
    # angle: DFT over rx, |.| summed over chirps, rows rolled by n_rx // 2 (fftshift)
    mag = np.abs(_naive_dft_along(ranged.data, axis=0)).sum(axis=2)
    want_ra = _min_max_log1p(np.roll(mag, n_rx // 2, axis=0))
    # velocity: DFT over chirps, |.| summed over rx, (chirps, samples), rows rolled by n_chirps // 2
    mag = np.abs(_naive_dft_along(ranged.data, axis=2)).sum(axis=0).T
    want_rv = _min_max_log1p(np.roll(mag, n_chirps // 2, axis=0))
    ra, rv = R.range_angle_map(ranged), R.range_velocity_map(ranged)
    assert ra.shape == want_ra.shape and rv.shape == want_rv.shape
    # float32 maps in [0, 1]
    np.testing.assert_allclose(ra, want_ra, rtol=0, atol=1e-6)
    np.testing.assert_allclose(rv, want_rv, rtol=0, atol=1e-6)


def test_maps_are_normalized_to_unit_interval():
    rng = np.random.default_rng(1)
    cube = R.RadarCube(rng.standard_normal((4, 16, 8)) + 1j * rng.standard_normal((4, 16, 8)))
    ranged = R.range_transform(cube)
    for m in (R.range_angle_map(ranged), R.range_velocity_map(ranged)):
        assert m.dtype == np.float32
        assert m.min() >= 0.0
        assert m.max() <= 1.0
        assert m.max() == pytest.approx(1.0)


def test_zero_cube_maps_to_zeros():
    cube = R.RadarCube(np.zeros((2, 4, 3), dtype=np.complex64))
    assert not R.range_angle_map(R.range_transform(cube)).any()
    assert not R.range_velocity_map(R.range_transform(cube)).any()


def test_degenerate_constant_map_is_all_ones():
    # a 1x1x1 cube flattens to a single positive magnitude: span is zero
    cube = R.RadarCube(np.full((1, 1, 1), 5.0 + 0.0j))
    m = R.range_angle_map(R.range_transform(cube))
    np.testing.assert_array_equal(m, 1.0)

