"""Procedural scenes: analytic intersection oracles and closed-form radar peaks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import full_cast, full_radar
from lidarsynth import config as C
from lidarsynth import formats as F
from lidarsynth import radar as R
from lidarsynth import synthgen as S
from lidarsynth.geometry import GridSpec


def _box_scene(dist=10.0, size=1.0, refl=0.8, brightness=1.0, velocity=0.0, ground=None):
    prim = S.Primitive(kind="box", center=(dist, 0.0, 0.0), size=size,
                       reflectivity=refl, radial_velocity=velocity)
    return S.Scene(ground_height=ground, primitives=(prim,), ambient_brightness=brightness)


def _clear_caches():
    for cached in (S._lidar_rays, S._camera_rays):
        cached.cache_clear()


# -- validation -----------------------------------------------------------------


def test_primitive_validation():
    with pytest.raises(ValueError):
        S.Primitive(kind="sphere", center=(1, 0, 0), size=1.0, reflectivity=0.5)
    with pytest.raises(ValueError):
        S.Primitive(kind="box", center=(1, 0, 0), size=0.0, reflectivity=0.5)
    with pytest.raises(ValueError):
        S.Primitive(kind="box", center=(1, 0, 0), size=1.0, reflectivity=1.5)


def test_scene_validation():
    with pytest.raises(ValueError):
        S.Scene(ground_height=0.5, primitives=(), ambient_brightness=0.5)
    with pytest.raises(ValueError):
        S.Scene(ground_height=None, primitives=(), ambient_brightness=2.0)
    far = S.Primitive(kind="box", center=(100.0, 0, 0), size=1.0, reflectivity=0.5)
    with pytest.raises(ValueError):
        S.Scene(ground_height=None, primitives=(far,), ambient_brightness=0.5)


def test_profile_validation():
    with pytest.raises(ValueError):
        S.SceneProfile(name="x", n_primitives=(3, 1), distance=(1, 2), size=(1, 2),
                       brightness=(0, 1), noise_sigma=0.1)
    with pytest.raises(ValueError):
        S.SceneProfile(name="x", n_primitives=(1, 2), distance=(1, 88), size=(1, 5),
                       brightness=(0, 1), noise_sigma=0.1)


def test_resolve_profiles():
    assert len(S.resolve_profiles("mixed")) == 4
    assert S.resolve_profiles("plaza_day")[0].name == "plaza_day"
    with pytest.raises(ValueError):
        S.resolve_profiles("downtown")


# -- scene sampling ----------------------------------------------------------------


def test_generate_scene_is_deterministic():
    prof = S.PROFILES["roadside_dusk"]
    assert S.generate_scene(42, prof) == S.generate_scene(42, prof)
    assert S.generate_scene(42, prof) != S.generate_scene(43, prof)


def test_generated_scenes_respect_profile_ranges():
    prof = S.PROFILES["plaza_day"]
    kinds = set()
    for seed in range(40):
        scene = S.generate_scene(seed, prof)
        assert prof.n_primitives[0] <= len(scene.primitives) <= prof.n_primitives[1]
        assert prof.brightness[0] <= scene.ambient_brightness <= prof.brightness[1]
        for p in scene.primitives:
            kinds.add(p.kind)
            x, y, z = p.center
            azim = math.degrees(math.atan2(y, x))
            assert abs(azim) <= 60.0 + 1e-9
            assert prof.size[0] <= p.size <= prof.size[1]
            # resting on the ground plane
            assert z == pytest.approx(prof.ground_height + p.size / 2.0)
            assert abs(p.radial_velocity) <= prof.max_speed
    assert kinds == {"box", "cylinder"}


# -- analytic intersections ----------------------------------------------------------


def test_box_intersection_exact_distance():
    t = S._intersect_box(np.array([[1.0, 0.0, 0.0]]), (10.0, 0.0, 0.0), 0.5)
    assert t[0] == pytest.approx(9.5, abs=1e-12)


def test_box_intersection_miss_is_inf():
    t = S._intersect_box(np.array([[0.0, 1.0, 0.0]]), (10.0, 0.0, 0.0), 0.5)
    assert np.isinf(t[0])


def test_box_intersection_axis_aligned_graze():
    # ray along +x exactly at the box's y edge: half-open behavior not required,
    # but the slab method must not produce NaN
    t = S._intersect_box(np.array([[1.0, 0.0, 0.0]]), (10.0, 0.5, 0.0), 0.5)
    assert np.isfinite(t[0]) or np.isinf(t[0])


def test_cylinder_side_intersection():
    t = S._intersect_cylinder(np.array([[1.0, 0.0, 0.0]]), (10.0, 0.0, 0.0), 1.0)
    assert t[0] == pytest.approx(9.5, abs=1e-12)


def test_cylinder_cap_intersection():
    # looking straight up into the bottom cap of a cylinder overhead
    t = S._intersect_cylinder(np.array([[0.0, 0.0, 1.0]]), (0.0, 0.0, 5.0), 1.0)
    assert t[0] == pytest.approx(4.5, abs=1e-12)


def test_cylinder_miss():
    t = S._intersect_cylinder(np.array([[1.0, 0.0, 0.0]]), (10.0, 5.0, 0.0), 1.0)
    assert np.isinf(t[0])


def test_ground_intersection_closed_form():
    scene = S.Scene(ground_height=-1.5, primitives=(), ambient_brightness=0.5)
    phi = math.radians(-30.0)
    dirs = np.array([[math.cos(phi), 0.0, math.sin(phi)]])
    t, refl = S._cast(scene, dirs)
    assert t[0] == pytest.approx(1.5 / math.sin(math.radians(30.0)), rel=1e-12)
    assert refl[0] == S.GROUND_REFLECTIVITY


def test_upward_rays_never_hit_ground():
    scene = S.Scene(ground_height=-1.5, primitives=(), ambient_brightness=0.5)
    t, _ = S._cast(scene, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    assert np.isinf(t).all()


def test_nearest_primitive_wins():
    near = S.Primitive(kind="box", center=(5.0, 0.0, 0.0), size=1.0, reflectivity=0.9)
    far = S.Primitive(kind="box", center=(20.0, 0.0, 0.0), size=1.0, reflectivity=0.1)
    scene = S.Scene(ground_height=None, primitives=(far, near), ambient_brightness=0.5)
    t, refl = S._cast(scene, np.array([[1.0, 0.0, 0.0]]))
    assert t[0] == pytest.approx(4.5)
    assert refl[0] == pytest.approx(0.9)


# -- lidar raycast --------------------------------------------------------------------


def test_raycast_ground_only_matches_formula():
    cfg = C.toy_config()
    scene = S.Scene(ground_height=-1.5, primitives=(), ambient_brightness=0.5)
    raster = S.raycast_lidar(scene, cfg.grid)
    phi = np.radians(cfg.grid.row_centers())
    expected = np.where(np.sin(phi) < 0, -1.5 / np.sin(phi), np.inf)
    expected = np.where(expected <= cfg.grid.max_range, expected, 0.0)
    np.testing.assert_allclose(raster.data, np.tile(expected[:, None], (1, cfg.grid.n_cols)),
                               rtol=1e-5)


def test_raycast_box_fills_bins_near_boresight():
    grid = GridSpec()
    raster = S.raycast_lidar(_box_scene(dist=20.0, size=4.0), grid)
    row, col = 544, 720  # phi ~ +0.0078 deg, theta ~ +0.125 deg
    assert raster.data[row, col] == pytest.approx(18.0, rel=1e-3)
    # straight up: nothing there
    assert raster.data[-1, 0] == 0.0


def test_raycast_respects_max_range():
    grid = GridSpec(max_range=10.0)
    raster = S.raycast_lidar(_box_scene(dist=20.0, size=4.0), grid)
    assert not raster.data.any()


# -- sphere culling ---------------------------------------------------------------------


@st.composite
def _primitives(draw):
    kind = draw(st.sampled_from(("box", "cylinder")))
    size = draw(st.one_of(st.floats(1e-3, 8.0), st.sampled_from((1e-3, 0.01))))
    h = size / 2.0
    if draw(st.booleans()):
        # anywhere in the world, often at a pole, on the +-180 deg seam or behind the sensor
        dist = draw(st.floats(0.0, 85.0))
        el = draw(st.one_of(st.floats(-90.0, 90.0), st.sampled_from((-90.0, -89.5, 89.5, 90.0))))
        az = draw(st.one_of(st.floats(-180.0, 180.0), st.sampled_from((180.0, -179.5, 179.5))))
        el, az = math.radians(el), math.radians(az)
        ground_dist = dist * math.cos(el)
        center = (ground_dist * math.cos(az), ground_dist * math.sin(az), dist * math.sin(el))
    else:
        # the origin within 2% of a box corner or a cylinder rim: a grazing size whose
        # bounding sphere just holds the origin, or just misses it
        scale = 1.0 + draw(st.floats(-0.02, 0.02))
        sx, sy, sz = draw(st.tuples(*[st.sampled_from((-1.0, 1.0))] * 3))
        if kind == "box":
            center = (sx * h * scale, sy * h * scale, sz * h * scale)
        else:
            u = draw(st.floats(-math.pi, math.pi))
            center = (h * scale * math.cos(u), h * scale * math.sin(u), sz * h * scale)
    return S.Primitive(kind=kind, center=center, size=size, reflectivity=draw(st.floats(0.0, 1.0)))


@settings(max_examples=150)
@given(ground=st.one_of(st.none(), st.floats(-5.0, -0.05)), prims=st.lists(_primitives(), max_size=8))
def test_culled_cast_matches_full_cast_bit_for_bit(ground, prims):
    scene = S.Scene(ground_height=ground, primitives=tuple(prims), ambient_brightness=0.5)
    for dirs in (S._lidar_rays(C.toy_config().grid), S._camera_rays(64, 64)):
        t, refl = S._cast(scene, dirs.reshape(-1, 3))
        t_ref, refl_ref = full_cast(scene, dirs.reshape(-1, 3))
        np.testing.assert_array_equal(t.view(np.uint64), t_ref.view(np.uint64))
        np.testing.assert_array_equal(refl.view(np.uint64), refl_ref.view(np.uint64))


def test_cull_sends_a_distant_box_few_rays(monkeypatch):
    grid = C.toy_config().grid
    az = math.radians(1.125)  # a column centre; the boresight falls between two columns
    box = S.Primitive(kind="box", center=(30.0 * math.cos(az), 30.0 * math.sin(az), 0.0), size=1.0,
                      reflectivity=0.8)
    scene = S.Scene(ground_height=None, primitives=(box,), ambient_brightness=1.0)
    received = []
    intersect_box = S._intersect_box

    def recording(dirs, center, half):
        received.append(dirs.shape[0])
        return intersect_box(dirs, center, half)

    monkeypatch.setattr(S, "_intersect_box", recording)
    raster = S.raycast_lidar(scene, grid)
    monkeypatch.undo()
    assert len(received) == 1
    assert grid.n_rows * grid.n_cols == 20480
    assert received[0] < 0.05 * 20480
    t, _ = full_cast(scene, S._lidar_rays(grid).reshape(-1, 3))
    expected = np.where(t <= grid.max_range, t, 0.0).astype(np.float32).reshape(grid.n_rows, grid.n_cols)
    assert expected.any()
    np.testing.assert_array_equal(raster.data, expected)


# -- camera and depth ------------------------------------------------------------------


def test_camera_center_pixel_shading_oracle():
    scene = _box_scene(dist=10.0, size=2.0, refl=0.8, brightness=1.0)
    img = S.render_camera(scene, *S.cast_camera(scene, 3, 3), 3, 3)
    t = 9.0
    assert img.shape == (3, 3)
    assert img[1, 1] == pytest.approx(0.8 * 1.0 / (1.0 + t / S.FALLOFF_SCALE), rel=1e-6)


def test_camera_miss_is_ambient_floor():
    scene = S.Scene(ground_height=None, primitives=(), ambient_brightness=0.6)
    img = S.render_camera(scene, *S.cast_camera(scene, 4, 4), 4, 4)
    np.testing.assert_allclose(img, S.BACKGROUND_SHADE * 0.6, rtol=1e-6)


def test_depth_center_pixel_oracle():
    scene = _box_scene(dist=10.0, size=2.0)
    t, _ = S.cast_camera(scene, 3, 3)
    depth = S.render_depth(t, 3, 3)
    assert depth[1, 1] == pytest.approx(1.0 / (1.0 + 9.0), rel=1e-6)


def test_depth_miss_is_zero():
    scene = S.Scene(ground_height=None, primitives=(), ambient_brightness=0.6)
    t, _ = S.cast_camera(scene, 4, 4)
    assert not S.render_depth(t, 4, 4).any()


def test_camera_rays_reject_empty_images():
    with pytest.raises(ValueError):
        S._camera_rays(0, 4)


def test_cached_ray_tables_are_read_only():
    cached = (S._lidar_rays(C.toy_config().grid), S._camera_rays(8, 6))
    assert not any(arr.flags.writeable for arr in cached)
    # a second call is a hit: it hands back the same read-only arrays
    assert S._lidar_rays(C.toy_config().grid) is cached[0]
    assert S._camera_rays(8, 6) is cached[1]
    with pytest.raises(ValueError, match="read-only"):
        S._camera_rays(8, 6)[0, 0, 0] = 0.0


def _cast_bytes(scene, cfg):
    arrays = S.build_sample(scene, cfg.grid, cfg.radar, cfg.cam_width, cfg.cam_height, seed=0)
    return {name: arrays[name].tobytes() for name in ("camera", "depth", "target_raster")}


def test_back_to_back_samples_give_the_bytes_of_full_casts(monkeypatch):
    cfg = C.toy_config()
    a, b = S.generate_scene(3, S.PROFILES["garage_night"]), S.generate_scene(4, S.PROFILES["plaza_day"])
    culled = [_cast_bytes(scene, cfg) for scene in (a, b, a)]
    # each array tells the two scenes apart, so hits carried over from scene to scene would show
    assert all(culled[0][name] != culled[1][name] for name in culled[0])
    monkeypatch.setattr(S, "_cast", full_cast)
    assert [_cast_bytes(scene, cfg) for scene in (a, b, a)] == culled


def test_build_sample_casts_the_camera_rays_once(monkeypatch):
    cfg = C.toy_config()
    counts = []
    cast = S._cast

    def counting(scene, dirs):
        counts.append(dirs.shape[0])
        return cast(scene, dirs)

    monkeypatch.setattr(S, "_cast", counting)
    _clear_caches()
    for seed in (5, 6):
        S.build_sample(S.generate_scene(seed, S.PROFILES["roadside_dusk"]), cfg.grid, cfg.radar,
                       cfg.cam_width, cfg.cam_height, seed)
    camera, lidar = cfg.cam_width * cfg.cam_height, cfg.grid.n_rows * cfg.grid.n_cols
    assert counts == [camera, lidar] * 2


# -- radar simulation ------------------------------------------------------------------


def test_radar_peaks_at_closed_form_bins():
    # r=25 -> range bin 16 of 64; azimuth 0 -> center rx row; v=7.5 -> doppler bin 48
    scene = _box_scene(dist=25.0, size=2.0, velocity=7.5)
    cube = S.simulate_radar(scene, S.RadarParams(n_rx=4, n_samples=64, n_chirps=64, noise_sigma=0.0), seed=0)
    ranged = R.range_transform(cube)
    ra = R.range_angle_map(ranged)
    rv = R.range_velocity_map(ranged)
    assert np.unravel_index(ra.argmax(), ra.shape) == (2, 16)
    assert np.unravel_index(rv.argmax(), rv.shape) == (48, 16)


def test_radar_angle_bin_tracks_azimuth():
    # primitive at azimuth 30 deg: f_a = 0.5 sin(30 deg) = 0.25 -> raw bin 1 of 4 -> row 3
    x, y = 20.0 * math.cos(math.radians(30)), 20.0 * math.sin(math.radians(30))
    prim = S.Primitive(kind="cylinder", center=(x, y, 0.0), size=2.0, reflectivity=0.9)
    scene = S.Scene(ground_height=None, primitives=(prim,), ambient_brightness=0.5)
    cube = S.simulate_radar(scene, S.RadarParams(n_rx=4, n_samples=64, n_chirps=16, noise_sigma=0.0), seed=0)
    ra = R.range_angle_map(R.range_transform(cube))
    row, col = np.unravel_index(ra.argmax(), ra.shape)
    assert row == 3
    assert col == round(20.0 / 100.0 * 64)


def test_radar_determinism_and_noise():
    scene = _box_scene()
    radar = S.RadarParams(n_rx=4, n_samples=32, n_chirps=16, noise_sigma=0.05)
    a = S.simulate_radar(scene, radar, seed=7)
    b = S.simulate_radar(scene, radar, seed=7)
    c = S.simulate_radar(scene, radar, seed=8)
    np.testing.assert_array_equal(a.data, b.data)
    assert (a.data != c.data).any()


def test_radar_ground_excluded():
    # ground plane alone contributes no tone, only noise-free silence
    scene = S.Scene(ground_height=-1.5, primitives=(), ambient_brightness=0.5)
    cube = S.simulate_radar(scene, S.RadarParams(n_rx=2, n_samples=16, n_chirps=8, noise_sigma=0.0), seed=0)
    assert not cube.data.any()


@st.composite
def _radar_primitives(draw):
    dist = draw(st.floats(0.0, 85.0))
    where = draw(st.sampled_from(("anywhere", "origin", "behind", "+y", "-y")))
    if where == "origin":
        center = (0.0, 0.0, 0.0)
    elif where in ("+y", "-y"):
        center = (0.0, dist if where == "+y" else -dist, draw(st.floats(-2.0, 2.0)))
    else:
        az = draw(st.floats(-180.0, 180.0)) if where == "anywhere" else draw(st.floats(91.0, 269.0))
        el = math.radians(draw(st.floats(-30.0, 30.0)))
        az = math.radians(az)
        center = (dist * math.cos(el) * math.cos(az), dist * math.cos(el) * math.sin(az), dist * math.sin(el))
    return S.Primitive(kind="box", center=center, size=1.0, reflectivity=draw(st.floats(0.0, 1.0)),
                       radial_velocity=draw(st.floats(-40.0, 40.0)))


_RADAR_SHAPES = ((4, 64, 64), (1, 64, 64), (1, 1, 1), (3, 17, 5), (2, 33, 7), (4, 256, 128))


@settings(max_examples=120)
@given(shape=st.sampled_from(_RADAR_SHAPES), prims=st.lists(_radar_primitives(), max_size=8))
def test_separable_radar_matches_full_cube_tones(shape, prims):
    scene = S.Scene(ground_height=-1.5, primitives=tuple(prims), ambient_brightness=0.5)
    radar = S.RadarParams(n_rx=shape[0], n_samples=shape[1], n_chirps=shape[2], noise_sigma=0.0)
    cube = S.simulate_radar(scene, radar, seed=0).data
    expected = full_radar(scene, radar, seed=0)
    assert cube.shape == expected.shape == shape
    assert cube.dtype == np.complex64
    tol = 1e-6 * max(1.0, sum(p.reflectivity for p in prims))
    assert np.abs(cube.astype(np.complex128) - expected).max() <= tol


@pytest.mark.parametrize("shape", [(4, 64, 64), (1, 1, 1), (3, 17, 5)])
def test_radar_noise_is_bit_identical_to_full_cube_oracle(shape):
    scene = S.Scene(ground_height=-1.5, primitives=(), ambient_brightness=0.5)
    radar = S.RadarParams(n_rx=shape[0], n_samples=shape[1], n_chirps=shape[2], noise_sigma=0.05)
    cube = S.simulate_radar(scene, radar, seed=11).data
    expected = full_radar(scene, radar, seed=11)
    np.testing.assert_array_equal(cube.view(np.uint32), expected.view(np.uint32))


def test_radar_noise_is_circular_with_independent_parts():
    sigma = 0.05
    scene = S.Scene(ground_height=None, primitives=(), ambient_brightness=0.5)
    cube = S.simulate_radar(scene, S.RadarParams(noise_sigma=sigma), seed=3).data
    assert cube.shape == (4, 256, 128)
    re, im = cube.real.astype(np.float64).ravel(), cube.imag.astype(np.float64).ravel()
    for part in (re, im):
        assert part.std() == pytest.approx(sigma / math.sqrt(2.0), rel=0.03)
    assert abs(np.corrcoef(re, im)[0, 1]) < 0.02


def test_radar_validation():
    with pytest.raises(ValueError):
        S.RadarParams(n_rx=0)
    with pytest.raises(ValueError):
        S.RadarParams(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        S.RadarParams(n_samples=0)
    with pytest.raises(ValueError):
        S.RadarParams(r_max=0.0)


# -- sample assembly --------------------------------------------------------------------


def test_build_sample_shapes_and_keys():
    cfg = C.toy_config()
    scene = S.generate_scene(3, S.PROFILES["campus_day"])
    arrays = S.build_sample(scene, cfg.grid, cfg.radar, cfg.cam_width, cfg.cam_height, seed=3)
    assert set(arrays) == {
        "camera", "depth", "radar_cube", "range_angle", "range_velocity", "target_raster"
    }
    assert arrays["camera"].shape == (cfg.cam_height, cfg.cam_width)
    assert arrays["depth"].shape == (cfg.cam_height, cfg.cam_width)
    assert arrays["radar_cube"].shape == (cfg.radar.n_rx, cfg.radar.n_samples,
                                          cfg.radar.n_chirps, 2)
    assert arrays["range_angle"].shape == (cfg.radar.n_rx, cfg.radar.n_samples)
    assert arrays["range_velocity"].shape == (cfg.radar.n_chirps, cfg.radar.n_samples)
    assert arrays["target_raster"].shape == (cfg.grid.n_rows, cfg.grid.n_cols)
    assert arrays["target_raster"].any()


def test_export_sample_writes_expected_files(tmp_path):
    cfg = C.toy_config()
    scene = S.generate_scene(5, S.PROFILES["plaza_day"])
    out = tmp_path / "sample_000000"
    S.export_sample(scene, cfg.grid, cfg.radar, cfg.cam_width, cfg.cam_height, out,
                    seed=5, scenario="plaza_day")
    assert sorted(p.name for p in out.iterdir()) == sorted(S.SAMPLE_FILES)
    meta = (out / "meta.txt").read_text()
    assert "plaza_day" in meta and "5" in meta

    from lidarsynth import formats as F

    arrays = S.build_sample(scene, cfg.grid, cfg.radar, cfg.cam_width, cfg.cam_height, seed=5)
    for name, arr in arrays.items():
        np.testing.assert_array_equal(F.read_lstf(out / f"{name}.lstf"),
                                      arr.astype(np.float32))


def test_export_sample_leaves_no_meta_txt_it_could_not_write(tmp_path):
    cfg = C.toy_config()
    with pytest.raises(UnicodeEncodeError):
        S.export_sample(S.generate_scene(5, S.PROFILES["plaza_day"]), cfg.grid, cfg.radar, cfg.cam_width,
                        cfg.cam_height, tmp_path, seed=5, scenario="plaza\ud800day")
    assert not (tmp_path / "meta.txt").exists()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_read_sample_refuses_a_non_finite_value(tmp_path, value):
    cfg = C.toy_config()
    S.export_sample(S.generate_scene(5, S.PROFILES["plaza_day"]), cfg.grid, cfg.radar, cfg.cam_width,
                    cfg.cam_height, tmp_path, seed=5, scenario="plaza_day")
    arr = F.read_lstf(tmp_path / "range_velocity.lstf")
    arr[3, 4] = value
    F.write_lstf(tmp_path / "range_velocity.lstf", arr)
    assert S.read_sample(tmp_path, ("camera",))[1] == "plaza_day"
    with pytest.raises(F.MalformedFileError, match="range_velocity.lstf"):
        S.read_sample(tmp_path, ("camera", "range_velocity"))[0]["range_velocity"]
