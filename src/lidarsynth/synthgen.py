"""Procedural scenes with aligned camera, depth, radar, and LiDAR ground truth.

Scenes are a ground plane plus axis-aligned boxes and vertical cylinders,
each with a reflectivity and a radial velocity.  Every sensor is simulated
analytically from the same primitive list, so modalities stay consistent:
the LiDAR raster comes from exact ray intersections, the camera and depth
images from a pinhole projection of the same rays, and the radar cube from
a sum of complex tones whose FFT peaks land at predictable bins.  Each tone
is a separable product of three 1-D exponentials (rx, sample, chirp), so the
cube is built by one matrix product instead of one full-cube exp per tone.

Ray casting intersects each primitive only with the rays that meet its
bounding sphere, for the LiDAR, camera and depth rays alike; the ground plane
meets every ray.  A tested ray goes through the same arithmetic either way,
so the result is bit-identical to testing every ray against every primitive.

The ray tables depend only on the grid or the image size, so each is built
once per process and kept read-only.  The camera and the depth image see
the same rays: ``build_sample`` casts them once with ``cast_camera`` and
hands the hits to ``render_camera`` and ``render_depth``.

The sensor sits at the origin; +x is the boresight, +z is up, azimuth is
measured counterclockwise from +x (positive toward +y).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, replace
from itertools import cycle
from pathlib import Path

import numpy as np

from lidarsynth import formats
from lidarsynth.geometry import GridSpec, PolarRaster
from lidarsynth.radar import RadarCube, range_angle_map, range_transform, range_velocity_map

__all__ = [
    "WORLD_RADIUS",
    "GROUND_REFLECTIVITY",
    "Primitive",
    "Scene",
    "SceneProfile",
    "RadarParams",
    "PROFILES",
    "PROFILE_ORDER",
    "resolve_profiles",
    "plan_scenes",
    "generate_scene",
    "raycast_lidar",
    "cast_camera",
    "render_camera",
    "render_depth",
    "simulate_radar",
    "build_sample",
    "export_sample",
    "read_sample",
    "SAMPLE_FILES",
]

WORLD_RADIUS = 90.0
GROUND_REFLECTIVITY = 0.35
# camera shading: reflectivity * brightness / (1 + t / FALLOFF_SCALE)
FALLOFF_SCALE = 25.0
BACKGROUND_SHADE = 0.15
_EPS = 1e-9

# the arrays of a sample, in build_sample's order; a sample directory holds
# each as <name>.lstf, plus meta.txt
_SAMPLE_ARRAYS = ("camera", "depth", "radar_cube", "range_angle", "range_velocity", "target_raster")
SAMPLE_FILES = tuple(f"{name}.lstf" for name in _SAMPLE_ARRAYS) + ("meta.txt",)


@dataclass(frozen=True)
class Primitive:
    """One scene object: an axis-aligned cube or a vertical cylinder.

    ``size`` is the cube edge length; for cylinders it doubles as both the
    diameter and the height.  ``radial_velocity`` is the range rate seen by
    the radar, in m/s (positive receding).
    """

    kind: str
    center: tuple[float, float, float]
    size: float
    reflectivity: float
    radial_velocity: float = 0.0

    def __post_init__(self):
        if self.kind not in ("box", "cylinder"):
            raise ValueError(f"unknown primitive kind {self.kind!r}")
        if len(self.center) != 3:
            raise ValueError("center must have 3 components")
        if not self.size > 0.0:
            raise ValueError(f"size must be positive, got {self.size}")
        if not 0.0 <= self.reflectivity <= 1.0:
            raise ValueError(f"reflectivity {self.reflectivity} outside [0, 1]")


@dataclass(frozen=True)
class Scene:
    """A ground plane (optional) plus primitives, under one ambient brightness."""

    ground_height: float | None
    primitives: tuple[Primitive, ...]
    ambient_brightness: float

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))
        if not 0.0 <= self.ambient_brightness <= 1.0:
            raise ValueError("ambient_brightness outside [0, 1]")
        if self.ground_height is not None and self.ground_height >= 0.0:
            raise ValueError("ground plane must sit below the sensor")
        for p in self.primitives:
            if math.hypot(*p.center) > WORLD_RADIUS:
                raise ValueError(f"primitive at {p.center} outside world radius")


@dataclass(frozen=True)
class SceneProfile:
    """Named sampling distribution for scenes.

    Profiles differ mainly in clutter and brightness; the low-brightness
    ones stand in for night-time captures.  All ranges are inclusive and
    must be non-empty.
    """

    name: str
    n_primitives: tuple[int, int]
    distance: tuple[float, float]
    size: tuple[float, float]
    brightness: tuple[float, float]
    noise_sigma: float
    max_speed: float = 12.0
    ground_height: float = -1.5

    def __post_init__(self):
        for label, rng in (
            ("n_primitives", self.n_primitives),
            ("distance", self.distance),
            ("size", self.size),
            ("brightness", self.brightness),
        ):
            if rng[0] > rng[1]:
                raise ValueError(f"empty {label} range {rng}")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be non-negative")
        if self.distance[1] + self.size[1] > WORLD_RADIUS:
            raise ValueError("profile can place primitives outside world radius")


PROFILES: dict[str, SceneProfile] = {
    prof.name: prof
    for prof in (
        SceneProfile(
            name="plaza_day",
            n_primitives=(2, 5),
            distance=(6.0, 45.0),
            size=(0.8, 3.5),
            brightness=(0.7, 1.0),
            noise_sigma=0.02,
        ),
        SceneProfile(
            name="garage_night",
            n_primitives=(4, 8),
            distance=(4.0, 30.0),
            size=(0.6, 2.5),
            brightness=(0.05, 0.25),
            noise_sigma=0.05,
        ),
        SceneProfile(
            name="roadside_dusk",
            n_primitives=(3, 6),
            distance=(8.0, 55.0),
            size=(1.0, 4.0),
            brightness=(0.3, 0.6),
            noise_sigma=0.03,
            max_speed=25.0,
        ),
        SceneProfile(
            name="campus_day",
            n_primitives=(1, 3),
            distance=(5.0, 40.0),
            size=(0.8, 3.0),
            brightness=(0.6, 0.95),
            noise_sigma=0.02,
        ),
    )
}

PROFILE_ORDER = tuple(PROFILES)


def resolve_profiles(name: str) -> tuple[SceneProfile, ...]:
    """Map a profile name (or "mixed") to the sequence used for a dataset.

    "mixed" cycles through all four profiles round-robin, so sample i uses
    profile i mod 4.
    """
    if name == "mixed":
        return tuple(PROFILES[n] for n in PROFILE_ORDER)
    if name not in PROFILES:
        known = ", ".join(sorted(PROFILES) + ["mixed"])
        raise ValueError(f"unknown profile {name!r} (known: {known})")
    return (PROFILES[name],)


def plan_scenes(
    n: int, profile_name: str, radar: RadarParams, seed: int
) -> Iterator[tuple[int, SceneProfile, Scene, RadarParams]]:
    """Sample i of a dataset: (seed + i, its profile, its scene, radar at the profile's noise).

    The profile name is resolved by the call, so an unknown one raises before any scene is drawn.
    """
    profiles = resolve_profiles(profile_name)
    return (
        (seed + i, prof, generate_scene(seed + i, prof), replace(radar, noise_sigma=prof.noise_sigma))
        for i, prof in zip(range(n), cycle(profiles))
    )


def generate_scene(seed: int, profile: SceneProfile) -> Scene:
    """Draw a deterministic scene from the profile's distributions."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(profile.n_primitives[0], profile.n_primitives[1] + 1))
    prims = []
    for _ in range(n):
        kind = "box" if rng.random() < 0.5 else "cylinder"
        dist = float(rng.uniform(*profile.distance))
        azim = float(rng.uniform(-math.pi / 3, math.pi / 3))
        size = float(rng.uniform(*profile.size))
        # objects rest on the ground plane
        center = (
            dist * math.cos(azim),
            dist * math.sin(azim),
            profile.ground_height + size / 2.0,
        )
        prims.append(
            Primitive(
                kind=kind,
                center=center,
                size=size,
                reflectivity=float(rng.uniform(0.2, 1.0)),
                radial_velocity=float(rng.uniform(-profile.max_speed, profile.max_speed)),
            )
        )
    brightness = float(rng.uniform(*profile.brightness))
    return Scene(
        ground_height=profile.ground_height,
        primitives=tuple(prims),
        ambient_brightness=brightness,
    )


# -- analytic ray casting -----------------------------------------------------


def _intersect_box(dirs: np.ndarray, center, half: float) -> np.ndarray:
    """Slab-method ray/cube test from the origin; inf where there is no hit."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t_lo = (np.asarray(center) - half) * inv
        t_hi = (np.asarray(center) + half) * inv
    near = np.fmin(t_lo, t_hi)
    far = np.fmax(t_lo, t_hi)
    # both NaN only when the origin lies exactly on a slab along a zero
    # direction component; the slab then imposes no constraint
    near = np.where(np.isnan(near), -np.inf, near)
    far = np.where(np.isnan(far), np.inf, far)
    t_near = near.max(axis=1)
    t_far = far.min(axis=1)
    hit = (t_near <= t_far) & (t_far > _EPS)
    t = np.where(t_near > _EPS, t_near, t_far)
    return np.where(hit, t, np.inf)


def _intersect_cylinder(dirs: np.ndarray, center, size: float) -> np.ndarray:
    """Vertical cylinder (radius size/2, height size) with end caps."""
    cx, cy, cz = center
    radius = size / 2.0
    half_h = size / 2.0
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]

    best = np.full(dirs.shape[0], np.inf)

    a = dx * dx + dy * dy
    b = -2.0 * (dx * cx + dy * cy)
    c = cx * cx + cy * cy - radius * radius
    disc = b * b - 4.0 * a * c
    ok = (disc >= 0.0) & (a > _EPS)
    sq = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.stack([(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)])
    for t in roots:
        z = t * dz
        valid = ok & (t > _EPS) & (np.abs(z - cz) <= half_h)
        best = np.where(valid & (t < best), t, best)

    with np.errstate(divide="ignore", invalid="ignore"):
        for z_cap in (cz - half_h, cz + half_h):
            t = np.where(np.abs(dz) > _EPS, z_cap / dz, np.inf)
            px = t * dx - cx
            py = t * dy - cy
            valid = (t > _EPS) & (px * px + py * py <= radius * radius)
            best = np.where(valid & (t < best), t, best)
    return best


def _cast(scene: Scene, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest hit distance and reflectivity per ray; (inf, 0) for misses."""
    dirs = np.asarray(dirs, dtype=np.float64)
    n = dirs.shape[0]
    t_best = np.full(n, np.inf)
    refl = np.zeros(n)

    if scene.ground_height is not None:
        dz = dirs[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = scene.ground_height / dz
        hit = (dz < -_EPS) & (t > _EPS)
        closer = hit & (t < t_best)
        t_best = np.where(closer, t, t_best)
        refl = np.where(closer, GROUND_REFLECTIVITY, refl)

    d2 = np.einsum("ij,ij->i", dirs, dirs)
    for prim in scene.primitives:
        idx = _sphere_rays(dirs, d2, prim)
        sub = dirs[idx]
        if prim.kind == "box":
            t = _intersect_box(sub, prim.center, prim.size / 2.0)
        else:
            t = _intersect_cylinder(sub, prim.center, prim.size)
        t_old = t_best[idx]
        closer = t < t_old
        t_best[idx] = np.where(closer, t, t_old)
        refl[idx] = np.where(closer, prim.reflectivity, refl[idx])
    return t_best, refl


def _sphere_rays(dirs: np.ndarray, d2: np.ndarray, prim: Primitive) -> np.ndarray:
    """Indices of the rays that meet the primitive's bounding sphere.

    The ray s*d, s >= 0, passes the centre c at squared distance
    |c|^2 - max(d.c, 0)^2 / |d|^2: a ray pointing away from c comes closest
    at the origin, so a sphere that holds the origin keeps every ray.  Every
    exact hit lies inside the sphere.  The radius is widened by a relative
    1e-6 plus 1e-9 m, which for the sizes and distances the profiles draw is
    orders of magnitude above the rounding of this test and of the
    intersection tests, so no ray they would count as a hit is dropped.
    """
    c = np.asarray(prim.center, dtype=np.float64)
    half_diagonal = math.sqrt(3.0) / 2.0 if prim.kind == "box" else math.sqrt(0.5)
    r = prim.size * half_diagonal * (1.0 + 1e-6) + 1e-9
    dc = np.maximum(dirs @ c, 0.0)
    return np.flatnonzero(d2 * float(c @ c) - dc * dc <= r * r * d2)


@functools.lru_cache(maxsize=4)
def _lidar_rays(grid: GridSpec) -> np.ndarray:
    """Unit rays through every bin center of the grid, [n_rows, n_cols, 3], read-only."""
    phi = np.deg2rad(grid.row_centers())
    theta = np.deg2rad(grid.col_centers())
    cos_phi = np.cos(phi)[:, None]
    dirs = np.empty((grid.n_rows, grid.n_cols, 3))
    dirs[:, :, 0] = cos_phi * np.cos(theta)[None, :]
    dirs[:, :, 1] = cos_phi * np.sin(theta)[None, :]
    dirs[:, :, 2] = np.sin(phi)[:, None]
    dirs.flags.writeable = False
    return dirs


def raycast_lidar(scene: Scene, grid: GridSpec) -> PolarRaster:
    """Exact range image: one ray through every bin center, 0 where nothing hits."""
    t, _ = _cast(scene, _lidar_rays(grid).reshape(-1, 3))
    ranges = t.reshape(grid.n_rows, grid.n_cols)
    ranges = np.where(ranges <= grid.max_range, ranges, 0.0)
    return PolarRaster(grid=grid, data=ranges.astype(np.float32))


@functools.lru_cache(maxsize=4)
def _camera_rays(width: int, height: int) -> np.ndarray:
    """Pinhole rays looking down +x with a 90 degree horizontal field of view, read-only."""
    if width < 1 or height < 1:
        raise ValueError("image dimensions must be positive")
    f = width / 2.0
    u = np.arange(width) + 0.5 - width / 2.0
    v = height / 2.0 - (np.arange(height) + 0.5)
    dirs = np.empty((height, width, 3))
    dirs[:, :, 0] = 1.0
    dirs[:, :, 1] = -u[None, :] / f  # columns increase to the right (-y)
    dirs[:, :, 2] = v[:, None] / f
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    dirs.flags.writeable = False
    return dirs


def cast_camera(scene: Scene, width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Hit distance and reflectivity of every camera ray, flat in pixel order; (inf, 0) for misses."""
    return _cast(scene, _camera_rays(width, height).reshape(-1, 3))


def render_camera(scene: Scene, t: np.ndarray, refl: np.ndarray, width: int, height: int) -> np.ndarray:
    """Flat-shaded grayscale frame from ``cast_camera``'s hits: reflectivity x brightness x distance falloff."""
    shade = refl * scene.ambient_brightness / (1.0 + t / FALLOFF_SCALE)
    shade = np.where(np.isfinite(t), shade, BACKGROUND_SHADE * scene.ambient_brightness)
    return shade.reshape(height, width).astype(np.float32)


def render_depth(t: np.ndarray, width: int, height: int) -> np.ndarray:
    """Ground-truth inverse depth in [0, 1] from ``cast_camera``'s hit distances; 0 where no surface is seen."""
    depth = np.where(np.isfinite(t), 1.0 / (1.0 + t), 0.0)
    return depth.reshape(height, width).astype(np.float32)


# -- radar --------------------------------------------------------------------


@dataclass(frozen=True)
class RadarParams:
    """FMCW cube dimensions and the normalization constants of the tone model."""

    n_rx: int = 4
    n_samples: int = 256
    n_chirps: int = 128
    noise_sigma: float = 0.02
    r_max: float = 100.0
    v_max: float = 30.0

    def __post_init__(self):
        if min(self.n_rx, self.n_samples, self.n_chirps) < 1:
            raise ValueError("cube dimensions must be at least 1")
        if self.noise_sigma < 0.0:
            raise ValueError("noise_sigma must be non-negative")
        if self.r_max <= 0.0 or self.v_max <= 0.0:
            raise ValueError("r_max and v_max must be positive")


def simulate_radar(scene: Scene, radar: RadarParams, seed: int) -> RadarCube:
    """Sum of one complex tone per primitive, plus circular Gaussian noise.

    Primitive at range r, azimuth a, radial velocity v contributes
    A * exp(2*pi*i * (f_r*n + f_a*k + f_v*m)) over (rx k, sample n, chirp m)
    with f_r = r / r_max, f_a = 0.5 * sin(a) (half-wavelength array), and
    f_v = v / v_max, so FFT peaks land at closed-form bins.

    The phase is a sum of three 1-D terms, so each tone is the separable
    product A * e(f_a*k) * e(f_r*n) * e(f_v*m) with e(x) = exp(2*pi*i*x):
    only n_rx + n_samples + n_chirps exponentials per primitive, and one
    [n_rx*n_samples, P] @ [P, n_chirps] product sums the P tones.  For a scene
    without primitives (P = 0) that product is an exact zero cube before noise.
    """
    n_rx, n_samples, n_chirps = radar.n_rx, radar.n_samples, radar.n_chirps
    prims = scene.primitives
    x, y, z = np.array([p.center for p in prims], dtype=np.float64).reshape(len(prims), 3).T
    amp = np.array([p.reflectivity for p in prims], dtype=np.float64)
    f_r = np.sqrt(x * x + y * y + z * z) / radar.r_max
    f_a = 0.5 * np.sin(np.arctan2(y, x))
    f_v = np.array([p.radial_velocity for p in prims], dtype=np.float64) / radar.v_max
    tone_k = np.exp(2j * np.pi * np.outer(f_a, np.arange(n_rx)))  # [P, n_rx]
    tone_n = np.exp(2j * np.pi * np.outer(f_r, np.arange(n_samples)))  # [P, n_samples]
    tone_m = np.exp(2j * np.pi * np.outer(f_v, np.arange(n_chirps)))  # [P, n_chirps]
    rx_range = (amp[:, None, None] * tone_k[:, :, None] * tone_n[:, None, :]).reshape(len(prims), n_rx * n_samples)
    cube = (rx_range.T @ tone_m).reshape(n_rx, n_samples, n_chirps)
    if radar.noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        scale = radar.noise_sigma / math.sqrt(2.0)
        cube.real += rng.normal(0.0, scale, cube.shape)
        cube.imag += rng.normal(0.0, scale, cube.shape)
    return RadarCube(cube.astype(np.complex64))


# -- sample assembly ----------------------------------------------------------


def build_sample(
    scene: Scene,
    grid: GridSpec,
    radar: RadarParams,
    cam_width: int,
    cam_height: int,
    seed: int,
) -> dict[str, np.ndarray]:
    """All per-sample arrays, keyed by modality name."""
    cube = simulate_radar(scene, radar, seed)
    ranged = range_transform(cube)
    t, refl = cast_camera(scene, cam_width, cam_height)
    return {
        "camera": render_camera(scene, t, refl, cam_width, cam_height),
        "depth": render_depth(t, cam_width, cam_height),
        "radar_cube": cube.to_interleaved(),
        "range_angle": range_angle_map(ranged),
        "range_velocity": range_velocity_map(ranged),
        "target_raster": raycast_lidar(scene, grid).data,
    }


def export_sample(
    scene: Scene,
    grid: GridSpec,
    radar: RadarParams,
    cam_width: int,
    cam_height: int,
    out_dir,
    seed: int,
    scenario: str,
) -> None:
    """Write one sample directory: its SAMPLE_FILES, six LSTF arrays plus meta.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    arrays = build_sample(scene, grid, radar, cam_width, cam_height, seed)
    for name, arr in arrays.items():
        formats.write_lstf(out / f"{name}.lstf", arr)
    meta = [
        f"scenario={scenario}",
        f"seed={seed}",
        f"n_primitives={len(scene.primitives)}",
        f"brightness={scene.ambient_brightness!r}",
        f"ground_height={scene.ground_height!r}",
        f"noise_sigma={radar.noise_sigma!r}",
    ]
    formats.write_text(out / "meta.txt", "\n".join(meta) + "\n")


class _SampleFiles(Mapping):
    """Named arrays of one sample directory, each read from its file on every lookup and kept by nothing."""

    def __init__(self, sample_dir: Path, names: tuple[str, ...]):
        self._dir = sample_dir
        self._names = names

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._names:
            raise KeyError(name)
        path = self._dir / f"{name}.lstf"
        arr = formats.read_lstf(path)
        if not np.isfinite(arr).all():
            raise formats.MalformedFileError(f"{path} holds a non-finite value")
        return arr

    def __contains__(self, name) -> bool:
        return name in self._names  # Mapping's default would read the file

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def read_sample(sample_dir, names) -> tuple[Mapping[str, np.ndarray], str]:
    """The named arrays of a directory ``export_sample`` wrote, and the scenario its meta.txt names once.

    Only meta.txt is read here.  The arrays come back as a mapping that reads
    a file on each lookup and holds no array, so a caller holds only the
    arrays it is using; a missing file or a non-finite value (a
    MalformedFileError naming its file) is raised by the lookup.
    """
    d = Path(sample_dir)
    meta = d / "meta.txt"
    lines = (line.partition("=") for line in meta.read_text(encoding="utf-8").splitlines())
    scenarios = [value.strip() for key, _, value in lines if key.strip() == "scenario"]
    if len(scenarios) != 1:
        raise formats.MalformedFileError(f"{meta}: {len(scenarios)} scenario lines, want 1")
    return _SampleFiles(d, tuple(names)), scenarios[0]
