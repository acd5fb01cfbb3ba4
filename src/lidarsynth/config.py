"""Line-oriented text configuration: `key = value`, `#` comments, dotted keys.

Every key has a documented default; unknown keys are rejected.  The same
text round-trips through checkpoints, so a training run's full recipe can
be recovered from its LSCK file.  Ranges with three fields use `lo:hi:step`
notation, elevation regions are separated by `;`, and lists use commas.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from lidarsynth import optim
from lidarsynth.geometry import GridSpec
from lidarsynth.model import (
    FUSION_DROPOUT,
    FUSION_FFN_DIM,
    FUSION_HEADS,
    LATENT_DIM,
    MODALITIES,
    DecoderConfig,
    EncoderConfig,
    ModelConfig,
)
from lidarsynth.synthgen import RadarParams
from lidarsynth.training import SplitSpec, TrainConfig, weight_mask

__all__ = [
    "AppConfig",
    "parse_config",
    "config_text",
    "default_config",
    "toy_config",
    "TOY_OVERRIDES",
]


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{key}: expected integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{key}: expected number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{key}: expected a finite number, got {raw!r}")
    return value


def _parse_bool(key: str, raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"{key}: expected true/false, got {raw!r}")


def _parse_triple(key: str, raw: str) -> tuple[float, float, float]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError(f"{key}: expected lo:hi:step, got {raw!r}")
    return tuple(_parse_float(key, p) for p in parts)


def _parse_pair(key: str, raw: str) -> tuple[float, float]:
    parts = raw.split(":")
    if len(parts) != 2:
        raise ValueError(f"{key}: expected lo:hi, got {raw!r}")
    return (_parse_float(key, parts[0]), _parse_float(key, parts[1]))


def _parse_regions(key: str, raw: str) -> tuple[tuple[float, float, float], ...]:
    return tuple(_parse_triple(key, part) for part in raw.split(";") if part.strip())


def _parse_int_list(key: str, raw: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, p.strip()) for p in raw.split(","))


# (key, default, parser, doc) in canonical output order.  Past its section
# prefix a key is the name of the dataclass field it sets (see _build).
_REGISTRY: list[tuple[str, str, Callable[[str, str], Any], str]] = [
    ("grid.theta", "-180:180:0.25", _parse_triple, "azimuth span and bin width, degrees (lo:hi:step)"),
    (
        "grid.phi_regions",
        "-60:-5:0.25;-5:5:0.015625;5:62:0.25",
        _parse_regions,
        "contiguous elevation regions, each lo:hi:step in degrees, ascending",
    ),
    ("grid.max_range", "100.0", _parse_float, "sensor range cap in meters; 0 in a raster means no return"),
    ("radar.n_rx", "4", _parse_int, "receive antennas (angle axis of the cube)"),
    ("radar.n_samples", "256", _parse_int, "samples per chirp (range axis)"),
    ("radar.n_chirps", "128", _parse_int, "chirps per frame (velocity axis)"),
    ("radar.r_max", "100.0", _parse_float, "range that maps to normalized frequency 1"),
    ("radar.v_max", "30.0", _parse_float, "radial speed that maps to normalized frequency 1, m/s"),
    ("camera.width", "224", _parse_int, "camera and depth image width, pixels"),
    ("camera.height", "224", _parse_int, "camera and depth image height, pixels"),
    ("encoder.camera.patch_size", "16", _parse_int, "camera encoder patch edge, pixels"),
    ("encoder.camera.depth", "4", _parse_int, "camera encoder transformer layers"),
    ("encoder.depth.patch_size", "16", _parse_int, "depth encoder patch edge, pixels"),
    ("encoder.depth.depth", "4", _parse_int, "depth encoder transformer layers"),
    ("encoder.range_angle.patch_size", "4", _parse_int, "range-angle encoder patch edge"),
    ("encoder.range_angle.depth", "4", _parse_int, "range-angle encoder transformer layers"),
    ("encoder.range_velocity.patch_size", "16", _parse_int, "range-velocity encoder patch edge"),
    ("encoder.range_velocity.depth", "4", _parse_int, "range-velocity encoder transformer layers"),
    (
        "decoder.filters",
        "256,128,64,64",
        _parse_int_list,
        "hidden channel widths of the four upsampling stages",
    ),
    ("model.seed", "0", _parse_int, "parameter initialization seed"),
    (
        "model.fusion_bypass",
        "false",
        _parse_bool,
        "skip the fusion encoder layer: concatenate embeddings and project directly",
    ),
    ("train.batch_size", "32", _parse_int, "samples per optimization step (at least 2, for batch norm)"),
    ("train.epochs", "20", _parse_int, "training epochs"),
    ("train.lr_early", "0.001", _parse_float, "learning rate through train.lr_switch_epoch"),
    ("train.lr_late", "0.0001", _parse_float, "learning rate after train.lr_switch_epoch"),
    ("train.lr_switch_epoch", "10", _parse_int, "last 1-based epoch that still uses lr_early"),
    ("train.seed", "0", _parse_int, "shuffling and dropout seed"),
    (
        "train.band",
        "-1.71875:2.1875",
        _parse_pair,
        "elevation band (degrees, lo:hi) that gets extra loss weight",
    ),
    ("train.alpha", "10.0", _parse_float, "loss weight inside train.band (1 elsewhere)"),
    ("train.normalize_ranges", "true", _parse_bool, "train on ranges divided by grid.max_range"),
    ("split.train", "0.6", _parse_float, "leading fraction of each scenario used for training"),
    ("split.val", "0.2", _parse_float, "next fraction used for validation"),
]

_DEFAULTS = {key: value for key, value, _, _ in _REGISTRY}
_PARSERS = {key: parse for key, _, parse, _ in _REGISTRY}


def _equals(fixed: Any) -> Callable[[Any, AppConfig], bool]:
    return lambda v, cfg: v == fixed


# Keys that set nothing: the architecture or the optimizer fixes them (frozen,
# n_layers, the encoder and fusion widths, Adam's constants), the grid or the split
# implies them (the seed map is the grid over 32; test gets the rest), or nothing
# reads them (profiles set the radar noise).  Older config text carries them, so each is parsed, checked
# against the config the other keys build, and dropped.
_REMOVED: dict[str, tuple[Callable[[str, str], Any], Callable[[Any, AppConfig], bool]]] = {
    **{f"encoder.{name}.frozen": (_parse_bool, lambda v, cfg: v) for name in MODALITIES},
    **{f"encoder.{name}.n_heads": (_parse_int, _equals(EncoderConfig.n_heads)) for name in MODALITIES},
    **{f"encoder.{name}.ffn_dim": (_parse_int, _equals(EncoderConfig.ffn_dim)) for name in MODALITIES},
    "fusion.n_heads": (_parse_int, _equals(FUSION_HEADS)),
    "fusion.ffn_dim": (_parse_int, _equals(FUSION_FFN_DIM)),
    "fusion.dropout": (_parse_float, _equals(FUSION_DROPOUT)),
    "fusion.latent_dim": (_parse_int, _equals(LATENT_DIM)),
    "fusion.n_layers": (_parse_int, _equals(1)),
    "train.beta1": (_parse_float, _equals(optim.BETA1)),
    "train.beta2": (_parse_float, _equals(optim.BETA2)),
    "train.eps": (_parse_float, _equals(optim.EPS)),
    "decoder.seed_h": (_parse_int, lambda v, cfg: v == cfg.model.seed_shape[0]),
    "decoder.seed_w": (_parse_int, lambda v, cfg: v == cfg.model.seed_shape[1]),
    "split.test": (_parse_float, lambda v, cfg: abs(v - (1.0 - cfg.split.train - cfg.split.val)) <= 1e-9),
    "radar.noise_sigma": (_parse_float, lambda v, cfg: v >= 0.0),
}

# the desk-scale profile used by the end-to-end tests and example scripts
TOY_OVERRIDES: dict[str, str] = {
    "grid.theta": "-180:180:2.25",
    "grid.phi_regions": "-60:-5:2.75;-5:5:0.125;5:61:2",
    "radar.n_samples": "64",
    "radar.n_chirps": "64",
    "camera.width": "64",
    "camera.height": "64",
    "encoder.camera.depth": "1",
    "encoder.depth.depth": "1",
    "encoder.range_angle.depth": "1",
    "encoder.range_velocity.depth": "1",
    "decoder.filters": "8,8,4,4",
}


@dataclass(frozen=True)
class AppConfig:
    """Typed view of one configuration, plus its canonical raw key/value map."""

    grid: GridSpec
    radar: RadarParams
    cam_width: int
    cam_height: int
    model: ModelConfig
    train: TrainConfig
    split: SplitSpec
    raw: dict[str, str]


def parse_values(text: str) -> tuple[dict[str, str], list[tuple[int, str, Any]], dict[str, int]]:
    """Overlay file text on the defaults, parsing each value as its line is read.

    Returns the raw values, the removed keys as (line, key, value) and each set key's last line.
    """
    values = dict(_DEFAULTS)
    removed = []
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, value = key.strip(), value.strip()
        parse = _REMOVED[key][0] if key in _REMOVED else _PARSERS.get(key)
        if parse is None:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        try:
            parsed = parse(key, value)
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
        if key in _REMOVED:
            removed.append((lineno, key, parsed))
        else:
            values[key], lines[key] = value, lineno
    return values, removed, lines


def _section(typed: dict[str, Any], prefix: str) -> dict[str, Any]:
    """The values under `prefix.`, keyed by the rest of the key (a dataclass field name)."""
    return {key[len(prefix) + 1 :]: value for key, value in typed.items() if key.startswith(prefix + ".")}


def _build(values: dict[str, str], lines: dict[str, int] | None = None) -> AppConfig:
    """Typed config from raw values; `lines` gives the line of each key a text set."""
    typed = {key: parse(key, values[key]) for key, parse in _PARSERS.items()}
    theta_lo, theta_hi, theta_step = typed.pop("grid.theta")

    def checked(cls, section: str, *feeds: str, **fields):
        """`cls` called with `section`'s keys; a failed check names the section and the
        text lines that set its keys or the `feeds` keys."""
        try:
            return cls(**_section(typed, section), **fields)
        except ValueError as e:
            prefixes = tuple(p + "." for p in (section, *feeds))  # "radar.n_rx." matches that key alone
            where = sorted((n, key) for key, n in (lines or {}).items() if (key + ".").startswith(prefixes))
            at = "; set at " + ", ".join(f"line {n}: {key}" for n, key in where) if where else ""
            raise ValueError(f"{section}: {e}{at}") from None

    grid = checked(GridSpec, "grid", theta_lo=theta_lo, theta_hi=theta_hi, theta_step=theta_step)
    radar = checked(RadarParams, "radar")
    cam_w, cam_h = typed["camera.width"], typed["camera.height"]
    image_sizes = {  # each encoder's input size, and the keys that set it
        "camera": ((cam_h, cam_w), ("camera",)),
        "depth": ((cam_h, cam_w), ("camera",)),
        "range_angle": ((radar.n_rx, radar.n_samples), ("radar.n_rx", "radar.n_samples")),
        "range_velocity": ((radar.n_chirps, radar.n_samples), ("radar.n_chirps", "radar.n_samples")),
    }
    encoders = {
        name: checked(EncoderConfig, f"encoder.{name}", *image_sizes[name][1], image_size=image_sizes[name][0])
        for name in MODALITIES
    }
    model = checked(
        ModelConfig, "model", "grid",
        encoders=encoders, decoder=checked(DecoderConfig, "decoder"), grid=grid,
    )
    train = checked(TrainConfig, "train")
    # the loss band must weight some grid row; training's own weight_mask checks it here, at parse time
    checked(weight_mask, "train.band", "grid", grid=grid, band=train.band, alpha=train.alpha)
    return AppConfig(
        grid=grid,
        radar=radar,
        cam_width=cam_w,
        cam_height=cam_h,
        model=model,
        train=train,
        split=checked(SplitSpec, "split"),
        raw=dict(values),
    )


def parse_config(text: str) -> AppConfig:
    values, removed, lines = parse_values(text)
    cfg = _build(values, lines)
    for lineno, key, value in removed:
        if not _REMOVED[key][1](value, cfg):
            raise ValueError(f"line {lineno}: removed key {key} = {value!r} disagrees with the rest of the config")
    return cfg


def config_text(cfg: AppConfig, docs: bool = False) -> str:
    """Canonical serialization, in registry order; optionally with doc comments."""
    lines = []
    for key, _, _, doc in _REGISTRY:
        if docs:
            lines.append(f"# {doc}")
        lines.append(f"{key} = {cfg.raw[key]}")
        if docs:
            lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def default_config() -> AppConfig:
    """Full-scale configuration: 1440x1088 grid, 45x34 seed, filters 256,128,64,64."""
    return _build(dict(_DEFAULTS))


def toy_config(overrides: dict[str, str] | None = None) -> AppConfig:
    """Desk-scale configuration used by the end-to-end suite (160x128 grid)."""
    values = dict(_DEFAULTS)
    values.update(TOY_OVERRIDES)
    if overrides:
        for key in overrides:
            if key not in _DEFAULTS:
                raise ValueError(f"unknown key {key!r}")
        values.update(overrides)
    return _build(values)
