"""Text configuration: defaults, overlays, round trips, rejection of bad input."""

import dataclasses
import hashlib
import re

import pytest

from lidarsynth import config as C
from lidarsynth.geometry import GridSpec
from lidarsynth.model import MODALITIES, DecoderConfig, EncoderConfig, ModelConfig
from lidarsynth.synthgen import RadarParams
from lidarsynth.training import SplitSpec, TrainConfig


def test_default_config_dimensions():
    cfg = C.default_config()
    assert (cfg.grid.n_rows, cfg.grid.n_cols) == (1088, 1440)
    assert cfg.grid.max_range == 100.0
    assert (cfg.radar.n_rx, cfg.radar.n_samples, cfg.radar.n_chirps) == (4, 256, 128)
    assert (cfg.cam_width, cfg.cam_height) == (224, 224)
    assert cfg.model.seed_shape == (45, 34)
    assert cfg.train.batch_size == 32
    assert cfg.split.train == 0.6
    assert cfg.train.normalize_ranges is True


def test_toy_config_dimensions(toy_cfg):
    assert (toy_cfg.grid.n_rows, toy_cfg.grid.n_cols) == (128, 160)
    assert toy_cfg.model.seed_shape == (5, 4)
    assert toy_cfg.model.decoder.filters == (8, 8, 4, 4)
    assert toy_cfg.train.normalize_ranges is True
    assert toy_cfg.model.encoders["camera"].depth == 1


def test_text_round_trip():
    cfg = C.default_config()
    text = C.config_text(cfg)
    back = C.parse_config(text)
    assert back.raw == cfg.raw
    assert back.grid == cfg.grid
    assert back.model == cfg.model
    assert back.train == cfg.train
    assert back.split == cfg.split


def test_toy_text_round_trip(toy_cfg):
    back = C.parse_config(C.config_text(toy_cfg))
    assert back == toy_cfg


def test_parse_overlays_defaults():
    cfg = C.parse_config("train.epochs = 7\n\n# comment\nradar.n_rx = 8\n")
    assert cfg.train.epochs == 7
    assert cfg.radar.n_rx == 8
    assert cfg.train.batch_size == 32  # untouched default


def test_parse_tolerates_whitespace_and_comments():
    cfg = C.parse_config("  train.alpha   =  2.5  \n   \n# train.alpha = 99\n")
    assert cfg.train.alpha == 2.5


def test_parse_rejects_unknown_key_with_line_number():
    with pytest.raises(ValueError, match="line 2"):
        C.parse_config("train.epochs = 5\ntrain.momentum = 0.9\n")


def test_bad_value_names_its_line_even_when_the_key_repeats():
    with pytest.raises(ValueError, match=r"^line 2: train\.epochs: expected integer"):
        C.parse_config("train.epochs = 5\ntrain.epochs = many\n")


@pytest.mark.parametrize(
    "line, section",
    [
        ("train.batch_size = 1", "train"),
        ("split.train = 0.9", "split"),
        ("fusion.n_heads = 7", "fusion"),
        ("encoder.camera.patch_size = 10", "encoder.camera"),
        ("grid.theta = -180:180:0.7", "grid"),
        ("grid.theta = 0:360:2.25", "grid"),
        ("grid.phi_regions = -95:-5:2.5;-5:5:0.125;5:61:2", "grid"),
        ("fusion.n_heads = 0", "fusion"),
        ("encoder.camera.n_heads = 0", "encoder.camera"),
        ("encoder.camera.n_heads = -12", "encoder.camera"),
        ("encoder.depth.patch_size = 0", "encoder.depth"),
        ("encoder.camera.patch_size = -16", "encoder.camera"),
        ("model.seed = -1", "model"),
        ("train.seed = -1", "train"),
        ("encoder.camera.depth = 0", "encoder.camera"),
    ],
)
def test_failed_dataclass_check_names_its_section_and_lines(line, section):
    key = line.partition(" = ")[0]
    text = "# a comment\ntrain.epochs = 5\n" + line + "\n"
    want = rf"^{re.escape(section)}: .*; set at .*line 3: {re.escape(key)}"
    if key in C._REMOVED:  # head counts are fixed now: any other value is refused at its line
        want = rf"^line 3: removed key {re.escape(key)} = "
    with pytest.raises(ValueError, match=want):
        C.parse_config(text)


@pytest.mark.parametrize(
    "band, why",
    [("-70:2", "outside grid span"), ("0.001:0.002", "holds no row center")],
)
def test_loss_band_is_checked_against_the_grid_as_the_text_is_parsed(band, why):
    # the toy elevation regions: -70 lies below the grid, and no row center lies in 0.001:0.002
    text = f"grid.phi_regions = -60:-5:2.75;-5:5:0.125;5:61:2\ntrain.band = {band}\n"
    with pytest.raises(
        ValueError, match=rf"^train\.band: .*{why}.*; set at line 1: grid\.phi_regions, line 2: train\.band$"
    ):
        C.parse_config(text)


def test_failed_check_names_every_line_that_set_its_section():
    text = "split.val = 0.3\n\nsplit.train = 0.8\n"
    with pytest.raises(ValueError, match=r"set at line 1: split\.val, line 3: split\.train$"):
        C.parse_config(text)


def test_parse_rejects_line_without_equals():
    with pytest.raises(ValueError, match="line 1"):
        C.parse_config("train.epochs 5\n")


@pytest.mark.parametrize(
    "line",
    [
        "train.epochs = many",
        "train.alpha = fast",
        "train.normalize_ranges = maybe",
        "grid.theta = -180:180",
        "train.band = 1.0",
        "decoder.filters = 8,eight",
        "train.beta1 = 1.0",
        "train.beta2 = 1.5",
        "train.beta1 = -0.1",
        "train.eps = 0",
        "train.lr_early = -1",
        "train.lr_late = 0",
        "train.lr_switch_epoch = -3",
        "train.alpha = nan",
        "split.train = nan",
        "grid.max_range = nan",
        "grid.max_range = inf",
        "train.band = -inf:2",
        "grid.theta = -180:180:nan",
        "grid.phi_regions = -60:-5:0.25;-5:nan:0.25",
    ],
)
def test_parse_rejects_bad_values(line):
    with pytest.raises(ValueError):
        C.parse_config(line + "\n")


def test_parse_rejects_semantically_bad_values():
    with pytest.raises(ValueError):
        C.parse_config("train.batch_size = 1\n")
    with pytest.raises(ValueError):
        C.parse_config("split.train = 0.9\n")  # train and val fractions exceed 1
    with pytest.raises(ValueError):
        C.parse_config("grid.theta = -180:180:0.7\n")  # non-integer bin count


def test_toy_override_validation():
    cfg = C.toy_config(overrides={"train.epochs": "3"})
    assert cfg.train.epochs == 3
    with pytest.raises(ValueError):
        C.toy_config(overrides={"train.number_of_epochs": "3"})


def test_config_text_docs_mode():
    text = C.config_text(C.default_config(), docs=True)
    assert "# azimuth span and bin width" in text
    assert C.parse_config(text).raw == C.default_config().raw


def test_every_registry_key_has_doc_and_default():
    cfg = C.default_config()
    text = C.config_text(cfg, docs=True)
    for key in cfg.raw:
        assert f"{key} = " in text


# sha256 of the canonical texts: the text is embedded in every checkpoint, so a
# change to it is a change to every checkpoint written from now on
DEFAULT_DOCS_SHA256 = "a8bcd26b5a05b4b57f7eef771a736c286856bbf5d4324df642e9c247791785fb"
TOY_TEXT_SHA256 = "aea019c2e65f868fe43641d6d6ec2ba0ee1e628dfa9056e1b47aca5833b8d1d0"


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_config_text_is_pinned():
    assert _digest(C.config_text(C.default_config(), docs=True)) == DEFAULT_DOCS_SHA256
    assert _digest(C.config_text(C.toy_config())) == TOY_TEXT_SHA256


# Canonical texts of earlier versions are today's texts plus the lines removed
# since, each listed with the key it followed, its doc comment and its value
# in the config at hand.  Every earlier default text also said
# train.normalize_ranges = false, the default of its day.  The digests pinned
# while each text was current identify them.
FIXED_LINES = [  # the encoder and fusion widths and Adam's constants, which the code fixes
    *(
        line
        for name in MODALITIES
        for line in (
            (f"encoder.{name}.depth", f"encoder.{name}.n_heads",
             f"{name.replace('_', '-')} encoder attention heads", lambda cfg: "12"),
            (f"encoder.{name}.n_heads", f"encoder.{name}.ffn_dim",
             f"{name.replace('_', '-')} encoder feedforward width", lambda cfg: "3072"),
        )
    ),
    ("encoder.range_velocity.ffn_dim", "fusion.n_heads", "fusion encoder attention heads", lambda cfg: "12"),
    ("fusion.n_heads", "fusion.ffn_dim", "fusion encoder feedforward width", lambda cfg: "2048"),
    ("fusion.ffn_dim", "fusion.dropout", "fusion encoder dropout probability, applied in training steps only",
     lambda cfg: "0.1"),
    ("fusion.dropout", "fusion.latent_dim", "latent width fed to the decoder", lambda cfg: "1024"),
    ("train.lr_switch_epoch", "train.beta1", "Adam first-moment decay", lambda cfg: "0.9"),
    ("train.beta1", "train.beta2", "Adam second-moment decay", lambda cfg: "0.999"),
    ("train.beta2", "train.eps", "Adam denominator epsilon", lambda cfg: "1e-08"),
]
FIXED_DEFAULT_DOCS_SHA256 = "aaad1b8203366dcf899f42e5ba660d7a46b7f0dc0d0c16152c79a6f85e493a5c"
FIXED_TOY_TEXT_SHA256 = "4e43d888c8b500c48df961c78ec16aa9f6f20f97b99e9ffd3b81b65ca8566ebb"
DERIVED_LINES = [  # before those, keys the grid or the split implies, or nothing reads
    *FIXED_LINES,
    ("radar.n_chirps", "radar.noise_sigma", "circular Gaussian noise level of the simulated cube",
     lambda cfg: "0.02"),
    ("fusion.latent_dim", "decoder.seed_h", "decoder seed map height (azimuth axis); x32 gives output columns",
     lambda cfg: str(cfg.model.seed_shape[0])),
    ("decoder.seed_h", "decoder.seed_w", "decoder seed map width (elevation axis); x32 gives output rows",
     lambda cfg: str(cfg.model.seed_shape[1])),
    ("split.val", "split.test", "trailing fraction used for testing", lambda cfg: "0.2"),
]
DERIVED_DEFAULT_DOCS_SHA256 = "14ae67d37287f12456f4bd964beafc759f04830514355f78e1f7ba30a35efffa"
DERIVED_TOY_TEXT_SHA256 = "3bbd1230274140beb72c2166de600ee66dbc1f733a85673fe7f5ff9cd093cdf2"
REMOVED_LINES = [  # and, before those, the frozen and n_layers keys
    *DERIVED_LINES,
    *(
        (f"encoder.{name}.ffn_dim", f"encoder.{name}.frozen",
         f"exclude {name.replace('_', '-')} encoder weights from optimization", lambda cfg: "true")
        for name in MODALITIES
    ),
    ("fusion.dropout", "fusion.n_layers", "fusion encoder layers", lambda cfg: "1"),
]
OLD_DEFAULT_DOCS_SHA256 = "456c745e067b62a80232b464290fb54c51a05ceda074a312ac79419ace774728"
OLD_TOY_TEXT_SHA256 = "f4f9bcfa9f90814c6f0f4ef8280b483d53a30375c30c2c6bcbf5a8115b6d8317"


def _old_text(cfg, removed, docs):
    lines = C.config_text(cfg, docs=docs).splitlines()
    for after, key, doc, value in removed:
        i = next(k for k, old in enumerate(lines) if old.startswith(after + " = "))
        line = f"{key} = {value(cfg)}"
        lines[i + 1 : i + 1] = ["", f"# {doc}", line] if docs else [line]
    return "\n".join(lines) + "\n"


def test_old_canonical_texts_parse_to_todays_configs():
    # the old default trained in meters, and its text still does
    in_meters = C.parse_config("train.normalize_ranges = false\n")
    assert in_meters.train.normalize_ranges is False
    for removed, default_sha, toy_sha in [
        (FIXED_LINES, FIXED_DEFAULT_DOCS_SHA256, FIXED_TOY_TEXT_SHA256),
        (DERIVED_LINES, DERIVED_DEFAULT_DOCS_SHA256, DERIVED_TOY_TEXT_SHA256),
        (REMOVED_LINES, OLD_DEFAULT_DOCS_SHA256, OLD_TOY_TEXT_SHA256),
    ]:
        old_default = _old_text(in_meters, removed, docs=True)
        old_toy = _old_text(C.toy_config(), removed, docs=False)
        # today's texts are the old ones minus exactly the removed lines
        assert _digest(old_default) == default_sha
        assert _digest(old_toy) == toy_sha
        assert C.parse_config(old_default) == in_meters
        assert C.parse_config(old_toy) == C.toy_config()


def test_removed_keys_accept_other_spellings_of_their_value():
    text = (
        "encoder.depth.frozen = yes\nencoder.camera.frozen = 1\nfusion.n_layers = 01\n"
        "decoder.seed_h = 045\ndecoder.seed_w = +34\nsplit.test = 2e-1\nradar.noise_sigma = 0.5\n"
        "encoder.camera.n_heads = 012\nencoder.range_angle.ffn_dim = +3072\nfusion.n_heads = 12\n"
        "fusion.ffn_dim = 2048\nfusion.dropout = 0.10\nfusion.latent_dim = 1024\n"
        "train.beta1 = .9\ntrain.beta2 = 9.99e-1\ntrain.eps = 1e-8\n"
    )
    assert C.parse_config(text) == C.default_config()
    # the seed keys and split.test are checked against the grid and split they come with
    legacy = "grid.phi_regions = -60:-5:0.25;-5:5:0.015625;5:30:0.25\ndecoder.seed_w = 30\n"
    assert C.parse_config(legacy).model.seed_shape == (45, 30)
    assert C.parse_config("split.train = 0.5\nsplit.test = 0.3\n").split == SplitSpec(train=0.5, val=0.2)


@pytest.mark.parametrize(
    "line",
    [
        "encoder.camera.frozen = false",
        "encoder.range_velocity.frozen = no",
        "encoder.depth.frozen = maybe",
        "fusion.n_layers = 0",
        "fusion.n_layers = 2",
        "fusion.n_layers = one",
        "decoder.seed_h = 6",
        "decoder.seed_h = 5",
        "decoder.seed_w = 30",
        "decoder.seed_w = 34.0",
        "split.test = 0.3",
        "split.test = nan",
        "radar.noise_sigma = -0.1",
        "radar.noise_sigma = inf",
        "encoder.camera.n_heads = 8",
        "encoder.camera.ffn_dim = 2048",
        "encoder.range_velocity.ffn_dim = 3072.0",
        "fusion.n_heads = 8",
        "fusion.ffn_dim = 3072",
        "fusion.dropout = 0",
        "fusion.latent_dim = 512",
        "train.beta1 = 0.8",
        "train.beta2 = 0.99",
        "train.eps = 1e-7",
    ],
)
def test_removed_keys_reject_any_other_value(line):
    key = line.partition(" = ")[0]
    with pytest.raises(ValueError, match=rf"^line 2: .*{re.escape(key)}"):
        C.parse_config("train.epochs = 5\n" + line + "\n")


def test_removed_key_rejection_names_its_line():
    with pytest.raises(ValueError, match="line 3: removed key decoder.seed_h"):
        C.parse_config("train.epochs = 5\n# the grid implies 45\ndecoder.seed_h = 6\n")
    with pytest.raises(ValueError, match="line 2: removed key split.test"):
        C.parse_config("split.train = 0.5\nsplit.test = 0.2\n")
    with pytest.raises(ValueError, match="line 4: removed key fusion.n_heads"):
        C.parse_config("fusion.n_heads = 12\ntrain.beta1 = 0.9\n\nfusion.n_heads = 8\n")


def test_removed_keys_are_not_overrides():
    with pytest.raises(ValueError, match="unknown key"):
        C.toy_config(overrides={"fusion.n_layers": "1"})


# fields no key sets: derived from other keys, or fixed by the architecture
UNKEYED_FIELDS = {
    GridSpec: {"theta_lo", "theta_hi", "theta_step"},  # all three from grid.theta
    EncoderConfig: {"image_size", "d_model", "n_heads", "ffn_dim"},  # ViT-Base widths; stub encoders set them
    RadarParams: {"noise_sigma"},  # set per sample from the scenario profile
    ModelConfig: {"encoders", "decoder", "grid"},  # sections of their own
}


@pytest.mark.parametrize(
    "prefix, cls",
    [
        ("grid", GridSpec),
        ("radar", RadarParams),
        *((f"encoder.{name}", EncoderConfig) for name in MODALITIES),
        ("decoder", DecoderConfig),
        ("train", TrainConfig),
        ("split", SplitSpec),
        ("model", ModelConfig),
    ],
)
def test_every_dataclass_field_has_a_registry_key(prefix, cls):
    # sections map onto their dataclass by field name, so a field without a key
    # would silently keep its dataclass default
    keys = {key for key in C.default_config().raw if key.startswith(prefix + ".")}
    fields = {f.name for f in dataclasses.fields(cls)} - UNKEYED_FIELDS.get(cls, set())
    assert {f"{prefix}.{name}" for name in fields} <= keys


def test_registry_defaults_match_dataclass_defaults():
    # split() falls back on SplitSpec's defaults and the dataclasses state the documented ones, so the
    # registry must not keep a second, different copy of them
    cfg = C.default_config()
    assert cfg.train == TrainConfig()
    assert cfg.split == SplitSpec()
    assert cfg.radar == RadarParams()
    assert cfg.grid == GridSpec()
    assert cfg.model.decoder == DecoderConfig()
    assert cfg.model == ModelConfig(encoders=cfg.model.encoders)
    # the range-angle map is 4 antennas tall, so its encoder's patch edge is 4
    for name in MODALITIES:
        enc = cfg.model.encoders[name]
        assert enc == EncoderConfig(image_size=enc.image_size, patch_size=4 if name == "range_angle" else 16)
