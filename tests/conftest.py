"""Session fixtures: shared toy dataset and training runs.

The desk-scale experiment (200 samples, 20 epochs) takes about a minute, so
it is computed once per session and shared between the training unit tests
and the end-to-end acceptance checks.  TIMINGS records how long the shared
stages took so the acceptance budget can include them.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, settings

from helpers import synthetic_dataset
from lidarsynth import config as C
from lidarsynth import training as TR

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

TIMINGS: dict[str, float] = {}


@pytest.fixture(scope="session")
def timings() -> dict[str, float]:
    return TIMINGS


@pytest.fixture(scope="session")
def toy_cfg() -> C.AppConfig:
    return C.toy_config()


@pytest.fixture(scope="session")
def toy_dataset(toy_cfg):
    t0 = time.monotonic()
    samples = synthetic_dataset(
        200, "mixed", toy_cfg.grid, toy_cfg.radar, toy_cfg.cam_width, toy_cfg.cam_height, seed=0
    )
    TIMINGS["toy_dataset"] = time.monotonic() - t0
    return samples


@pytest.fixture(scope="session")
def toy_run(toy_cfg, toy_dataset) -> TR.TrainResult:
    t0 = time.monotonic()
    result = TR.train(toy_dataset, toy_cfg.model, toy_cfg.train, toy_cfg.split)
    TIMINGS["toy_train"] = time.monotonic() - t0
    return result


@pytest.fixture(scope="session")
def tiny_cfg() -> C.AppConfig:
    # 3-epoch variant for unit tests that need a real but cheap run
    return C.toy_config(overrides={"train.epochs": "3"})


@pytest.fixture(scope="session")
def tiny_dataset(tiny_cfg):
    return synthetic_dataset(
        40, "mixed", tiny_cfg.grid, tiny_cfg.radar, tiny_cfg.cam_width, tiny_cfg.cam_height, seed=1
    )


@pytest.fixture(scope="session")
def tiny_run(tiny_cfg, tiny_dataset) -> TR.TrainResult:
    return TR.train(tiny_dataset, tiny_cfg.model, tiny_cfg.train, tiny_cfg.split)
