"""The package surface: every exported name resolves and has a caller in the program; importing the package sets only the allocator."""

import ast
import ctypes
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lidarsynth
from helpers import glibc_mallopt
from lidarsynth import config as C
from lidarsynth import synthgen
from lidarsynth import training as TR

MODULES = ["lidarsynth"] + [
    f"lidarsynth.{m.name}" for m in pkgutil.iter_modules(lidarsynth.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "scripts", "perfbench")

# exported names with no program caller yet, each with the reason it stays
NO_CALLER_YET = {
    "lidarsynth.model.param_breakdown": "the run header of the --metrics sink (ROADMAP item 10) will read it",
}


def _parsed_program_files():
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for d in PROGRAM_DIRS
        for path in sorted((ROOT / d).rglob("*.py"))
    }


def _definition_lines(tree: ast.Module, name: str) -> set[int]:
    """The lines of the top-level def or class of `name`, body included."""
    lines: set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == name:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _referenced_lines(tree: ast.Module, name: str) -> set[int]:
    """Lines that read `name` as a bare name or as an attribute (assignments, imports and strings do not)."""
    return {
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == name and isinstance(node.ctx, ast.Load))
    }


def test_every_exported_name_has_a_program_caller():
    files = _parsed_program_files()
    uncalled = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        own = Path(module.__file__).resolve()
        for name in getattr(module, "__all__", ()):
            defined_here = getattr(getattr(module, name), "__module__", module_name) == module_name
            if f"{module_name}.{name}" in NO_CALLER_YET or not defined_here:
                continue  # allowlisted, or a re-export checked in its own module
            called = any(
                _referenced_lines(tree, name) - (_definition_lines(tree, name) if path == own else set())
                for path, tree in files.items()
            )
            if not called:
                uncalled.append(f"{module_name}.{name}")
    assert not uncalled, f"no caller in src/, scripts/ or perfbench/ (move to tests/helpers.py): {uncalled}"


# -- the allocator setting made when the package loads --------------------------------


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("loader", [lambda name: object(), _no_c_library], ids=["no_symbol", "no_library"])
def test_keep_heap_mapped_is_quiet_without_glibc_mallopt(monkeypatch, loader):
    monkeypatch.setattr(ctypes, "CDLL", loader)
    assert lidarsynth._keep_heap_mapped() is None


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _import_in_fresh_process(imports: str) -> subprocess.CompletedProcess:
    """Run ``imports`` in a new interpreter under LIDARSYNTH_THREADS=1 and none of the BLAS variables."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env.update(LIDARSYNTH_THREADS="1", PYTHONPATH=str(Path(lidarsynth.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", imports], env=env, capture_output=True, text=True, check=True)


@pytest.mark.parametrize("first, second", [("lidarsynth", "numpy"), ("numpy", "lidarsynth")])
def test_importing_the_package_sets_no_thread_variable_in_either_order(first, second):
    # the BLAS thread caps are the caller's to set, before Python starts
    done = _import_in_fresh_process(
        f"import json, os, sys, {first}\n"
        "loaded = sorted(m for m in ('lidarsynth', 'numpy') if m in sys.modules)\n"
        f"import {second}\n"
        f"print(json.dumps([loaded, [v for v in {_BLAS_VARS!r} if v in os.environ]]))"
    )
    assert done.stderr == ""
    loaded_by_first, blas_set = json.loads(done.stdout)
    assert loaded_by_first == [first]
    assert blas_set == []


def _minor_faults_in_fresh_process(script: str, *args: str) -> list[int]:
    """Run ``script`` with ``args`` in a new interpreter; it prints minor-fault counts on its last line."""
    pytest.importorskip("resource")
    if glibc_mallopt() is None:
        pytest.skip("the C library has no mallopt")
    env = dict(os.environ, PYTHONPATH=str(Path(lidarsynth.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, check=True)
    return [int(n) for n in done.stdout.splitlines()[-1].split()]


_SYNTH_FAULTS = """
import resource, sys
from pathlib import Path
from lidarsynth import config, synthgen
cfg = config.toy_config()
plan = list(synthgen.plan_scenes(12, "mixed", cfg.radar, 0))
faults = []
for seed, prof, scene, radar in plan:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    synthgen.export_sample(scene, cfg.grid, radar, cfg.cam_width, cfg.cam_height,
                           Path(sys.argv[1]) / f"sample_{seed:06d}", seed, prof.name)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


def test_synthesis_reuses_the_heap_without_page_faults(tmp_path):
    # with glibc's defaults every toy sample faults about 500 pages of freed
    # temporaries back in; the first sample of each profile may grow the heap
    faults = _minor_faults_in_fresh_process(_SYNTH_FAULTS, str(tmp_path))
    assert len(faults) == 12
    after_warm_up = faults[4:]
    assert sum(after_warm_up) < 20 * len(after_warm_up), faults


_EVAL_FAULTS = """
import resource, sys
from lidarsynth import config, training
data, ckpt_path = sys.argv[1:]
faults = []
for _ in range(2):
    # the body of lidarsynth eval
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cfg_text, ckpt, _ = training.load_checkpoint(ckpt_path)
    cfg = config.parse_config(cfg_text)
    _, _, test = training.split(training.load_dataset(data, cfg.grid), cfg.split)
    model = training.model_from_checkpoint(cfg.model, ckpt)
    report = training.evaluate(model, test, cfg.train, cfg.train.batch_size)
    del cfg_text, ckpt, model, report
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


def test_a_second_eval_reuses_the_heap_without_page_faults(tmp_path, tiny_cfg, tiny_run):
    # with glibc's defaults the checkpoint's 126 MB of frozen weights are
    # mapped afresh on every load, about 21k faults a pass
    for i, (seed, prof, scene, radar) in enumerate(synthgen.plan_scenes(20, "mixed", tiny_cfg.radar, 0)):
        synthgen.export_sample(scene, tiny_cfg.grid, radar, tiny_cfg.cam_width, tiny_cfg.cam_height,
                               tmp_path / "data" / f"sample_{i:06d}", seed, prof.name)
    TR.save_checkpoint(tmp_path / "model.lsck", C.config_text(tiny_cfg), tiny_run.best)
    faults = _minor_faults_in_fresh_process(_EVAL_FAULTS, str(tmp_path / "data"), str(tmp_path / "model.lsck"))
    assert len(faults) == 2
    assert faults[1] < 2000, faults
