"""The package surface: every exported name resolves and has a caller in the program."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lidarsynth

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
