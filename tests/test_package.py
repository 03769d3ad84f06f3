"""The package runs on the Python standard library alone.

pyproject.toml declares no dependencies; this holds every module of
src/ipgap to that, including imports inside functions, and every name a
module imports must be read in it.  The benchmark's tracer wraps package
functions by name, so every name it reads must resolve.
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import ipgap

MODULES = sorted(Path(ipgap.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_only_the_standard_library(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    tops = {name.partition(".")[0] for name in names}
    assert tops <= set(sys.stdlib_module_names) | {"ipgap"}, path.name


def _names_read(tree) -> set:
    """Names a module reads: in code, in string annotations, in __all__."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    read |= _names_read(ast.parse(part.value, mode="eval"))
    return read


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_are_used(path):
    # __init__'s re-exports are read through __all__; from __future__
    # imports bind no name
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
    read = _names_read(tree)
    unused = sorted((line, name) for name, line in imported.items() if name not in read)
    assert unused == [], path.name


def _bench_trace():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py"
    spec = importlib.util.spec_from_file_location("bench_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    # Tracer.install reads a module-level name with getattr and a
    # Class.attr path from the class __dict__; a renamed function must
    # fail here, not in a traced benchmark run
    missing = []
    for name, module, path, _ in _bench_trace().TARGETS:
        home = importlib.import_module(module)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(home, cls_name, None)
            if cls is None or attr not in vars(cls):
                missing.append(name)
        elif not hasattr(home, path):
            missing.append(name)
    assert missing == []


# Public names that only tests read.  The model constructors stay: they
# are the package's named instances, like the ones demos and the README use.
TEST_ONLY_EXPORTS = {"simplicial_model_representatives", "transportation_model"}


def test_public_names_have_a_caller():
    # every exported name is loaded by a module of the package (its
    # def does not count) or named by the demos, the README or the
    # benchmark; code only tests call does not belong in the public surface
    loaded = set()
    for path in MODULES:
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(), str(path))
            loaded |= _names_read(tree)
            loaded |= {
                node.attr
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            }
    root = Path(__file__).resolve().parent.parent
    texts = [root / "README.md", *sorted((root / "demos").iterdir())]
    texts += sorted((root / "perfbench").glob("*.py"))
    named = " ".join(p.read_text() for p in texts if p.is_file())
    uncalled = {
        name
        for name in ipgap.__all__
        if name not in loaded and not re.search(rf"\b{name}\b", named)
    }
    assert uncalled == TEST_ONLY_EXPORTS
