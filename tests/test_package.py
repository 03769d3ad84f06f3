"""The package runs on the Python standard library alone.

pyproject.toml declares no dependencies; this holds every module of
src/ipgap to that, including imports inside functions.  The benchmark's
tracer wraps package functions by name, so every name it reads must
resolve.
"""

import ast
import importlib.util
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
