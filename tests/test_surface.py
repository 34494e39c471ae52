"""The kept public surface: every exported name resolves, and the README
example, the documented use of the API, runs as written."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import cadlab

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"cadlab.{m.name}")
               for m in pkgutil.iter_modules(cadlab.__path__)]
    exported = {}
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names {name!r}"
            exported.setdefault(mod.__name__, set()).add(name)
    # the package re-exports names from its modules' __all__ only
    tree = ast.parse(Path(cadlab.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                assert hasattr(cadlab, alias.name)
                assert alias.name in exported[f"cadlab.{node.module}"]


def test_readme_example_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})
