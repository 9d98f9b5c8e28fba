"""Every name that ``dropstab`` and its modules export resolves, so that a
deletion cannot leave a stale entry in an ``__all__`` behind; and every
exported name has a reader outside ``tests/``, so that the library carries
no API that only the tests use."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import dropstab

ROOT = Path(__file__).resolve().parents[1]


def _exporting_modules():
    modules = [dropstab] + [importlib.import_module(f"dropstab.{info.name}")
                            for info in pkgutil.iter_modules(dropstab.__path__)]
    return [mod for mod in modules if hasattr(mod, "__all__")]


def test_every_exported_name_resolves():
    exporting = _exporting_modules()
    assert len(exporting) >= 7
    for mod in exporting:
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"


def _references(source: str) -> set:
    """Identifiers a piece of code reads: names, attributes and imported
    names.  A ``def`` or ``class`` statement and an ``__all__`` string
    define a name; they do not read it."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
    return refs


def test_every_exported_name_is_read_outside_the_tests():
    refs = set()
    for path in sorted((ROOT / "src" / "dropstab").glob("*.py")) + sorted(
            (ROOT / "perfbench").glob("*.py")):
        refs |= _references(path.read_text(encoding="utf-8"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S):
        refs |= _references(block)
    unread = [f"{mod.__name__}.{name}" for mod in _exporting_modules()
              for name in mod.__all__ if name not in refs]
    assert unread == []
