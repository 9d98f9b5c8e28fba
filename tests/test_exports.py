"""The package's public surface is what its readers outside ``tests/`` use.

Every name that ``dropstab`` and its modules export resolves, so that a
deletion cannot leave a stale entry in an ``__all__`` behind.  The readers
are the modules of ``src/dropstab`` other than ``__init__.py`` (whose
re-exports read nothing), the benchmark in ``perfbench/`` and the README's
Library block.  The package top level exports exactly what that block
imports; every other exported name, every field, method and property of an
exported class, and every defaulted parameter of an exported function must
be used by one of those readers, so that the library carries no API that
only the tests use."""

import ast
import dataclasses
import functools
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import dropstab

ROOT = Path(__file__).resolve().parents[1]

#: defaulted parameters that no reader passes, each kept for a reason
UNPASSED_HOOKS = {
    # the console entry point parses sys.argv when it is called without one
    "dropstab.cli.main": {"argv"},
}


def _exporting_modules():
    modules = [dropstab] + [importlib.import_module(f"dropstab.{info.name}")
                            for info in pkgutil.iter_modules(dropstab.__path__)]
    return [mod for mod in modules if hasattr(mod, "__all__")]


def _readme_library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def _reader_trees() -> list:
    paths = [path for path in sorted((ROOT / "src" / "dropstab").glob("*.py"))
             if path.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths] + [
        ast.parse(_readme_library_block())]


def _references(tree) -> set:
    """Identifiers a piece of code reads: names, attributes and imported
    names.  A ``def`` or ``class`` statement and an ``__all__`` string
    define a name; they do not read it."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
    return refs


def _attribute_reads(tree) -> set:
    """Attribute names read (``obj.name`` loaded); a constructor keyword or
    an assignment ``obj.name = ...`` is not a read."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _passed(calls, name, index, param) -> bool:
    """Some call of a function called ``name`` passes ``param``, by keyword,
    at its position ``index``, or through a ``*`` or ``**`` splat."""
    for call in calls:
        func = call.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if called != name:
            continue
        if len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args):
            return True
        if any(kw.arg in (param, None) for kw in call.keywords):
            return True
    return False


def test_every_exported_name_resolves():
    exporting = _exporting_modules()
    assert len(exporting) >= 7
    for mod in exporting:
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"


def test_top_level_exports_what_the_readme_imports():
    imported = [alias.name for node in ast.walk(ast.parse(_readme_library_block()))
                if isinstance(node, ast.ImportFrom) and node.module == "dropstab"
                for alias in node.names]
    assert sorted(dropstab.__all__) == sorted(imported)


def test_every_exported_name_is_read_outside_the_tests():
    refs = set().union(*map(_references, _reader_trees()))
    unread = [f"{mod.__name__}.{name}" for mod in _exporting_modules()
              for name in mod.__all__ if name not in refs]
    assert unread == []


def _exported_objects(kind):
    """The exported objects for which ``kind`` holds, each once."""
    objs = {id(obj): obj for mod in _exporting_modules()
            for obj in (getattr(mod, name) for name in mod.__all__) if kind(obj)}
    return list(objs.values())


def test_every_member_of_an_exported_class_is_read_outside_the_tests():
    reads = set().union(*map(_attribute_reads, _reader_trees()))
    unread = []
    for cls in _exported_objects(inspect.isclass):
        members = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
        members += [key for key, value in vars(cls).items() if not key.startswith("_") and (
            inspect.isfunction(value) or isinstance(value, (property, functools.cached_property)))]
        unread += [f"{cls.__module__}.{cls.__name__}.{m}" for m in members if m not in reads]
    assert unread == []


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    calls = [node for tree in _reader_trees() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unpassed = []
    for fn in _exported_objects(inspect.isfunction):
        for index, param in enumerate(inspect.signature(fn).parameters.values()):
            if (param.default is not param.empty
                    and param.name not in UNPASSED_HOOKS.get(f"{fn.__module__}.{fn.__name__}", ())
                    and not _passed(calls, fn.__name__, index, param.name)):
                unpassed.append(f"{fn.__module__}.{fn.__name__}({param.name}=)")
    assert unpassed == []
