"""Every name that ``dropstab`` and its modules export resolves, so that a
deletion cannot leave a stale entry in an ``__all__`` behind."""

import importlib
import pkgutil

import dropstab


def test_every_exported_name_resolves():
    modules = [dropstab] + [importlib.import_module(f"dropstab.{info.name}")
                            for info in pkgutil.iter_modules(dropstab.__path__)]
    exporting = [mod for mod in modules if hasattr(mod, "__all__")]
    assert len(exporting) >= 7
    for mod in exporting:
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
