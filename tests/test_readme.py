"""The README's command transcripts, run through the CLI, and its Library
block, run as a script, and its module references.

Each ```text block that starts with ``$ dropstab`` is one command line
followed by its exact stdout.  ``$EXAMPLE`` stands for the packaged
example1.json, and every model file the README shows inline as a ```json
block is available under ``<name>.json``.
"""

import importlib
import json
import re
import shlex
from importlib.resources import files
from pathlib import Path

import pytest

from conftest import same_model
from dropstab.cli import load_model, main

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLE = str(files("dropstab").joinpath("data/example1.json"))


def _fenced(lang):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


TRANSCRIPTS = [block for block in _fenced("text")
               if block.startswith("$ dropstab ")]


def test_readme_has_transcripts():
    assert [block.split()[2] for block in TRANSCRIPTS] == [
        "rects", "analyze", "supremum"]


@pytest.mark.parametrize("block", TRANSCRIPTS, ids=lambda b: b.split()[2])
def test_readme_transcript(block, tmp_path, monkeypatch, capsys):
    for doc in _fenced("json"):
        (tmp_path / f"{json.loads(doc)['name']}.json").write_text(
            doc, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    command, _, expected = block.partition("\n")
    argv = [EXAMPLE if tok == "$EXAMPLE" else tok
            for tok in shlex.split(command)[2:]]
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_readme_library_block():
    # its plant is the packaged example1, and its own assertion holds
    (block,) = _fenced("python")
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    model = load_model(EXAMPLE)
    assert same_model(scope["plant"], model.plant)
    assert scope["zeros"] == pytest.approx(model.zeros)
    assert scope["report"].member


MODULES = ("numkernel", "statespace", "factorization", "stabilizability",
           "verification", "cli", "config")


def test_readme_module_references_resolve():
    # every `<module>.<name>` the README names is an attribute of that module
    refs = set(re.findall(rf"`({'|'.join(MODULES)})\.(\w+)`",
                          README.read_text(encoding="utf-8")))
    assert len(refs) >= 14
    missing = [f"{module}.{name}" for module, name in sorted(refs)
               if not hasattr(importlib.import_module(f"dropstab.{module}"), name)]
    assert missing == []
