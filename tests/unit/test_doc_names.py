"""Every dotted ``repro.`` name the docs put in backticks must exist.

README.md and DESIGN.md name modules, classes and functions in inline
code spans (``repro.rng.SeedSpawner``).  A rename that misses the docs
leaves a name readers cannot import; this test resolves each one.
"""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOCS = ("README.md", "DESIGN.md")

_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_SPAN = re.compile(r"`([^`\n]+)`")
_NAME = re.compile(r"\brepro(?:\.\w+)+")


def doc_names():
    names = set()
    for doc in DOCS:
        text = _FENCE.sub("", (ROOT / doc).read_text(encoding="utf-8"))
        for span in _SPAN.findall(text):
            names.update(_NAME.findall(span))
    return sorted(names)


def resolve(name):
    """Import the longest module prefix of ``name``; getattr the rest."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            target = getattr(target, attribute)
        return target
    raise ModuleNotFoundError(name)


def test_docs_name_something():
    assert len(doc_names()) > 50


@pytest.mark.parametrize("name", doc_names())
def test_backticked_name_resolves(name):
    resolve(name)
