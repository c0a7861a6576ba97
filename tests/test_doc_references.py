"""Every repo path and test id the documentation cites exists.

The docs point at tests as the evidence for their claims; a citation
of a file or test that is gone is a claim nobody checks any more.
Paths are resolved against the checkout, ``file.py::Class::test`` ids
against the definitions in the file.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted([ROOT / "README.md", ROOT / "DESIGN.md",
               ROOT / "EXPERIMENTS.md", *(ROOT / "docs").glob("*.md")])
#: A path under a top-level directory, optionally with a ``::`` test id.
CITATION = re.compile(
    r"(?<![\w/.-])((?:tests|src|bench|benchmarks|examples|docs|\.github)"
    r"/[\w./*-]*)((?:::\w+)*)")


def defines(path, names):
    """Does ``path`` define ``names`` = ``[Class, ...,] test``?"""
    body = ast.parse(path.read_text()).body
    for name in names:
        body = next((node.body for node in body
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                     and node.name == name), None)
        if body is None:
            return False
    return True


@pytest.mark.parametrize("doc", DOCS, ids=lambda d: d.name)
def test_cited_paths_and_test_ids_exist(doc):
    stale = []
    for path, test_id in CITATION.findall(doc.read_text()):
        path, names = path.rstrip("."), test_id.split("::")[1:]
        found = sorted(ROOT.glob(path)) if "*" in path else [ROOT / path]
        if not found or not all(p.exists() for p in found):
            stale.append(path)
        elif names and not defines(found[0], names):
            stale.append(path + test_id)
    assert not stale, f"{doc.name} cites what does not exist: {stale}"
