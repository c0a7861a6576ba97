"""Every repo path, test id and module the documentation cites exists.

The docs point at tests as the evidence for their claims; a citation
of a file or test that is gone is a claim nobody checks any more.
Paths are resolved against the checkout, ``file.py::Class::test`` ids
against the definitions in the file, dotted ``repro.x.y`` names by
importing them.
"""

import ast
import importlib
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


#: ``Class.attr`` inside a backticked span (a dotted module prefix is
#: allowed: ``executor.TiledProgram.hb_certificate``).
ATTRIBUTE = re.compile(r"(?<!\w)(_?[A-Z]\w*)\.([A-Za-z_]\w*)")
#: Bases that add nothing a doc would cite.
_PLAIN_BASES = {"object", "NamedTuple", "Generic", "Protocol"}


def _class_attributes():
    """``{class name: attribute names}`` of every class under
    ``src/repro`` whose bases are all plain or themselves defined there
    (inherited attributes included; a name defined twice gets the
    union).  Attributes are methods, class-level names and fields, and
    whatever a method assigns to ``self.<name>``."""
    own, bases = {}, {}
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            names = own.setdefault(node.name, set())
            bases.setdefault(node.name, []).extend(
                b.id if isinstance(b, ast.Name) else None
                for b in node.bases)
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    names.add(stmt.name)
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target]
                           if isinstance(stmt, ast.AnnAssign) else [])
                names.update(t.id for t in targets
                             if isinstance(t, ast.Name))
            names.update(
                item.attr for item in ast.walk(node)
                if isinstance(item, ast.Attribute)
                and isinstance(item.ctx, ast.Store)
                and isinstance(item.value, ast.Name)
                and item.value.id == "self")

    def resolve(name, seen=()):
        if any(b is None or (b not in own and b not in _PLAIN_BASES)
               for b in bases[name]):
            return None                 # attributes we cannot see
        out = set(own[name])
        for b in bases[name]:
            if b in own and b not in seen:
                inherited = resolve(b, seen + (name,))
                if inherited is None:
                    return None
                out |= inherited
        return out

    return {name: attrs for name in own
            if (attrs := resolve(name)) is not None}


CLASS_ATTRIBUTES = _class_attributes()


@pytest.mark.parametrize("doc", DOCS, ids=lambda d: d.name)
def test_cited_class_attributes_exist(doc):
    """A backticked ``Class.attr`` of a class defined under
    ``src/repro`` names something that class defines."""
    stale = sorted({
        f"{cls}.{attr}"
        for span in re.findall(r"`([^`\n]+)`", doc.read_text())
        for cls, attr in ATTRIBUTE.findall(span)
        if cls in CLASS_ATTRIBUTES and attr not in CLASS_ATTRIBUTES[cls]})
    assert not stale, f"{doc.name} cites attributes that are gone: {stale}"


#: A dotted ``repro.x[.y...]`` name (inside a backticked span).
DOTTED = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")


def resolves(dotted):
    """Import the longest module prefix of ``dotted``, then ``getattr``
    the rest; a last name may be an instance attribute of a class
    (``CLASS_ATTRIBUTES``), which has no class-level value."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        rest = parts[cut:]
        if not rest:
            return True
        for name in rest[:-1]:
            obj = getattr(obj, name, None)
        return hasattr(obj, rest[-1]) or (
            isinstance(obj, type)
            and rest[-1] in CLASS_ATTRIBUTES.get(obj.__name__, ()))
    return False


@pytest.mark.parametrize("doc", DOCS, ids=lambda d: d.name)
def test_cited_modules_exist(doc):
    stale = sorted({
        name
        for span in re.findall(r"`([^`\n]+)`", doc.read_text())
        for name in DOTTED.findall(span) if not resolves(name)})
    assert not stale, f"{doc.name} cites modules that are gone: {stale}"
