"""Every code reference in DESIGN.md resolves.

DESIGN.md maps the paper onto ``repro.*`` modules and onto the tests
that regenerate each result.  A module or test that is renamed or
folded away leaves a stale pointer there; this test catches it.
"""

import ast
import glob
import importlib
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "DESIGN.md"), encoding="utf-8") as _fh:
    SPANS = re.findall(r"`([^`\n]+)`", _fh.read())

NAMES = sorted({m for span in SPANS
                for m in re.findall(r"\brepro(?:\.\w+)+(?:\.\*)?", span)})
TESTS = sorted({m for span in SPANS
                for m in re.findall(r"\btests/[\w*]+\.py(?:::[\w:]+)?", span)})


def _resolves(name):
    parts = name.split(".")
    if parts[-1] == "*":
        parts = parts[:-1]
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def _defines(path, qualname):
    with open(path, encoding="utf-8") as fh:
        scope = ast.parse(fh.read()).body
    for part in qualname.split("::"):
        found = [node for node in scope
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name == part]
        if not found:
            return False
        scope = found[0].body
    return True


def test_design_has_references():
    assert len(NAMES) > 30 and len(TESTS) > 20


def test_every_repro_name_resolves():
    assert [name for name in NAMES if not _resolves(name)] == []


def test_every_test_reference_resolves():
    stale = []
    for reference in TESTS:
        pattern, _, qualname = reference.partition("::")
        files = glob.glob(os.path.join(ROOT, pattern))
        if not files or (qualname and not _defines(files[0], qualname)):
            stale.append(reference)
    assert stale == []
