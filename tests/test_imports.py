"""Every name a library, test or benchmark module imports is used in that
module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.relative_to(ROOT).as_posix() for p in
                 [*(ROOT / "src" / "groupcent").glob("*.py"),
                  *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "bench").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the imports in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_unused_names():
    source = ("import os.path\nfrom heapq import heappop, heappush as push\n"
              "push([], os.sep)\n")
    assert unused_imports(source) == ["heappop"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((ROOT / module).read_text(encoding="utf-8")) == []
