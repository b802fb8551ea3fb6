"""No module of the package, and no test module, imports a name it never
uses."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cluster_loc"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_the_modules():
    assert "triangles.py" in MODULES
    assert {"conftest.py", "test_unused_imports.py"} <= set(TEST_MODULES)


def test_scan_flags_an_unused_import():
    src = "import os\nfrom a import b, c as d\nprint(os.sep, d)\n"
    assert unused_imports(src) == ["b"]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    assert unused_imports((SRC / name).read_text()) == []


@pytest.mark.parametrize("name", TEST_MODULES)
def test_no_unused_imports_in_tests(name):
    assert unused_imports((TESTS / name).read_text()) == []
