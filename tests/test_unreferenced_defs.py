"""No function or method in the package is defined without being used."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cluster_loc"

# name -> why it may stay although nothing in the package refers to it
ALLOWED = {
    "solve_H_preimage": "the module-side preimage that a density suite "
                        "(ROADMAP item 6) is to call; tests/test_modules.py "
                        "checks it meanwhile",
    "strip_timing": "the report normaliser that bench/ and the determinism "
                    "tests apply to run_suites reports",
}


def unreferenced_defs(sources: dict[str, str]) -> list[str]:
    """Top-level functions and methods of classes whose name occurs in no
    module as a name, an attribute or an imported name; dunders are exempt.
    """
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for fname, source in sorted(sources.items()):
        tree = ast.parse(source)
        for node in tree.body:
            bodies = node.body if isinstance(node, ast.ClassDef) else [node]
            defined.extend((fname, d.name) for d in bodies
                           if isinstance(d, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(filter(None, (node.name, node.asname)))
    return sorted(f"{fname}:{name}" for fname, name in defined
                  if name not in used
                  and not (name.startswith("__") and name.endswith("__")))


def test_scan_flags_an_unreferenced_method():
    sources = {"a.py": "class C:\n    def __init__(self): self.go()\n"
                       "    def go(self): pass\n"
                       "    def right_minimal_reduce(self, f): pass\n"
                       "def helper(): pass\n",
               "b.py": "from a import helper as h\nh()\n"}
    assert unreferenced_defs(sources) == ["a.py:right_minimal_reduce"]


def test_allowlist_names_only_unreferenced_defs():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    found = {entry.split(":")[1] for entry in unreferenced_defs(sources)}
    assert set(ALLOWED) <= found


def test_no_unreferenced_defs():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert [entry for entry in unreferenced_defs(sources)
            if entry.split(":")[1] not in ALLOWED] == []
