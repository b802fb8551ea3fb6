"""No function or method in the package is defined without being used."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cluster_loc"

# name -> why it may stay although nothing in the package refers to it
ALLOWED = {
    "strip_timing": "the report normaliser that bench/ and the determinism "
                    "tests apply to run_suites reports",
    "lift_module_to_CT": "the density lift, with no helper beyond one "
                         "independence filter, that a density suite (ROADMAP "
                         "item 4) is to call; bench/tracing.py times it and "
                         "tests/test_modules.py checks it at every rank",
    "replay_failure": "re-runs a failure from the reproducer that README "
                      "says every report record carries",
    "factors_through_mor": "direct divisibility through a given map, by "
                           "one forward elimination of [A | b]: the kernel "
                           "verdict that bench/ decides and the factoring "
                           "tests use",
}


def package_sources() -> dict[str, str]:
    """The package's modules without __init__.py, whose re-exports are not
    uses."""
    return {p.name: p.read_text() for p in SRC.glob("*.py")
            if p.name != "__init__.py"}


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
    found = {entry.split(":")[1]
             for entry in unreferenced_defs(package_sources())}
    assert set(ALLOWED) <= found


def test_no_unreferenced_defs():
    assert [entry for entry in unreferenced_defs(package_sources())
            if entry.split(":")[1] not in ALLOWED] == []
