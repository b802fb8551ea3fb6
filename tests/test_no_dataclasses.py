"""No class in the package is a dataclass: the value types are written out
in ``__slots__`` classes (``cluster_loc.values``), because a dataclass
compiles generated code on every import and a frozen instance costs about
three times a slotted one to build."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cluster_loc"

# class name -> why it may stay a dataclass
ALLOWED = {
    "MorClassification": "bench/selftest.py and tests/test_suites_cli.py "
                         "build altered verdicts with dataclasses.replace",
}


def dataclasses_in(sources: dict[str, str]) -> list[str]:
    """Classes decorated with ``dataclass`` or ``dataclasses.dataclass``,
    called or not."""
    found = []
    for fname, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = (target.attr if isinstance(target, ast.Attribute)
                        else getattr(target, "id", None))
                if name == "dataclass":
                    found.append(f"{fname}:{node.name}")
    return found


def package_sources() -> dict[str, str]:
    return {p.name: p.read_text() for p in SRC.glob("*.py")}


def test_scan_flags_every_spelling():
    sources = {"a.py": "from dataclasses import dataclass\n"
                       "import dataclasses, functools\n"
                       "@dataclass\nclass A: x: int\n"
                       "@dataclass(frozen=True)\nclass B: x: int\n"
                       "@dataclasses.dataclass(order=True)\nclass C: x: int\n"
                       "@functools.total_ordering\nclass D: pass\n"
                       "class E:\n    @property\n    def f(self): pass\n"}
    assert dataclasses_in(sources) == ["a.py:A", "a.py:B", "a.py:C"]


def test_allowlist_names_only_dataclasses():
    found = {entry.split(":")[1] for entry in dataclasses_in(package_sources())}
    assert set(ALLOWED) <= found


def test_no_dataclasses():
    assert [entry for entry in dataclasses_in(package_sources())
            if entry.split(":")[1] not in ALLOWED] == []
