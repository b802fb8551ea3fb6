"""Every function the benchmark traces stays importable under its name.

``bench/tracing.py`` rebinds ``<layer>.<function>`` and
``<layer>.<Class>.<method>`` by name; a rename in the library would
otherwise show up only as a broken benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_resolves():
    tracing = _load_tracing()
    missing = []
    for layer, names in tracing.TARGETS.items():
        home = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
        for name in names:
            if "." in name:
                # rebound on the class that defines it, as the tracer does
                cls_name, meth = name.split(".")
                target = vars(getattr(home, cls_name, object)).get(meth)
            else:
                target = getattr(home, name, None)
            if not callable(target):
                missing.append(f"{layer}.{name}")
    assert tracing.TARGETS
    assert missing == []


def test_suite_names_match_the_benchmark():
    """The benchmark reads per-suite times by these names, in this order."""
    from cluster_loc import suites
    assert suites.SUITE_NAMES == _load_tracing().SUITE_NAMES
