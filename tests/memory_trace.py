"""How much live memory does a long battery of instances keep?

Runs AC2's six suites (``sample_maps=0``) on N shuffled basic rigid objects
of rank n, one after another on one category, as AC2 runs its instances,
and prints the live memory that ``tracemalloc`` counts (after a full
collection) once 20, 100 and N instances have run, with the entry count of
each kind of the category's memo.  The trace starts before the category is
built, so the figures include it.

    PYTHONPATH=src python tests/memory_trace.py                 # n = 6, N = 200
    PYTHONPATH=src python tests/memory_trace.py --n 5 --count 50 --seed 3

Tracing makes the battery several times slower.
"""

from __future__ import annotations

import argparse
import gc
import random
import tracemalloc

from cluster_loc.category import build_category
from cluster_loc.suites import InstanceConfig, run_suites
from conftest import enumerate_basic_rigid

AC2_SUITES = ["kernel", "stilde", "doubleperp", "wakamatsu", "identify",
              "factoring-surjection"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    tracemalloc.start()
    cat = build_category(args.n)
    ts = enumerate_basic_rigid(cat)
    random.Random(args.seed).shuffle(ts)
    if len(ts) < args.count:
        raise SystemExit(f"rank {args.n} has only {len(ts)} basic rigid "
                         "objects")
    marks = {20, 100, args.count}
    failures = 0
    for k, t in enumerate(ts[:args.count], 1):
        cfg = InstanceConfig(n=args.n, T=[cat.labels[a] for a in t.arcs],
                             seed=7, suites=AC2_SUITES)
        failures += run_suites(cfg, sample_maps=0, cat=cat)["failures_total"]
        if k in marks:
            gc.collect()
            live, _ = tracemalloc.get_traced_memory()
            kinds = ", ".join(f"{kind}={len(v)}"
                              for kind, v in sorted(cat._memo.items(), key=str))
            print(f"after {k:4d} instances: live {live / 2**20:6.2f} MB  "
                  f"[{kinds}]", flush=True)
    print(f"n = {args.n}, {args.count} instances, seed {args.seed}, "
          f"{failures} failures")


if __name__ == "__main__":
    main()
