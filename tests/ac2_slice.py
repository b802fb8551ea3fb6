"""What does a slice of AC2's exhaustive battery cost?

Runs AC2's six suites (seed 7, ``sample_maps=0``) on the first N basic
rigid objects of rank n, in enumeration order, one after another on one
category, as AC2 runs its instances, and prints:

- the wall time of the battery (the category build not included);
- the candidate searches (calls of ``triangles._search_triangle``);
- the ``Category.suspend_mor`` calls;
- the rank-table calls, ``post_rank_table`` and ``pre_rank_table``,
  counted at every module binding they are looked up through
  (``triangles`` and ``rigid``), so a table that another builds counts
  in both;
- the entries of the category's ``triangles`` memo, split into maps
  between two arcs and other maps.

    PYTHONPATH=src python tests/ac2_slice.py                  # n = 5, N = 150
    PYTHONPATH=src python tests/ac2_slice.py --n 4 --count 196

The counters wrap these functions, which adds a little to the time.
"""

from __future__ import annotations

import argparse
import time

from cluster_loc import rigid, triangles
from cluster_loc.category import Category, build_category
from cluster_loc.suites import InstanceConfig, run_suites
from conftest import enumerate_basic_rigid

AC2_SUITES = ["kernel", "stilde", "doubleperp", "wakamatsu", "identify",
              "factoring-surjection"]


def counted(calls: list, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)
    wrapper.__name__ = name
    return wrapper


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--count", type=int, default=150)
    args = ap.parse_args()
    searches, suspensions = [0], [0]
    tables = {"post_rank_table": [0], "pre_rank_table": [0]}
    triangles._search_triangle = counted(
        searches, "_search_triangle", triangles._search_triangle)
    for module in (triangles, rigid):
        for name, calls in tables.items():
            if hasattr(module, name):
                setattr(module, name,
                        counted(calls, name, getattr(module, name)))
    Category.suspend_mor = counted(suspensions, "suspend_mor",
                                   Category.suspend_mor)
    cat = build_category(args.n)
    ts = enumerate_basic_rigid(cat)[:args.count]
    failures = 0
    start = time.perf_counter()
    for t in ts:
        cfg = InstanceConfig(n=args.n, T=[cat.labels[a] for a in t.arcs],
                             seed=7, suites=AC2_SUITES)
        failures += run_suites(cfg, sample_maps=0, cat=cat)["failures_total"]
    wall = time.perf_counter() - start
    memo = cat._memo.get("triangles", {})
    arcs = sum(1 for (src, tgt, m), _ in memo
               if len(src) == len(tgt) == 1 and m[0][0])
    print(f"n = {args.n}, {len(ts)} instances, {failures} failures")
    print(f"wall {wall:.2f} s")
    print(f"candidate searches {searches[0]}")
    print(f"suspend_mor calls {suspensions[0]}")
    for name, calls in tables.items():
        print(f"{name} calls {calls[0]}")
    print(f"triangles entries {len(memo)}: {arcs} maps between two arcs, "
          f"{len(memo) - arcs} other maps")


if __name__ == "__main__":
    main()
