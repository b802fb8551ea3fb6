"""Acceptance gate.

One test per criterion, each printing a PASS/FAIL line (run with ``-s`` to
see them live).  All tolerances are exact: every comparison is equality of
integers or of rational matrices.

    1. full reproduction of the rank-4 worked example (a-f, under 30 s);
    2. lemma suites: exhaustive over every basic rigid object for n <= 5,
       seeded sampling (>= 10^3 maps, >= 5 rigid objects per rank) for
       n = 6..12, zero failures, within 10 minutes, with the process's
       peak RSS in the report line;
    3. the localization/module dimension equalities on all indecomposable
       pairs, for the worked example and every basic rigid object of rank
       <= 4, including the quotient chain on presented pairs, and on all
       pairs again for five seeded rigid objects and the fan at each rank
       5..12;
    4. the cluster-tilting comparison on the heptagon fan;
    5. internal-oracle agreements (crossing rule, smoothing, kernel tests);
    6. report determinism for a fixed seed.
"""

import json
import random
import resource
import subprocess
import sys
import time

from cluster_loc.localization import algebra_of
from cluster_loc.modules import H_obj, hom_dim_modules
from cluster_loc.rigid import (dim_factoring_through_add, factors_through_mor,
                               hom_functor_zero, in_CT, left_sigma_perp_approx,
                               rigid_object)
from cluster_loc.suites import (InstanceConfig, cached_category, basis_maps,
                                example71_checks, run_suites, strip_timing)
from cluster_loc.triangles import complete_triangle
from conftest import enumerate_basic_rigid, five_rigid

AC2_SUITES = ["kernel", "stilde", "doubleperp", "wakamatsu", "identify",
              "factoring-surjection"]


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{name}: {'PASS' if ok else 'FAIL'}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name} failed: {detail}"


# -- criterion 1 --------------------------------------------------------------


def test_ac1_example_reproduction(cat4, example_T):
    start = time.perf_counter()
    checks = example71_checks(cat4, example_T)
    elapsed = time.perf_counter() - start
    for name, ok, detail in checks:
        _report(f"AC1{name[0]} ({name[2:]})", ok, str(detail))
    _report("AC1 runtime", elapsed < 30.0, f"{elapsed:.1f}s < 30s")


# -- criterion 2 --------------------------------------------------------------


def test_ac2_lemma_suites_battery():
    start = time.perf_counter()
    failures = 0
    instances = 0
    checks = 0
    for n in range(1, 6):
        cat = cached_category(n)
        for t in enumerate_basic_rigid(cat):
            cfg = InstanceConfig(n=n, T=[cat.labels[a] for a in t.arcs],
                                 seed=7, suites=AC2_SUITES)
            rep = run_suites(cfg, sample_maps=0, cat=cat)
            failures += rep["failures_total"]
            checks += sum(s["checks"] for s in rep["suites"])
            instances += 1
            modes = {s["coverage"].get("mode") for s in rep["suites"]}
            assert modes - {None} == {"exhaustive"}
    exhaustive_done = time.perf_counter() - start
    print(f"AC2 exhaustive: {instances} instances, {checks} checks, "
          f"{failures} failures ({exhaustive_done:.0f}s)")
    assert instances == 2 + 10 + 44 + 196 + 902
    for n in range(6, 13):
        cat = cached_category(n)
        for t in five_rigid(cat, random.Random(f"ac2:{n}")):
            cfg = InstanceConfig(n=n, T=[cat.labels[a] for a in t.arcs],
                                 seed=7, suites=AC2_SUITES)
            rep = run_suites(cfg, sample_maps=1000, cat=cat)
            failures += rep["failures_total"]
            checks += sum(s["checks"] for s in rep["suites"])
            instances += 1
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _report("AC2 zero failures", failures == 0,
            f"{instances} instances, {checks} checks, "
            f"peak RSS {peak_mb:.0f} MB")
    _report("AC2 runtime", elapsed <= 600.0, f"{elapsed:.0f}s <= 600s")


# -- criterion 3 --------------------------------------------------------------


def test_ac3_equivalence_dimensions():
    start = time.perf_counter()
    failures = 0
    instances = 0
    for n in range(1, 5):
        cat = cached_category(n)
        for t in enumerate_basic_rigid(cat):
            cfg = InstanceConfig(n=n, T=[cat.labels[a] for a in t.arcs],
                                 seed=7, suites=["equivalence", "chain"])
            rep = run_suites(cfg, sample_maps=0, cat=cat)
            failures += rep["failures_total"]
            instances += 1
    elapsed = time.perf_counter() - start
    _report("AC3 dimension equalities", failures == 0,
            f"{instances} instances, all indecomposable pairs, {elapsed:.0f}s")


def test_ac3_module_suites_beyond_rank_four():
    """The module-side suites at ranks 5-12 on every object pair: five
    seeded rigid objects and the fan per rank."""
    start = time.perf_counter()
    checks = failures = instances = 0
    for n in range(5, 13):
        cat = cached_category(n)
        fan = rigid_object(cat, [f"0-{k}" for k in range(2, n + 2)])
        for t in five_rigid(cat, random.Random(f"ac3:{n}")) + [fan]:
            cfg = InstanceConfig(n=n, T=[cat.labels[a] for a in t.arcs],
                                 seed=7, suites=["equivalence", "chain", "kz",
                                                 "elementary"])
            rep = run_suites(cfg, sample_maps=0, cat=cat)
            failures += rep["failures_total"]
            checks += sum(s["checks"] for s in rep["suites"])
            instances += 1
            modes = {s["coverage"].get("mode") for s in rep["suites"]}
            assert modes - {None} == {"exhaustive"}
    elapsed = time.perf_counter() - start
    _report("AC3 module suites at ranks 5-12", failures == 0,
            f"{instances} instances, all indecomposable pairs, "
            f"{checks} checks, {elapsed:.0f}s")


# -- criterion 4 --------------------------------------------------------------


def test_ac4_cluster_tilting_case(cat4, fan_T):
    all_ct = all(in_CT(cat4, fan_T, cat4.obj([i])) for i in range(cat4.N))
    _report("AC4 everything presented", all_ct, "14/14 indecomposables")
    alg = algebra_of(cat4, fan_T)
    sigma_t = [cat4.shift_arc(a) for a in fan_T.arcs]
    bad = 0
    for i in range(cat4.N):
        for j in range(cat4.N):
            x, y = cat4.obj([i]), cat4.obj([j])
            lhs = cat4.dim_hom_obj(x, y) - \
                dim_factoring_through_add(cat4, x, y, sigma_t)
            rhs = hom_dim_modules(H_obj(cat4, alg, x), H_obj(cat4, alg, y))
            bad += lhs != rhs
    _report("AC4 quotient = module dimensions", bad == 0, "196 pairs")
    nonzero = sum(1 for i in range(cat4.N)
                  if not H_obj(cat4, alg, cat4.obj([i])).is_zero())
    _report("AC4 nonzero image count", nonzero == 10, f"{nonzero} = 14 - 4")


# -- criterion 5 --------------------------------------------------------------


def test_ac5_mesh_vs_crossing_rule():
    from cluster_loc.arcs import crosses, rotate
    bad = 0
    pairs = 0
    for n in range(1, 13):
        cat = cached_category(n)
        for x in range(cat.N):
            for y in range(cat.N):
                pairs += 1
                want = crosses(cat.arcs[x], rotate(n, cat.arcs[y], -1))
                bad += want != cat.hom1(x, y)
    _report("AC5 mesh dimensions = crossing rule", bad == 0,
            f"exhaustive n<=12, {pairs} pairs")


def test_ac5_cone_vs_smoothing():
    from smoothing_reference import smooth_crossing
    bad = 0
    pairs = 0
    for n in range(1, 7):
        cat = cached_category(n)
        for x in range(cat.N):
            for y in range(cat.N):
                if not cat.crosses_idx(x, y):
                    continue
                pairs += 1
                sy = cat.shift_arc(y)
                tri = complete_triangle(cat, cat.basis_mor(x, sy))
                want = sorted(cat.shift_arc(cat.arc_index[a]) for a in
                              smooth_crossing(n, cat.arcs[x],
                                              cat.arcs[y]))
                bad += sorted(tri.z.summands) != want
    _report("AC5 cone by profile = cone by smoothing", bad == 0,
            f"exhaustive n<=6, {pairs} crossing pairs")


def test_ac5_kernel_criterion(cat4, example_T, fan_T):
    bad = 0
    maps = 0
    for t in (example_T, fan_T):
        for f in basis_maps(cat4):
            maps += 1
            by_functor = hom_functor_zero(cat4, t, f)
            direct = factors_through_mor(
                cat4, f, left_sigma_perp_approx(cat4, t, f.src))
            bad += by_functor != direct
    _report("AC5 kernel criterion = direct factoring", bad == 0,
            f"{maps} basis maps")


# -- criterion 6 --------------------------------------------------------------


def test_ac6_determinism(tmp_path):
    cfg = InstanceConfig(n=4, T=["M44", "M14", "M11"], seed=7, suites=["all"])
    r1 = run_suites(cfg)
    r2 = run_suites(cfg)
    _report("AC6 in-process determinism",
            strip_timing(r1) == strip_timing(r2) and r1["failures_total"] == 0,
            "verify --suite all --seed 7 twice")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    outs = []
    for k in (1, 2):
        rp = tmp_path / f"rep{k}.json"
        res = subprocess.run(
            [sys.executable, "-m", "cluster_loc.cli", "verify",
             "--config", str(cfg_path), "--seed", "7", "--report", str(rp)],
            capture_output=True, text=True, timeout=600)
        assert res.returncode == 0, res.stdout + res.stderr
        outs.append(strip_timing(json.loads(rp.read_text())))
    _report("AC6 cross-process determinism", outs[0] == outs[1],
            "two CLI runs agree")
