"""Instance configuration, verification suites, image table and exports.

A suite takes one built category, one rigid object and a seeded sample and
re-proves a family of facts on that instance, recording a reproducer for
every failed check; a raise in a check, or in a suite's set-up outside its
checks, is recorded the same way, with the error it raised.  Verdicts never
come from a single code path where an independent one is available; the
suites are exactly the cross-checking loops, so a failure message names the
fact the implementation would be falsifying.

Coverage policy: the map suites run on every basis map, and from n = 5 on
also on a seeded pool of matrix maps shared per rank; they report mode
``sampled`` exactly when that pool was drawn.  The suites on objects
run on every indecomposable, and the module suites (``equivalence``,
``chain``, ``kz``) on every ordered pair of indecomposables, at every rank;
the first two compare dimensions through ``loc_hom(verify=True)``.  Reports
are deterministic for a fixed config and seed once the timing section is
stripped.
"""

from __future__ import annotations

import json
import random
import time

from .category import Category, Mor, Obj, build_category, supported_rank
from .localization import (Zigzag, algebra_of, classify, factor_through_s,
                           forward, inv, loc_hom, s_resolution, zigzag_equal,
                           zigzag_eval)
from .modules import (H_mor, H_obj, direct_sum_modules,
                      enumerate_indec_modules, hom_dim_modules,
                      modules_isomorphic, simple_module, split_module)
from .rigid import (RigidObject, dim_factoring_through_add,
                    dim_hom_functor_kernel, factors_through_subcat, in_CT,
                    is_cluster_tilting, is_rigid, perp_view, rigid_object,
                    wakamatsu_check)
from .triangles import complete_triangle, mesh_map_into, mesh_map_out_of
from .values import Value

CONFIG_SCHEMA = "cluster-loc/config/v1"
REPORT_SCHEMA = "cluster-loc/report/v1"

class InstanceConfig(Value):
    __slots__ = ("n", "T", "type", "seed", "suites")

    def __init__(self, n: int, T: list[str], type: str = "A", seed: int = 0,
                 suites: list[str] = ["all"]):   # stored as a copy
        supported_rank(n)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"seed must be an int, not {seed!r}")
        if not (isinstance(T, list) and all(isinstance(x, str) for x in T)):
            raise ValueError(f"T must be a list of object tokens, not {T!r}")
        if type != "A":
            raise ValueError("only type A instances are supported")
        if not isinstance(suites, list):
            raise ValueError("suites must be a list of suite names, not "
                             f"{suites.__class__.__name__} {suites!r}")
        if not suites:
            raise ValueError("suites is empty: name at least one suite")
        if "all" in suites and suites != ["all"]:
            raise ValueError("suite 'all' must stand alone, not be listed "
                             "with other suites")
        super().__init__(n, T, type, seed, list(suites))
        names = self.resolved_suites()
        for k, s in enumerate(names):
            if s not in SUITE_NAMES:
                raise ValueError(f"unknown suite {s!r}")
            if s in names[:k]:
                raise ValueError(f"suite {s!r} is named more than once")

    def resolved_suites(self) -> list[str]:
        if self.suites == ["all"]:
            return list(SUITE_NAMES)
        return list(self.suites)

    def to_dict(self) -> dict:
        return {"schema": CONFIG_SCHEMA, "type": self.type, "n": self.n,
                "T": list(self.T), "seed": self.seed,
                "suites": list(self.suites)}

    @staticmethod
    def from_dict(d: dict) -> "InstanceConfig":
        if not isinstance(d, dict):
            raise ValueError("config must be a JSON object, not "
                             f"{type(d).__name__} {d!r}")
        for key in ("n", "T"):
            if key not in d:
                raise ValueError(f"config lacks the key {key!r}")
        if d.get("schema", CONFIG_SCHEMA) != CONFIG_SCHEMA:
            raise ValueError(f"unexpected config schema {d.get('schema')!r}")
        return InstanceConfig(n=d["n"], T=d["T"], type=d.get("type", "A"),
                              seed=d.get("seed", 0),
                              suites=d.get("suites", ["all"]))

    @staticmethod
    def load(path: str) -> "InstanceConfig":
        with open(path) as fh:
            return InstanceConfig.from_dict(json.load(fh))


_CAT_CACHE: dict[int, Category] = {}


def cached_category(n: int) -> Category:
    cat = _CAT_CACHE.get(n)
    if cat is None:
        # threads racing on one rank may each build it; all get the one stored
        cat = _CAT_CACHE.setdefault(n, build_category(n))
    return cat


class Recorder:
    """Collects a report's checks and failure records.  A check runs through
    ``attempt``, so a raise anywhere in it, or in a suite's set-up, is
    recorded as one failure with the error and the reproducer.  A detail
    may hold a ``Mor`` or an ``Obj`` itself; only a failure record renders
    it, as ``format_mor`` or ``obj_label``."""

    def __init__(self, cat: Category, t: RigidObject, cfg: InstanceConfig,
                 maps_mode: str = "exhaustive"):
        self.cat = cat
        self.t = t
        self.cfg = cfg
        self.maps_mode = maps_mode
        self.suites: dict[str, dict] = {}
        self.times: dict[str, float] = {}

    def _suite(self, suite: str) -> dict:
        return self.suites.setdefault(
            suite, {"name": suite, "checks": 0, "failures": [],
                    "coverage": {}})

    def attempt(self, suite: str, name: str, fn, detail=None):
        """(True, fn()), or (False, None) once a raise in fn is recorded as
        a failure of check ``name``."""
        try:
            return True, fn()
        except Exception as e:  # noqa: BLE001 - recorded, not swallowed
            self.fail(suite, name, detail, e)
            return False, None

    def check(self, suite: str, name: str, fn, detail=None):
        """Run one check: fn() returns ok, or (ok, detail to add to a
        failure record)."""
        ran, out = self.attempt(suite, name, fn, detail)
        if not ran:
            return
        ok, more = out if isinstance(out, tuple) else (out, {})
        if ok:
            self._suite(suite)["checks"] += 1
        else:
            self.fail(suite, name, {**(detail or {}), **more})

    def fail(self, suite: str, name: str, detail=None, exc=None):
        s = self._suite(suite)
        s["checks"] += 1
        t_labels = [self.cat.labels[a] for a in self.t.arcs]
        rep = {"suite": suite, "check": name, "n": self.cfg.n,
               "T": t_labels, "seed": self.cfg.seed,
               "falsifies": (f"implementation falsifies {SUITES[suite][1]} "
                             f"on instance (n={self.cfg.n}, "
                             f"T={'+'.join(t_labels)})"),
               "detail": {k: self._render(v)
                          for k, v in (detail or {}).items()}}
        if exc is not None:
            rep["error"] = f"{type(exc).__name__}: {exc}"
        s["failures"].append(rep)

    def _render(self, v):
        if isinstance(v, Mor):
            return self.cat.format_mor(v)
        return self.cat.obj_label(v) if isinstance(v, Obj) else v

    def run_suite(self, suite: str, maps: list[Mor]):
        """Run one suite; a raise outside its checks is one failure of it."""
        start = time.perf_counter()
        self.attempt(suite, "set-up", lambda: SUITES[suite][0](
            self.cat, self.t, self.cfg, maps, self))
        self.times[suite] = time.perf_counter() - start

    def coverage(self, suite: str, **kv):
        self._suite(suite)["coverage"].update(kv)

    def failures_total(self) -> int:
        return sum(len(s["failures"]) for s in self.suites.values())

    def payload(self) -> dict:
        suites = [self.suites[k] for k in sorted(self.suites)]
        return {
            "schema": REPORT_SCHEMA,
            "config": self.cfg.to_dict(),
            "T_labels": [self.cat.labels[a] for a in self.t.arcs],
            "suites": suites,
            "failures_total": self.failures_total(),
            "timing": {"per_suite": {k: round(v, 3)
                                     for k, v in sorted(self.times.items())},
                       "total": round(sum(self.times.values()), 3)},
        }


# -- samples -----------------------------------------------------------------


def basis_maps(cat: Category) -> list[Mor]:
    out = []
    for (x, y) in sorted(cat.hom_deg):
        if x != y:
            out.append(cat.basis_mor(x, y))
    return out


def map_pool(cat: Category, seed: int, count: int) -> list[Mor]:
    """Shared seeded sample of matrix maps between small random objects."""
    key = ("map_pool", seed, count)
    if key in cat._memo:
        return cat._memo[key]
    rng = random.Random(f"pool:{seed}:{cat.n}")
    pool = []
    while len(pool) < count:
        x = cat.random_obj(rng, 3)
        y = cat.random_obj(rng, 3)
        f = cat.random_mor(rng, x, y)
        pool.append(f)
    cat._memo[key] = pool
    return pool


def through_perp_samples(cat: Category, t: RigidObject,
                         rng: random.Random, count: int) -> list[Mor]:
    """Maps guaranteed to factor through Sigma T-perp (hom-functor kernel)."""
    sperp = sorted(perp_view(cat, t, "SigmaTperp"))
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 20:
        attempts += 1
        u = cat.obj([rng.choice(sperp)])
        x = cat.random_obj(rng, 2)
        y = cat.random_obj(rng, 2)
        if cat.dim_hom_obj(x, u) == 0 or cat.dim_hom_obj(u, y) == 0:
            continue
        out.append(cat.compose(cat.random_mor(rng, u, y),
                               cat.random_mor(rng, x, u)))
    return out


# -- individual suites ---------------------------------------------------------


def suite_kernel(cat, t, cfg, maps, rec):
    """Hom-functor kernel = maps factoring through Sigma T-perp."""
    rng = random.Random(f"kernel:{cfg.seed}")
    sample = maps + through_perp_samples(cat, t, rng, max(5, len(maps) // 10))
    for f in sample:
        # factors_through_subcat raises when its two verdicts disagree
        rec.check("kernel", "kernel-criterion",
                  lambda: factors_through_subcat(cat, t, f) is not None,
                  {"map": f})
    rec.coverage("kernel", maps=len(sample), mode=rec.maps_mode)


def suite_stilde(cat, t, cfg, maps, rec):
    """Invertibility class: functor vs triangle verdicts, mono/epi flags,
    and independence of the completion search.  A basis map classified in
    the first loop keeps that seed-0 verdict for the second; one whose
    first-loop ``classify`` raised (already a failure) is not run again.
    A basis map's triangle is filled once from its Σ-orbit
    representative's (``complete_triangle``), so the permuted-completion
    check still compares two independent searches for every basis map:
    the representative's at seeds 0 and 1."""
    seed0 = {}   # map -> its seed-0 verdict, None where classify raised
    for f in maps:
        seed0[f] = None

        def first():
            # classify raises when its two verdicts disagree
            seed0[f] = classify(cat, t, f)
            return True
        rec.check("stilde", "two-verdicts-agree", first, {"map": f})
    fresh = basis_maps(cat)
    for f in fresh:
        if f in seed0 and seed0[f] is None:
            continue   # already a failure of two-verdicts-agree
        def same_verdicts():
            c0 = seed0.get(f) or classify(cat, t, f, seed=0)
            c1 = classify(cat, t, f, seed=1)
            return (c0.in_S_tilde, c0.in_S) == (c1.in_S_tilde, c1.in_S)
        rec.check("stilde", "well-defined-under-permuted-completion",
                  same_verdicts, {"map": f})
    rec.coverage("stilde", maps=len(maps), basis_maps=len(fresh),
                 mode=rec.maps_mode)


def suite_doubleperp(cat, t, cfg, maps, rec):
    # perp_view raises when the identities fail
    rec.check("doubleperp", "double-perpendicular-identities",
              lambda: perp_view(cat, t, "Tperp") is not None)
    rec.coverage("doubleperp", indecs=cat.N)


def suite_wakamatsu(cat, t, cfg, maps, rec):
    rng = random.Random(f"wak:{cfg.seed}")
    objs = [cat.obj([i]) for i in range(cat.N)]
    objs += [cat.random_obj(rng, 2) for _ in range(4)]
    for x in objs:
        rec.check("wakamatsu", "cone-perp-and-left-approximation",
                  lambda: wakamatsu_check(cat, t, x), {"x": x})
    rec.coverage("wakamatsu", objects=len(objs), mode="exhaustive")


def suite_identify(cat, t, cfg, maps, rec):
    for i in range(cat.N):
        def resolved():
            xp, s = s_resolution(cat, t, cat.obj([i]))
            cls = classify(cat, t, s)
            return in_CT(cat, t, xp) and cls.in_S, {"xprime": xp}
        rec.check("identify", "resolution-in-CT-and-S", resolved,
                  {"y": cat.labels[i]})
    rec.coverage("identify", objects=cat.N, mode="exhaustive")


def suite_factoring(cat, t, cfg, maps, rec):
    """Maps from presented objects factor through every resolution map."""
    ct_indecs = [i for i in range(cat.N) if in_CT(cat, t, cat.obj([i]))]
    count = 0
    for yi in range(cat.N):
        y = cat.obj([yi])
        ran, res = rec.attempt("factoring-surjection", "resolution",
                               lambda: s_resolution(cat, t, y),
                               {"y": cat.labels[yi]})
        if not ran:
            continue
        s = res[1]
        for ui in ct_indecs:
            U = cat.obj([ui])
            if not cat.dim_hom_obj(U, y):
                continue
            u = cat.mor(U, y, [[1]])
            count += 1
            rec.check("factoring-surjection", "factors-exactly",
                      lambda: cat.compose(
                          s, factor_through_s(cat, t, u, s)).m == u.m,
                      {"u": u})
    rec.coverage("factoring-surjection", maps=count, mode="exhaustive")


def suite_equivalence(cat, t, cfg, maps, rec):
    """Localized hom dimensions against module hom dimensions."""
    alg = algebra_of(cat, t)
    for i in range(cat.N):
        for j in range(cat.N):
            # loc_hom(verify=True) raises when the two dimensions differ
            rec.check("equivalence", "loc-hom-dimension",
                      lambda: loc_hom(cat, t, cat.obj([i]), cat.obj([j]),
                                      verify=True) is not None,
                      {"x": cat.labels[i], "y": cat.labels[j]})
    # naturality spot-check: lifts through resolutions commute with H
    for f in maps[:5]:
        def natural():
            _, s1 = s_resolution(cat, t, f.src)
            _, s2 = s_resolution(cat, t, f.tgt)
            h = factor_through_s(cat, t, cat.compose(f, s1), s2)
            lhs = H_mor(cat, alg, cat.compose(s2, h))
            rhs = H_mor(cat, alg, cat.compose(f, s1))
            return all(a.entries == b.entries
                       for a, b in zip(lhs.comps, rhs.comps))
        rec.check("equivalence", "naturality-through-resolutions", natural,
                  {"map": f})
    rec.coverage("equivalence", pairs=cat.N ** 2, mode="exhaustive")


def suite_chain(cat, t, cfg, maps, rec):
    """Quotient dimension chain on presented objects: maps killed by the
    functor = maps through add Sigma T, and the localized dimension equals
    the plain hom dimension minus either."""
    sigma_t = [cat.shift_arc(a) for a in t.arcs]
    ct_indecs = [i for i in range(cat.N) if in_CT(cat, t, cat.obj([i]))]
    for i in ct_indecs:
        for j in ct_indecs:
            x, y = cat.obj([i]), cat.obj([j])

            def chain():
                # raises when lh.dim is not the module hom dimension
                lh = loc_hom(cat, t, x, y, verify=True)
                dk = dim_hom_functor_kernel(cat, t, x, y)
                da = dim_factoring_through_add(cat, x, y, sigma_t)
                total = cat.dim_hom_obj(x, y)
                ok = dk == da and lh.dim == total - dk
                return ok, {"kernel": dk, "through_sigma_t": da,
                            "total": total, "loc": lh.dim}
            rec.check("chain", "quotient-dimension-chain", chain,
                      {"x": cat.labels[i], "y": cat.labels[j]})
    rec.coverage("chain", pairs=len(ct_indecs) ** 2, mode="exhaustive")


def suite_kz(cat, t, cfg, maps, rec):
    """Cluster-tilting comparison: everything is presented and the
    plain-quotient dimensions match the module side on all of C."""
    if not is_cluster_tilting(cat, t):
        rec.coverage("kz", skipped="T is not cluster-tilting")
        return
    alg = algebra_of(cat, t)
    sigma_t = [cat.shift_arc(a) for a in t.arcs]
    rec.check("kz", "everything-presented",
              lambda: all(in_CT(cat, t, cat.obj([i])) for i in range(cat.N)))
    for i in range(cat.N):
        for j in range(cat.N):
            x, y = cat.obj([i]), cat.obj([j])
            rec.check("kz", "quotient-equals-module-dimension",
                      lambda: cat.dim_hom_obj(x, y)
                      - dim_factoring_through_add(cat, x, y, sigma_t)
                      == hom_dim_modules(H_obj(cat, alg, x),
                                         H_obj(cat, alg, y)),
                      {"x": cat.labels[i], "y": cat.labels[j]})
    nonzero = sum(1 for i in range(cat.N)
                  if any(cat.hom1(a, i) for a in t.arcs))
    rec.check("kz", "nonzero-image-count",
              lambda: nonzero == cat.N - len(t.arcs),
              {"nonzero": nonzero})
    rec.coverage("kz", pairs=cat.N ** 2, mode="exhaustive")


def suite_elementary(cat, t, cfg, maps, rec):
    """Projection/section identities of the localization on sampled data:
    U -> 0 and the projections X + U -> X are in S for U in Sigma T-perp, a
    projection's section and formal inverse cancel it, and maps through
    Sigma T-perp evaluate to zero and do not change localized classes."""
    rng = random.Random(f"elem:{cfg.seed}")
    sperp = sorted(perp_view(cat, t, "SigmaTperp"))
    for u_arc in sperp:
        U = cat.obj([u_arc])
        rec.check("elementary", "zero-map-to-zero-in-S",
                  lambda: classify(cat, t, cat.zero_mor(U, cat.zero_obj)).in_S,
                  {"u": cat.labels[u_arc]})
        for _ in range(2):
            X = cat.random_obj(rng, 2)
            # the projection X + U -> X and its section X -> X + U
            pi = cat.direct_sum_mor(cat.identity(X),
                                    cat.zero_mor(U, cat.zero_obj))
            iota = cat.direct_sum_mor(cat.identity(X),
                                      cat.zero_mor(cat.zero_obj, U))
            pair = {"x": pi.src, "y": X}
            rec.check("elementary", "projection-in-S",
                      lambda: classify(cat, t, pi).in_S, pair)
            rec.check("elementary", "section-projection-identity",
                      lambda: zigzag_equal(
                          cat, t, Zigzag((forward(iota), forward(pi))),
                          Zigzag((forward(cat.identity(X)),))), pair)
            rec.check("elementary", "inverse-cancellation",
                      lambda: zigzag_equal(
                          cat, t, Zigzag((forward(pi), inv(pi))),
                          Zigzag((forward(cat.identity(pi.src)),))), pair)
    alg = algebra_of(cat, t)
    for _ in range(4):
        X = cat.random_obj(rng, 2)
        Y = cat.random_obj(rng, 2)
        mid = next((cat.obj([u]) for u in sperp
                    if cat.dim_hom_obj(X, cat.obj([u]))
                    and cat.dim_hom_obj(cat.obj([u]), Y)), None)
        if mid is None:
            continue
        a = cat.random_mor(rng, X, mid)
        v = cat.compose(cat.random_mor(rng, mid, Y), a)
        pair = {"x": X, "y": Y}
        rec.check("elementary", "through-perp-evaluates-zero",
                  lambda: H_mor(cat, alg, v).is_zero(), pair)
        u = cat.random_mor(rng, X, Y)
        rec.check("elementary", "translate-by-perp-factoring",
                  lambda: zigzag_equal(
                      cat, t, Zigzag((forward(cat.add_mor(u, v)),)),
                      Zigzag((forward(u),))), pair)
    rec.coverage("elementary", checks=rec._suite("elementary")["checks"])


def suite_example71(cat, t, cfg, maps, rec):
    """Full reproduction of the running example (rank 4, T = M44+M14+M11)."""
    labels = [cat.labels[a] for a in t.arcs]
    if cat.n != 4 or labels != ["M44", "M14", "M11"]:
        rec.coverage("example71", skipped="config is not the rank-4 example")
        return
    for name, ok, detail in example71_checks(cat, t):
        rec.check("example71", name, lambda: ok, detail)
    rec.coverage("example71", criteria=6)


def example71_checks(cat: Category, t: RigidObject):
    """The six acceptance checks of the running example; each yields
    (name, ok, detail)."""
    out = []
    alg = algebra_of(cat, t)

    out.append(("a-rigid-not-cluster-tilting",
                is_rigid(cat, Obj(t.arcs)) and not is_cluster_tilting(cat, t),
                {}))

    arrows = alg.gabriel_arrows()
    comp_zero = alg.mult.get((0, 1, 2), 0) == 0
    out.append(("b-endomorphism-algebra",
                alg.dim == 5 and arrows == [(2, 1), (3, 2)] and comp_zero,
                {"dim": alg.dim, "arrows": arrows}))

    indecs = enumerate_indec_modules(alg)
    dimvecs = sorted(m.dims for m in indecs)
    want = sorted([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)])
    out.append(("c-five-indecomposable-modules", dimvecs == want,
                {"dim_vectors": dimvecs}))

    m34 = cat.arc_of_token("M34")
    s = mesh_map_into(cat, m34)
    tri = complete_triangle(cat, s)
    third_ok = tri.z.summands == (cat.arc_of_token("M13"),)
    conn = cat.suspend_obj(tri.z, -1)
    conn_ok = conn.summands == (cat.arc_of_token("SM34"),)
    src_ok = sorted(s.src.summands) == sorted(
        [cat.arc_of_token("M44"), cat.arc_of_token("SM24")])
    out.append(("d-almost-split-triangle",
                third_ok and conn_ok and src_ok,
                {"third": cat.obj_label(tri.z),
                 "connecting": cat.obj_label(conn),
                 "source": cat.obj_label(s.src)}))

    cls = classify(cat, t, s)
    ev = zigzag_eval(cat, t, Zigzag((inv(s),)))
    s1s3 = direct_sum_modules([simple_module(alg, 0), simple_module(alg, 2)])
    out.append(("e-s-in-S-and-inverted",
                cls.in_S and ev.is_iso()
                and modules_isomorphic(ev.src, s1s3),
                {"in_S": cls.in_S}))

    tmap = mesh_map_out_of(cat, m34)
    clt = classify(cat, t, tmap)
    out.append(("f-t-in-Stilde-not-S",
                clt.in_S_tilde and not clt.in_S,
                {"in_S_tilde": clt.in_S_tilde, "in_S": clt.in_S}))
    return out


# each suite's function and the fact on the instance that a failure in it
# would falsify
SUITES = {
    "kernel": (suite_kernel,
               "the kernel characterization of the hom functor (maps killed "
               "are exactly those factoring through Sigma T-perp)"),
    "stilde": (suite_stilde,
               "the characterization and well-definedness of the inverted "
               "class (triangle vs functor verdicts, mono/epi flags)"),
    "doubleperp": (suite_doubleperp,
                   "the double-perpendicular identities "
                   "perp(Tperp) = add T = (perpT)perp"),
    "wakamatsu": (suite_wakamatsu,
                  "the approximation-cone membership and the induced left "
                  "approximation"),
    "identify": (suite_identify,
                 "the existence of S-resolutions from the presentation "
                 "subcategory"),
    "factoring-surjection": (suite_factoring,
                             "the factoring of maps from presented objects "
                             "through S-maps"),
    "equivalence": (suite_equivalence,
                    "the localization/module-category equivalence "
                    "(dimension equalities)"),
    "chain": (suite_chain,
              "the quotient-chain dimension equalities on presented objects"),
    "kz": (suite_kz, "the cluster-tilting factor-category comparison"),
    "elementary": (suite_elementary,
                   "the elementary localization identities"),
    "example71": (suite_example71, "the worked rank-4 example"),
}
SUITE_NAMES = tuple(SUITES)


def run_suites(cfg: InstanceConfig, sample_maps: int | None = None,
               cat: Category | None = None) -> dict:
    """Run the configured suites; returns the report payload.  A raise in
    a suite is a failure record of that suite, and the next suite runs.

    ``sample_maps`` overrides the coverage policy (default: basis maps
    always; 10^3 seeded matrix maps when n >= 5).
    """
    cat = cat or cached_category(cfg.n)
    t = rigid_object(cat, cfg.T)
    if sample_maps is None:
        sample_maps = 1000 if cfg.n >= 5 else 0
    maps = basis_maps(cat) + (map_pool(cat, cfg.seed, sample_maps)
                              if sample_maps else [])
    rec = Recorder(cat, t, cfg, "sampled" if sample_maps else "exhaustive")
    for name in cfg.resolved_suites():
        rec.run_suite(name, maps)
    return rec.payload()


def strip_timing(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timing"}


def replay_failure(repro: dict) -> bool:
    """Re-run a reported failure; returns True when it fails again."""
    cfg = InstanceConfig(n=repro["n"], T=repro["T"],
                         seed=repro.get("seed", 0), suites=[repro["suite"]])
    cat = cached_category(cfg.n)
    t = rigid_object(cat, cfg.T)
    rec = Recorder(cat, t, cfg)
    maps = []
    detail = repro.get("detail", {})
    if "map" in detail:
        maps = [cat.parse_mor(detail["map"])]
    rec.run_suite(repro["suite"], maps)
    return any(f["check"] == repro["check"]
               for s in rec.suites.values() for f in s["failures"])


# -- image table and exports ---------------------------------------------------


def image_table(cfg: InstanceConfig, cat: Category | None = None) -> list[dict]:
    """Per indecomposable: the image module under Hom(T, -), its dimension
    vector and its decomposition into enumerated indecomposables, each
    class as often as it occurs; a dimension vector that the classes leave
    over is written as ?(...)."""
    cat = cat or cached_category(cfg.n)
    t = rigid_object(cat, cfg.T)
    alg = algebra_of(cat, t)
    classes = enumerate_indec_modules(alg)
    names = [f"S{m.dims.index(1) + 1}" if m.total_dim == 1
             else "(" + ",".join(str(d) for d in m.dims) + ")"
             for m in classes]
    rows = []
    for i in range(cat.N):
        hm = H_obj(cat, alg, cat.obj([i]))
        mults, left = split_module(hm, classes)
        decomp = [name for name, mu in zip(names, mults) for _ in range(mu)]
        if any(left):
            decomp.append("?" + str(left))
        rows.append({"arc": str(cat.arcs[i]), "label": cat.labels[i],
                     "H_dims": list(hm.dims), "decomposition": sorted(decomp)})
    return rows


def export_dot(cfg: InstanceConfig, what: str,
               cat: Category | None = None) -> str:
    """Graph-text export of the translation quiver, optionally annotated
    with image modules."""
    if what not in ("ar-quiver", "image-quiver"):
        raise ValueError("what must be 'ar-quiver' or 'image-quiver'")
    cat = cat or cached_category(cfg.n)
    annotate = {}
    if what == "image-quiver":
        for row in image_table(cfg, cat):
            annotate[row["label"]] = "+".join(row["decomposition"]) or "0"
    lines = ["digraph ar_quiver {"]
    for i in range(cat.N):
        lab = f"{cat.arcs[i]}\\n{cat.labels[i]}"
        if annotate:
            lab += f"\\nH={annotate.get(cat.labels[i], '0')}"
        lines.append(f'  n{i} [label="{lab}"];')
    for z in range(cat.N):
        for m in cat.arrows_in[z]:
            lines.append(f"  n{m} -> n{z};")
    lines.append("}")
    return "\n".join(lines) + "\n"
