"""The benchmark's workloads: seeded inputs, set-up, timed operations and the
check of every output.

Inputs are plain data (arc tokens and integer matrices) drawn from the seed
by the benchmark's own arc model, so a change to the library's own samplers
cannot change them.  Every round starts from a fresh import of the package,
so module-level caches are cold and each round's set-up is measured whole.
Only the operations are timed; checks run after the clock stops, with
tracing off.

A check verifies each witness by its defining property.  The outputs that
the mathematics determines (cone isomorphism types, class memberships,
mono/epi flags, dimensions, zigzag equality, reports and image tables) are
also collected per round for the digest comparison; search-dependent
witnesses (connecting maps, resolution maps, representatives) never are.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "cluster_loc"

# Input shapes are fixed and only their content is drawn from the seed, so
# that runs on different seeds do the same amount of work: rigid objects
# have three summands, and matrix maps cycle through every (source, target)
# summand count up to three.
RIGID_SUMMANDS = 3
SHAPES = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]


def fresh_import():
    """Import the package from scratch, as a new process would; returns the
    package and the (start, end) of the import."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    start = perf_counter()
    pkg = importlib.import_module(PACKAGE)
    return pkg, (start, perf_counter())


# -- the benchmark's own arc model (input generation only) ------------------


class ArcModel:
    """Diagonals of the (n+3)-gon in the library's index order (endpoints
    lexicographic) with the crossing rule: Hom(x, y) is nonzero iff x
    crosses y rotated forward by one vertex."""

    def __init__(self, n: int):
        self.n = n
        m = n + 3
        self.arcs = [(a, b) for a in range(m) for b in range(a + 2, m)
                     if b - a <= n + 1]
        self.tokens = [f"{a}-{b}" for a, b in self.arcs]
        rot = [tuple(sorted(((a + 1) % m, (b + 1) % m))) for a, b in self.arcs]
        N = len(self.arcs)
        self.cross = [[_crosses(x, y) for y in self.arcs] for x in self.arcs]
        self.hom = [[_crosses(self.arcs[i], rot[j]) for j in range(N)]
                    for i in range(N)]
        self.basis_pairs = [(i, j) for i in range(N) for j in range(N)
                            if i != j and self.hom[i][j]]

    def rigid(self, rng: random.Random) -> list[str]:
        """A seeded basic rigid object of RIGID_SUMMANDS pairwise
        non-crossing arcs."""
        order = list(range(len(self.arcs)))
        rng.shuffle(order)
        acc: list[int] = []
        for a in order:
            if all(not self.cross[a][b] for b in acc):
                acc.append(a)
                if len(acc) == RIGID_SUMMANDS:
                    break
        return [self.tokens[a] for a in sorted(acc)]

    def obj(self, rng: random.Random, summands: int) -> list[int]:
        return sorted(rng.randrange(len(self.arcs)) for _ in range(summands))

    def matrix(self, rng: random.Random, src: list[int],
               tgt: list[int]) -> list[list[int]]:
        return [[rng.randint(-3, 3) if self.hom[x][y] else 0 for x in src]
                for y in tgt]

    def random_map(self, rng: random.Random, shape: tuple[int, int]):
        src = self.obj(rng, shape[0])
        tgt = self.obj(rng, shape[1])
        return src, tgt, self.matrix(rng, src, tgt)

    def literal(self, src, tgt, rows) -> str:
        """The CLI morphism literal 'SRC -> TGT @ [[...]]'."""
        body = ",".join("[" + ",".join(str(v) for v in row) + "]"
                        for row in rows)
        return (f"{self.obj_literal(src)} -> {self.obj_literal(tgt)} "
                f"@ [{body}]")

    def obj_literal(self, summands) -> str:
        return ",".join(self.tokens[i] for i in summands)


def _crosses(x, y) -> bool:
    if len({*x, *y}) < 4:
        return False
    return (x[0] < y[0] < x[1]) != (x[0] < y[1] < x[1])


# -- results -------------------------------------------------------------------


@dataclass
class Round:
    """What one round measured and produced.  Times are (start, end) pairs
    of ``perf_counter``; a set-up is a list of such intervals."""
    setups: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)   # op index -> message
    outputs: list = field(default_factory=list)    # digest material
    instances: list = field(default_factory=list)  # ranks and rigid objects
    suite_s: dict = field(default_factory=dict)    # report timing per suite

    def run_op(self, kind: str, fn):
        """Time one operation; an exception counts as its failure."""
        self.kinds.append(kind)
        start = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # noqa: BLE001 - counted, not hidden
            out = None
            self.failures[len(self.ops)] = f"{kind}: {type(exc).__name__}: {exc}"
        self.ops.append((start, perf_counter()))
        return out

    def check(self, idx: int, kind: str, fn):
        """Run the checks of op ``idx``; a problem or exception fails it."""
        if idx in self.failures:
            self.outputs.append(None)
            return
        try:
            problem, material = fn()
        except Exception as exc:  # noqa: BLE001
            problem, material = f"{type(exc).__name__}: {exc}", None
        if problem:
            self.failures[idx] = f"{kind}: {problem}"
        self.outputs.append(material)


def under_tracer(tracer, fn):
    if tracer is None:
        return fn()
    tracer.install()
    try:
        return fn()
    finally:
        tracer.uninstall()


# -- shared checks -------------------------------------------------------------


def cone_type(cat, obj) -> list[str]:
    return sorted(str(cat.arcs[i]) for i in obj.summands)


def check_triangle(pkg, cat, f, tri):
    if tri.f != f:
        return "witness triangle does not start with the map"
    if not pkg.certify_triangle(cat, tri).is_valid():
        return "triangle certificate is not valid"
    return None


def kernel_verdicts(pkg, cat, t, f):
    """The kernel criterion decided both ways: Hom(T, f) = 0, and f factors
    through the left Sigma T-perp approximation of its source."""
    rigid = pkg.rigid
    return (rigid.hom_functor_zero(cat, t, f),
            rigid.factors_through_mor(
                cat, f, rigid.left_sigma_perp_approx(cat, t, f.src)))


def check_classification(pkg, cat, t, f, cls, kernel=None):
    problem = check_triangle(pkg, cat, f, cls.witness_triangle)
    if problem:
        return problem, None
    if cls.in_S_tilde != (cls.H_mono and cls.H_epi):
        return "in_S_tilde disagrees with the mono/epi flags", None
    if cls.in_S and not cls.in_S_tilde:
        return "in_S without in_S_tilde", None
    by_functor, direct = kernel or kernel_verdicts(pkg, cat, t, f)
    if by_functor != direct:
        return "kernel verdicts disagree", None
    return None, [cone_type(cat, cls.witness_triangle.z), cls.in_S_tilde,
                  cls.in_S, cls.H_mono, cls.H_epi, by_functor]


def check_resolution(pkg, cat, t, y, xp, s):
    """s: x' -> y lies in S, x' lies in C(T), and s.h = u for a map u from
    the first C(T) indecomposable that maps to y."""
    if s.src != xp or s.tgt != y:
        return "resolution map has the wrong ends", None
    if not pkg.in_CT(cat, t, xp):
        return "resolution source is not in C(T)", None
    if not pkg.classify(cat, t, s).in_S:
        return "resolution map is not in S", None
    for i in range(cat.N):
        col = [[1 if cat.hom1(i, yj) else 0] for yj in y.summands]
        if any(r[0] for r in col) and pkg.in_CT(cat, t, cat.obj([i])):
            u = cat.mor(cat.obj([i]), y, col)
            h = pkg.factor_through_s(cat, t, u, s)
            if cat.compose(s, h).m != u.m:
                return "s.h != u", None
            break
    return None, "resolved"


# -- map-battery ---------------------------------------------------------------


class MapBattery:
    """AC2's per-map work at ranks 7 and 8 under a long-lived, growing memo.

    A round builds both categories and samples two rigid objects per rank,
    which share their category's memo as AC2's instances share a cached
    category.  For each rigid object it runs classify plus the kernel
    criterion both ways on a shuffled pool of basis maps and matrix maps, a
    second classification of each basis map under search seeds 0 and 1
    (memo hit, then miss, as the stilde suite does), and s_resolution of
    every indecomposable.
    """

    name = "map-battery"
    ranks = (7, 8)
    round_s = 7.5
    tail_pct = 99.0
    rounds_vary = True

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.per_rank, self.basis_maps, self.matrix_maps = \
            (1, 3, 3) if tiny else (2, 9, 18)
        self.models = {n: ArcModel(n) for n in self.ranks}

    def inputs(self, r: int):
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        out = []
        for n in self.ranks:
            model = self.models[n]
            for _ in range(self.per_rank):
                t = model.rigid(rng)
                basis = [([x], [y], [[1]]) for x, y in
                         rng.sample(model.basis_pairs, self.basis_maps)]
                matrix = [model.random_map(rng, SHAPES[i % len(SHAPES)])
                          for i in range(self.matrix_maps)]
                order = list(range(len(basis) + len(matrix)))
                rng.shuffle(order)
                resolve = range(6 if self.tiny else len(model.arcs))
                out.append((n, t, basis, matrix, order, resolve))
        return out

    def setup(self, pkg, plan):
        """Both categories, the rigid objects and their algebras."""
        start = perf_counter()
        cats = {n: pkg.build_category(n) for n in self.ranks}
        ts = []
        for n, tokens, *_ in plan:
            ts.append(pkg.rigid_object(cats[n], tokens))
            pkg.localization.algebra_of(cats[n], ts[-1])
        return cats, ts, (start, perf_counter())

    def setup_sample(self) -> list:
        pkg, span = fresh_import()
        return [span, self.setup(pkg, self.inputs(0))[-1]]

    def round(self, r: int, tracer=None) -> Round:
        res = Round()
        plan = self.inputs(r)
        pkg, span = fresh_import()
        cats, ts, setup = under_tracer(tracer, lambda: self.setup(pkg, plan))
        res.setups.append([span, setup])
        work = []
        for (n, tokens, basis, matrix, order, resolve), t in zip(plan, ts):
            cat = cats[n]
            if [str(a) for a in cat.arcs] != self.models[n].tokens:
                raise RuntimeError(f"arc order of the rank-{n} category "
                                   "differs from the benchmark's arc model")
            res.instances.append({"n": n, "T": tokens})
            maps = [cat.mor(cat.obj(s), cat.obj(g), m) for s, g, m in basis]
            pool = maps + [cat.mor(cat.obj(s), cat.obj(g), m)
                           for s, g, m in matrix]
            work += [("map", cat, t, pool[i]) for i in order]
            work += [("recheck", cat, t, f) for f in maps]
            work += [("resolve", cat, t, cat.obj([i])) for i in resolve]

        def ops():
            return [res.run_op(kind, lambda: self.op(pkg, kind, cat, t, x))
                    for kind, cat, t, x in work]

        outs = under_tracer(tracer, ops)
        for idx, ((kind, cat, t, x), out) in enumerate(zip(work, outs)):
            res.check(idx, kind,
                      lambda: self.verify(pkg, kind, cat, t, x, out))
        return res

    @staticmethod
    def op(pkg, kind, cat, t, x):
        if kind == "map":
            return pkg.classify(cat, t, x), kernel_verdicts(pkg, cat, t, x)
        if kind == "recheck":
            return pkg.classify(cat, t, x, seed=0), pkg.classify(cat, t, x, seed=1)
        return pkg.s_resolution(cat, t, x)

    @staticmethod
    def verify(pkg, kind, cat, t, x, out):
        if kind == "map":
            cls, kernel = out
            return check_classification(pkg, cat, t, x, cls, kernel)
        if kind == "recheck":
            c0, c1 = out
            kernel = kernel_verdicts(pkg, cat, t, x)
            p0, m0 = check_classification(pkg, cat, t, x, c0, kernel)
            p1, m1 = check_classification(pkg, cat, t, x, c1, kernel)
            if p0 or p1:
                return p0 or p1, None
            if m0 != m1:
                return "verdicts differ between search seeds 0 and 1", None
            return None, m0
        xp, s = out
        return check_resolution(pkg, cat, t, x, xp, s)


# -- worked-example ------------------------------------------------------------


class WorkedExample:
    """`cluster-loc verify` on the rank-4 example (all suites), then the
    image tables of the example and of the heptagon fan.

    Three operations per round: run_suites and the two image tables.  The
    module oracle does most of the work here.
    """

    name = "worked-example"
    example_T = ["M44", "M14", "M11"]
    fan_T = ["0-2", "0-3", "0-4", "0-5"]
    round_s = 20.0
    tail_pct = 100.0
    rounds_vary = False

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny

    def setup(self, pkg):
        """The rank-4 category, both rigid objects and their algebras."""
        start = perf_counter()
        cat = pkg.build_category(4)
        for tokens in (self.example_T, self.fan_T):
            t = pkg.rigid_object(cat, tokens)
            pkg.localization.algebra_of(cat, t)
        return cat, (start, perf_counter())

    def setup_sample(self) -> list:
        pkg, span = fresh_import()
        return [span, self.setup(pkg)[-1]]

    def round(self, r: int, tracer=None) -> Round:
        res = Round()
        pkg, span = fresh_import()
        cat, setup = under_tracer(tracer, lambda: self.setup(pkg))
        res.setups.append([span, setup])
        suites = [s for s in pkg.suites.SUITE_NAMES
                  if not (self.tiny and s == "example71")]
        cfg = pkg.InstanceConfig(n=4, T=self.example_T, seed=self.seed,
                                 suites=suites)
        fan = pkg.InstanceConfig(n=4, T=self.fan_T, seed=self.seed)
        res.instances = [{"n": 4, "T": self.example_T},
                         {"n": 4, "T": self.fan_T}]
        work = [("run_suites", lambda: pkg.run_suites(cfg, cat=cat)),
                ("image_table", lambda: pkg.image_table(cfg, cat))]
        if not self.tiny:
            work.append(("image_table", lambda: pkg.image_table(fan, cat)))
        outs = under_tracer(tracer, lambda: [res.run_op(kind, fn)
                                             for kind, fn in work])
        if outs[0] is not None:
            res.suite_s = dict(outs[0]["timing"]["per_suite"])
        for idx, ((kind, _), out) in enumerate(zip(work, outs)):
            res.check(idx, kind, lambda: self.verify(pkg, kind, out))
        return res

    @staticmethod
    def verify(pkg, kind, out):
        if kind == "run_suites":
            if out["failures_total"]:
                return f"{out['failures_total']} suite checks failed", None
            return None, pkg.suites.strip_timing(out)
        for row in out:
            if any(p.startswith("?") for p in row["decomposition"]):
                return (f"image of {row['label']} has a summand outside the "
                        "enumerated classes"), None
        return None, out


# -- cold-queries --------------------------------------------------------------


class ColdQueries:
    """One-shot queries, each from a fresh import and a fresh category, as
    every CLI call is a new process.

    A round is a seeded, shuffled stream of `cone` at every rank 4..12 and
    the five instance queries (classify, loc_hom with verify, s_resolution,
    right_addT_approx, zigzag_equal), each at two of the ranks 4..8; the
    ranks rotate with the round so that every rank takes two queries.
    Inputs are CLI literals, parsed inside the timed operation.
    """

    name = "cold-queries"
    cone_ranks = range(4, 13)
    query_ranks = range(4, 9)
    kinds = ("classify", "loc_hom", "s_resolution", "right_addT_approx",
             "zigzag_equal")
    round_s = 15.0
    tail_pct = 70.0
    rounds_vary = True

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        if tiny:
            self.cone_ranks = range(4, 7)
            self.query_ranks = range(4, 6)
        self.models = {n: ArcModel(n) for n in
                       set(self.cone_ranks) | set(self.query_ranks)}

    def inputs(self, r: int):
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        plan = []
        for n in self.cone_ranks:
            shape = SHAPES[(n + r) % len(SHAPES)]
            plan.append(("cone", n, {"map": self.models[n].literal(
                *self.models[n].random_map(rng, shape))}))
        ranks = list(self.query_ranks)
        for k, kind in enumerate(self.kinds):
            for shift in (0, 2):
                n = ranks[(k + r + shift) % len(ranks)]
                model = self.models[n]
                spec = {"T": model.rigid(rng)}
                if kind == "classify":
                    spec["map"] = model.literal(*model.random_map(rng, (2, 2)))
                elif kind == "loc_hom":
                    spec["x"] = model.obj_literal(model.obj(rng, 2))
                    spec["y"] = model.obj_literal(model.obj(rng, 2))
                elif kind in ("s_resolution", "right_addT_approx"):
                    spec["x"] = model.obj_literal(model.obj(rng, 2))
                else:
                    a, b, c = (model.obj(rng, 2) for _ in range(3))
                    spec["path"] = [model.literal(a, b, model.matrix(rng, a, b)),
                                    model.literal(b, c, model.matrix(rng, b, c))]
                    spec["path2"] = [model.literal(a, c,
                                                   model.matrix(rng, a, c))]
                plan.append((kind, n, spec))
        rng.shuffle(plan)
        return plan

    @staticmethod
    def setup_sample() -> list:
        return [fresh_import()[1]]

    def round(self, r: int, tracer=None) -> Round:
        res = Round()
        for idx, (kind, n, spec) in enumerate(self.inputs(r)):
            pkg, span = fresh_import()
            res.setups.append([span])
            res.instances.append({"kind": kind, "n": n, "T": spec.get("T")})
            out = under_tracer(tracer, lambda: res.run_op(
                kind, lambda: self.op(pkg, kind, n, spec)))
            res.check(idx, kind, lambda: self.verify(pkg, kind, out))
        return res

    @staticmethod
    def op(pkg, kind, n, spec):
        cat = pkg.build_category(n)
        if kind == "cone":
            f = cat.parse_mor(spec["map"])
            return cat, None, f, pkg.complete_triangle(cat, f)
        t = pkg.rigid_object(cat, spec["T"])
        if kind == "classify":
            f = cat.parse_mor(spec["map"])
            return cat, t, f, pkg.classify(cat, t, f)
        if kind == "loc_hom":
            x = cat.parse_obj_tokens(spec["x"])
            y = cat.parse_obj_tokens(spec["y"])
            return cat, t, (x, y), pkg.loc_hom(cat, t, x, y, verify=True)
        if kind in ("s_resolution", "right_addT_approx"):
            x = cat.parse_obj_tokens(spec["x"])
            return cat, t, x, getattr(pkg, kind)(cat, t, x)
        z1, z2 = (pkg.Zigzag(tuple((cat.parse_mor(m), False) for m in path))
                  for path in (spec["path"], spec["path2"]))
        return cat, t, (z1, z2), pkg.zigzag_equal(cat, t, z1, z2)

    @staticmethod
    def verify(pkg, kind, out):
        cat, t, x, result = out
        if kind == "cone":
            problem = check_triangle(pkg, cat, x, result)
            return problem, None if problem else cone_type(cat, result.z)
        if kind == "classify":
            return check_classification(pkg, cat, t, x, result)
        if kind == "loc_hom":
            if len(result.reps) != result.dim:
                return "representatives do not match the dimension", None
            return None, result.dim
        if kind == "s_resolution":
            xp, s = result
            return check_resolution(pkg, cat, t, x, xp, s)
        if kind == "right_addT_approx":
            if result.tgt != x or not set(result.src.summands) <= set(t.arcs):
                return "approximation is not a map from add T to x", None
            return None, cone_type(cat, result.src)
        return None, result


WORKLOADS = {w.name: w for w in (MapBattery, WorkedExample, ColdQueries)}
