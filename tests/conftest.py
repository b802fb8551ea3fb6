import random
from fractions import Fraction

import pytest

from cluster_loc.category import Category, Mor, Obj
from cluster_loc.linalg import Mat, kernel_basis, rank_rows, solve_right
from cluster_loc.modules import Algebra, LambdaModule
from cluster_loc.rigid import RigidObject, rigid_object
from cluster_loc.suites import cached_category


def sample_rigid(cat: Category, rng: random.Random) -> RigidObject:
    """A random basic rigid object (seeded)."""
    order = list(range(cat.N))
    rng.shuffle(order)
    acc: list[int] = []
    for a in order:
        if all(not cat.crosses_idx(a, b) for b in acc):
            acc.append(a)
            if rng.random() < 0.35:
                break
    return RigidObject(tuple(sorted(acc)))


def enumerate_basic_rigid(cat: Category) -> list[RigidObject]:
    """All nonempty sets of pairwise non-crossing arcs, by backtracking."""
    out: list[RigidObject] = []

    def rec(start: int, acc: list[int]):
        for a in range(start, cat.N):
            if all(not cat.crosses_idx(a, b) for b in acc):
                acc.append(a)
                out.append(RigidObject(tuple(acc)))
                rec(a + 1, acc)
                acc.pop()

    rec(0, [])
    return out


def five_rigid(cat: Category, rng: random.Random) -> list[RigidObject]:
    """Five distinct basic rigid objects, drawn in turn from the seeded
    sampler."""
    seen: list[RigidObject] = []
    while len(seen) < 5:
        t = sample_rigid(cat, rng)
        if t not in seen:
            seen.append(t)
    return seen


def is_isomorphism(cat: Category, f: Mor) -> bool:
    """Decide invertibility by solving f.g = id and checking g.f = id.

    When f is invertible, f.g = id pins g = f^-1, so the two-sided check
    can only fail for maps that are not invertible (split epis)."""
    X, Y = f.src, f.tgt
    rows, ncols = cat.post_rows(f, Y)
    sol = solve_right(rows, cat.vectorize(cat.identity(Y)), ncols)
    if sol is None:
        return False
    v, d, _ = sol
    g = cat.mor_from_vec(Y, X, [Fraction(a, d) for a in v])
    return cat.compose(g, f).m == cat.identity(X).m


def shift_once(cat: Category, f: Mor, direction: int) -> Mor:
    """Σf (direction 1) or Σ^{-1}f (direction -1), one step at a time: the
    reference for the one-pass ``Category.suspend_mor``.  sig(a, b) scales
    Hom(a, b) -> Hom(Sa, Sb), and as it is +-1 the inverse scales by it
    too, read at the shifted pair."""
    sig = cat.sigma_arc if direction > 0 else cat.sigma_arc_inv
    xs = [sig[s] for s in f.src.summands]
    ys = [sig[s] for s in f.tgt.summands]
    at_x, at_y = ((f.src.summands, f.tgt.summands) if direction > 0
                  else (xs, ys))
    src = sorted(range(len(xs)), key=xs.__getitem__)
    tgt = sorted(range(len(ys)), key=ys.__getitem__)
    rows = tuple(tuple(f.m[i][j] * cat.sig[(at_x[j], at_y[i])]
                       if f.m[i][j] else 0 for j in src) for i in tgt)
    return Mor(Obj(tuple(sorted(xs))), Obj(tuple(sorted(ys))), rows)


def mat_from_cols(cols, nrows: int) -> Mat:
    """Matrix with the given columns; shape is explicit so empty dimensions
    survive (from_rows would collapse a 0-row matrix to 0 columns)."""
    return Mat(nrows, len(cols),
               tuple(Fraction(c[r]) for r in range(nrows) for c in cols))


def as_rows(m: Mat) -> tuple[list[list], int]:
    """m as the rows and column count that ``kernel_basis`` and
    ``solve_right`` take."""
    return m.to_rows(), m.cols


def hstack(a: Mat, b: Mat) -> Mat:
    """[a | b], the columns of a followed by those of b."""
    if a.rows != b.rows:
        raise ValueError("row count mismatch in hstack")
    return Mat(a.rows, a.cols + b.cols,
               tuple(x for i in range(a.rows) for x in a.row(i) + b.row(i)))


# -- module references -----------------------------------------------------


def zero_module(alg: Algebra) -> LambdaModule:
    return LambdaModule(alg, [0] * alg.r, {})


def projective_module(alg: Algebra, i: int) -> LambdaModule:
    """P_i, with (P_i)_j = Hom(t_j, t_i) and action by composition, built
    from the structure constants alone."""
    dims = [1 if (j == i or (j, i) in set(alg.radical_pairs)) else 0
            for j in range(alg.r)]
    act = {}
    for (j, k) in alg.radical_pairs:
        if dims[j] and dims[k]:
            if k == i:
                c = 1  # x = e_i: a.e_i is the basis element of Hom(t_j, t_i)
            else:
                c = alg.mult.get((j, k, i), 0)
            act[(j, k)] = Mat.from_rows([[c]])
    return LambdaModule(alg, dims, act)


def top_dims(m: LambdaModule) -> tuple[int, ...]:
    """dim of M_i / rad M_i at each vertex i, rad M_i being spanned by the
    columns of the action matrices into M_i."""
    return tuple(m.dims[i] - rank_rows([
        a.col(c) for (i2, _), a in m.act.items() if i2 == i
        for c in range(a.cols)]) for i in range(m.alg.r))


# -- slot references for the induced-hom matrices ---------------------------


def slot_post_matrix(cat: Category, f: Mor, W: Obj) -> Mat:
    """Hom(W, f) one slot at a time: f composed with each basis map of
    Hom(W, f.src); the reference for Category.post_rows."""
    cols = [cat.vectorize(cat.compose(f, cat.slot_mor(W, f.src, s)))
            for s in cat.hom_slots(W, f.src)]
    return mat_from_cols(cols, cat.dim_hom_obj(W, f.tgt))


def slot_hom_functor_matrix(cat: Category, arcs, x: Obj, y: Obj) -> Mat:
    """Hom(T, -) on Hom(x, y) one slot at a time, the image of each slot map
    flattened over the arcs of T; the reference for functor_slots."""
    cols = [[v for t in arcs
             for v in slot_post_matrix(cat, cat.slot_mor(x, y, s),
                                       Obj((t,))).entries]
            for s in cat.hom_slots(x, y)]
    nrows = sum(cat.dim_hom_obj(Obj((t,)), y) * cat.dim_hom_obj(Obj((t,)), x)
                for t in arcs)
    return mat_from_cols(cols, nrows)


# -- factoring through add W: the reference for the slot count ------------


def bundle_left_approx(cat: Category, x: Obj, members) -> Mor:
    """Left approximation of x into the additive closure of ``members``:
    one copy of m per basis map x_j -> m, each row picking its x_j."""
    tgt_arcs: list[int] = []
    picks: list[int] = []
    for m in sorted(set(members)):
        for pos, s in enumerate(x.summands):
            if cat.hom1(s, m):
                tgt_arcs.append(m)
                picks.append(pos)
    rows = [[0] * len(x.summands) for _ in tgt_arcs]
    for i, pos in enumerate(picks):
        rows[i][pos] = 1
    return cat.mor(x, Obj(tuple(tgt_arcs)), rows)


def rank_factoring_through_add(cat: Category, x: Obj, y: Obj, members) -> int:
    """Dimension of the maps x -> y factoring through add(members), as the
    rank of Hom(ell, y) for the left approximation ell of x; the reference
    for ``rigid.dim_factoring_through_add``."""
    return rank_rows(cat.pre_rows(bundle_left_approx(cat, x, members), y)[0])


# -- right-minimal reduction: the reference for ``right_addT_approx`` ------


def find_split_column(cat: Category, f: Mor):
    """A pair (iota, j0) where iota: a -> src has f.iota = 0 and nonzero
    isotypic coordinate at position j0, or None if f is right minimal."""
    X = f.src
    for a in sorted(set(X.summands)):
        A = Obj((a,))
        slots = cat.hom_slots(A, X)       # (j, 0) pairs
        ker = kernel_basis(*cat.post_rows(f, A))
        iso_positions = [k for k, (j, _) in enumerate(slots)
                         if X.summands[j] == a]
        for c in range(ker.cols):
            for k in iso_positions:
                if ker.at(k, c) != 0:
                    vec = [ker.at(r, c) for r in range(ker.rows)]
                    iota = cat.mor_from_vec(A, X, vec)
                    return iota, slots[k][0]
    return None


def is_right_minimal(cat: Category, f: Mor) -> bool:
    """No summand of the source splits off on which f vanishes."""
    return find_split_column(cat, f) is None


def right_minimal_reduce(cat: Category, f: Mor) -> tuple[Mor, Obj]:
    """Split off the maximal summand of the source on which f vanishes,
    one kernel search per split.

    Returns (f', X') with f isomorphic to f' + (X' -> 0) and f' right
    minimal: every endomorphism e of its source with f'.e = f' is
    invertible.
    """
    cur = f
    removed: list[int] = []
    while True:
        found = find_split_column(cat, cur)
        if found is None:
            break
        iota, j0 = found
        X = cur.src
        # automorphism of X: replace basis column j0 by iota
        rows = [[1 if i == j else 0 for j in range(len(X.summands))]
                for i in range(len(X.summands))]
        a = iota.src.summands[0]
        for i in range(len(X.summands)):
            if cat.hom1(a, X.summands[i]):
                rows[i][j0] = iota.m[i][0]
            elif i == j0:
                rows[i][j0] = 0
        moved = cat.compose(cur, cat.mor(X, X, rows))
        # drop column j0 (now exactly zero)
        assert all(moved.m[i][j0] == 0 for i in range(len(moved.tgt.summands)))
        keep = [j for j in range(len(X.summands)) if j != j0]
        new_src = Obj(tuple(X.summands[j] for j in keep))
        cur = Mor(new_src, cur.tgt,
                  tuple(tuple(row[j] for j in keep) for row in moved.m))
        removed.append(X.summands[j0])
    return cur, Obj(tuple(sorted(removed)))


@pytest.fixture(scope="session")
def cat4():
    return cached_category(4)


@pytest.fixture(scope="session")
def example_T(cat4):
    """The running rank-4 instance: T = M44 + M14 + M11."""
    return rigid_object(cat4, ["M44", "M14", "M11"])


@pytest.fixture(scope="session")
def fan_T(cat4):
    """A full triangulation of the heptagon (cluster-tilting)."""
    return rigid_object(cat4, ["0-2", "0-3", "0-4", "0-5"])


@pytest.fixture(scope="session")
def cat2():
    return cached_category(2)
