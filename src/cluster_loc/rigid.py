"""Rigid objects, perpendicular subcategories and approximations.

A rigid object is a set of pairwise non-crossing arcs, each arc once, and
it carries the memos of what is computed for it.  The four standard
subcategory views are computed from hom dimensions.  The minimal right
add T-approximation of x is written down directly as the lift of the
projective cover of Hom(T, x): one basis map t_i -> x_j for each slot of
Hom(t_i, x) outside its radical.  Its certified completion triangles drive
the Wakamatsu check, membership in the presentation subcategory C(T), and
the factoring tests.

Hom spaces between arcs are at most 1-dimensional, so composing with one
basis map sends a slot to at most one slot, and the radical of Hom(t_i, x),
the kernel of Hom(T, -) on Hom(x, y) (``functor_slots``) and the maps
x -> y factoring through add W (``dim_factoring_through_add``) are spanned
by slots, read off the composition table without elimination.

Wherever two independent decision procedures exist (the hom-functor kernel
test against direct divisibility) both are run and a disagreement raises
InternalConsistencyError rather than returning either verdict.  Direct
divisibility through the left Sigma T-perp-approximation is decided entry
by entry: that approximation is block diagonal, one block l_a: a -> Z_a
per source summand, and Hom(a, y) is at most 1-dimensional, so a map f
factors through it exactly when every nonzero entry f_ya has
rank Hom(l_a, y) = 1, read off one memoised rank table per arc.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable

from .category import Category, InternalConsistencyError, Mor, Obj
from .linalg import rank_rows, solvable_rows
from .triangles import Triangle, complete_triangle, pre_rank_table
from .values import Value

VIEW_KINDS = ("addT", "Tperp", "SigmaTperp", "perpT")


class RigidObject(Value):
    """A basic rigid object of the category it was made on, summand order
    preserved (it fixes vertex numbering of the endomorphism algebra).
    ``memo`` holds what has been computed for it, so those results live and
    die with the object; equality, hash and repr read the arcs only."""

    __slots__ = ("arcs", "memo")   # tuple of arc indices, dict

    def __init__(self, arcs: tuple[int, ...]):
        super().__init__(arcs, {})

    def __repr__(self) -> str:   # without the memo
        return f"RigidObject(arcs={self.arcs!r})"

    def _fields(self) -> tuple:
        return (self.arcs,)


def is_rigid(cat: Category, x: Obj | Iterable[int]) -> bool:
    """No self-extensions: no two summand arcs cross."""
    summands = x.summands if isinstance(x, Obj) else tuple(x)
    return all(not cat.crosses_idx(a, b)
               for i, a in enumerate(summands) for b in summands[i + 1:])


def rigid_object(cat: Category, summands: Iterable) -> RigidObject:
    # each summand resolved and range-checked as Category.obj does
    arcs = tuple(cat.obj([s]).summands[0] for s in summands)
    if not arcs:
        raise ValueError("rigid object must have at least one summand")
    if not is_rigid(cat, arcs):
        raise ValueError("summand arcs cross: object is not rigid")
    for k, a in enumerate(arcs):
        if a in arcs[:k]:
            raise ValueError(f"T repeats the summand {cat.labels[a]}: a "
                             "rigid object is basic")
    return RigidObject(arcs)


def perp_view(cat: Category, t: RigidObject, kind: str) -> frozenset[int]:
    """Member indecomposables of add T, T-perp, Sigma T-perp or perp-T.

    The first computation for a given T also verifies the double-perpendicular
    identities perp(Tperp) = add T = (perpT)perp on the instance.
    """
    if kind not in VIEW_KINDS:
        raise ValueError(f"unknown view kind {kind!r}")
    if "views" not in t.memo:
        addT = frozenset(t.arcs)
        tperp = frozenset(y for y in range(cat.N)
                          if all(not cat.hom1(ti, cat.shift_arc(y))
                                 for ti in t.arcs))
        perpt = frozenset(y for y in range(cat.N)
                          if all(not cat.hom1(y, cat.shift_arc(ti))
                                 for ti in t.arcs))
        sperp = frozenset(cat.shift_arc(y) for y in tperp)
        double1 = frozenset(y for y in range(cat.N)
                            if all(not cat.hom1(y, cat.shift_arc(u))
                                   for u in tperp))
        double2 = frozenset(y for y in range(cat.N)
                            if all(not cat.hom1(u, cat.shift_arc(y))
                                   for u in perpt))
        if double1 != addT or double2 != addT:
            raise InternalConsistencyError(
                "double-perpendicular identity fails for T = "
                f"{[cat.labels[a] for a in t.arcs]}")
        t.memo["views"] = {"addT": addT, "Tperp": tperp,
                           "SigmaTperp": sperp, "perpT": perpt}
    return t.memo["views"][kind]


# -- approximations --------------------------------------------------------


def right_addT_approx(cat: Category, t: RigidObject, x: Obj,
                      minimal: bool = True) -> Mor:
    """Right add T-approximation of x (minimal by default), a bundle of
    basis maps t_i -> x_j with one source copy each.

    Hom(T, -) takes add T onto the projective End(T)-modules, so the
    minimal approximation lifts the projective cover of Hom(T, x): for each
    summand t_i it keeps the basis maps t_i -> x_j outside the radical of
    Hom(t_i, x).  The radical is the span of the images of Hom(u, x) under
    precomposition with t_i -> u, u another summand, and so of the slots j
    with a nonzero composite t_i -> u -> x_j.  With ``minimal=False``
    every basis map is kept.  Surjectivity of Hom(t_i, -) onto Hom(t_i, x)
    is re-verified; the minimal form is unique up to isomorphism.
    """
    arcs = sorted(t.arcs)
    src: list[int] = []
    picks: list[int] = []    # target summand position of each source copy
    for ti in arcs:
        for j, xj in enumerate(x.summands):
            if cat.hom1(ti, xj) and not (minimal and any(
                    cat.comp3(ti, u, xj) for u in arcs if u != ti)):
                src.append(ti)
                picks.append(j)
    rows = [[0] * len(src) for _ in x.summands]
    for j, pos in enumerate(picks):
        rows[pos][j] = 1
    f = cat.mor(Obj(tuple(src)), x, rows)
    for ti in arcs:
        img, _ = cat.post_rows(f, Obj((ti,)))   # one row per Hom(ti, x) slot
        if rank_rows(img) != len(img):
            raise InternalConsistencyError(
                f"right approximation of {cat.obj_label(x)} lost surjectivity "
                f"at {cat.labels[ti]}")
    return f


def approx_triangle(cat: Category, t: RigidObject, x: Obj) -> Triangle:
    """Certified completion of the minimal right add T-approximation of x."""
    memo = t.memo.setdefault("approx_tri", {})
    if x.summands not in memo:
        memo[x.summands] = complete_triangle(cat, right_addT_approx(cat, t, x))
    return memo[x.summands]


def wakamatsu_check(cat: Category, t: RigidObject, x: Obj) -> bool:
    """Cone of the right approximation lies in T-perp and the rotated
    connecting map is a left T-perp-approximation of the cosuspension of x."""
    tri = approx_triangle(cat, t, x)
    tperp = perp_view(cat, t, "Tperp")
    u = cat.suspend_obj(tri.z, -1)
    if any(s not in tperp for s in u.summands):
        return False
    conn = cat.suspend_mor(tri.g, -1)   # Σ^{-1}x -> Σ^{-1}Z = U
    ranks, dims = pre_rank_table(cat, conn), cat.hom_vec_from(conn.src)
    return all(ranks[m] == dims[m] for m in tperp)


def in_CT(cat: Category, t: RigidObject, x: Obj) -> bool:
    """Presentation-subcategory membership: the cosuspended cone of the
    minimal right add T-approximation must lie in add T.

    The minimal right add T-approximation of X + Y is the sum of the minimal
    ones of X and Y, so its cone is the sum of their cones, and add T is
    closed under sums and summands: x lies in C(T) exactly when each of its
    indecomposable summands does.  The verdict is memoised per arc.
    """
    memo = t.memo.setdefault("in_ct", {})
    for a in set(x.summands) - memo.keys():
        u = cat.suspend_obj(approx_triangle(cat, t, Obj((a,))).z, -1)
        memo[a] = all(s in t.arcs for s in u.summands)
    return all(memo[a] for a in x.summands)


def is_cluster_tilting(cat: Category, t: RigidObject) -> bool:
    """T-perp inside add T, cross-checked against the full-triangulation
    characterization (n pairwise non-crossing arcs)."""
    tperp = perp_view(cat, t, "Tperp")
    homological = tperp <= set(t.arcs)
    combinatorial = len(t.arcs) == cat.n
    if homological != combinatorial:
        raise InternalConsistencyError(
            "cluster-tilting tests disagree for T = "
            f"{[cat.labels[a] for a in t.arcs]}")
    return homological


# -- factoring tests --------------------------------------------------------


def functor_slots(cat: Category, arcs: tuple[int, ...], x: Obj,
                  y: Obj) -> list[tuple[int, int]]:
    """The slots (i, j) of Hom(x, y) that Hom(T, -) sees, T the sum of
    ``arcs``: Hom(t, -) sends slot (i, j) to the one entry (y_i, x_j) of
    block t, times comp(t, x_j, y_i), so the other slots span the kernel."""
    return [(i, j) for (i, j) in cat.hom_slots(x, y)
            if any(cat.comp3(t, x.summands[j], y.summands[i]) for t in arcs)]


def hom_functor_zero(cat: Category, t: RigidObject, f: Mor) -> bool:
    """Hom(T, f) = 0: f vanishes on every slot Hom(T, -) sees."""
    return not any(f.m[i][j]
                   for i, j in functor_slots(cat, t.arcs, f.src, f.tgt))


def factors_through_mor(cat: Category, f: Mor, through: Mor) -> bool:
    """Does f factor as v . through (through shares f's source)?  The
    system Hom(through, f.tgt) v = f is solvable exactly when no pivot of
    [A | f] lies in the column f."""
    if through.src != f.src:
        raise ValueError("sources differ")
    rows, ncols = cat.pre_rows(through, f.tgt)
    return solvable_rows(rows, cat.vectorize(f), ncols)


def left_sigma_perp_approx(cat: Category, t: RigidObject, x: Obj) -> Mor:
    """Left Sigma-T-perp-approximation of x, with source x itself.

    For an indecomposable a it is the cone map g: a -> Z of a's
    approximation triangle (suspended Wakamatsu data).  The minimal right
    add T-approximation of X + Y is the sum of the minimal ones of X and Y,
    so the cones add up, and a sum of left approximations is a left
    approximation of the sum: the map for x is the direct sum of the maps
    for its summands, one memoised triangle per indecomposable.
    """
    parts = [approx_triangle(cat, t, Obj((a,))).g for a in x.summands]
    return reduce(cat.direct_sum_mor, parts) if parts else cat.zero_mor(x, x)


def _sigma_perp_ranks(cat: Category, t: RigidObject, a: int) -> list[int]:
    """rank Hom(l_a, w) for every indecomposable w, l_a: a -> Z_a the left
    Sigma T-perp-approximation of the arc a; memoised per T and arc.  l_a
    has one source summand, so the table needs no elimination."""
    memo = t.memo.setdefault("sigma_perp_ranks", {})
    got = memo.get(a)
    if got is None:
        got = memo[a] = pre_rank_table(
            cat, left_sigma_perp_approx(cat, t, Obj((a,))))
    return got


def factors_through_subcat(cat: Category, t: RigidObject, f: Mor) -> bool:
    """Does f factor through Sigma T-perp?

    The hom-functor kernel criterion and direct divisibility through the
    left Sigma T-perp-approximation l of f's source are both evaluated and
    must agree.  l is the direct sum of the maps l_a: a -> Z_a of the
    source summands a, so it is block diagonal and v.l = f splits into one
    equation v_ia.l_a = f_ia per target summand y_i and source summand a.
    Hom(a, y_i) has dimension at most 1, so that equation is solvable
    exactly when f_ia = 0 or rank Hom(l_a, y_i) = 1: f factors through
    Sigma T-perp iff every nonzero entry passes this test
    (``_sigma_perp_ranks``), and no system is solved.
    """
    by_functor = hom_functor_zero(cat, t, f)
    ranks = [_sigma_perp_ranks(cat, t, a) for a in f.src.summands]
    direct = all(ranks[j][y] for y, row in zip(f.tgt.summands, f.m)
                 for j, v in enumerate(row) if v)
    if by_functor != direct:
        raise InternalConsistencyError(
            "hom-functor kernel test disagrees with direct factoring "
            f"through Sigma T-perp for {cat.obj_label(f.src)} -> "
            f"{cat.obj_label(f.tgt)}")
    return direct


def dim_factoring_through_add(cat: Category, x: Obj, y: Obj,
                              w_arcs: Iterable[int]) -> int:
    """Dimension of the subspace of Hom(x, y) factoring through add(w_arcs).

    The ideal [add W] splits by blocks, and Hom(x_j, y_i) is at most
    1-dimensional, so the subspace is spanned by the slots (i, j) whose
    basis map is a nonzero composite x_j -> w -> y_i for some w in W; the
    table holds the identity composites, so w = x_j or y_i counts too."""
    w_arcs = set(w_arcs)
    return sum(1 for i, j in cat.hom_slots(x, y)
               if any(cat.comp3(x.summands[j], w, y.summands[i])
                      for w in w_arcs))


def dim_hom_functor_kernel(cat: Category, t: RigidObject, x: Obj, y: Obj) -> int:
    """dim of the kernel of Hom(T, -) on Hom(x, y)."""
    return cat.dim_hom_obj(x, y) - len(functor_slots(cat, t.arcs, x, y))

