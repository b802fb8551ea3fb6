"""Morphism classes, resolutions, zigzags and localized hom spaces.

The class of maps inverted by Hom(T, -) is decided twice for every query:
once through the module side (is the induced map an isomorphism?) and once
through the completed triangle (do both connecting maps factor through
Sigma T-perp?); disagreement raises instead of answering.  The smaller class
S additionally requires the cosuspended cone to lie in Sigma T-perp.

Every object admits a resolution by an S-map from the presentation
subcategory, built by completing the composite of two approximation
triangles; localized hom spaces are presented in normal form as the hom
space between resolved objects modulo the kernel of the hom functor, and on
request their dimension is checked against the module side, the dimension
of Hom(H(x), H(y)) over End(T).  Zigzags (formal composites with inverses
of classified maps) are evaluated through the module side, which also
decides zigzag equality.

The linear systems read the induced-hom rows of ``category`` and go to
``linalg`` as they are: the resolution equation s . p = lambda u
(lambda > 0 an integer) is ``solve_right`` of ``pre_rows(p, y)``,
``factor_through_s`` (s . h = u) is ``solve_right`` of
``post_rows(s, u.src)``, and ``classify``'s module flags are one
``rank_rows`` of ``post_rows(f, t)`` per summand t of T; ``H_mor`` builds
the module map only for the callers that use it (zigzags and the suites).
The localized hom space needs no system: the kernel of Hom(T, -) on
Hom(x', y') is spanned by slots, and ``rigid.functor_slots`` lists the
others, whose slot maps are the quotient basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .category import Category, InternalConsistencyError, Mor, Obj
from .linalg import rank_rows, solve_right
from .modules import (Algebra, H_mor, H_obj, ModuleHom, end_algebra,
                      hom_dim_modules)
from .rigid import (RigidObject, approx_triangle, factors_through_subcat,
                    functor_slots, in_CT, perp_view, right_addT_approx)
from .triangles import (Triangle, complete_triangle, draw_stream,
                        generic_maps)
from .values import Value


def algebra_of(cat: Category, t: RigidObject) -> Algebra:
    alg = t.memo.get("algebra")
    if alg is None:
        # threads racing on one T may each build it; all get the one stored
        alg = t.memo.setdefault("algebra", end_algebra(cat, t))
    return alg


@dataclass(frozen=True)
class MorClassification:
    in_S_tilde: bool
    in_S: bool
    H_mono: bool
    H_epi: bool
    witness_triangle: Optional[Triangle]


def classify(cat: Category, t: RigidObject, f: Mor,
             seed: int = 0) -> MorClassification:
    """Classify a map against the rigid object t.

    The module side reads H(f) = Hom(T, f) one summand t of T at a time:
    Hom(t, f) is the matrix ``post_rows(f, t)``, and H(f) is mono (epi)
    exactly when each such matrix has rank dim Hom(t, f.src) (dim
    Hom(t, f.tgt)), its column (row) count.  These mono and epi flags must
    agree with the factoring of the connecting maps h and g through
    Sigma T-perp, so the invertibility verdicts of the two sides agree too;
    a disagreement raises.
    """
    h_mono = h_epi = True
    for a in t.arcs:
        rows, ncols = cat.post_rows(f, Obj((a,)))
        r = rank_rows(rows)
        h_mono = h_mono and r == ncols
        h_epi = h_epi and r == len(rows)
    tri = complete_triangle(cat, f, seed=seed)
    g_fac = factors_through_subcat(cat, t, tri.g)
    h_back = cat.suspend_mor(tri.h, -1)      # Sigma^{-1}z -> x
    h_fac = factors_through_subcat(cat, t, h_back)
    if (h_mono, h_epi) != (h_fac, g_fac):
        raise InternalConsistencyError(
            "mono/epi flags disagree with connecting-map factoring on "
            f"{cat.obj_label(f.src)} -> {cat.obj_label(f.tgt)}: "
            f"H_mono={h_mono}, h_fac={h_fac}, H_epi={h_epi}, g_fac={g_fac}")
    sperp = perp_view(cat, t, "SigmaTperp")
    cosusp_cone = cat.suspend_obj(tri.z, -1)
    in_s = g_fac and all(s in sperp for s in cosusp_cone.summands)
    return MorClassification(h_mono and h_epi, in_s, h_mono, h_epi, tri)


# -- resolutions -----------------------------------------------------------


def s_resolution(cat: Category, t: RigidObject, y: Obj) -> tuple[Obj, Mor]:
    """(x', s) with x' in C(T) and s: x' -> y in S.

    Built from the two approximation triangles of y and of the cosuspended
    cone, completing the composite map between the approximating objects;
    s solves s . p = lambda u over the completion edge p, u: T0 -> y the
    approximation of y, for an integer lambda > 0.  A nonzero multiple of
    an S-map is in S, so the scale is free, and s is the primitive integer
    multiple of the solution whose free variables are zero, plus a generic
    integer member of the kernel: every entry is an ``int``.  Memoized per
    object.
    """
    memo = t.memo.setdefault("s_res", {})
    if y.summands in memo:
        return memo[y.summands]
    if y.is_zero():
        s = cat.zero_mor(cat.zero_obj, y)
        memo[y.summands] = (cat.zero_obj, s)
        return memo[y.summands]
    tri1 = approx_triangle(cat, t, y)
    u = tri1.f
    v = cat.scale_mor(-1, cat.suspend_mor(tri1.h, -1))   # Z -> T0
    z_obj = v.src
    w = right_addT_approx(cat, t, z_obj)
    vw = cat.compose(v, w)
    tri3 = complete_triangle(cat, vw)
    xprime = tri3.z
    p = tri3.g                                           # T0 -> x'
    s = _solve_resolution_map(cat, t, p, u, xprime, y)
    memo[y.summands] = (xprime, s)
    return memo[y.summands]


def _solve_resolution_map(cat, t, p, u, xprime, y) -> Mor:
    if not in_CT(cat, t, xprime):
        raise InternalConsistencyError(
            f"resolution cone of {cat.obj_label(y)} is not in C(T)")
    rows, ncols = cat.pre_rows(p, y)   # s -> s . p on Hom(x', y)
    sol = solve_right(rows, cat.vectorize(u), ncols)
    if sol is None:
        raise InternalConsistencyError(
            f"resolution edge equation unsolvable for {cat.obj_label(y)}")
    v, _, kb = sol
    g = gcd(*v)
    base = [a // g for a in v] if g else v
    for s in generic_maps(cat, xprime, y, kb, draw_stream(101), base):
        if classify(cat, t, s).in_S:
            return s
    raise InternalConsistencyError(
        f"no solution of the resolution equation for {cat.obj_label(y)} "
        "lands in S with source in C(T)")


def factor_through_s(cat: Category, t: RigidObject, u: Mor, s: Mor) -> Mor:
    """h with s.h = u, for u from a C(T)-object and s in S (exact)."""
    if u.tgt != s.tgt:
        raise ValueError("u and s must share their target")
    if not in_CT(cat, t, u.src):
        raise ValueError("source of u is not in C(T)")
    rows, ncols = cat.post_rows(s, u.src)   # h -> s . h
    sol = solve_right(rows, cat.vectorize(u), ncols)
    if sol is None:
        raise InternalConsistencyError(
            "map from a presented object does not factor through the S-map "
            f"{cat.obj_label(s.src)} -> {cat.obj_label(s.tgt)}")
    v, d, _ = sol
    return cat.mor_from_vec(u.src, s.src, [Fraction(a, d) for a in v])


# -- localized hom spaces ----------------------------------------------------


class LocHom(Value):
    """x_res, y_res are S-resolutions (x', x' -> x); reps are the coset
    representatives of the quotient basis."""

    __slots__ = ("x", "y", "x_res", "y_res", "reps", "dim")


def loc_hom(cat: Category, t: RigidObject, x: Obj, y: Obj,
            verify: bool = False) -> LocHom:
    """Localized hom space in normal form: Hom(x', y') modulo the kernel of
    the hom functor, over S-resolutions x' -> x, y' -> y.

    With verify=True the dimension must equal that of Hom(H(x), H(y)) on the
    module side, the other half of the equivalence mod End(T) = C[S^-1].
    """
    xp, sx = s_resolution(cat, t, x)
    yp, sy = s_resolution(cat, t, y)
    dim, reps = _quotient_reps(cat, t, xp, yp)
    if verify:
        alg = algebra_of(cat, t)
        dm = hom_dim_modules(H_obj(cat, alg, x), H_obj(cat, alg, y))
        if dm != dim:
            raise InternalConsistencyError(
                f"localized hom dimension {dim} differs from the module hom "
                f"dimension {dm} for ({cat.obj_label(x)}, {cat.obj_label(y)})")
    return LocHom(x, y, (xp, sx), (yp, sy), tuple(reps), dim)


def _quotient_reps(cat, t, xp: Obj, yp: Obj):
    """dim of Hom(x', y') modulo the kernel of Hom(T, -), and slot maps
    whose classes are a basis of the quotient."""
    reps = [cat.slot_mor(xp, yp, s)
            for s in functor_slots(cat, t.arcs, xp, yp)]
    return len(reps), reps


# -- zigzags -----------------------------------------------------------------


class Zigzag(Value):
    """Alternating formal composite; steps run left to right, an inverse step
    being traversed against its arrow."""

    __slots__ = ("steps",)   # tuple of (map, is_formal_inverse)

    def start(self) -> Obj:
        f, inv = self.steps[0]
        return f.tgt if inv else f.src

    def end(self) -> Obj:
        f, inv = self.steps[-1]
        return f.src if inv else f.tgt

    def validate(self):
        if not self.steps:
            raise ValueError("empty zigzag")
        cur = self.start()
        for f, inv in self.steps:
            expected = f.tgt if inv else f.src
            if expected != cur:
                raise ValueError("zigzag steps are not composable")
            cur = f.src if inv else f.tgt


def zigzag_eval(cat: Category, t: RigidObject, z: Zigzag) -> ModuleHom:
    """The induced module map: apply the hom functor stepwise, inverting the
    images of formal inverses (which must be classified invertible)."""
    z.validate()
    alg = algebra_of(cat, t)
    acc: Optional[ModuleHom] = None
    for f, inv in z.steps:
        hm = H_mor(cat, alg, f)
        if inv:
            if not classify(cat, t, f).in_S_tilde:
                raise ValueError(
                    "formal inverse of a map that is not inverted by the "
                    "hom functor")
            hm = hm.inverse()
        acc = hm if acc is None else hm.compose(acc)
    return acc


def zigzag_equal(cat: Category, t: RigidObject, z1: Zigzag, z2: Zigzag) -> bool:
    """Equality of localized maps, decided through the module side."""
    z1.validate()
    z2.validate()
    if z1.start() != z2.start() or z1.end() != z2.end():
        raise ValueError("zigzags do not share endpoints")
    e1 = zigzag_eval(cat, t, z1)
    e2 = zigzag_eval(cat, t, z2)
    return all(a.entries == b.entries for a, b in zip(e1.comps, e2.comps))


def forward(f: Mor) -> tuple[Mor, bool]:
    return (f, False)


def inv(f: Mor) -> tuple[Mor, bool]:
    return (f, True)
