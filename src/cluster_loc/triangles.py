"""Distinguished triangles: cone profiles, certified completions, meshes.

A triangle is stored in the rotation x -> y -> z -> Σx.  Completion of a
morphism f works in two steps: the isomorphism type of the cone is forced by
the long-exact-sequence profile

    dim Hom(W, z) = dim coker Hom(W, f) + dim ker Hom(W, Σf)

solved in nonnegative integer multiplicities m of D.m = profile, D the
hom-dimension matrix.  No elimination of D is needed: the almost split
triangles give the mesh identity Aᵀ.D = P_σ + P_σ², which ties the
multiplicities of neighbours on each σ-orbit, and is checked by every
build (``category._check_tables``).  The σ-orbits with their meshes are read
off the rank's translation quiver, which ``category`` computes once per rank
(``Category.sigma_orbits``).  D is singular at some ranks, so a profile can
allow more than one cone, each tried in turn; the candidate list of each
profile is memoised per category.  The connecting maps (g, h) are then a
seeded generic draw from the solution spaces of the zero-composite
constraints, gated by the full hom-exactness certificate.  Every exactness
condition is a maximal-rank condition on such a linear family, so one
generic member passes unless no member does.

The certificate checks, for every indecomposable W and every rotation of the
triangle over one full suspension period, exactness of Hom(W, -) and
Hom(-, W) at the middle term.  Because the suspension is an autoequivalence,
rank Hom(W, Σ^k u) = rank Hom(Σ^{-k} W, u), so the (W, rotation) grid folds
into six rank tables indexed by the indecomposables; the folded check covers
exactly the same equations without re-suspending the maps.

A table is built from the nonzero entries of f.  Every hom space between
arcs is at most 1-dimensional, so an entry f_ij from x to y reaches
Hom(W, f) only for the W that map to x with comp(W, x, y) != 0, and
Hom(f, W) only for the W that y maps to with comp(x, y, W) != 0, each time
as the product of f_ij and that constant.  Those W, with their constants,
are read from the category's two observer indexes keyed by arc pair
(``Category.observers_into`` / ``observers_from``), each entry filled on
its pair's first read, so a cold query pays only for the pairs it
touches.  An observer that collects no product has rank 0; one entry, two
entries and blocks of two rows or two columns have closed-form ranks, and
only blocks of at least three rows and three columns are eliminated.  When
all of f's nonzero entries lie in one row or one column, no products are
kept at all.  The hom dimensions the check compares against are memoised
vectors per object (``Category.hom_vec_into`` / ``hom_vec_from``).

One search per Σ-orbit.  A map f = c·b(x, y) between two arcs is not
searched: its pair is carried by Σ^k to the least pair (x0, y0) of its
Σ-orbit (``Category.suspension_index``), the basis map b0 of that pair is
searched once per seed, and f's triangle is the Σ^{-k}-image of b0's with
the sign the axioms give.  Nothing the certificate checks is lost: Σ is a
functor, which ``_check_tables`` proves on every constant, so Σ^{-k}
keeps every zero composite, and since the certificate is already folded
over the suspension period, the transported triangle's exactness
equations at an observer W are those of b0's triangle at Σ^k W; a nonzero
scalar changes no rank and no zero composite.  The completed triangles
memo (``cat._memo["triangles"]``) keeps only the representative's
triangle, so its entries for maps between arcs are bounded by the
Σ-orbits of hom pairs times the seeds; every other map is searched and
memoised per map and seed.  A result is a function of (f, seed) alone,
whichever maps were completed before.
"""

from __future__ import annotations

import itertools

from .category import Category, Mor, Obj
from .linalg import Mat, eliminate, integer_row, kernel_basis
from .values import Value, setfield

# Bounds of generic_maps.  Its coefficients are positive because a signed
# range also draws zeros: on the same inputs, draws from -3..3 needed up to
# 11 tries per search where 1..7 needed at most 5.
DRAW_RANGE = 100
DRAW_LIMIT = 12

_MASK64 = (1 << 64) - 1
# splitmix64 outputs below this bound are uniform modulo DRAW_RANGE
_DRAW_BOUND = (1 << 64) - (1 << 64) % DRAW_RANGE


class TriangleError(RuntimeError):
    """No certified completion found; internal-consistency failure."""


class CertReport(Value):
    # exactness failures: (arc label, node) of Hom(W, -) / of Hom(-, W)
    __slots__ = ("homdim_match", "left_exactness_failures",
                 "right_exactness_failures")

    def is_valid(self) -> bool:
        return (self.homdim_match and not self.left_exactness_failures
                and not self.right_exactness_failures)


class Triangle(Value):
    """x -f-> y -g-> z -h-> Sigma x with its CertReport."""

    __slots__ = ("x", "y", "z", "f", "g", "h", "cert")

    def __init__(self, x: Obj, y: Obj, z: Obj, f: Mor, g: Mor, h: Mor,
                 cert: CertReport):
        for name, v in zip(self.__slots__, (x, y, z, f, g, h, cert)):
            setfield(self, name, v)


# -- rank tables -------------------------------------------------------------


def post_rank_table(cat: Category, f: Mor) -> list[int]:
    """rank of Hom(w, f) for every indecomposable w.

    Entry (i, j) of f, from x = f.src[j] to y = f.tgt[i], reaches only the
    w of ``cat.observers_into[x, y]``, where it is the product
    f_ij·comp(w, x, y); row i of the block of w is f.tgt[i].
    """
    src, tgt, obs = f.src.summands, f.tgt.summands, cat.observers_into
    return _rank_table(cat.N, [(i, j, a, obs[src[j], tgt[i]])
                               for i, j, a in _nonzero_entries(f)])


def pre_rank_table(cat: Category, f: Mor) -> list[int]:
    """rank of Hom(f, w) for every indecomposable w.

    Entry (i, j) of f, from x = f.src[j] to y = f.tgt[i], reaches only the
    w of ``cat.observers_from[x, y]``, where it is the product
    f_ij·comp(x, y, w); row j of the block of w is f.src[j].
    """
    src, tgt, obs = f.src.summands, f.tgt.summands, cat.observers_from
    return _rank_table(cat.N, [(j, i, a, obs[src[j], tgt[i]])
                               for i, j, a in _nonzero_entries(f)])


def _nonzero_entries(f: Mor) -> list[tuple]:
    """The nonzero entries (i, j, f_ij) of f, each row scaled to integers
    (``integer_row``, which changes no rank)."""
    return [(i, j, a) for i, row in enumerate(f.m)
            for j, a in enumerate(integer_row(row)) if a]


def _rank_table(n: int, ents: list[tuple]) -> list[int]:
    """The rank of each of the n observers' blocks, from the entries (row,
    column, value, flat observer tuple of (w, constant)) of the map.  When
    the entries all lie in one row or one column, so does every block, and
    each block that is not empty has rank 1 with no product kept."""
    out = [0] * n
    if (len({r for r, _, _, _ in ents}) < 2
            or len({c for _, c, _, _ in ents}) < 2):
        for *_, obs in ents:
            for w in obs[::2]:
                out[w] = 1
        return out
    blocks: dict[int, list] = {}
    for r, c, a, obs in ents:
        it = iter(obs)
        for w, k in zip(it, it):
            blocks.setdefault(w, []).append((r, c, a * k))
    for w, block in blocks.items():
        out[w] = _block_rank(block)
    return out


def _block_rank(ents: list[tuple]) -> int:
    """The rank of a block from its nonzero entries (row, column, value),
    each at a position of its own.  One entry has rank 1, and two have
    rank 2 exactly when they share neither row nor column.  A block of two
    rows (or two columns) has rank 2 exactly when they are not
    proportional; only blocks of at least three rows and three columns are
    eliminated."""
    if len(ents) == 1:
        return 1
    if len(ents) == 2:
        (r, c, _), (s, d, _) = ents
        return 2 if r != s and c != d else 1
    rows: dict[int, dict] = {}
    cols: dict[int, dict] = {}
    for r, c, v in ents:
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, {})[r] = v
    lines = rows if len(rows) < len(cols) else cols
    if len(lines) == 1:
        return 1
    if len(lines) == 2:
        a, b = lines.values()
        k = next(iter(a))
        return 1 if a.keys() == b.keys() and all(
            a[c] * b[k] == b[c] * a[k] for c in a) else 2
    return len(eliminate([[row.get(c, 0) for c in cols]
                          for row in rows.values()])[0])


def cone_profile(cat: Category, f: Mor) -> list[int]:
    """dim Hom(W, cone f) for each indecomposable W, from the long exact
    sequence: coker of Hom(W, f) plus kernel of Hom(W, Σf).

    rank Hom(W, Σf) equals rank Hom(Σ^{-1}W, f), so one rank table serves
    both terms.
    """
    return _profile_from_ranks(cat, f, post_rank_table(cat, f))


def _profile_from_ranks(cat: Category, f: Mor, rf: list[int]) -> list[int]:
    """The cone profile of f from its rank table rf = post_rank_table(f):
    coker Hom(w, f) plus ker Hom(Σ^{-1}w, f)."""
    into_src, into_tgt = cat.hom_vec_into(f.src), cat.hom_vec_into(f.tgt)
    return [into_tgt[w] - rf[w] + into_src[wm] - rf[wm]
            for w, wm in enumerate(cat.sigma_arc_inv)]


def profile_candidates(cat: Category, profile: list[int]) -> list[Obj]:
    """All nonnegative-integer multiplicity solutions m of D.m = profile,
    D the hom-dimension matrix, in the order of (sum(m), m).

    By the mesh identity Aᵀ.D = P_σ + P_σ², which every build checks, a
    solution has m_u + m_σu = (Aᵀ.profile)_σ⁻¹u, so round each σ-orbit
    (``cat.sigma_orbits``) m is offset + t and offset - t in turn.  An odd
    orbit pins t; an even one needs a zero alternating sum and leaves t
    free where m >= 0.  A choice
    of the t is kept only if its hom vector is the profile, so the list is
    complete and sound.  The caller certifies each.

    The list depends on the profile alone, so it is memoised per category
    under ``tuple(profile)``; the fill is write-once and idempotent, like
    the observer indexes, and callers must not mutate the list.
    """
    memo = cat._memo.setdefault("candidates", {})
    key = tuple(profile)
    got = memo.get(key)
    if got is None:
        got = memo[key] = _solve_profile(cat, list(key))
    return got


def _solve_profile(cat: Category, profile: list[int]) -> list[Obj]:
    orbits = cat.sigma_orbits
    offsets, choices = [], []
    for orbit in orbits:
        s, offs = 0, []
        for u, w, mids in orbit:
            offs.append(s)
            s = profile[w] + profile[u] - s
            for m in mids:
                s -= profile[m]
        # going round the orbit must give t back: s - t = t or s + t = t
        lo, hi = -min(offs[::2]), min(offs[1::2])
        if len(orbit) % 2:
            if s % 2:
                raise TriangleError("profile admits no integer solution")
            lo, hi = max(lo, s // 2), min(hi, s // 2)
        elif s:
            raise TriangleError("profile is not in the image of the "
                                "hom-dimension matrix")
        offsets.append(offs)
        choices.append(range(lo, hi + 1))
    found = []
    for ts in itertools.product(*choices):
        mults = [0] * cat.N
        for orbit, offs, t in zip(orbits, offsets, ts):
            for k, (u, _, _) in enumerate(orbit):
                mults[u] = offs[k] - t if k % 2 else offs[k] + t
        z = _mults_to_obj(mults)
        if cat.hom_vec_into(z) == profile:
            found.append((sum(mults), mults, z))
    if not found:
        raise TriangleError("profile admits no nonnegative integer solution")
    return [z for _, _, z in sorted(found, key=lambda c: c[:2])]


def _mults_to_obj(mults) -> Obj:
    summands = []
    for i, k in enumerate(mults):
        if k:
            summands.extend([i] * k)
    return Obj(tuple(summands))


# -- certificate --------------------------------------------------------------


def _exactness_failures(cat: Category, Y, Z, sX, rf, rg, rh,
                        pf, pg, ph):
    """Folded exactness check over one full rotation period.

    Node types per observer arc w: the middle objects Y, Z and ΣX of the
    rotated sequence; the Σ^k-rotated instance at observer W equals the
    unrotated instance at observer Σ^{-k}W.
    """
    into_y, into_z, into_sx = map(cat.hom_vec_into, (Y, Z, sX))
    from_y, from_z, from_sx = map(cat.hom_vec_from, (Y, Z, sX))
    left = []
    right = []
    for w, wm in enumerate(cat.sigma_arc_inv):
        lab = cat.labels[w]
        if rf[w] + rg[w] != into_y[w]:
            left.append((lab, "Y"))
        if rg[w] + rh[w] != into_z[w]:
            left.append((lab, "Z"))
        if rh[w] + rf[wm] != into_sx[w]:
            left.append((lab, "SX"))
        if pg[w] + pf[w] != from_y[w]:
            right.append((lab, "Y"))
        if ph[w] + pg[w] != from_z[w]:
            right.append((lab, "Z"))
        if pf[wm] + ph[w] != from_sx[w]:
            right.append((lab, "SX"))
    return tuple(left), tuple(right)


def _composes_to_zero(cat: Category, g: Mor, f: Mor) -> bool:
    """Whether g.f = 0, read entry by entry up to the first nonzero one;
    ValueError, as from ``Category.compose``, if the objects do not
    match."""
    if f.tgt != g.src:
        raise ValueError("objects do not match in composition")
    comp, X, Y = cat.comp, f.src.summands, f.tgt.summands
    for zi, grow in zip(g.tgt.summands, g.m):
        for k, xk in enumerate(X):
            s = 0
            for yj, gij, frow in zip(Y, grow, f.m):
                if gij and frow[k]:
                    s += gij * frow[k] * comp.get((xk, yj, zi), 0)
            if s:
                return False
    return True


def certify_triangle_parts(cat: Category, X: Obj, Y: Obj, Z: Obj,
                           f: Mor, g: Mor, h: Mor,
                           profile: list[int] | None = None,
                           tables=None, sf: Mor | None = None) -> CertReport:
    """Hom-exactness certificate (both variances, full rotation period, all
    indecomposable observers) plus zero composites and the cone profile.
    A caller that holds Σf passes it as ``sf``; ΣX is its source."""
    if sf is None:
        sf = cat.suspend_mor(f)
    left_extra = []
    if not _composes_to_zero(cat, g, f):
        left_extra.append(("composite", "g.f"))
    if not _composes_to_zero(cat, h, g):
        left_extra.append(("composite", "h.g"))
    if not _composes_to_zero(cat, sf, h):
        left_extra.append(("composite", "Sf.h"))
    if profile is None:
        profile = cone_profile(cat, f)
    homdim = cat.hom_vec_into(Z) == profile
    if tables is None:
        tables = (post_rank_table(cat, f), post_rank_table(cat, g),
                  post_rank_table(cat, h), pre_rank_table(cat, f),
                  pre_rank_table(cat, g), pre_rank_table(cat, h))
    rf, rg, rh, pf, pg, ph = tables
    left, right = _exactness_failures(cat, Y, Z, sf.src, rf, rg, rh,
                                      pf, pg, ph)
    return CertReport(homdim, tuple(left_extra) + left, right)


def certify_triangle(cat: Category, tri: Triangle) -> CertReport:
    return certify_triangle_parts(cat, tri.x, tri.y, tri.z,
                                  tri.f, tri.g, tri.h)


# -- completion ---------------------------------------------------------------


def draw_stream(key: int):
    """Coefficients drawn uniformly from 1..DRAW_RANGE by splitmix64 from
    the integer key.  The stream is a function of the key alone, so a key
    built from ints, tuples and ``Fraction``s, whose hashes Python does not
    salt, draws alike in every process."""
    state = key & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        if z < _DRAW_BOUND:
            yield 1 + z % DRAW_RANGE


def generic_maps(cat: Category, X: Obj, Y: Obj, kb: Mat, draws,
                 base=None):
    """Generic members base + kb.c of an affine family of maps X -> Y.

    The columns of kb are integer (``kernel_basis``), so an integer base
    gives integer maps.  The coefficients of c are taken from ``draws``
    (``draw_stream``), uniform in 1..DRAW_RANGE, for at most DRAW_LIMIT
    members; base defaults to zero, and an empty basis gives base alone.
    The callers' gates are maximal-rank conditions on the family, so by
    the Schwartz–Zippel lemma a draw fails them with probability at most
    (their degree)/DRAW_RANGE unless every member fails.
    """
    base = [0] * kb.rows if base is None else base
    if kb.cols == 0:
        yield cat.mor_from_vec(X, Y, base)
        return
    rows = [kb.row(i) for i in range(kb.rows)]
    for _ in range(DRAW_LIMIT):
        c = list(itertools.islice(draws, kb.cols))
        yield cat.mor_from_vec(X, Y, [b + sum(ci * x for ci, x in
                                              zip(c, row) if x)
                                      for b, row in zip(base, rows)])


def complete_triangle(cat: Category, f: Mor, seed: int = 0) -> Triangle:
    """Certified completion of f to a triangle f.src -> f.tgt -> z -> Σf.src.

    A map f = c·b(x, y) between two arcs (c != 0) is completed from the
    triangle (b0, g0, h0) of the basis map b0 of its Σ-orbit
    representative (x0, y0) = Σ^k(x, y) (``Category.suspension_index``):
    with Σ^k b(x, y) = s·b0, the result is (f, Σ^{-k}g0, e·Σ^{-k}h0) with
    e = sign(c)·s·(-1)^k.  Σ^{-k} of a distinguished triangle is
    distinguished once its third map is multiplied by (-1)^k, and a
    triangle stays distinguished when its first and third maps are both
    multiplied by -1, so for c = +-1 the result is exactly the image of
    b0's triangle; for other c the first map is a further nonzero multiple,
    which changes no rank and no zero composite the certificate checks.
    Only the representative's triangle is memoised, once per seed, so these
    entries are bounded by the Σ-orbits of hom pairs.  Every other map
    (more than one summand at either end, or zero) is searched and
    memoised per map and seed.

    A search's connecting maps are a generic draw from their solution
    spaces, gated by the certificate; when the hom-dimension matrix is
    singular, the profile determines a finite candidate list of cones and
    each is certified in order.  The result is a function of (f, seed)
    alone, whatever was memoised before.  The memo fills are write-once
    and idempotent, so threads that race on one store equal triangles.
    """
    memo = cat._memo.setdefault("triangles", {})
    if len(f.src) == len(f.tgt) == 1 and f.m[0][0]:
        # keyed by the basis map of the least pair of f's Σ-orbit
        (x,), (y,) = f.src.summands, f.tgt.summands
        k, signs = cat.suspension_index[x, y]
        key = (cat.shift_arc(x, k),), (cat.shift_arc(y, k),), ((1,),)
    else:
        key = f.key()
    tri = memo.get((key, seed))
    if tri is None:
        rep = Mor(Obj(key[0]), Obj(key[1]), key[2])
        tri = memo[key, seed] = _search_triangle(cat, rep, seed)
    if f == tri.f:
        return tri
    g, h = cat.suspend_mor(tri.g, -k), cat.suspend_mor(tri.h, -k)
    if (f.m[0][0] < 0) ^ (signs[k] < 0) ^ (k % 2 == 1):
        h = Mor(h.src, h.tgt, tuple(tuple([-v for v in row]) for row in h.m))
    return Triangle(f.src, f.tgt, g.tgt, f, g, h, tri.cert)


def _search_triangle(cat: Category, f: Mor, seed: int) -> Triangle:
    """The certified search for f's triangle at the seed, with no memo: the
    candidate cones of f's profile, each searched in order."""
    rf = post_rank_table(cat, f)
    profile = _profile_from_ranks(cat, f, rf)
    candidates = profile_candidates(cat, profile)
    pf = pre_rank_table(cat, f)
    for Z in candidates:
        tri = _search_completion(cat, f, Z, profile, rf, pf, seed)
        if tri is not None:
            return tri
    raise TriangleError(
        f"no certified completion found for {cat.obj_label(f.src)} -> "
        f"{cat.obj_label(f.tgt)} (candidate cones: "
        f"{[cat.obj_label(z) for z in candidates]})")


def _search_completion(cat: Category, f: Mor, Z: Obj, profile, rf, pf,
                       seed: int):
    sf = cat.suspend_mor(f)
    X, Y, sX = f.src, f.tgt, sf.src
    # keyed by a hash of ints and tuples, which no Python salts; an
    # integral Fraction entry hashes as the int it equals
    draws = draw_stream(hash((seed, X.summands, Y.summands, Z.summands,
                              f.m)))
    # g candidates: g . f = 0
    kb_g = kernel_basis(*cat.pre_rows(f, Z))
    sf_rows = cat.post_rows(sf, Z)[0]

    for g in generic_maps(cat, Y, Z, kb_g, draws):
        rg, pg = post_rank_table(cat, g), pre_rank_table(cat, g)
        # h candidates: h . g = 0 and Σf . h = 0
        g_rows, ncols = cat.pre_rows(g, sX)
        kb_h = kernel_basis(g_rows + sf_rows, ncols)
        for h in generic_maps(cat, Z, sX, kb_h, draws):
            rh, ph = post_rank_table(cat, h), pre_rank_table(cat, h)
            cert = certify_triangle_parts(cat, X, Y, Z, f, g, h,
                                          profile=profile,
                                          tables=(rf, rg, rh, pf, pg, ph),
                                          sf=sf)
            if cert.is_valid():
                return Triangle(X, Y, Z, f, g, h, cert)
    return None


# -- meshes as almost split triangles ------------------------------------


def mesh_map_into(cat: Category, x: int) -> Mor:
    """The right minimal almost split map E -> x (mesh middles bundled)."""
    mids = cat.arrows_in[x]
    return cat.mor(Obj(mids), Obj((x,)), [[1] * len(mids)])


def mesh_map_out_of(cat: Category, x: int) -> Mor:
    """The left minimal almost split map x -> E' (mesh at the cosuspension)."""
    mids = cat.arrows_in[cat.shift_arc(x, -1)]
    return cat.mor(Obj((x,)), Obj(mids), [[1] for _ in mids])
