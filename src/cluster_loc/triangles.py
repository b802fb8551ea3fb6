"""Distinguished triangles: cone profiles, certified completions, meshes.

A triangle x -f-> y -g-> z -h-> Σx is its three maps, z being g's target,
and ``certify_triangle`` certifies it from them.  Completion of a morphism
f works in two steps: the isomorphism type of the cone is forced by the
long-exact-sequence profile

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

The certificate checks the three zero composites and, for every
indecomposable W and every rotation of the triangle over one full
suspension period, exactness of Hom(W, -) at the middle term.  Because the
suspension is an autoequivalence, rank Hom(W, Σ^k u) = rank Hom(Σ^{-k} W, u),
so the (W, rotation) grid folds into three rank tables indexed by the
indecomposables, with no map re-suspended.  The Hom(-, W) equations are
the Hom(Σ⁻²W, -) ones, by the 2-Calabi–Yau duality that every build checks
(``category._check_tables`` has the proof), so ``pre_rank_table`` is
``post_rank_table`` read at Σ⁻²w and the certificate checks Hom(W, -) only.

What is certified.  The certificate reads ranks and zero composites only,
so it cannot see a nonzero scalar on g or h, and the generic draw fixes
them only up to such scalars: a returned triangle is hom-exact, with the
forced cone, but it is not in general distinguished.  The callers need no
more: ``classify`` reads only ranks and factoring, and ``s_resolution``
re-checks its result (``in_CT``, ``classify(s).in_S``).

A table is built from the nonzero entries of f.  Every hom space between
arcs is at most 1-dimensional, so an entry f_ij from x to y reaches
Hom(W, f) only for the W that map to x with comp(W, x, y) != 0, each time
as the product of f_ij and that constant.  Those W, with their constants,
are read from the category's observer index keyed by arc pair
(``Category.observers_into``), each entry filled on its pair's first
read, so a cold query pays only for the pairs it touches.  An observer
that collects no product has rank 0; one entry, two entries and blocks of
two rows or two columns have closed-form ranks, and only blocks of at
least three rows and three columns are eliminated.  When all of f's
nonzero entries lie in one row or one column, no products are kept at
all.  The hom dimensions the check compares against are memoised vectors
per object (``Category.hom_vec_into``).

One search per connected block.  A map that is not a nonzero map between
two arcs is split into the connected blocks of its nonzero entries, and
its triangle is the direct sum of its blocks' triangles, assembled on
each call; an untouched summand needs no search.  So only connected maps
are searched and stored.  The completed triangles memo
(``cat._memo["triangles"]``) holds one entry per stored map and seed; a
map c·b(x, y) between two arcs is stored under the basis map b(x, y), so
those entries are bounded by the hom pairs times the seeds.  Only the
least pair of each Σ-orbit is searched.  Any other pair's entry is
filled once from the entry of Σ^k b(x, y), the least pair's basis map up
to sign (k from ``Category.suspension_index``), by Σ^{-k}, which
``Category.suspend_mor`` applies with Σ's signs.  Nothing the certificate
checks is lost: Σ is a functor, which ``_check_tables`` proves on every
constant, so Σ^{-k} keeps every zero composite, and as the certificate is
folded over the suspension period, the filled triangle's exactness
equations at an observer W are the representative's at Σ^k W.  Every
other connected map is searched per map and seed.  A result is a
function of (f, seed) alone, whichever maps were completed before.
"""

from __future__ import annotations

import itertools

from .category import Category, Mor, Obj, _perm_to_sorted
from .linalg import Mat, eliminate, integer_row, kernel_basis
from .values import Value

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
    # exactness failures: ("composite", name), then (arc label, node)
    __slots__ = ("homdim_match", "exactness_failures")

    def is_valid(self) -> bool:
        return self.homdim_match and not self.exactness_failures


class Triangle(Value):
    """f.src -f-> f.tgt -g-> z -h-> Σ f.src, held as its three maps."""

    __slots__ = ("f", "g", "h")

    @property
    def z(self) -> Obj:
        return self.g.tgt


# -- rank tables -------------------------------------------------------------


def post_rank_table(cat: Category, f: Mor) -> list[int]:
    """rank of Hom(w, f) for every indecomposable w.

    Entry (i, j) of f, from x = f.src[j] to y = f.tgt[i], reaches only the
    w of ``cat.observers_into[x, y]``, where it is the product
    f_ij·comp(w, x, y); row i of the block of w is f.tgt[i].  Each row of
    f is scaled to integers (``integer_row``, which changes no rank).  When
    the entries all lie in one row or one column, so does every block, and
    a block that is not empty has rank 1 with no product kept.
    """
    src, tgt, obs = f.src.summands, f.tgt.summands, cat.observers_into
    ents = [(i, j, a, obs[src[j], tgt[i]]) for i, row in enumerate(f.m)
            for j, a in enumerate(integer_row(row)) if a]
    out = [0] * cat.N
    if (len({i for i, _, _, _ in ents}) < 2
            or len({j for _, j, _, _ in ents}) < 2):
        for *_, ws in ents:
            for w in ws[::2]:
                out[w] = 1
        return out
    blocks: dict[int, list] = {}
    for i, j, a, ws in ents:
        it = iter(ws)
        for w, k in zip(it, it):
            blocks.setdefault(w, []).append((i, j, a * k))
    for w, block in blocks.items():
        out[w] = _block_rank(block)
    return out


def pre_rank_table(cat: Category, f: Mor) -> list[int]:
    """rank of Hom(f, w) for every indecomposable w: rank Hom(Σ⁻²w, f), read
    off ``post_rank_table`` by the 2-Calabi–Yau duality that every build
    checks (``category._check_tables``, where the proof is)."""
    rf = post_rank_table(cat, f)
    return [rf[v] for v in cat.sigma_powers[-2]]


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


def cone_profile(cat: Category, f: Mor, rf: list[int] | None = None
                 ) -> list[int]:
    """dim Hom(W, cone f) for each indecomposable W, from the long exact
    sequence: coker of Hom(W, f) plus kernel of Hom(W, Σf).

    rank Hom(W, Σf) equals rank Hom(Σ^{-1}W, f), so one rank table serves
    both terms: rf = ``post_rank_table(cat, f)``, built here unless the
    caller already holds it.
    """
    if rf is None:
        rf = post_rank_table(cat, f)
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


def _exactness_failures(cat: Category, Y, Z, sX, rf, rg, rh) -> tuple:
    """Folded exactness check of Hom(W, -) over one full rotation period.

    Node types per observer arc w: the middle objects Y, Z and ΣX of the
    rotated sequence; the Σ^k-rotated instance at observer W equals the
    unrotated instance at observer Σ^{-k}W.
    """
    into_y, into_z, into_sx = map(cat.hom_vec_into, (Y, Z, sX))
    failures = []
    for w, wm in enumerate(cat.sigma_arc_inv):
        lab = cat.labels[w]
        if rf[w] + rg[w] != into_y[w]:
            failures.append((lab, "Y"))
        if rg[w] + rh[w] != into_z[w]:
            failures.append((lab, "Z"))
        if rh[w] + rf[wm] != into_sx[w]:
            failures.append((lab, "SX"))
    return tuple(failures)


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


def certify_triangle_parts(cat: Category, f: Mor, g: Mor, h: Mor,
                           profile: list[int], tables: tuple,
                           sf: Mor) -> CertReport:
    """Hom-exactness certificate (Hom(W, -), full rotation period, all
    indecomposable observers) plus zero composites and the cone profile,
    from f's cone profile, the rank tables (rf, rg, rh) of
    ``post_rank_table`` on f, g and h, and Σf."""
    composites = []
    if not _composes_to_zero(cat, g, f):
        composites.append(("composite", "g.f"))
    if not _composes_to_zero(cat, h, g):
        composites.append(("composite", "h.g"))
    if not _composes_to_zero(cat, sf, h):
        composites.append(("composite", "Sf.h"))
    homdim = cat.hom_vec_into(g.tgt) == profile
    return CertReport(homdim, tuple(composites) + _exactness_failures(
        cat, f.tgt, g.tgt, sf.src, *tables))


def certify_triangle(cat: Category, tri: Triangle) -> CertReport:
    """The certificate of tri, computed from its three maps."""
    f, g, h = tri.f, tri.g, tri.h
    rf = post_rank_table(cat, f)
    tables = (rf, post_rank_table(cat, g), post_rank_table(cat, h))
    return certify_triangle_parts(cat, f, g, h, cone_profile(cat, f, rf),
                                  tables, cat.suspend_mor(f))


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
    """Certified completion of f to a triangle f.src -> f.tgt -> z -> Σf.src:
    hom-exact with the forced cone, not in general distinguished (see the
    module docstring).

    Each map is completed once per seed and stored; a map f = c·b(x, y)
    between two arcs (c != 0) is stored under the basis map b(x, y), and
    for c != 1 that triangle is returned with f first and its third map
    times sign(c): neither a sign on the first and third maps together
    nor a positive scalar changes a rank or a zero composite, so the
    certificate still holds.  The basis map of a pair that is not the least
    of its Σ-orbit is filled by ``_transport``.  Any other map is split
    into the connected blocks of its nonzero entries (``_blocks``): a
    connected map is searched and stored, and a split one is the direct
    sum of its blocks' triangles (``_direct_sum``), stored only through
    its searched blocks.

    A search's connecting maps are a generic draw from their solution
    spaces, gated by the certificate; when the hom-dimension matrix is
    singular, the profile determines a finite candidate list of cones and
    each is certified in order.  The result is a function of (f, seed)
    alone, whatever was stored before.  The memo fills are write-once and
    idempotent, so threads that race on one store equal triangles.
    """
    memo = cat._memo.setdefault("triangles", {})
    arcs = len(f.src) == len(f.tgt) == 1 and f.m[0][0] != 0
    key = (f.src.summands, f.tgt.summands, ((1,),)) if arcs else f.key()
    tri = memo.get((key, seed))
    if tri is None:
        if arcs:
            b = Mor(f.src, f.tgt, ((1,),))
            k = cat.suspension_index[key[0][0], key[1][0]][0]
            tri = _transport(cat, b, k, seed) if k else _search_triangle(
                cat, b, seed)
        else:
            blocks = _blocks(f)
            if len(blocks) != 1 or not all(blocks[0]):
                return _direct_sum(cat, f, blocks, seed)
            tri = _search_triangle(cat, f, seed)
        memo[key, seed] = tri
    if tri.f == f:
        return tri
    h = tri.h if f.m[0][0] > 0 else cat.scale_mor(-1, tri.h)
    return Triangle(f, tri.g, h)


def _blocks(f: Mor) -> list[tuple[list[int], list[int]]]:
    """The connected blocks of f's nonzero entries, as sorted (target
    positions, source positions): two positions share a block when a chain
    of nonzero entries joins them.  An untouched summand is a block of its
    own, with no position at the other end."""
    blocks = []
    for j in range(len(f.src)):
        rows, cols = {i for i, row in enumerate(f.m) if row[j]}, {j}
        for block in [b for b in blocks if b[0] & rows]:
            blocks.remove(block)
            rows, cols = rows | block[0], cols | block[1]
        blocks.append((rows, cols))
    touched = set().union(*(rows for rows, _ in blocks))
    blocks += [({i}, set()) for i in range(len(f.tgt)) if i not in touched]
    return [(sorted(rows), sorted(cols)) for rows, cols in blocks]


def _direct_sum(cat: Category, f: Mor, blocks: list, seed: int) -> Triangle:
    """f's triangle as the direct sum of its blocks' triangles, at f's own
    summand positions, with the cone's summands sorted stably.

    A block with entries at both ends is completed by ``complete_triangle``.
    An untouched target summand y adds 0 -> y -1-> y -> 0, and an untouched
    source summand x adds x -> 0 -> Σx -1-> Σx: the rotation of
    x -1-> x -> 0 -> Σx, up to -1 on its cone summand, an isomorphism of
    triangles.  ``suspend_mor`` moves each entry with its own pair's sign,
    so Σf at a block's positions is the block's Σ, and ΣX holds f's source
    positions in ``suspend_mor``'s stable order, re-sorted at the
    wrap-around.

    The sum is hom-exact when its blocks are, as its certificate is the
    sum of theirs, so it is not certified again; it is distinguished only
    as far as they are (Neeman, Triangulated Categories, 2001, ch. 1).  Up
    to a permutation of the summands f, g, h and Σf are block-diagonal, so
    each rank of Hom(W, -) is the sum of the blocks' ranks; the hom
    dimensions of Y, Z and ΣX and f's cone profile add over the blocks; so
    each exactness equation rank + rank = dim is the sum of the blocks'
    equations, and each composite g.f, h.g and Σf.h has the blocks'
    composites as its blocks, zero when theirs are.  The sum adds no memo
    entry; only its searched blocks are stored.
    """
    X, Y, m = f.src.summands, f.tgt.summands, f.m
    sx = [cat.sigma_arc[x] for x in X]
    at = _perm_to_sorted(sx)        # the ΣX position of each source position
    parts = []                      # (cone summand, g entries, h entries)
    for rows, cols in blocks:
        if rows and cols:
            tri = complete_triangle(cat, Mor(
                Obj(tuple(X[j] for j in cols)), Obj(tuple(Y[i] for i in rows)),
                tuple(tuple(m[i][j] for j in cols) for i in rows)), seed)
            # a stable sort keeps its order on any subset of the positions
            sxb = sorted(at[j] for j in cols)
            parts += [(z, zip(rows, grow), zip(sxb, hcol)) for z, grow, hcol
                      in zip(tri.g.tgt.summands, tri.g.m, zip(*tri.h.m))]
        elif rows:
            parts.append((Y[rows[0]], [(rows[0], 1)], ()))
        else:
            parts.append((sx[cols[0]], (), [(at[cols[0]], 1)]))
    parts.sort(key=lambda part: part[0])
    g, h = [], [[0] * len(parts) for _ in X]
    for k, (_, gs, hs) in enumerate(parts):
        g.append([0] * len(Y))
        for i, v in gs:
            g[k][i] = v
        for p, v in hs:
            h[p][k] = v
    Z = Obj(tuple(z for z, _, _ in parts))
    return Triangle(f, Mor(f.tgt, Z, tuple(map(tuple, g))),
                    Mor(Z, Obj(tuple(sorted(sx))), tuple(map(tuple, h))))


def _transport(cat: Category, b: Mor, k: int, seed: int) -> Triangle:
    """b's triangle (b, Σ^{-k}g, (-1)^k·Σ^{-k}h) from the entry
    (Σ^k b, g, h) of the least pair of b's Σ-orbit: Σ^{-k} of a
    distinguished triangle is one once its third map is multiplied by
    (-1)^k, the one place that sign is applied."""
    tri = complete_triangle(cat, cat.suspend_mor(b, k), seed)
    g, h = cat.suspend_mor(tri.g, -k), cat.suspend_mor(tri.h, -k)
    if k % 2:
        h = cat.scale_mor(-1, h)
    return Triangle(b, g, h)


def _search_triangle(cat: Category, f: Mor, seed: int) -> Triangle:
    """The certified search for f's triangle at the seed, with no memo: the
    candidate cones of f's profile, each searched in order."""
    rf = post_rank_table(cat, f)
    profile = cone_profile(cat, f, rf)
    candidates = profile_candidates(cat, profile)
    for Z in candidates:
        tri = _search_completion(cat, f, Z, profile, rf, seed)
        if tri is not None:
            return tri
    raise TriangleError(
        f"no certified completion found for {cat.obj_label(f.src)} -> "
        f"{cat.obj_label(f.tgt)} (candidate cones: "
        f"{[cat.obj_label(z) for z in candidates]})")


def _search_completion(cat: Category, f: Mor, Z: Obj, profile, rf,
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
        rg = post_rank_table(cat, g)
        # h candidates: h . g = 0 and Σf . h = 0
        g_rows, ncols = cat.pre_rows(g, sX)
        kb_h = kernel_basis(g_rows + sf_rows, ncols)
        for h in generic_maps(cat, Z, sX, kb_h, draws):
            if certify_triangle_parts(cat, f, g, h, profile,
                                      (rf, rg, post_rank_table(cat, h)),
                                      sf).is_valid():
                return Triangle(f, g, h)
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
