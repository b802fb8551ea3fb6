"""The endomorphism algebra of a rigid object and its module category.

Conventions, fixed once: the algebra of a basic rigid object
T = t_1 + ... + t_r has one idempotent per summand and one basis element per
nonzero hom space Hom(t_i, t_j); modules are the right modules over End(T)
stored as left modules over the opposite algebra, i.e. the basis element a
in Hom(t_i, t_j) acts on a module M as a linear map M_j -> M_i
(precomposition).  With this bookkeeping
H(x) = Hom(T, x) carries spaces Hom(t_i, x) and H(t_i) is the i-th
indecomposable projective, which is the Yoneda check pinning the convention.

Density (`lift_module_to_CT`) reads a minimal projective presentation
H(T1) -> H(T0) -> M -> 0 off vectors, by Yoneda: H(t_i) is the projective
P_i, and a map P_i -> N is a vector of N_i.  T0 and T1 are lists of summands
of T, the map T1 -> T0 is a list of kernel vectors, and no module is built
and no preimage solved for; the cone of that map is the lift.

Decompositions are read off one exact invariant, the trace-pairing rank
r(A, B): the rank of (f, g) -> tr(g f) over bases of Hom(A, B) and
Hom(B, A).  In characteristic 0 it is sum_X mu_X(A) mu_X(B) over the
indecomposables X, provided End(X)/rad = Q for each X; this holds over the
string algebras here, and the enumeration certifies it per class as
r(X, X) = 1.  It has three uses, none of which searches or splits a module
explicitly: M is indecomposable iff r(M, M) = 1; M1 and M2 are isomorphic
iff their dimension vectors agree and r(M1, M2) = r(M1, M1) = r(M2, M2)
(by Cauchy-Schwarz, equal multiplicity vectors); and the multiplicity of a
listed class X in M is r(X, M) (`split_module`).

The indecomposables are listed as string modules.  The enumeration first
certifies that End(T) is a string algebra: at most two arrows start and end
at each vertex, each arrow has at most one nonzero composite on each side,
the relations are monomial, and no string repeats a letter in one direction,
which rules out bands.  Over such an algebra the string modules, one per
string up to inversion, are the complete list of indecomposables and
pairwise non-isomorphic (Butler-Ringel, Comm. Algebra 15, 1987).  The
certificate reads only the arrows, `mult` and `composites`, never the
category, so the module side stays an independent decision.
"""

from __future__ import annotations

from typing import Sequence

from .category import Category, InternalConsistencyError, Mor, Obj
from .linalg import Mat, inverse, kernel_basis, rank, rank_rows
from .rigid import RigidObject, in_CT
from .triangles import complete_triangle
from .values import Value

class Algebra(Value):
    """End(T)^op for a basic rigid object, by basis and structure constants.
    ``algebra_of`` hands out one object per rigid object, so two algebras
    are equal only if they are the same object."""

    __slots__ = ("summands", "vertex_labels", "radical_pairs", "mult", "dim",
                 "images")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, summands: tuple[int, ...],   # order fixes vertices
                 vertex_labels: tuple[str, ...],
                 radical_pairs: tuple[tuple[int, int], ...],  # Hom != 0
                 mult: dict,                      # (i,j,k) -> scalar
                 dim: int):
        # images: arc -> H(arc), written once by H_obj
        super().__init__(summands, vertex_labels, radical_pairs, mult, dim, {})

    def __repr__(self) -> str:   # without the images
        return (f"Algebra(summands={self.summands!r}, vertex_labels="
                f"{self.vertex_labels!r}, radical_pairs={self.radical_pairs!r}"
                f", mult={self.mult!r}, dim={self.dim!r})")

    @property
    def r(self) -> int:
        return len(self.summands)

    def arrow_pairs(self) -> list[tuple[int, int]]:
        """The radical pairs outside the square of the radical: those that no
        nonzero mult(i, j, k) lands on."""
        rad2 = {(i, k) for (i, _, k), c in self.mult.items() if c}
        return [p for p in self.radical_pairs if p not in rad2]

    def composites(self) -> list[tuple[int, int, int, int]]:
        """(i, j, k, c) with b_(i,k) = c b_(i,j) b_(j,k), c = mult(i, j, k),
        once for every pair (i, k) in the square of the radical, after both
        factors unless they are arrows.  Factors lie in lower powers of the
        radical, so one pass per pair suffices; a pair left over would act by
        zero unnoticed, so it raises."""
        done = set(self.arrow_pairs())
        out = []
        for _ in self.radical_pairs:
            for (i, j, k), c in self.mult.items():
                if (c and (i, k) not in done
                        and (i, j) in done and (j, k) in done):
                    done.add((i, k))
                    out.append((i, j, k, c))
        if len(done) != len(self.radical_pairs):
            raise InternalConsistencyError(
                "radical pairs without a factorization into arrows: "
                f"{sorted(set(self.radical_pairs) - done)}")
        return out

    def gabriel_arrows(self) -> list[tuple[int, int]]:
        """Arrows of the quiver of the opposite algebra, 1-based vertices:
        the basis element of Hom(t_i, t_j) outside the square of the radical
        gives an arrow j+1 -> i+1."""
        return sorted((j + 1, i + 1) for (i, j) in self.arrow_pairs())


def end_algebra(cat: Category, t: RigidObject) -> Algebra:
    """The endomorphism algebra of a basic rigid object.

    The radical (the span of the hom-space basis elements between distinct
    summands) is verified nilpotent: no composite chain may land on an
    identity component, which in a category with one-dimensional hom spaces
    rules out unbounded nonzero products.
    """
    if not t.basic:
        raise ValueError("end_algebra expects a basic rigid object")
    r = len(t.arcs)
    pairs = tuple((i, j) for i in range(r) for j in range(r)
                  if i != j and cat.hom1(t.arcs[i], t.arcs[j]))
    mult = {}
    for (i, j) in pairs:
        for (j2, k) in pairs:
            if j2 == j:
                c = cat.comp3(t.arcs[i], t.arcs[j], t.arcs[k])
                mult[(i, j, k)] = c
                if i == k and c != 0:
                    raise InternalConsistencyError(
                        "radical of the endomorphism algebra is not "
                        f"nilpotent at summand {cat.labels[t.arcs[i]]}")
    return Algebra(t.arcs, tuple(cat.labels[a] for a in t.arcs), pairs,
                   mult, r + len(pairs))


class LambdaModule:
    """Finite-dimensional module: one space per vertex, one matrix per
    radical basis element (i, j), acting M_j -> M_i."""

    def __init__(self, alg: Algebra, dims: Sequence[int], act: dict):
        self.alg = alg
        self.dims = tuple(dims)
        self.act = {}
        for (i, j) in alg.radical_pairs:
            m = act.get((i, j))
            if m is None:
                m = Mat.zeros(self.dims[i], self.dims[j])
            if (m.rows, m.cols) != (self.dims[i], self.dims[j]):
                raise ValueError(f"action shape mismatch at {(i, j)}")
            self.act[(i, j)] = m

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def validate(self):
        """Structure constants: phi_a phi_b = c(a*b) phi_(ab) for composable
        radical pairs, zero when the composite hom space vanishes."""
        for (i, j) in self.alg.radical_pairs:
            for (j2, k) in self.alg.radical_pairs:
                if j2 != j:
                    continue
                c = self.alg.mult.get((i, j, k), 0)
                if c and (i, k) not in self.act:
                    raise InternalConsistencyError(
                        "nonzero structure constant into a missing hom pair")
                if not (self.dims[i] and self.dims[k]):
                    continue    # both sides are empty matrices
                lhs = self.act[(i, j)] * self.act[(j, k)]
                rhs = (self.act[(i, k)].scale(c)
                       if (i, k) in self.act else Mat.zeros(self.dims[i], self.dims[k]))
                if lhs.entries != rhs.entries:
                    raise ValueError("action violates structure constants")


class ModuleHom:
    """Vertex-wise linear maps commuting with the action."""

    def __init__(self, src: LambdaModule, tgt: LambdaModule,
                 comps: Sequence[Mat], check: bool = True):
        self.src = src
        self.tgt = tgt
        self.comps = tuple(comps)
        if check:
            for i, m in enumerate(self.comps):
                if (m.rows, m.cols) != (tgt.dims[i], src.dims[i]):
                    raise ValueError(f"component shape mismatch at vertex {i}")
            for (i, j) in src.alg.radical_pairs:
                lhs = self.comps[i] * src.act[(i, j)]
                rhs = tgt.act[(i, j)] * self.comps[j]
                if lhs.entries != rhs.entries:
                    raise ValueError("components do not commute with action")

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.comps)

    def is_iso(self) -> bool:
        return self.src.dims == self.tgt.dims and all(self.mono_epi())

    def mono_epi(self) -> tuple[bool, bool]:
        """(mono, epi), read off one rank per vertex component."""
        mono = epi = True
        for m in self.comps:
            r = rank(m)
            mono = mono and r == m.cols
            epi = epi and r == m.rows
        return mono, epi

    def inverse(self) -> "ModuleHom":
        if not self.is_iso():
            raise ValueError("module map is not invertible")
        return ModuleHom(self.tgt, self.src,
                         [inverse(m) for m in self.comps], check=False)

    def compose(self, other: "ModuleHom") -> "ModuleHom":
        """self after other."""
        if other.tgt is not self.src and other.tgt.dims != self.src.dims:
            raise ValueError("module maps not composable")
        return ModuleHom(other.src, self.tgt,
                         [a * b for a, b in zip(self.comps, other.comps)],
                         check=False)


def simple_module(alg: Algebra, i: int) -> LambdaModule:
    dims = [0] * alg.r
    dims[i] = 1
    return LambdaModule(alg, dims, {})


def direct_sum_modules(mods: Sequence[LambdaModule]) -> LambdaModule:
    """Direct sum, the factors' blocks placed in order at each vertex."""
    if not mods:
        raise ValueError("empty direct sum: no algebra to build it over")
    alg = mods[0].alg
    dims = [sum(m.dims[i] for m in mods) for i in range(alg.r)]
    offsets = []
    run = [0] * alg.r
    for m in mods:
        offsets.append(list(run))
        for i in range(alg.r):
            run[i] += m.dims[i]
    act = {}
    for (i, j) in alg.radical_pairs:
        rows = [[0] * dims[j] for _ in range(dims[i])]
        for m, off in zip(mods, offsets):
            blk = m.act[(i, j)]
            for a in range(blk.rows):
                for b in range(blk.cols):
                    rows[off[i] + a][off[j] + b] = blk.at(a, b)
        act[(i, j)] = Mat.from_rows(rows) if dims[i] else Mat.zeros(0, dims[j])
    return LambdaModule(alg, dims, act)


# -- the hom functor -------------------------------------------------------


def H_obj(cat: Category, alg: Algebra, x: Obj) -> LambdaModule:
    """Hom(T, x) as a module; the basis of the i-th space runs over the
    summands of x in order, and the basis element of Hom(t_i, t_j) acts as
    Hom(t_j, x) -> Hom(t_i, x), precomposition with it.  The module of an
    indecomposable is built once and kept in ``alg.images``, so callers must
    not mutate it; sums and the zero object are built on every call."""
    if len(x.summands) != 1:
        return _hom_module(cat, alg, x)
    if x.summands[0] not in alg.images:
        # threads racing on one arc may each build it; all get the one stored
        alg.images.setdefault(x.summands[0], _hom_module(cat, alg, x))
    return alg.images[x.summands[0]]


def _hom_module(cat: Category, alg: Algebra, x: Obj) -> LambdaModule:
    vec, ts = cat.hom_vec_into(x), alg.summands
    return LambdaModule(alg, [vec[t] for t in ts], {
        (i, j): _induced(*cat.pre_rows(cat.basis_mor(ts[i], ts[j]), x))
        for (i, j) in alg.radical_pairs})


def H_mor(cat: Category, alg: Algebra, f: Mor) -> ModuleHom:
    """Hom(T, f); component i is the matrix of Hom(t_i, f)."""
    return ModuleHom(H_obj(cat, alg, f.src), H_obj(cat, alg, f.tgt),
                     [_induced(*cat.post_rows(f, Obj((t,))))
                      for t in alg.summands])


def _induced(rows: list[list], ncols: int) -> Mat:
    """The matrix of an induced map on hom spaces, given as ``post_rows``
    and ``pre_rows`` give it: its rows and its column count, which fixes
    the shape when there are no rows."""
    return Mat(len(rows), ncols, tuple(x for row in rows for x in row))


# -- hom spaces and the trace pairing --------------------------------------


def _commuting_rows(m1: LambdaModule, m2: LambdaModule
                    ) -> tuple[list[int], int, list[list]]:
    """(offsets, nvars, rows): the commuting equations f_i . a = b . f_j of
    Hom(m1, m2), one nonzero row per (row of m2_i, column of m1_j) and
    radical pair (i, j), over the entries of the f_i laid out block by
    block, f_i row-major from offsets[i]."""
    alg = m1.alg
    offs = []
    run = 0
    for i in range(alg.r):
        offs.append(run)
        run += m2.dims[i] * m1.dims[i]
    rows = []
    for (i, j) in alg.radical_pairs:
        a = m1.act[(i, j)]     # m1_j -> m1_i
        b = m2.act[(i, j)]     # m2_j -> m2_i
        for ri in range(m2.dims[i]):
            for cj in range(m1.dims[j]):
                row = [0] * run
                for k in range(m1.dims[i]):
                    row[offs[i] + ri * m1.dims[i] + k] += a.at(k, cj)
                for k in range(m2.dims[j]):
                    row[offs[j] + k * m1.dims[j] + cj] -= b.at(ri, k)
                if any(row):
                    rows.append(row)
    return offs, run, rows


def module_hom_basis(m1: LambdaModule, m2: LambdaModule) -> list[ModuleHom]:
    """Basis of the solution space of the commuting equations."""
    offs, nvars, rows = _commuting_rows(m1, m2)
    kb = kernel_basis(rows, nvars)
    out = []
    for c in range(kb.cols):
        comps = []
        for i in range(m1.alg.r):
            ent = [kb.at(offs[i] + r2 * m1.dims[i] + c2, c)
                   for r2 in range(m2.dims[i]) for c2 in range(m1.dims[i])]
            comps.append(Mat(m2.dims[i], m1.dims[i], tuple(ent)))
        out.append(ModuleHom(m1, m2, comps, check=False))
    return out


def hom_dim_modules(m1: LambdaModule, m2: LambdaModule) -> int:
    """dim Hom(m1, m2): the unknowns less the rank of the commuting
    equations of ``module_hom_basis``, with no basis built."""
    _, nvars, rows = _commuting_rows(m1, m2)
    return nvars - rank_rows(rows)


def pairing_rank(a: LambdaModule, b: LambdaModule) -> int:
    """r(A, B), the rank of the trace pairing (f, g) -> tr(g f) between
    Hom(A, B) and Hom(B, A).

    In characteristic 0 a map in the radical of the module category pairs
    to zero with everything (g f is then nilpotent), and the pairing left
    over is nondegenerate, so r(A, B) = sum over the indecomposables X of
    mu_X(A) mu_X(B) dim End(X)/rad End(X).  Maps act vertex by vertex, so
    tr(g f) is the sum over vertex blocks and rows k of row_k(f_i).col_k(g_i);
    no product is formed.
    """
    fwd = module_hom_basis(a, b)
    if not fwd:
        return 0
    bwd = fwd if a is b else module_hom_basis(b, a)
    if not bwd:
        return 0
    rows = [[(p, x) for p, x in enumerate(
                x for c in f.comps for x in c.entries) if x]
            for f in fwd]
    cols = [tuple(x for c in g.comps for k in range(c.cols) for x in c.col(k))
            for g in bwd]
    return rank_rows([[sum(x * col[p] for p, x in row) for col in cols]
                      for row in rows])


def is_indecomposable(m: LambdaModule) -> bool:
    """r(M, M) = 1, given End(X)/rad = Q for every indecomposable X."""
    return pairing_rank(m, m) == 1


def modules_isomorphic(m1: LambdaModule, m2: LambdaModule) -> bool:
    """Equal dimension vectors and r(M1, M2) = r(M1, M1) = r(M2, M2).

    r is an inner product of multiplicity vectors with positive weights
    dim End(X)/rad End(X), so by Cauchy-Schwarz the three agree exactly when
    the multiplicity vectors are equal; nothing is decomposed.
    """
    if m1.dims != m2.dims:
        return False
    r = pairing_rank(m1, m2)
    return pairing_rank(m1, m1) == r == pairing_rank(m2, m2)


def split_module(m: LambdaModule, classes: Sequence[LambdaModule]
                 ) -> tuple[list[int], tuple[int, ...]]:
    """The multiplicity of each listed class as a summand of m, and the
    dimension vector that the listed summands leave over.

    The multiplicity of X is r(X, m), since r(X, X) = 1 (the enumeration
    certifies it per class).  Classes are read from the largest total
    dimension down; one that does not fit in what is left cannot be a
    summand and is skipped, and reading stops once nothing is left.  A
    leftover that goes negative raises.
    """
    mults = [0] * len(classes)
    left = m.dims
    for k in sorted(range(len(classes)), key=lambda i: -classes[i].total_dim):
        if not any(left):
            break
        x = classes[k]
        if any(d > e for d, e in zip(x.dims, left)):
            continue
        mults[k] = pairing_rank(x, m)
        left = tuple(e - mults[k] * d for d, e in zip(x.dims, left))
        if min(left) < 0:
            raise InternalConsistencyError(
                f"multiplicities of the listed classes exceed {m.dims}")
    return mults, left


# -- the string-module oracle -----------------------------------------------


def _certified_arrows(alg: Algebra) -> list[tuple[int, int]]:
    """The arrows, after certifying that the algebra is a string algebra:
    at most two arrows start and at most two end at each vertex, each arrow
    has at most one nonzero composite on each side, and between two vertices
    there is at most one nonzero path, so every relation is a monomial.
    Raises InternalConsistencyError naming the condition that fails.
    Vertices are 1-based in messages, as in `Algebra.gabriel_arrows`."""
    arrows = alg.arrow_pairs()
    for v in range(alg.r):
        for side, count in (("start", sum(j == v for _, j in arrows)),
                            ("end", sum(i == v for i, _ in arrows))):
            if count > 2:
                raise InternalConsistencyError(
                    f"not a string algebra: {count} arrows {side} at vertex "
                    f"{v + 1}")
    mult = alg.mult
    for (i, j) in arrows:
        after = sum(1 for h, g in arrows if g == i and mult.get((h, i, j)))
        before = sum(1 for g, k in arrows if g == j and mult.get((i, j, k)))
        if max(after, before) > 1:
            raise InternalConsistencyError(
                "not a string algebra: the arrow "
                f"{j + 1} -> {i + 1} has more than one nonzero composite on "
                "one side")
    ends = set()

    def extend(path):
        # path (u_0, ..., u_m) is nonzero; so is its extension by an arrow
        # (i, u_m) iff b_(i,u_m) b_(u_m,u_0) = mult(i, u_m, u_0) b_(i,u_0) != 0
        for (i, j) in arrows:
            if j == path[-1] and (len(path) == 1
                                  or mult.get((i, j, path[0]))):
                if (path[0], i) in ends:
                    raise InternalConsistencyError(
                        "not a monomial algebra: two nonzero paths from "
                        f"vertex {path[0] + 1} to {i + 1}")
                ends.add((path[0], i))
                extend(path + (i,))

    for v in range(alg.r):
        extend((v,))
    return arrows


def string_walks(alg: Algebra) -> list[tuple[tuple[int, ...], tuple]]:
    """Every string of the algebra, once together with its inverse, as its
    vertices and its letters ((i, j), direct).  The direct letter of the
    arrow (i, j) walks from vertex j to vertex i, its inverse back.

    A string is a walk with no letter followed by its inverse and no zero
    path in a run of letters of one direction.  After the premise of
    `_certified_arrows`, all strings are listed, whatever their length: a
    string that uses one letter twice in the same direction raises, because
    a nonzero path never returns to its vertex here (the radical of each
    End(t_i) is zero), so the repeated piece has mixed directions and is a
    band.  Without a repeat there are finitely many strings.
    """
    arrows = _certified_arrows(alg)
    letters = [(a, d) for d in (True, False) for a in arrows]
    out = [((v,), ()) for v in range(alg.r)]

    def extend(verts, word, run):
        # run: the first vertex of the last run of letters of one direction
        for (i, j), direct in letters:
            src, tgt = (j, i) if direct else (i, j)
            if src != verts[-1] or (word and word[-1] == ((i, j), not direct)):
                continue
            same = bool(word) and word[-1][1] == direct
            if same and not alg.mult.get((tgt, src, run) if direct
                                         else (run, src, tgt)):
                continue
            if ((i, j), direct) in word:
                raise InternalConsistencyError(
                    "string algebra with a band: a string uses the arrow "
                    f"{j + 1} -> {i + 1} twice in the same direction")
            longer = (verts + (tgt,), word + (((i, j), direct),))
            inverse = tuple((a, not d) for a, d in reversed(longer[1]))
            if longer[1] < inverse:
                out.append(longer)
            extend(*longer, run if same else src)

    for v in range(alg.r):
        extend((v,), (), v)
    return out


def enumerate_indec_modules(alg: Algebra) -> list[LambdaModule]:
    """All isomorphism classes of indecomposables, as the string modules of
    the algebra.

    `string_walks` certifies that the algebra is a string algebra without
    bands, and over such an algebra the string modules, one per string up to
    inversion, are the complete list of indecomposables, pairwise
    non-isomorphic (Butler-Ringel, Comm. Algebra 15, 1987).  The module of a
    string has one basis vector per vertex of the walk and a 1 on each arrow
    entry that joins two consecutive ones; every other radical basis element
    is c b_(i,j) b_(j,k) (`Algebra.composites`), so its action is forced.
    Every module is checked against the structure constants and for
    indecomposability, and either failure raises.  The classes come by total
    dimension, then by dimension vector in lexicographic order.
    """
    composites = alg.composites()
    found = []
    for verts, word in string_walks(alg):
        dims = tuple(verts.count(v) for v in range(alg.r))
        index = [verts[:p].count(v) for p, v in enumerate(verts)]
        ents = {a: [[0] * dims[a[1]] for _ in range(dims[a[0]])]
                for a, _ in word}
        for p, ((i, j), direct) in enumerate(word):
            # the letter joins positions p and p + 1; the arrow maps M_j -> M_i
            at_i, at_j = (p + 1, p) if direct else (p, p + 1)
            ents[(i, j)][index[at_i]][index[at_j]] = 1
        m = LambdaModule(alg, dims, {a: Mat.from_rows(rows)
                                     for a, rows in ents.items()})
        for (i, j, k, c) in composites:
            m.act[(i, k)] = (m.act[(i, j)] * m.act[(j, k)]).scale(c)
        try:
            m.validate()
        except ValueError as exc:
            raise InternalConsistencyError(
                f"string module of {verts} violates the structure constants"
            ) from exc
        if not is_indecomposable(m):
            raise InternalConsistencyError(
                f"string module of {verts} is decomposable")
        found.append((len(verts), dims, word, m))
    found.sort(key=lambda entry: entry[:3])
    return [m for *_, m in found]


# -- density: lifting modules into the category ------------------------------


def lift_module_to_CT(cat: Category, t: RigidObject, alg: Algebra,
                      m: LambdaModule) -> Obj:
    """An object of C(T) whose image under Hom(T, -) is isomorphic to m.

    A minimal projective presentation H(T1) -> H(T0) -> m -> 0 is read off
    vectors by Yoneda: P_i = H(t_i), and a map P_i -> N is a vector of N_i.
    T0 has one copy (i, g) of t_i per vector g of a basis of m_i modulo
    rad m_i, and the cover sends the slot of (i, g) in Hom(t_a, T0) to
    b_(a,i) g, or to g when a = i.  T1 has one copy of t_a per vector u of a
    basis of the cover's kernel K_a modulo rad K_a, the images of the K_b
    under the action of H(T0).  u lies in Hom(t_a, T0), so it is the column
    of phi: T1 -> T0 at that copy.  The cone of phi is the lift; the
    postconditions H(x) = m and x in C(T) are verified and failure raises.
    """
    if m.is_zero():
        return cat.zero_obj
    arcs, pairs = alg.summands, alg.radical_pairs
    order = sorted(range(alg.r), key=arcs.__getitem__)
    gens = [(i, g) for i in order for g in _independent(
        [m.act[(i2, j)] for (i2, j) in pairs if i2 == i], Mat.identity(m.dims[i]))]
    t0 = Obj(tuple(arcs[i] for i, _ in gens))
    kers = []
    for a in range(alg.r):
        imgs = [g if i == a else (m.act[(a, i)] * Mat.column(g)).entries
                for i, g in gens if cat.hom1(arcs[a], arcs[i])]
        kers.append(kernel_basis([[v[r] for v in imgs]
                                  for r in range(m.dims[a])], len(imgs)))
    h0 = H_obj(cat, alg, t0)
    rels = [(a, u) for a in order for u in _independent(
        [h0.act[(a, b)] * kers[b] for (a2, b) in pairs if a2 == a], kers[a])]
    cols = []
    for a, u in rels:
        entries = iter(u)
        cols.append([next(entries) if cat.hom1(arcs[a], s) else 0
                     for s in t0.summands])
    phi = cat.mor(Obj(tuple(arcs[a] for a, _ in rels)), t0,
                  [[c[k] for c in cols] for k in range(len(t0))])
    x = complete_triangle(cat, phi).z
    hx = H_obj(cat, alg, x)
    if not modules_isomorphic(hx, m):
        raise InternalConsistencyError(
            "lifted cone has the wrong image module (density failure)")
    if not in_CT(cat, t, x):
        raise InternalConsistencyError("lifted cone is not in C(T)")
    return x


def _independent(spans: Sequence[Mat], m: Mat) -> list[tuple]:
    """The columns of m, in order, that lie outside the span of the columns
    of ``spans`` and of the columns of m kept before them."""
    rows = [s.col(c) for s in spans for c in range(s.cols)]
    kept, r = [], rank_rows(rows)
    for v in map(m.col, range(m.cols)):
        if rank_rows(rows + [v]) > r:
            rows.append(v)
            kept.append(v)
            r += 1
    return kept
