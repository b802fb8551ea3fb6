"""The ambient linear category on arcs.

Hom spaces are computed from the translation quiver on diagonals (arrows move
one endpoint forward, the translate subtracts 1 from both endpoints) with its
mesh relations, built degree by degree as a graded quotient of the path
category, once per source arc x: the quotient out of x reads only x's own
earlier degrees, kept in rows indexed by arc and by arrow, and reads the
at most two arrows into each arc off per-arc lists.  The quiver, with the
crossings, the labels and the sigma-orbits, is computed once per rank
(``_quiver``) and shared by the rank's categories.  Every hom space between
arcs comes out 0- or 1-dimensional, each pair concentrated in a single path
length.  A ``Category`` stores the rank and the build's three tables as
given; ``_check_tables``, the one place they are checked, fails the build
loudly if the computed dimensions ever disagree with the independent
quiver-representation oracle through the label bridge, which checks the
labelling of the arcs by interval modules and shifted projectives against
the oracle on every pair, or with the crossing rule

    dim Hom(x, y) = [ x crosses rotate(y, -1) ]

The build is exact-integer from start to finish: the mesh quotient reduces
integer relations, every reduction coefficient, composition constant and
suspension constant is an ``int`` (a reduction coefficient that is not an
integer raises BuildError), and the checks multiply ints.  The composition
and suspension tables are filled in one pass over the hom pairs in degree
order, each entry from one a degree lower; the oracle solves the
commutation equations once per clamped class of interval pairs (n^2, 49 at
n = 7 and 144 at n = 12).  The table checks take one path at every rank:
they check the suspension on every stored constant and associativity on
the chains that end in an arrow and start at the least arc of a
suspension orbit (2,442 at n = 12), which proves both everywhere, by
transport along the suspension and induction on the last step's degree,
once every step of degree d >= 2 factors through an arrow and the
suspension keeps degrees; last comes the mesh identity that cone profiles
are solved by.

On top of the arc-level tables sits the additive layer: formal direct sums
(``Obj``) and block matrices of hom coefficients (``Mor``), with composition,
suspension and direct sums.  The maps f induces on hom spaces are matrices
on the slot bases (``hom_slots``), built directly as plain rows and a
column count: ``post_rows`` (Hom(W, f)) and ``pre_rows`` (Hom(f, W)),
which the linear algebra eliminates as they are.  Composites, sums and
scalings keep the scalar form of ``linalg``: an integral entry is an
``int``.
"""

from __future__ import annotations

import json
import random
import re
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Sequence

from . import oracle
from .arcs import Arc, arc_or_none, crosses, enumerate_arcs, parse_arc, rotate
from .linalg import Scalar, normalised, scalar
from .values import Value, setfield

CAT_SCHEMA = "cluster-loc/cat/v1"

MAX_RANK = 12   # the supported ranks are 1..MAX_RANK, built or configured


class BuildError(RuntimeError):
    """Internal consistency failure while constructing the category."""


class InternalConsistencyError(RuntimeError):
    """A cross-checked verdict pair disagreed; the message names the fact
    the implementation would otherwise falsify on the instance."""


class Obj(Value):
    """Formal direct sum of arcs, given by sorted arc indices (with multiplicity)."""

    __slots__ = ("summands",)

    def __init__(self, summands: tuple[int, ...]):
        setfield(self, "summands", summands)

    def __eq__(self, other):
        if other.__class__ is not Obj:
            return NotImplemented
        return self.summands == other.summands

    def __hash__(self):
        return hash((self.summands,))

    def is_zero(self) -> bool:
        return not self.summands

    def __len__(self) -> int:
        return len(self.summands)


class Mor(Value):
    """Block morphism; m[i][j] is the coefficient on the basis map
    source summand j -> target summand i (zero where the hom space is zero)."""

    __slots__ = ("src", "tgt", "m")

    def __init__(self, src: Obj, tgt: Obj,
                 m: tuple[tuple[Scalar, ...], ...]):
        setfield(self, "src", src)
        setfield(self, "tgt", tgt)
        setfield(self, "m", m)

    def __eq__(self, other):
        if other.__class__ is not Mor:
            return NotImplemented
        return (self.src == other.src and self.tgt == other.tgt
                and self.m == other.m)

    def __hash__(self):
        return hash((self.src, self.tgt, self.m))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.m for x in row)

    def key(self):
        return (self.src.summands, self.tgt.summands, self.m)


class ObserverIndex(dict):
    """Per arc pair (x, y): every w with comp(w, x, y) != 0 (``into``) or
    with comp(x, y, w) != 0 (not ``into``), each followed by that constant,
    in one flat tuple of ints.  An entry is filled on its pair's first
    read, so a cold query pays only for the pairs it touches; a fill is
    write-once and idempotent, so threads that race on it store equal
    tuples."""

    def __init__(self, comp: dict, hom: list[list[int]], into: bool):
        super().__init__()
        self.comp, self.hom, self.into = comp, hom, into

    def __missing__(self, pair: tuple[int, int]) -> tuple[int, ...]:
        x, y = pair
        comp, out = self.comp, []
        for w in self.hom[x if self.into else y]:
            c = comp.get((w, x, y) if self.into else (x, y, w))
            if c:
                out += (w, c)
        got = self[pair] = tuple(out)
        return got


class SuspensionIndex(dict):
    """Per hom pair (x, y) of arcs: (k, signs), where Σ^k(x, y) is the
    pair's Σ-orbit representative, the least pair of the orbit (least first
    arc, then least second arc; k the least such shift in 0..m-1, with
    m = n + 3), and signs[i] is the product of ``sig`` along the orbit's
    first i steps, so that Σ^i b(x, y) = signs[i]·b(Σ^i x, Σ^i y) for
    i = 0..2m-1.  Σ^m fixes every arc and scales b(x, y) by signs[m] = +-1,
    so Σ^2m fixes every basis map, and Σ^i b(x, y) = signs[i mod 2m]·
    b(Σ^i x, Σ^i y) for every integer i.  Filled like
    ``ObserverIndex``: an entry on its pair's first read, write-once and
    idempotent.  Few distinct entries occur (most orbits read sig = 1
    throughout), so equal entries are stored once and shared."""

    def __init__(self, sig: dict[tuple[int, int], int], n: int):
        super().__init__()
        self.sig, self.n, self.shared = sig, n, {}

    def __missing__(self, pair: tuple[int, int]) -> tuple:
        x, y = pair
        orbit = [(turn[x], turn[y]) for turn in _sigma_powers(self.n)]
        sig, signs = self.sig, [1]
        for step in orbit + orbit[:-1]:
            signs.append(signs[-1] * sig[step])
        entry = (orbit.index(min(orbit)), tuple(signs))
        got = self[pair] = self.shared.setdefault(entry, entry)
        return got


class Category:
    """Built hom/composition/suspension tables plus the additive layer, on
    the rank n's shared quiver: ``arcs``, ``arc_index``, ``sigma_arc`` and
    its inverse, ``arrows_in`` (the sorted sources of the arrows into each
    arc), ``labels``, ``label_to_arc`` and ``sigma_orbits``.

    Only ``build_category`` makes one, from its four tables, which
    ``_check_tables`` then checks; the constructor stores them as given.
    Σ on maps reads the per-pair ``suspension_index``, filled on demand.
    Composition and suspension constants are ``int``s in {-1, 1}, and only
    the nonzero constants are stored: ``(x, y, z) in comp`` iff
    basis(y, z) . basis(x, y) != 0.
    """

    def __init__(self, n: int,
                 hom_deg: dict[tuple[int, int], int],
                 comp: dict[tuple[int, int, int], int],
                 sig: dict[tuple[int, int], int]):
        self.n = n
        (self.arcs, self.arc_index, self.sigma_arc, self.sigma_arc_inv,
         self.arrows_in, self._cross, self.labels, self.label_to_arc,
         self.sigma_orbits) = _quiver(n)
        self.N = len(self.arcs)
        self.hom_deg, self.comp, self.sig = hom_deg, comp, sig
        self.hom_out = [[] for _ in range(self.N)]
        self.hom_in = [[] for _ in range(self.N)]
        homs = [[False] * self.N for _ in range(self.N)]
        for (x, y) in sorted(hom_deg):
            if not (0 <= x < self.N and 0 <= y < self.N):
                raise BuildError(f"hom pair ({x}, {y}) is not a pair of arcs")
            self.hom_out[x].append(y)
            self.hom_in[y].append(x)
            homs[x][y] = True
        self._homs = tuple(map(tuple, homs))    # row x: Hom(x, y) != 0
        self.observers_into = ObserverIndex(comp, self.hom_in, True)
        self.observers_from = ObserverIndex(comp, self.hom_out, False)
        self.suspension_index = SuspensionIndex(sig, n)
        self._memo: dict = {}

    @property
    def meta(self) -> dict:
        """The labels' metadata: not reflected, not rotated, SPi's arcs."""
        sp = [self.label_to_arc[f"SP{i}"] for i in range(1, self.n + 1)]
        return {"bridge": {"reflection": 0, "rotation": 0,
                           "projective_slice": sp}}

    # -- arc level -----------------------------------------------------

    def hom1(self, x: int, y: int) -> bool:
        return self._homs[x][y]

    def comp3(self, x: int, y: int, z: int) -> int:
        return self.comp.get((x, y, z), 0)

    def crosses_idx(self, x: int, y: int) -> bool:
        return self._cross[x][y]

    def shift_arc(self, x: int, k: int = 1) -> int:
        return _sigma_powers(self.n)[k % (self.n + 3)][x]

    def arc_of_token(self, token: str) -> int:
        """Resolve 'a-b', a canonical label, or S-prefixed labels."""
        token = token.strip()
        shifts = 0
        while token.startswith("S") and token not in self.label_to_arc:
            token = token[1:]
            shifts += 1
        if token in self.label_to_arc:
            return self.shift_arc(self.label_to_arc[token], shifts)
        if "-" in token:
            arc = parse_arc(self.n, token)
            return self.shift_arc(self.arc_index[arc], shifts)
        raise ValueError(f"cannot resolve object token {token!r}")

    # -- additive layer: objects ----------------------------------------

    def obj(self, summands: Iterable) -> Obj:
        idx = []
        for s in summands:
            if isinstance(s, Arc) and s in self.arc_index:
                idx.append(self.arc_index[s])
            elif isinstance(s, int) and not isinstance(s, bool):
                if not 0 <= s < self.N:
                    raise ValueError(f"arc index {s} out of range")
                idx.append(s)
            elif isinstance(s, str):
                idx.append(self.arc_of_token(s))
            else:
                raise ValueError(f"bad summand {s!r}")
        return Obj(tuple(sorted(idx)))

    @property
    def zero_obj(self) -> Obj:
        return Obj(())

    def obj_label(self, X: Obj) -> str:
        if X.is_zero():
            return "0"
        return " + ".join(self.labels[s] for s in X.summands)

    def suspend_obj(self, X: Obj, k: int = 1) -> Obj:
        turn = _sigma_powers(self.n)[k % (self.n + 3)]
        return Obj(tuple(sorted([turn[s] for s in X.summands])))

    # -- additive layer: morphisms ---------------------------------------

    def mor(self, src: Obj, tgt: Obj, rows: Sequence[Sequence]) -> Mor:
        if len(rows) != len(tgt.summands):
            raise ValueError("row count != number of target summands")
        ent = []
        for i, row in enumerate(rows):
            if len(row) != len(src.summands):
                raise ValueError("col count != number of source summands")
            out = []
            for j, v in enumerate(row):
                v = scalar(v)
                if v != 0 and not self.hom1(src.summands[j], tgt.summands[i]):
                    raise ValueError(
                        f"nonzero coefficient in a zero hom space: "
                        f"{self.labels[src.summands[j]]} -> "
                        f"{self.labels[tgt.summands[i]]}")
                out.append(v)
            ent.append(tuple(out))
        return Mor(src, tgt, tuple(ent))

    def zero_mor(self, src: Obj, tgt: Obj) -> Mor:
        return Mor(src, tgt, tuple((0,) * len(src.summands)
                                   for _ in range(len(tgt.summands))))

    def identity(self, X: Obj) -> Mor:
        k = len(X.summands)
        return Mor(X, X, tuple(tuple(1 if i == j else 0 for j in range(k))
                               for i in range(k)))

    def basis_mor(self, x: int, y: int) -> Mor:
        if not self.hom1(x, y):
            raise ValueError(f"hom space {self.labels[x]} -> {self.labels[y]} is zero")
        return Mor(Obj((x,)), Obj((y,)), ((1,),))

    def hom_slots(self, X: Obj, Y: Obj) -> list[tuple[int, int]]:
        """(target index, source index) pairs carrying a basis map, row-major.

        Built on each call from the per-arc hom rows: a list of a few pairs
        costs about as much as a memo lookup keyed on both summand tuples,
        and a memo would hold one entry per object pair the caller ever
        met."""
        homs = self._homs
        return [(i, j) for i, yi in enumerate(Y.summands)
                for j, xj in enumerate(X.summands) if homs[xj][yi]]

    def dim_hom_obj(self, X: Obj, Y: Obj) -> int:
        return len(self.hom_slots(X, Y))

    def vectorize(self, f: Mor) -> tuple[Scalar, ...]:
        return tuple(f.m[i][j] for (i, j) in self.hom_slots(f.src, f.tgt))

    def mor_from_vec(self, X: Obj, Y: Obj, vec: Sequence) -> Mor:
        slots = self.hom_slots(X, Y)
        if len(vec) != len(slots):
            raise ValueError("vector length != hom dimension")
        rows = [[0] * len(X.summands) for _ in range(len(Y.summands))]
        for (i, j), v in zip(slots, vec):
            rows[i][j] = scalar(v)
        return Mor(X, Y, tuple(tuple(r) for r in rows))

    def slot_mor(self, X: Obj, Y: Obj, slot: tuple[int, int]) -> Mor:
        rows = [[0] * len(X.summands) for _ in range(len(Y.summands))]
        rows[slot[0]][slot[1]] = 1
        return Mor(X, Y, tuple(tuple(r) for r in rows))

    def compose(self, g: Mor, f: Mor) -> Mor:
        """g after f (f: X -> Y, g: Y -> Z)."""
        if f.tgt != g.src:
            raise ValueError("objects do not match in composition")
        X, Y, Z = f.src, f.tgt, g.tgt
        rows = [[0] * len(X.summands) for _ in range(len(Z.summands))]
        for j, yj in enumerate(Y.summands):
            for i, zi in enumerate(Z.summands):
                gij = g.m[i][j]
                if gij == 0:
                    continue
                for k, xk in enumerate(X.summands):
                    fjk = f.m[j][k]
                    if fjk == 0:
                        continue
                    c = self.comp.get((xk, yj, zi))
                    if c:
                        rows[i][k] += gij * fjk * c
        return Mor(X, Z, tuple(map(normalised, rows)))

    def add_mor(self, f: Mor, g: Mor) -> Mor:
        if f.src != g.src or f.tgt != g.tgt:
            raise ValueError("objects do not match in sum")
        return Mor(f.src, f.tgt,
                   tuple(normalised(a + b for a, b in zip(r1, r2))
                         for r1, r2 in zip(f.m, g.m)))

    def scale_mor(self, c, f: Mor) -> Mor:
        c = scalar(c)
        return Mor(f.src, f.tgt, tuple(normalised(c * x for x in r)
                                       for r in f.m))

    def direct_sum_mor(self, f: Mor, g: Mor) -> Mor:
        """Block-diagonal sum; summand order is re-sorted canonically."""
        src = self.obj(list(f.src.summands) + list(g.src.summands))
        tgt = self.obj(list(f.tgt.summands) + list(g.tgt.summands))
        # positions of the f/g summands inside the sorted sums
        sj = _perm_to_sorted(f.src.summands + g.src.summands)
        ti = _perm_to_sorted(f.tgt.summands + g.tgt.summands)
        rows = [[0] * len(src.summands) for _ in range(len(tgt.summands))]
        for m, di, dj in ((f.m, 0, 0),
                          (g.m, len(f.tgt.summands), len(f.src.summands))):
            for i, row in enumerate(m):
                for j, v in enumerate(row):
                    rows[ti[di + i]][sj[dj + j]] = v
        return Mor(src, tgt, tuple(tuple(r) for r in rows))

    def suspend_mor(self, f: Mor, k: int = 1) -> Mor:
        """Σ^k f, for any integer k, in one pass over f's entries: the arcs
        move by the rank's σ^k table and each nonzero entry is scaled by
        the product of ``sig`` along its pair's orbit, read from
        ``suspension_index``.  Rotation keeps sorted order only up to
        wrap-around, so the shifted summands are re-sorted."""
        if not k:
            return f
        turn = _sigma_powers(self.n)[k % (self.n + 3)]
        X, Y = f.src.summands, f.tgt.summands
        xs, ys = [turn[s] for s in X], [turn[s] for s in Y]
        index, e, rows = self.suspension_index, k % (2 * self.n + 6), []
        for b, frow in zip(Y, f.m):
            rows.append([v * index[a, b][1][e] if v else 0
                         for a, v in zip(X, frow)])
        src, tgt = sorted(xs), sorted(ys)
        if src != xs:
            order = sorted(range(len(xs)), key=xs.__getitem__)
            rows = [[row[j] for j in order] for row in rows]
        if tgt != ys:
            rows = [rows[i] for i in sorted(range(len(ys)),
                                            key=ys.__getitem__)]
        return Mor(Obj(tuple(src)), Obj(tuple(tgt)), tuple(map(tuple, rows)))

    # -- linear maps induced on hom spaces -------------------------------

    def post_rows(self, f: Mor, W: Obj) -> tuple[list[list], int]:
        """The matrix of Hom(W, f): Hom(W, src) -> Hom(W, tgt) on the slot
        bases, as its rows, one per slot of Hom(W, tgt), and its column
        count dim Hom(W, src), which holds even when there are no rows."""
        X, Y, V, m = f.src.summands, f.tgt.summands, W.summands, f.m
        cols = self.hom_slots(W, f.src)
        comp = self.comp
        rows = []
        for i, w in self.hom_slots(W, f.tgt):
            vw, yi, mi = V[w], Y[i], m[i]
            rows.append([mi[j] * comp.get((vw, X[j], yi), 0) if w == v else 0
                         for j, v in cols])
        return rows, len(cols)

    def pre_rows(self, f: Mor, W: Obj) -> tuple[list[list], int]:
        """The matrix of Hom(f, W): Hom(tgt, W) -> Hom(src, W) on the slot
        bases, as its rows, one per slot of Hom(src, W), and its column
        count dim Hom(tgt, W), which holds even when there are no rows."""
        X, Y, V, m = f.src.summands, f.tgt.summands, W.summands, f.m
        cols = self.hom_slots(f.tgt, W)
        comp = self.comp
        rows = []
        for w, j in self.hom_slots(f.src, W):
            xj, vw = X[j], V[w]
            rows.append([m[i][j] * comp.get((xj, Y[i], vw), 0) if w == v
                         else 0 for v, i in cols])
        return rows, len(cols)

    def hom_vec_into(self, X: Obj) -> list[int]:
        """v with v[w] = dim Hom(w, X) for every indecomposable w, built once
        per ``X.summands`` and memoised write-once: the triangle certificate
        reads whole vectors of the same objects again and again, so unlike
        ``hom_slots`` a rebuild would cost time."""
        return self._hom_vec("vec_into", self.hom_in, X)

    def hom_vec_from(self, X: Obj) -> list[int]:
        """v with v[w] = dim Hom(X, w) for every indecomposable w, memoised
        like ``hom_vec_into``; callers of either must not mutate v."""
        return self._hom_vec("vec_from", self.hom_out, X)

    def _hom_vec(self, kind: str, adjacent: list[list[int]], X: Obj):
        cache = self._memo.setdefault(kind, {})
        got = cache.get(X.summands)
        if got is None:
            got = [0] * self.N
            for s in X.summands:
                for w in adjacent[s]:
                    got[w] += 1
            cache[X.summands] = got
        return got

    # -- randomness helpers (suites) --------------------------------------

    def random_obj(self, rng: random.Random, max_summands: int = 3) -> Obj:
        k = rng.randint(1, max_summands)
        return Obj(tuple(sorted(rng.randrange(self.N) for _ in range(k))))

    def random_mor(self, rng: random.Random, X: Obj, Y: Obj) -> Mor:
        slots = self.hom_slots(X, Y)
        vec = [rng.randint(-3, 3) for _ in slots]
        return self.mor_from_vec(X, Y, vec)

    # -- literals ----------------------------------------------------------

    def _written_arcs(self, text: str) -> list[int]:
        """Arc indices of comma-separated object tokens, in written order;
        "0" or nothing is the zero object, an empty token raises."""
        text = text.strip()
        if text in ("0", ""):
            return []
        return [self.arc_of_token(tok) for tok in text.split(",")]

    def parse_obj_tokens(self, text: str) -> Obj:
        return Obj(tuple(sorted(self._written_arcs(text))))

    def format_mor(self, f: Mor) -> str:
        """Literal form 'SRC -> TGT @ [[...]]' with rational entries."""
        src = ",".join(self.labels[s] for s in f.src.summands) or "0"
        tgt = ",".join(self.labels[s] for s in f.tgt.summands) or "0"
        rows = ",".join("[" + ",".join(str(v) for v in row) + "]"
                        for row in f.m)
        return f"{src} -> {tgt} @ [{rows}]"

    def parse_mor(self, text: str) -> Mor:
        """Parse a morphism literal 'SRC -> TGT @ [[...],...]'.  Row i and
        column j of the matrix belong to the i-th target and the j-th
        source token as written; a missing matrix means the all-ones
        bundle of basis maps."""
        if "->" not in text:
            raise ValueError("morphism literal needs 'SRC -> TGT'")
        srcpart, rest = text.split("->", 1)
        if "@" in rest:
            tgtpart, matpart = rest.split("@", 1)
        else:
            tgtpart, matpart = rest, None
        src_arcs = self._written_arcs(srcpart)
        tgt_arcs = self._written_arcs(tgtpart)
        src = Obj(tuple(sorted(src_arcs)))
        tgt = Obj(tuple(sorted(tgt_arcs)))
        if matpart is None:
            rows = [[1 if self.hom1(xj, yi) else 0 for xj in src.summands]
                    for yi in tgt.summands]
            return self.mor(src, tgt, rows)
        body = matpart.strip()
        if not _MATRIX_LITERAL.fullmatch(body):
            raise ValueError("matrix part must be [[...],[...]]")
        written = [[scalar(tok) for tok in row.split(",")] if row.strip()
                   else [] for row in _MATRIX_ROW.findall(body[1:-1])]
        if len(written) != len(tgt_arcs):
            raise ValueError("matrix row count != target summands")
        if any(len(row) != len(src_arcs) for row in written):
            raise ValueError("col count != number of source summands")
        # move the written rows and columns to the sorted summand order
        ri, cj = _perm_to_sorted(tgt_arcs), _perm_to_sorted(src_arcs)
        rows = [[0] * len(src_arcs) for _ in tgt_arcs]
        for i, row in enumerate(written):
            for j, v in enumerate(row):
                rows[ri[i]][cj[j]] = v
        return self.mor(src, tgt, rows)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": CAT_SCHEMA,
            "n": self.n,
            "arcs": [str(a) for a in self.arcs],
            "hom": [[x, y, d] for (x, y), d in sorted(self.hom_deg.items())],
            "comp": [[x, y, z, str(c)] for (x, y, z), c in sorted(self.comp.items())],
            "sigma": [[x, y, str(c)] for (x, y), c in sorted(self.sig.items())],
            "sigma_arc": list(self.sigma_arc),
            "labels": list(self.labels),
            "meta": self.meta,
        }

    def save(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)


# a matrix literal: bracketed rows of comma-separated entries, nothing else
_ROW = r"\[([^\[\]]*)\]"
_MATRIX_ROW = re.compile(_ROW)
_MATRIX_LITERAL = re.compile(rf"\[\s*(?:{_ROW}\s*(?:,\s*{_ROW}\s*)*)?\]")


def _perm_to_sorted(values: Sequence[int]) -> Sequence[int]:
    """out[i] = the position of values[i] in their stable sort; the
    identity, with no order computed, when values is a list already in
    order."""
    if sorted(values) == values:
        return range(len(values))
    order = sorted(range(len(values)), key=values.__getitem__)  # stable
    out = [0] * len(values)
    for new_pos, old_pos in enumerate(order):
        out[old_pos] = new_pos
    return out


# ======================================================================
# construction
# ======================================================================


@lru_cache(maxsize=None)
def _quiver(n: int):
    """(arcs, arc index, sigma, sigma^-1, arrows in, crossing matrix,
    labels, label index, sigma-orbits) of rank n.  Arrows in[z] are the
    sorted sources of the arrows into z, the middles of the mesh from
    sigma(z) to z; the labels are the derived assignment, M_ij at
    {n+3-i, n+1-j} and SP_i at {0, n+2-i}; each sigma-orbit lists (u,
    sigma^-1 u, arrows in[sigma^-1 u]) along u -> sigma u.  The cache
    shares every field among the rank's categories, so each is a tuple,
    each index read-only."""
    arcs = tuple(enumerate_arcs(n))
    index = {a: i for i, a in enumerate(arcs)}
    sigma = tuple(index[rotate(n, a, 1)] for a in arcs)
    inv = tuple(sorted(range(len(arcs)), key=sigma.__getitem__))
    arrows_in = tuple(tuple(sorted(index[c] for c in (
        arc_or_none(n, a.a - 1, a.b), arc_or_none(n, a.a, a.b - 1))
        if c is not None)) for a in arcs)
    cross = [[crosses(x, y) for y in arcs] for x in arcs]
    labels = tuple(f"SP{n + 2 - a.b}" if a.a == 0 else
                   oracle.format_module_label(n + 3 - a.b, n + 1 - a.a)
                   for a in arcs)
    orbits, seen = [], set()
    for u in range(len(arcs)):
        orbit = []
        while u not in seen:
            seen.add(u)
            orbit.append((u, inv[u], arrows_in[inv[u]]))
            u = sigma[u]
        if orbit:
            orbits.append(tuple(orbit))
    return (arcs, MappingProxyType(index), sigma, inv, arrows_in,
            tuple(map(tuple, cross)), labels,
            MappingProxyType({lab: i for i, lab in enumerate(labels)}),
            tuple(orbits))


@lru_cache(maxsize=None)
def _sigma_powers(n: int) -> tuple[tuple[int, ...], ...]:
    """σ^k of every arc of rank n for k = 0..n+2, the rotations of the
    (n+3)-gon; the rotation by n + 3 vertices fixes every arc.  Computed on
    first use, not by the build, and shared like ``_quiver``."""
    sigma = _quiver(n)[2]
    powers = [tuple(range(len(sigma)))]
    for _ in range(n + 2):
        powers.append(tuple(sigma[x] for x in powers[-1]))
    return tuple(powers)


def build_category(n: int) -> Category:
    """Build all tables for the rank-n category; deterministic in n.

    Every scalar of the build is an ``int``.  Raises BuildError whenever
    a check of ``_check_tables`` fails (the label bridge, mesh dimensions
    vs the representation oracle, first), naming the offending pair or
    key; also when a mesh reduction coefficient is not an integer.  Raises
    ValueError for a rank that is not an int in 1..MAX_RANK (a bool
    included).
    """
    arcs, _, sigma_arc, _, arrows_in = _quiver(supported_rank(n))[:5]
    N = len(arcs)
    arrows = sorted((m, z) for z, mids in enumerate(arrows_in) for m in mids)
    arrow_idx = {st: k for k, st in enumerate(arrows)}
    succ: list[list[int]] = [[] for _ in range(N)]
    for w, z in arrows:
        succ[w].append(z)
    # the arrows into each arc z, one per middle m of the mesh ending at z,
    # in the order of m: (arrow m -> z, m, arrow sigma z -> m)
    into = [[(arrow_idx[(m, z)], m, arrow_idx[(sigma_arc[z], m)])
             for m in mids] for z, mids in enumerate(arrows_in)]

    # the quotient for a source x reads only x's own earlier degrees, so it
    # runs once per x, on rows by arc (hom degree, None for a zero space;
    # defining arrow) and by arrow id (the reduction coefficient at x)
    deg_rows = [[0 if z == x else None for z in range(N)] for x in range(N)]
    def_rows = [[None] * N for _ in range(N)]
    exp_rows = [[0] * len(arrows) for _ in range(N)]
    for x in range(N):
        deg, exp, def_arrow = deg_rows[x], exp_rows[x], def_rows[x]
        cur, degree = [x], 0
        while cur:
            degree += 1
            if degree > 3 * (n + 3) + 3:
                raise BuildError("mesh category failed to terminate; "
                                 "path quotient still alive at degree "
                                 f"{degree}")
            # generators of the next degree at z: the arrows m -> z applied
            # to the basis element at (x, m) of the current degree
            nxt = []
            for z in sorted({t for w in cur for t in succ[w]}):
                gens = []
                for a_id, m, _ in into[z]:
                    if deg[m] == degree - 1:
                        gens.append(a_id)
                # the mesh ending at z gives the one relation over the
                # arrows into z, if (x, sigma z) was alive two degrees down
                rel_row = None
                if deg[sigma_arc[z]] == degree - 2:
                    row = [0] * len(gens)
                    for a_id, m, a_in in into[z]:
                        coeff = exp[a_in]
                        if coeff == 0:
                            continue
                        if a_id not in gens:
                            raise BuildError(
                                f"mesh relation at {arcs[z]} hits a dead "
                                f"pair ({arcs[x]}, {arcs[m]})")
                        row[gens.index(a_id)] += coeff
                        rel_row = row
                dim, basis_col, reduction = _quotient_1d(rel_row, len(gens))
                if dim > 1:
                    raise BuildError(
                        f"hom space dimension exceeds 1 for pair "
                        f"({arcs[x]}, {arcs[z]}) at degree {degree}")
                if dim == 1:
                    if deg[z] is not None:
                        raise BuildError(
                            f"hom space for ({arcs[x]}, {arcs[z]}) alive in "
                            f"two degrees ({deg[z]} and {degree})")
                    deg[z] = degree
                    def_arrow[z] = gens[basis_col]
                    nxt.append(z)
                for col, a_id in enumerate(gens):
                    exp[a_id] = reduction[col]
            cur = nxt
    # in build order: by degree, identities first, then by pair (the sort
    # is stable and the pairs come in (x, z) order)
    hom_deg = dict(sorted((((x, z), d) for x, row in enumerate(deg_rows)
                           for z, d in enumerate(row) if d is not None),
                          key=lambda kv: kv[1]))

    # -- composition and suspension scalars -----------------------------
    # one pass over the hom pairs (y, z) by degree: with (a, w) the
    # defining pair of (y, z), basis(y, z) = a . basis(y, w), and (y, w)
    # sits one degree lower, so its entries are already known

    arrow_shift = [arrow_idx[(sigma_arc[w], sigma_arc[z])] for w, z in arrows]
    comp: dict[tuple[int, int, int], int] = {}
    sig: dict[tuple[int, int], int] = {}
    hom_to: list[list[int]] = [[] for _ in range(N)]
    for (x, y) in sorted(hom_deg):
        hom_to[y].append(x)
    for (y, z) in hom_deg:
        if y == z:
            sig[(y, y)] = 1
            for x in hom_to[y]:
                comp[(x, y, y)] = 1
            continue
        a_id = def_rows[y][z]
        w = arrows[a_id][0]
        sig[(y, z)] = sig[(y, w)] * exp_rows[sigma_arc[y]][arrow_shift[a_id]]
        # comp[(x, y, z)]: coefficient of basis(x, z) in
        # basis(y, z) . basis(x, y), kept only where it is nonzero
        for x in hom_to[y]:
            if deg_rows[x][z] is None:
                continue
            c = 1 if x == y else comp.get((x, y, w), 0) * exp_rows[x][a_id]
            if c:
                comp[(x, y, z)] = c

    cat = Category(n, hom_deg, comp, sig)
    _check_tables(cat)
    return cat


def supported_rank(n) -> int:
    """n if it is an int (not a bool) in 1..MAX_RANK, else ValueError."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"rank must be an int, not {n!r}")
    if not 1 <= n <= MAX_RANK:
        raise ValueError(f"rank out of supported range 1..{MAX_RANK}")
    return n


def _quotient_1d(rel_row: list[int] | None, ngens: int):
    """Quotient of k^ngens by the span of one integer relation (None for
    none); expects dim <= 1.

    Returns (dim, basis column or None, reduction coefficient per generator).
    The coefficients are ``int``; one that is not an integer raises
    BuildError.  A nonzero relation is its own reduced form over the
    absolute value of its leading entry, so it is read off the row.
    """
    if rel_row is None or not any(rel_row):
        if ngens == 1:
            return 1, 0, [1]
        return ngens, None, []
    # every column but the leading one is free
    if ngens != 2:
        return ngens - 1, None, ([0] if ngens == 1 else [])
    lead_col = 0 if rel_row[0] else 1
    f0 = 1 - lead_col
    d, num = rel_row[lead_col], -rel_row[f0]
    if d < 0:
        d, num = -d, -num
    q, rem = divmod(num, d)
    if rem:
        raise BuildError(f"mesh reduction coefficient {num}/{d} "
                         "is not an integer")
    reduction = [0, 0]
    reduction[f0], reduction[lead_col] = 1, q
    return 1, f0, reduction


def _check_tables(cat: Category):
    """The cross-checks every built table passes; raises
    BuildError naming the first failure.

    First the label bridge: the mesh hom dimensions match the
    quiver-representation oracle on every pair under the quiver's labels,
    one row per arc against the oracle's row by label index.  Then hom
    pairs exactly the pairs of arcs the crossing rule predicts (Hom(x, y)
    != 0 iff x crosses sigma^-1 y, read off the category's crossing
    matrix); identities units and fixed by the suspension; its constants
    ``int``s in {-1, 1} on exactly the hom pairs; every step (non-identity
    hom pair) of a degree >= 1 that the suspension keeps.  Then, in
    ``_check_constants``: (F), each step (z, w) of degree d >= 2 has an
    arrow (a step of degree 1) (v, w) with deg(z, v) = d - 1 and
    c(z, v, w) != 0; composition keys on hom pairs with ``int``
    constants in {-1, 1}; the suspension functorial on every stored
    constant, sig(x, z) c(x, y, z) = c(Sx, Sy, Sz) sig(x, y) sig(y, z);
    and associativity, c(x, y, z) c(x, z, w) = c(y, z, w) c(x, y, w), on
    the chains x -> y -> z -> w whose last step is an arrow and whose first
    arc x is the least index of its suspension orbit.  These prove
    functoriality and associativity everywhere, at every rank:

    - the suspension permutes the finite set of triples, so "nonzero has a
      nonzero image" forces "zero has a zero image", and it is functorial
      on every constant;
    - so, reading sig as 1 off the hom pairs (where both constants are 0),
      associativity on a chain and on its image under the suspension is
      the same equation up to the nonzero factor
      sig(x, w) / (sig(x, y) sig(y, z) sig(z, w)); as the suspension keeps
      degrees, every chain whose last step is an arrow is the image of one
      from its first arc's orbit representative;
    - associativity on the chains whose last step is an arrow gives it on
      every chain, by induction on deg(z, w), as
      e_zw = c(z, v, w)^-1 e_vw . e_zv by (F).

    That is 0, 0, 0, 4, 27, 61, 183, 301, 671, 966, 1,828 and 2,442
    chains with a nonzero side at n = 1..12.  Composition keys must be
    triples of arc indices, as a build makes them.  Last, the mesh
    identity that cone profiles are solved by (``_check_mesh_identity``).
    """
    arcs, hom_deg, comp, sig, sigma_arc = (cat.arcs, cat.hom_deg, cat.comp,
                                           cat.sig, cat.sigma_arc)
    N, cross, inv = cat.N, cat._cross, cat.sigma_arc_inv
    want, names = oracle.label_hom_matrix(cat.n), oracle.labels(cat.n)
    li = [names.index(lab) for lab in cat.labels]   # each arc's label index
    mesh = [[0] * N for _ in range(N)]  # row by arc, column by label index
    for x, y in hom_deg:
        mesh[x][li[y]] = 1
    for x, row in enumerate(mesh):
        if tuple(row) != want[li[x]]:
            y = next(y for y in range(N) if row[li[y]] != want[li[x]][li[y]])
            raise BuildError(
                f"label bridge fails at ({arcs[x]}, {arcs[y]}): oracle dim "
                f"Hom({cat.labels[x]}, {cat.labels[y]}) = "
                f"{want[li[x]][li[y]]}, mesh {row[li[y]]}")
    predicted = {(x, y) for y in range(N) for x in range(N)
                 if cross[x][inv[y]]}
    for x, y in sorted(predicted.symmetric_difference(hom_deg),
                       key=lambda k: (k[1], k[0])):
        raise BuildError(
            f"mesh/crossing mismatch at ({arcs[x]}, {arcs[y]}): crossing rule "
            f"{int((x, y) in predicted)}, mesh {int((x, y) in hom_deg)}")
    if sig.keys() != hom_deg.keys():
        raise BuildError("suspension table does not cover exactly the hom pairs")
    # the degrees and suspension constants by row, for the pass over comp
    degs, sigs = [[None] * N for _ in arcs], [[0] * N for _ in arcs]
    for (x, y), d in hom_deg.items():
        s = sig[(x, y)]
        if comp.get((x, x, y)) != 1 or comp.get((x, y, y)) != 1:
            raise BuildError(f"identities are not units at ({arcs[x]}, {arcs[y]})")
        if s == 0 or x == y and s != 1:
            raise BuildError(f"suspension scalar at ({arcs[x]}, {arcs[y]}) "
                             f"is {s}")
        if type(s) is not int or s not in (-1, 1):
            raise BuildError(f"suspension constant at {(x, y)} is {s!r}, "
                             "not an int in {-1, 1}")
        if (hom_deg.get((sigma_arc[x], sigma_arc[y])) != d
                or x != y and not (isinstance(d, int) and d >= 1)):
            raise BuildError(f"hom degree {d!r} at ({arcs[x]}, {arcs[y]}) is "
                             "not a positive integer that the suspension keeps")
        degs[x][y], sigs[x][y] = d, s
    _check_constants(arcs, hom_deg, comp, degs, sigs, sigma_arc)
    _check_mesh_identity(cat)


def _check_constants(arcs, hom_deg, comp, degs, sigs, sigma_arc) -> int:
    """(F) and the one pass over ``comp`` of ``_check_tables``; returns the
    number of chains it finds equal with a nonzero side.

    ``degs[x][y]`` is the degree of the hom pair (x, y), None off the hom
    pairs, and ``sigs[x][y]`` its suspension constant; a key's (y, z) and
    (x, y) must be hom pairs by ``degs``, its (x, z) by a nonzero
    ``sigs`` entry."""
    arrows_out, arrows_in = [[] for _ in arcs], [[] for _ in arcs]
    for (v, w), d in hom_deg.items():
        if d == 1 and v != w:
            arrows_out[v].append(w)
            arrows_in[w].append(v)
    for (z, w), d in hom_deg.items():
        if d > 1:
            dz = degs[z]
            for v in arrows_in[w]:
                if dz[v] == d - 1 and (z, v, w) in comp:
                    break
            else:
                raise BuildError(f"hom pair ({arcs[z]}, {arcs[w]}) of degree "
                                 f"{d} does not factor through an arrow")
    # the least index of each suspension orbit
    first = [True] * len(arcs)
    for x in range(len(arcs)):
        if first[x]:
            y = sigma_arc[x]
            while y != x:
                first[y], y = False, sigma_arc[y]
    get, sa = comp.get, sigma_arc
    checked, failed = 0, None
    for (x, y, z), c in comp.items():
        if degs[y][z] is None or x != y and (degs[x][y] is None
                                             or not sigs[x][z]):
            raise BuildError(f"composition key ({x}, {y}, {z}) is not a "
                             "chain of hom pairs")
        if type(c) is not int or c not in (-1, 1):
            raise _not_a_unit((x, y, z), c)
        if x == y:
            continue
        if y != z:
            sx, image = sigs[x], (sa[x], sa[y], sa[z])
            if sx[z] * c != get(image, 0) * sx[y] * sigs[y][z]:
                # a failure at a key whose image comes later in ``comp``
                # names the image's constant when that is the fault
                d = get(image, 1)
                if type(d) is not int or d not in (-1, 1):
                    raise _not_a_unit(image, d)
                raise BuildError(f"suspension not functorial on ({arcs[x]}, "
                                 f"{arcs[y]}, {arcs[z]})")
        if not first[x]:
            continue
        # chains from an orbit's least arc x whose last step is an arrow:
        # x -> y -> z -> w compared on both sides, and x -> y -> v -> z,
        # whose right side reads this constant, failed where that side is
        # nonzero and the left side's c(x, y, v) is not stored
        if y != z:
            for w in arrows_out[z]:
                lhs = c * get((x, z, w), 0)
                if lhs != get((y, z, w), 0) * get((x, y, w), 0):
                    failed = failed or (x, y, z, w)
                elif lhs:
                    checked += 1
        for v in arrows_in[z]:
            if v != y and (y, v, z) in comp and (x, y, v) not in comp:
                failed = failed or (x, y, v, z)
    if failed:
        raise BuildError("associativity fails on chain "
                         + " -> ".join(str(arcs[a]) for a in failed))
    return checked


def _not_a_unit(key: tuple, c) -> BuildError:
    return BuildError(f"composition constant at {key} is {c!r}, "
                      "not an int in {-1, 1}")


def _check_mesh_identity(cat: Category):
    """The mesh identity Aᵀ.D = P_σ + P_σ², by which cone profiles are
    solved, on the hom lists; BuildError at the first arc whose row fails.
    Column W of the mesh matrix A is e_W + e_σW - Σ_{m in E_W} e_m for the
    almost split triangle σW -> E_W -> W -> σ²W."""
    sig, out, mids = cat.sigma_arc, cat.hom_out, cat.arrows_in
    row = [0] * cat.N   # row w of Aᵀ.D - P_σ - P_σ², 0 between rows
    for w in range(cat.N):
        for y in out[w]:
            row[y] += 1
        for y in out[sig[w]]:
            row[y] += 1
        for m in mids[w]:
            for y in out[m]:
                row[y] -= 1
        row[sig[w]] -= 1
        row[sig[sig[w]]] -= 1
        if any(row):
            raise BuildError("hom table breaks the mesh identity at "
                             f"{cat.labels[w]}")

