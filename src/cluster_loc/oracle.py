"""Independent hom-dimension oracle from quiver representations.

The linear quiver 1 -> 2 -> ... -> n is fixed once.  Representations carry a
vector space at every vertex and a map *along* each arrow (V_i -> V_{i+1});
with this orientation P_i = M_{i..n} and I_i = M_{1..i}.  Interval modules
M_{ij} are built implicitly (all spaces are 0- or 1-dimensional) and Hom
spaces are computed by solving the arrow-commutation equations once per
clamped class of overlapping interval pairs (``_hom_dim_class``; 84 classes
at n = 7, 364 at n = 12), into one table indexed by interval; Ext^1 is read
off it via the projective resolution 0 -> P_{j+1} -> P_i -> M_{ij} -> 0.

On top of mod kQ sits a stalk model of the orbit construction: objects are
pairs (interval, shift), the inverse translate of an injective stalk jumps
the shift by one, and hom spaces between orbit representatives are the sums
over twists sum_k Hom_D(X, F^k Y) with F = inverse-translate-then-shift.
The twists F^k Y are computed once per label (``twists``), and every orbit
hom dimension is the same sum over them (``_orbit_sum``), taken by interval
index off the Hom and Ext^1 tables into one table by label index.
Everything here is deliberately independent of the mesh category so the two
sides can be compared as separate computations.
"""

from __future__ import annotations

from functools import lru_cache

from .linalg import rank_rows
from .values import Value, setfield


class Interval(Value):
    """The indecomposable kQ-module supported on i..j (1-based, i <= j <= n)."""

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int):
        setfield(self, "i", i)
        setfield(self, "j", j)


class Stalk(Value):
    """An interval placed in a single cohomological degree."""

    __slots__ = ("mod", "shift")

    def __init__(self, mod: Interval, shift: int):
        setfield(self, "mod", mod)
        setfield(self, "shift", shift)


def hom_dim_mod(n: int, x: Interval, y: Interval) -> int:
    """dim Hom_kQ(x, y) for intervals inside 1..n: 0 when the supports miss,
    else solved once per clamped class, x moved to start at 1."""
    if y.i > x.j or x.i > y.j:
        return 0
    s = x.i - 1
    return _hom_dim_class(1, min(x.j, y.j) - s, max(x.i, y.i) - s, y.j - s)


@lru_cache(maxsize=None)
def _hom_dim_class(xi: int, xj: int, yi: int, yj: int) -> int:
    """dim Hom_kQ(M_{xi..xj}, M_{yi..yj}) for overlapping supports, by
    solving the arrow-commutation equations.

    Unknowns are the vertex components f_v (one scalar per vertex where both
    intervals are supported); the arrow v -> v+1 contributes the equation
    f_{v+1} . x_arrow = y_arrow . f_v whenever its domain and codomain spaces
    are nonzero.  For intervals inside 1..n those arrows are
    max(xi, yi-1)..min(xj, yj-1), whatever n is, so translating both
    intervals translates the system.  It reads yi only through
    max(xi, yi-1) and yi <= v, the same for every yi <= xi as v >= xi, and
    xj only through min(xj, yj-1) and v+1 <= xj, true for every xj >= yj;
    so callers raise yi to xi and lower xj to yj: C(n+2, 3) classes in 1..n.
    """
    lo, hi = max(xi, yi), min(xj, yj)   # the slots are f_lo .. f_hi
    rows = []
    # the arrows v -> v+1 with x supported at v and y at v+1
    for v in range(max(xi, yi - 1), min(xj, yj - 1) + 1):
        row = [0] * (hi - lo + 1)
        if v + 1 <= xj:     # x's arrow map is the identity, f_{v+1} exists
            row[v + 1 - lo] += 1
        if yi <= v:         # y's arrow map is the identity, f_v exists
            row[v - lo] -= 1
        if any(row):
            rows.append(row)
    if not rows:
        return hi - lo + 1
    return hi - lo + 1 - rank_rows(rows)


def tau_inv_stalk(n: int, s: Stalk) -> Stalk:
    """Inverse translate in the derived category; injectives jump one shift."""
    m = s.mod
    if m.i > 1:
        return Stalk(Interval(m.i - 1, m.j - 1), s.shift)
    return Stalk(Interval(m.j, n), s.shift + 1)   # inverse translate of I_j is P_j[1]


def twists(n: int, y: Stalk) -> list[Stalk]:
    """F^k y for k = 0..3, F = inverse translate then shift; the shifts
    only grow along the list."""
    out = [y]
    for _ in range(3):
        t = tau_inv_stalk(n, out[-1])
        out.append(Stalk(t.mod, t.shift + 1))
    return out


def _orbit_sum(hom: list[list[int]], ext: list[list[int]],
               x: tuple[int, int], ys: list[tuple[int, int]]) -> int:
    """Sum of Hom_D(x, F^k y) over the twists ``ys`` of y; x and each twist
    are (interval index, shift) pairs into the tables ``hom`` and ``ext``."""
    k, shift = x
    total = 0
    for t, s in ys:
        d = s - shift
        if d == 0:
            total += hom[k][t]
        elif d == 1:
            total += ext[k][t]
        elif d > 1:
            break  # shifts only grow from here, no further contributions
    return total


# -- labelled fundamental domain -----------------------------------------


def format_module_label(i: int, j: int) -> str:
    return f"M{i},{j}" if j > 9 else f"M{i}{j}"


def labels(n: int) -> list[str]:
    """Canonical object labels: interval modules then shifted projectives."""
    out = [format_module_label(i, j)
           for i in range(1, n + 1) for j in range(i, n + 1)]
    out.extend(f"SP{i}" for i in range(1, n + 1))
    return out


def label_to_stalk(n: int, label: str) -> Stalk:
    if label.startswith("SP"):
        i = int(label[2:])
        if not 1 <= i <= n:
            raise ValueError(f"bad projective index in {label!r}")
        return Stalk(Interval(i, n), 1)
    if label.startswith("M"):
        body = label[1:]
        if "," in body:
            si, sj = body.split(",")
        elif len(body) == 2:
            si, sj = body[0], body[1]
        else:
            raise ValueError(f"ambiguous module label {label!r}; use Mi,j")
        i, j = int(si), int(sj)
        if not 1 <= i <= j <= n:
            raise ValueError(f"bad interval in {label!r}")
        return Stalk(Interval(i, j), 0)
    raise ValueError(f"unknown label {label!r}")


@lru_cache(maxsize=None)
def label_hom_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """All orbit hom dimensions between canonical labels, by label index:
    row a, column b for labels(n)[a] -> labels(n)[b]."""
    ivs = [Interval(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    at = {(x.i, x.j): k for k, x in enumerate(ivs)}
    hom = [[hom_dim_mod(n, x, y) for y in ivs] for x in ivs]
    # 0 -> Hom(x,y) -> Hom(P_i,y) -> Hom(P_{j+1},y) -> Ext1(x,y) -> 0
    ext = [[0] * len(ivs) if x.j == n else   # x projective
           [h + p1 - p0 for h, p1, p0 in zip(row, hom[at[(x.j + 1, n)]],
                                             hom[at[(x.i, n)]])]
           for x, row in zip(ivs, hom)]
    # each label's twists as (interval index, shift), its own stalk first
    tw = [[(at[(t.mod.i, t.mod.j)], t.shift)
           for t in twists(n, label_to_stalk(n, lab))] for lab in labels(n)]
    return tuple(tuple(_orbit_sum(hom, ext, xs[0], ys) for ys in tw)
                 for xs in tw)
