"""The stalk model of the orbit construction, one object per interval and
per twist: the reference that the oracle's integer label table is checked
against.

These are the value types and helpers ``cluster_loc.oracle`` built its
table from before it computed twists and orbit sums directly as (interval
index, shift) pairs.  ``reference_label_hom_matrix`` is that construction:
Hom per interval pair through ``hom_dim_mod``, Ext^1 off the Hom rows, the
twists of each parsed label and one ``orbit_sum`` per label pair.
"""

from cluster_loc import oracle
from cluster_loc.oracle import labels
from cluster_loc.values import Value, setfield


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
    else the oracle's solve of the pair's clamped class (y's start raised
    to x's, x's end lowered to y's, then y's end lowered to x's end plus
    one, x moved to start at 1)."""
    if y.i > x.j or x.i > y.j:
        return 0
    s, xj = x.i - 1, min(x.j, y.j)
    return oracle._hom_dim_class(1, xj - s, max(x.i, y.i) - s,
                                 min(y.j, xj + 1) - s)


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


def orbit_sum(hom: list[list[int]], ext: list[list[int]],
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


def reference_label_hom_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """``oracle.label_hom_matrix(n)`` built from the objects above."""
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
    return tuple(tuple(orbit_sum(hom, ext, xs[0], ys) for ys in tw)
                 for xs in tw)
