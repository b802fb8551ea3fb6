"""Independent hom-dimension oracle from quiver representations.

The linear quiver 1 -> 2 -> ... -> n is fixed once.  Representations carry a
vector space at every vertex and a map *along* each arrow (V_i -> V_{i+1});
with this orientation P_i = M_{i..n} and I_i = M_{1..i}.  Interval modules
M_{ij} are built implicitly (all spaces are 0- or 1-dimensional) and Hom
spaces are computed by solving the arrow-commutation equations, Ext^1 via the
two-term projective resolution 0 -> P_{j+1} -> P_i -> M_{ij} -> 0.

On top of mod kQ sits a stalk model of the orbit construction: objects are
pairs (interval, shift), the inverse translate of an injective stalk jumps
the shift by one, and hom spaces between orbit representatives are the sums
over twists sum_k Hom_D(X, F^k Y) with F = inverse-translate-then-shift.
The twists F^k Y are computed once per label (``twists``), and every orbit
hom dimension is the same sum over them (``_orbit_sum``).
Everything here is deliberately independent of the mesh category so the two
sides can be compared as separate computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .linalg import rank_rows


@dataclass(frozen=True)
class Interval:
    """The indecomposable kQ-module supported on i..j (1-based, i <= j <= n)."""

    i: int
    j: int


@dataclass(frozen=True)
class Stalk:
    """An interval placed in a single cohomological degree."""

    mod: Interval
    shift: int


@lru_cache(maxsize=None)
def hom_dim_mod(n: int, x: Interval, y: Interval) -> int:
    """dim Hom_kQ(x, y) by solving the arrow-commutation equations, once
    per interval pair.

    Unknowns are the vertex components f_v (one scalar per vertex where both
    intervals are supported); the arrow v -> v+1 contributes the equation
    f_{v+1} . x_arrow = y_arrow . f_v whenever its domain and codomain spaces
    are nonzero.
    """
    lo, hi = max(x.i, y.i), min(x.j, y.j)   # the slots are f_lo .. f_hi
    if lo > hi:
        return 0
    rows = []
    # the arrows v -> v+1 with x supported at v and y at v+1
    for v in range(max(1, x.i, y.i - 1), min(n - 1, x.j, y.j - 1) + 1):
        row = [0] * (hi - lo + 1)
        if v + 1 <= x.j:    # x's arrow map is the identity, f_{v+1} exists
            row[v + 1 - lo] += 1
        if y.i <= v:        # y's arrow map is the identity, f_v exists
            row[v - lo] -= 1
        if any(row):
            rows.append(row)
    if not rows:
        return hi - lo + 1
    return hi - lo + 1 - rank_rows(rows)


def ext1_dim_mod(n: int, x: Interval, y: Interval) -> int:
    """dim Ext^1_kQ(x, y) via 0 -> P_{j+1} -> P_i -> x -> 0."""
    if x.j == n:  # x projective
        return 0
    p0 = Interval(x.i, n)
    p1 = Interval(x.j + 1, n)
    # 0 -> Hom(x,y) -> Hom(P0,y) -> Hom(P1,y) -> Ext1(x,y) -> 0
    return (hom_dim_mod(n, p1, y) - hom_dim_mod(n, p0, y)
            + hom_dim_mod(n, x, y))


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


def _orbit_sum(n: int, x: Stalk, ys: list[Stalk]) -> int:
    """Sum of Hom_D(x, F^k y) over the twists ``ys = twists(n, y)``."""
    total = 0
    for cur in ys:
        d = cur.shift - x.shift
        if d == 0:
            total += hom_dim_mod(n, x.mod, cur.mod)
        elif d == 1:
            total += ext1_dim_mod(n, x.mod, cur.mod)
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
def label_hom_matrix(n: int) -> dict[tuple[str, str], int]:
    """All orbit hom dimensions between canonical labels."""
    labs = labels(n)
    stalks = {lab: label_to_stalk(n, lab) for lab in labs}
    tw = {lab: twists(n, s) for lab, s in stalks.items()}
    return {(a, b): _orbit_sum(n, stalks[a], tw[b])
            for a in labs for b in labs}
