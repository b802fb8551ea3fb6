"""Independent hom-dimension oracle from quiver representations.

The linear quiver 1 -> 2 -> ... -> n is fixed once.  Representations carry a
vector space at every vertex and a map *along* each arrow (V_i -> V_{i+1});
with this orientation P_i = M_{i..n} and I_i = M_{1..i}.  Interval modules
M_{ij} are built implicitly (all spaces are 0- or 1-dimensional) and Hom
spaces are computed by solving the arrow-commutation equations once per
clamped class of overlapping interval pairs (``_hom_dim_class``; n^2
classes, 49 at n = 7 and 144 at n = 12), into one table indexed by
interval; Ext^1 is read off it via the projective resolution
0 -> P_{j+1} -> P_i -> M_{ij} -> 0.

On top of mod kQ sits a stalk model of the orbit construction: objects are
pairs (interval, shift), the inverse translate of an injective stalk jumps
the shift by one, and hom spaces between orbit representatives are the sums
over twists sum_k Hom_D(X, F^k Y) with F = inverse-translate-then-shift.
The twists F^k Y are computed once per label, as (interval index, shift)
pairs; the shifts only grow along them, so for a source X at shift s the
sum is one Hom entry at the twist of shift s plus one Ext^1 entry at the
twist of shift s + 1, read off the Hom and Ext^1 tables into one table by
label index.
Everything here is deliberately independent of the mesh category so the two
sides can be compared as separate computations.
"""

from __future__ import annotations

from functools import lru_cache

from .linalg import rank_rows


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
    once xj <= yj it reads yj only through min(xj, yj) and
    min(xj, yj-1), both xj for every yj >= xj + 1.  So callers raise yi to
    xi, lower xj to yj and then yj to xj + 1: n^2 classes in 1..n.
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


# -- labelled fundamental domain -----------------------------------------


def format_module_label(i: int, j: int) -> str:
    return f"M{i},{j}" if j > 9 else f"M{i}{j}"


def labels(n: int) -> list[str]:
    """Canonical object labels: interval modules then shifted projectives."""
    out = [format_module_label(i, j)
           for i in range(1, n + 1) for j in range(i, n + 1)]
    out.extend(f"SP{i}" for i in range(1, n + 1))
    return out


@lru_cache(maxsize=None)
def label_hom_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """All orbit hom dimensions between canonical labels, by label index:
    row a, column b for labels(n)[a] -> labels(n)[b]."""
    ivs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    at = {iv: k for k, iv in enumerate(ivs)}
    # the clamped classes with x moved to start at 1: solve[e - 1][b - 1][c]
    # is the class (1, e, b, e + c), y ending past x's end e when c = 1
    solve = [[[_hom_dim_class(1, e, b, e + c) for c in range(1 + (e < n))]
              for b in range(1, e + 1)] for e in range(1, n + 1)]
    hom = [[solve[min(xj, yj) - xi][max(yi - xi, 0)][yj > xj]
            if yi <= xj and xi <= yj else 0 for yi, yj in ivs]
           for xi, xj in ivs]
    # 0 -> Hom(x,y) -> Hom(P_i,y) -> Hom(P_{j+1},y) -> Ext1(x,y) -> 0
    ext = [[0] * len(ivs) if xj == n else   # x projective
           [h + p1 - p0 for h, p1, p0 in zip(row, hom[at[(xj + 1, n)]],
                                             hom[at[(xi, n)]])]
           for (xi, xj), row in zip(ivs, hom)]
    # the labels as (interval index, shift): the intervals, then SP_i = P_i[1]
    stalks = [(k, 0) for k in range(len(ivs))]
    stalks += [(at[(i, n)], 1) for i in range(1, n + 1)]
    # F raises the shift by 1 or 2, so a source at shift s meets at most
    # one twist F^k y (k = 0..3) at shift s, read in hom, and one at s + 1,
    # read in ext: per label y and s, those two columns, or that of a zero
    # appended to each row
    zero = len(ivs)
    cols: tuple[list, list] = ([], [])
    for k, s in stalks:
        (i, j), at_shift = ivs[k], {}
        for _ in range(4):
            at_shift[s] = at[(i, j)]
            # F: inverse translate, injectives I_j to P_j[1], then shift
            i, j, s = (i - 1, j - 1, s + 1) if i > 1 else (j, n, s + 2)
        for sx in (0, 1):
            cols[sx].append((at_shift.get(sx, zero),
                             at_shift.get(sx + 1, zero)))
    out = []
    for k, s in stalks:
        h, e = hom[k] + [0], ext[k] + [0]
        out.append(tuple([h[a] + e[b] for a, b in cols[s]]))
    return tuple(out)
