"""The [D | I] elimination that solved cone profiles before the mesh
identity did: the reference that ``profile_candidates`` is checked against.

D is the hom-dimension matrix.  Its kernel is 0 except at n = 5 and 7, where
it has dimension 2, and at n = 9 and 11, where it has dimension 4.  The free
coordinates of the reduced system are enumerated outright: each multiplicity
m_v is bounded by profile[v] because dim Hom(v, v) = 1, so the enumeration
is finite and complete.
"""

import itertools

from cluster_loc.linalg import Mat, reduced_rows
from cluster_loc.triangles import TriangleError
from conftest import hstack


def hom_dim_matrix(cat) -> Mat:
    """D with D[w][v] = dim Hom(w, v) over the indecomposables."""
    return Mat.from_rows([[1 if cat.hom1(w, v) else 0 for v in range(cat.N)]
                          for w in range(cat.N)])


def reduced_hom_dim_system(cat):
    """[D | I] in reduced row echelon form.

    Every row of the form is (E.D, E) for the recorded row operations E, so
    the reduced right-hand side of D.m = profile is E.profile.  Returns
    (pivot columns inside D, free columns, the nonzero entries of each column
    of E as (row, value), the nonzero free-column entries of each pivot row
    as (free position, value), common denominator d > 0); rows from
    len(pivots) on have a zero D part and pin the profile.
    """
    n = cat.N
    aug = hstack(hom_dim_matrix(cat), Mat.identity(n))
    red, pivots, d = reduced_rows(aug.to_rows())
    pivots = [p for p in pivots if p < n]
    free = [c for c in range(n) if c not in pivots]
    by_profile = [[(r, red[r][n + u]) for r in range(n) if red[r][n + u]]
                  for u in range(n)]
    by_free = [[(k, red[r][c]) for k, c in enumerate(free) if red[r][c]]
               for r in range(len(pivots))]
    return pivots, free, by_profile, by_free, d


def reference_candidates(cat, profile, system=None) -> list[tuple]:
    """The multiplicity vectors of every nonnegative integer solution of
    D.m = profile, sorted by (sum(m), m); raises TriangleError when there is
    none.  ``system`` is a ``reduced_hom_dim_system(cat)`` to reuse."""
    pivots, free, by_profile, by_free, d = (
        system or reduced_hom_dim_system(cat))
    rhs = [0] * cat.N
    for u, pu in enumerate(profile):
        if pu:
            for r, c in by_profile[u]:
                rhs[r] += c * pu
    if any(rhs[len(pivots):]):
        raise TriangleError("profile is not in the image of the "
                            "hom-dimension matrix")
    found = []
    for assign in itertools.product(*(range(profile[c] + 1) for c in free)):
        mults = [0] * cat.N
        for c, v in zip(free, assign):
            mults[c] = v
        for r, pc in enumerate(pivots):
            val = rhs[r]
            for k, c in by_free[r]:
                val -= c * assign[k]
            q, rem = divmod(val, d)
            if rem or q < 0:
                break
            mults[pc] = q
        else:
            found.append(tuple(mults))
    found.sort(key=lambda m: (sum(m), m))
    if not found:
        raise TriangleError("profile admits no nonnegative integer solution")
    return found
