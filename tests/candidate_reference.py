"""The {0, +-1} candidate enumeration of indecomposable modules: the
reference that the string-module oracle is checked against.

For each dimension vector whose support is connected along the arrows, the
matrices on the Gabriel arrows range over {0, +-1}, one candidate per sign
orbit and only over zero patterns that connect every basis vector
(`candidates`).  Every other radical basis element is c b_(i,j) b_(j,k)
(`Algebra.composites`), so its action is forced.  Candidates are filtered by
the structure constants and indecomposability, then deduplicated by
`modules_isomorphic`.
"""

import itertools
from fractions import Fraction

from cluster_loc.linalg import Mat
from cluster_loc.modules import (Algebra, LambdaModule, is_indecomposable,
                                 modules_isomorphic)

F0, F1 = Fraction(0), Fraction(1)

# candidate_enumeration: the largest count of {0, +-1} arrow candidates per
# dimension vector, taken before the sign orbits, before it raises ValueError
CANDIDATE_LIMIT = 2_000_000


def candidate_enumeration(alg: Algebra, dim_bound: int) -> list[LambdaModule]:
    """The classes of indecomposables of total dimension <= bound, by total
    dimension and then dimension vector in `compositions` order.  Raises
    ValueError when a dimension vector has more than CANDIDATE_LIMIT arrow
    candidates, counted before any is dropped."""
    found: list[LambdaModule] = []
    arrows, composites = alg.arrow_pairs(), alg.composites()
    for total in range(1, dim_bound + 1):
        for dims in compositions(total, alg.r):
            support = [i for i in range(alg.r) if dims[i]]
            if len(component(support, arrows)) != len(support):
                continue
            slots = [(i, j) for (i, j) in arrows if dims[i] and dims[j]]
            count = 3 ** sum(dims[i] * dims[j] for (i, j) in slots)
            if count > CANDIDATE_LIMIT:
                raise ValueError(
                    f"candidate space too large ({count}) for dims {dims}; "
                    "reduce the bound")
            forced = [(i, j, k, c) for (i, j, k, c) in composites
                      if dims[i] and dims[j] and dims[k]]
            classes: list[LambdaModule] = []
            for mats in candidates(dims, slots):
                m = LambdaModule(alg, dims, dict(zip(slots, mats)))
                for (i, j, k, c) in forced:
                    m.act[(i, k)] = (m.act[(i, j)] * m.act[(j, k)]).scale(c)
                try:
                    m.validate()
                except ValueError:
                    continue
                if not is_indecomposable(m):
                    continue
                if any(modules_isomorphic(m, c) for c in classes):
                    continue
                classes.append(m)
            found.extend(classes)
    return found


def compositions(total: int, parts: int):
    """The dimension vectors of the given total, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def component(support: list, edges) -> set:
    """The vertices of the support reachable from its first vertex along
    the given (i, j) edges, in either direction."""
    adj = {}
    for (i, j) in edges:
        adj.setdefault(i, set()).add(j)
        adj.setdefault(j, set()).add(i)
    if not support:
        return set()
    seen = {support[0]}
    stack = [support[0]]
    sup = set(support)
    while stack:
        v = stack.pop()
        for w in adj.get(v, ()):
            if w in sup and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def candidates(dims, slots):
    """One {0, +-1} matrix tuple on the slots per orbit of the diagonal sign
    changes A_(i,j) -> D_i A_(i,j) D_j, over the connected zero patterns.

    The nodes are the basis vectors (i, a), and each nonzero entry
    A_(i,j)[a, b] is an edge (i, a) - (j, b).  A disconnected pattern is
    skipped: every forced composite entry follows a path of nonzero entries,
    so the module splits along the components.  D keeps the zero pattern.
    The entries that join two components of the graph so far, visited in
    slot order and row-major, form a spanning tree; these entries are +1,
    and every other nonzero entry takes both signs.  A sign change
    propagated from the root turns any orbit member into one with +1 on the
    tree, and a D fixing the tree's signs is constant, so it fixes every
    entry too.  Hence exactly one tuple per orbit.
    """
    offs = list(itertools.accumulate(dims, initial=0))
    cells = [(offs[i] + p // dims[j], offs[j] + p % dims[j])
             for (i, j) in slots for p in range(dims[i] * dims[j])]

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    for pattern in itertools.product((F0, F1), repeat=len(cells)):
        parent = list(range(offs[-1]))
        joins, free = 0, []
        for e, (a, b) in enumerate(cells):
            if pattern[e]:
                u, v = find(a), find(b)
                if u != v:
                    parent[u] = v
                    joins += 1
                else:
                    free.append(e)
        if joins != offs[-1] - 1:
            continue
        for signs in itertools.product((F1, -F1), repeat=len(free)):
            ents = list(pattern)
            for e, x in zip(free, signs):
                ents[e] = x
            it = iter(ents)
            yield tuple(Mat(dims[i], dims[j], tuple(itertools.islice(
                it, dims[i] * dims[j]))) for (i, j) in slots)
