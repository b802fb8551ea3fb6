"""Every chain of non-identity hom pairs, and the suspension checked on
every stored constant: the references that the build's associativity and
suspension checks are checked against.

This is the enumeration the build ran at n <= 5 before it read the chains
off the stored constants.  A chain x -> y -> z -> w (x = z allowed) reads
the four constants c(x, y, z), c(x, z, w), c(y, z, w) and c(x, y, w), and
holds when c(x, y, z) c(x, z, w) = c(y, z, w) c(x, y, w).  Every chain
numbers about 3 million at n = 12, so above n = 9 the tests read the
chains through one key (``chains_through``) instead.  The suspension pass
checks every stored constant on its own, as a plain loop.
"""


def all_chains(hom_deg) -> list[tuple[int, int, int, int]]:
    """Every chain x -> y -> z -> w with (x, y), (y, z) and (z, w)
    non-identity hom pairs, in pair order."""
    pairs = sorted(k for k in hom_deg if k[0] != k[1])
    out: dict[int, list[int]] = {}
    for (x, y) in pairs:
        out.setdefault(x, []).append(y)
    return [(x, y, z, w) for (x, y) in pairs for z in out.get(y, ())
            for w in out.get(z, ())]


def arrow_chains(hom_deg, firsts=None) -> list[tuple[int, int, int, int]]:
    """The chains of ``all_chains`` whose last step (z, w) is an arrow, a
    hom pair of degree 1, in the same order; only those whose first arc is
    in ``firsts``, unless it is None."""
    pairs = sorted(k for k in hom_deg if k[0] != k[1])
    out: dict[int, list[int]] = {}
    for (x, y) in pairs:
        out.setdefault(x, []).append(y)
    return [(x, y, z, w) for (x, y) in pairs
            if firsts is None or x in firsts for z in out.get(y, ())
            for w in out.get(z, ()) if hom_deg[z, w] == 1]


def orbit_firsts(sigma_arc) -> set[int]:
    """The least arc index of each orbit of the suspension."""
    out = set()
    for x in range(len(sigma_arc)):
        orbit, y = [x], sigma_arc[x]
        while y != x:
            orbit.append(y)
            y = sigma_arc[y]
        out.add(min(orbit))
    return out


def chains_through(hom_deg, key) -> set[tuple[int, int, int, int]]:
    """The chains of ``all_chains`` that read the constant at ``key``,
    found from the key instead of from every chain."""
    steps = {k for k in hom_deg if k[0] != k[1]}
    out: dict[int, list[int]] = {}
    into: dict[int, list[int]] = {}
    for (x, y) in steps:
        out.setdefault(x, []).append(y)
        into.setdefault(y, []).append(x)
    a, b, c = key
    found = set()
    if (a, b) in steps and (b, c) in steps:
        # key as c(x, y, z) and as c(y, z, w)
        found.update((a, b, c, w) for w in out.get(c, ()))
        found.update((x, a, b, c) for x in into.get(a, ()))
    if (b, c) in steps:
        # key as c(x, z, w): a -> y -> b -> c
        found.update((a, y, b, c) for y in out.get(a, ())
                     if (y, b) in steps)
    if (a, b) in steps:
        # key as c(x, y, w): a -> b -> z -> c
        found.update((a, b, z, c) for z in out.get(b, ())
                     if (z, c) in steps)
    return found


def sigma_functorial(comp, sig, sigma_arc) -> bool:
    """sig(x, z) c(x, y, z) = c(Sx, Sy, Sz) sig(x, y) sig(y, z) on every
    stored constant off the identities, each of whose (x, y), (y, z) and
    (x, z) is a key of ``sig``; the unstored zeros follow, as the
    suspension permutes the triples."""
    for (x, y, z), c in comp.items():
        if (x, z) not in sig:
            return False
        if x == y or y == z:
            continue    # the other step is an arc's identity
        if (x, y) not in sig or (y, z) not in sig:
            return False
        rhs = comp.get((sigma_arc[x], sigma_arc[y], sigma_arc[z]), 0)
        if sig[(x, z)] * c != rhs * sig[(x, y)] * sig[(y, z)]:
            return False
    return True


def chain_keys(chain):
    """The four constants a chain reads: left side, then right side."""
    x, y, z, w = chain
    return (x, y, z), (x, z, w), (y, z, w), (x, y, w)


def sides(comp, chain) -> tuple[int, int]:
    """(left side, right side) of the identity on a chain."""
    a, b, c, d = (comp.get(k, 0) for k in chain_keys(chain))
    return a * b, c * d


def chains_reading(chains) -> dict:
    """{constant key: the chains that read it}."""
    out: dict = {}
    for chain in chains:
        for k in set(chain_keys(chain)):
            out.setdefault(k, []).append(chain)
    return out
