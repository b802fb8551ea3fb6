"""Every chain of non-identity hom pairs, and the suspension checked on
every stored constant: the references that the build's associativity and
suspension checks are checked against.

This is the enumeration the build ran at n <= 5 before it read the chains
off the stored constants.  A chain x -> y -> z -> w (x = z allowed) reads
the four constants c(x, y, z), c(x, z, w), c(y, z, w) and c(x, y, w), and
holds when c(x, y, z) c(x, z, w) = c(y, z, w) c(x, y, w).  The suspension
pass is the one the build ran at every rank before it checked the
suspension only on the constants whose second step is an arrow.
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


def arrow_chains(hom_deg) -> list[tuple[int, int, int, int]]:
    """The chains of ``all_chains`` whose last step (z, w) is an arrow, a
    hom pair of degree 1, in the same order."""
    return [c for c in all_chains(hom_deg) if hom_deg[c[2], c[3]] == 1]


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
