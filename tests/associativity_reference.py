"""Every chain of non-identity hom pairs: the reference that the build's
associativity check is checked against.

This is the enumeration the build ran at n <= 5 before it read the chains
off the stored constants.  A chain x -> y -> z -> w (x = z allowed) reads
the four constants c(x, y, z), c(x, z, w), c(y, z, w) and c(x, y, w), and
holds when c(x, y, z) c(x, z, w) = c(y, z, w) c(x, y, w).
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
