"""Crossing resolution in the arc model: the reference that certified cones
are checked against.

Resolving the crossing of two arcs x and y gives the diagonals that join
each endpoint of x to the endpoint of y after it clockwise, and by the arc
model they form the middle term of a triangle y -> E -> x -> Sigma y.  The
triangle engine never reads this; ``tests/test_triangles.py`` and the
acceptance suite compare its output with the cones that the long-exact
profile forces.
"""

from cluster_loc.arcs import Arc, arc_or_none, crosses


def smooth_crossing(n: int, x: Arc, y: Arc) -> list[Arc]:
    """Resolve the crossing of x and y in the rank-n polygon; 0, 1 or 2
    diagonals.

    Each endpoint of x is joined to the endpoint of y that follows it
    clockwise (labels increase clockwise).  Boundary edges are dropped.
    With this orientation the output E fits in a triangle y -> E -> x -> Σy
    of the ambient category; the triangle engine certifies that fact.
    """
    if not crosses(x, y):
        raise ValueError(f"arcs {x} and {y} do not cross")
    m = n + 3
    ys = {y.a, y.b}
    out = []
    for e in (x.a, x.b):
        v = (e + 1) % m
        while v not in ys:
            v = (v + 1) % m
        arc = arc_or_none(n, e, v)
        if arc is not None:
            out.append(arc)
    return sorted(out)
