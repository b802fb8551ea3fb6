"""Diagonals of a convex polygon: the object-level combinatorics.

The rank-n model polygon has n+3 vertices, labelled 0..n+2 clockwise; every
function here takes the rank n.  A diagonal (``Arc``) is stored with
``a < b`` and ``2 <= b - a <= n + 1``; boundary edges are not arcs and play
the role of the zero object wherever a smoothing produces them.

The suspension acts on arcs by subtracting 1 from both endpoints mod n+3;
``rotate(n, x, k)`` applies that shift k times.
"""

from __future__ import annotations

from functools import total_ordering

from .values import Value, setfield


@total_ordering
class Arc(Value):
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        setfield(self, "a", a)
        setfield(self, "b", b)

    def __eq__(self, other):
        if other.__class__ is not Arc:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __lt__(self, other):
        if other.__class__ is not Arc:
            return NotImplemented
        return (self.a, self.b) < (other.a, other.b)

    def __str__(self) -> str:
        return f"{self.a}-{self.b}"


def make_arc(n: int, a: int, b: int) -> Arc:
    """Canonical arc with endpoints a, b (mod n+3); raises on boundary edges."""
    arc = arc_or_none(n, a, b)
    if arc is None:
        raise ValueError(f"({a},{b}) is not a diagonal of the {n + 3}-gon")
    return arc


def arc_or_none(n: int, a: int, b: int) -> Arc | None:
    a %= n + 3
    b %= n + 3
    if a > b:
        a, b = b, a
    if not (2 <= b - a <= n + 1):
        return None
    return Arc(a, b)


def parse_arc(n: int, text: str) -> Arc:
    parts = text.split("-")
    if len(parts) != 2:
        raise ValueError(f"bad arc literal {text!r}; expected 'a-b'")
    return make_arc(n, int(parts[0]), int(parts[1]))


def enumerate_arcs(n: int) -> list[Arc]:
    """All (n+3)n/2 diagonals, lexicographic in (a, b)."""
    out = []
    for a in range(n + 3):
        for b in range(a + 2, n + 3):
            if b - a <= n + 1:
                out.append(Arc(a, b))
    return out


def crosses(x: Arc, y: Arc) -> bool:
    """True iff x and y intersect in the polygon interior.

    Endpoints must strictly interleave; equal arcs and arcs sharing an
    endpoint do not cross.
    """
    return x.a < y.a < x.b < y.b or y.a < x.a < y.b < x.b


def rotate(n: int, x: Arc, k: int) -> Arc:
    """Shift both endpoints by -k mod n+3 (k = 1 is one suspension step)."""
    arc = arc_or_none(n, x.a - k, x.b - k)
    assert arc is not None  # rotation preserves the cyclic gap pattern
    return arc
