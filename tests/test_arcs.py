import itertools

import pytest

from cluster_loc.arcs import (Arc, Polygon, crosses, enumerate_arcs, make_arc,
                              parse_arc, rotate)
from smoothing_reference import smooth_crossing


def test_enumerate_counts():
    assert len(enumerate_arcs(Polygon(1))) == 2
    assert len(enumerate_arcs(Polygon(2))) == 5
    assert len(enumerate_arcs(Polygon(4))) == 14
    for n in range(1, 9):
        assert len(enumerate_arcs(Polygon(n))) == (n + 3) * n // 2


def test_enumerate_square():
    assert enumerate_arcs(Polygon(1)) == [Arc(0, 2), Arc(1, 3)]


def test_canonical_form_and_boundary():
    p = Polygon(4)
    assert make_arc(p, 6, 1) == Arc(1, 6)
    assert make_arc(p, -1, 3) == Arc(3, 6)
    with pytest.raises(ValueError):
        make_arc(p, 0, 1)      # boundary edge
    with pytest.raises(ValueError):
        make_arc(p, 2, 2)
    assert parse_arc(p, "0-2") == Arc(0, 2)


def test_crosses_examples():
    sq = Polygon(1)
    assert crosses(sq, Arc(0, 2), Arc(1, 3))
    assert not crosses(sq, Arc(0, 2), Arc(0, 2))
    p = Polygon(2)
    assert not crosses(p, Arc(0, 2), Arc(2, 4))  # shared endpoint


def test_crosses_symmetric_irreflexive_rotation_invariant():
    p = Polygon(5)
    arcs = enumerate_arcs(p)
    for x, y in itertools.product(arcs, repeat=2):
        assert crosses(p, x, y) == crosses(p, y, x)
        for k in (1, 3):
            assert crosses(p, x, y) == crosses(p, rotate(p, x, k),
                                               rotate(p, y, k))
    for x in arcs:
        assert not crosses(p, x, x)


def _crosses_by_endpoint_set(x, y):
    """Four distinct endpoints, exactly one of y's strictly inside x: the
    reference for the interleaving test ``crosses`` makes."""
    if len({x.a, x.b, y.a, y.b}) < 4:
        return False

    def inside(v):
        return x.a < v < x.b

    return inside(y.a) != inside(y.b)


@pytest.mark.parametrize("n", range(1, 13))
def test_crosses_matches_the_endpoint_set_reference(n):
    p = Polygon(n)
    arcs = enumerate_arcs(p)
    for x, y in itertools.product(arcs, repeat=2):
        assert crosses(p, x, y) == _crosses_by_endpoint_set(x, y)


def test_rotate_examples():
    sq = Polygon(1)
    assert rotate(sq, Arc(1, 3), 1) == Arc(0, 2)
    p = Polygon(4)
    for arc in enumerate_arcs(p):
        assert rotate(p, arc, p.vertex_count) == arc
        assert rotate(p, rotate(p, arc, 1), -1) == arc


def test_smoothing_square_both_boundary():
    sq = Polygon(1)
    assert smooth_crossing(sq, Arc(0, 2), Arc(1, 3)) == []


def test_smoothing_pentagon_single_arc():
    p = Polygon(2)
    # the certified convention: resolving {1,3} x {0,2} keeps {0,3}, while
    # the opposite order resolves into boundary edges only
    assert smooth_crossing(p, Arc(1, 3), Arc(0, 2)) == [Arc(0, 3)]
    assert smooth_crossing(p, Arc(0, 2), Arc(1, 3)) == []


def test_smoothing_heptagon_two_arcs():
    p = Polygon(4)
    out = smooth_crossing(p, Arc(0, 3), Arc(2, 5))
    assert out == [Arc(0, 2), Arc(3, 5)]


def test_smoothing_requires_crossing():
    p = Polygon(4)
    with pytest.raises(ValueError):
        smooth_crossing(p, Arc(0, 2), Arc(0, 4))
