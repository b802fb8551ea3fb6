import itertools

import pytest

from cluster_loc.arcs import (Arc, crosses, enumerate_arcs, make_arc, parse_arc,
                              rotate)
from smoothing_reference import smooth_crossing


def test_enumerate_counts():
    assert len(enumerate_arcs(1)) == 2
    assert len(enumerate_arcs(2)) == 5
    assert len(enumerate_arcs(4)) == 14
    for n in range(1, 9):
        assert len(enumerate_arcs(n)) == (n + 3) * n // 2


def test_enumerate_square():
    assert enumerate_arcs(1) == [Arc(0, 2), Arc(1, 3)]


def test_canonical_form_and_boundary():
    n = 4
    assert make_arc(n, 6, 1) == Arc(1, 6)
    assert make_arc(n, -1, 3) == Arc(3, 6)
    with pytest.raises(ValueError):
        make_arc(n, 0, 1)      # boundary edge
    with pytest.raises(ValueError):
        make_arc(n, 2, 2)
    assert parse_arc(n, "0-2") == Arc(0, 2)


def test_crosses_examples():
    assert crosses(Arc(0, 2), Arc(1, 3))
    assert not crosses(Arc(0, 2), Arc(0, 2))
    assert not crosses(Arc(0, 2), Arc(2, 4))  # shared endpoint


def test_crosses_symmetric_irreflexive_rotation_invariant():
    n = 5
    arcs = enumerate_arcs(n)
    for x, y in itertools.product(arcs, repeat=2):
        assert crosses(x, y) == crosses(y, x)
        for k in (1, 3):
            assert crosses(x, y) == crosses(rotate(n, x, k), rotate(n, y, k))
    for x in arcs:
        assert not crosses(x, x)


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
    arcs = enumerate_arcs(n)
    for x, y in itertools.product(arcs, repeat=2):
        assert crosses(x, y) == _crosses_by_endpoint_set(x, y)


def test_rotate_examples():
    n = 1
    assert rotate(n, Arc(1, 3), 1) == Arc(0, 2)
    n = 4
    for arc in enumerate_arcs(n):
        assert rotate(n, arc, n + 3) == arc
        assert rotate(n, rotate(n, arc, 1), -1) == arc


def test_smoothing_square_both_boundary():
    n = 1
    assert smooth_crossing(n, Arc(0, 2), Arc(1, 3)) == []


def test_smoothing_pentagon_single_arc():
    n = 2
    # the certified convention: resolving {1,3} x {0,2} keeps {0,3}, while
    # the opposite order resolves into boundary edges only
    assert smooth_crossing(n, Arc(1, 3), Arc(0, 2)) == [Arc(0, 3)]
    assert smooth_crossing(n, Arc(0, 2), Arc(1, 3)) == []


def test_smoothing_heptagon_two_arcs():
    n = 4
    out = smooth_crossing(n, Arc(0, 3), Arc(2, 5))
    assert out == [Arc(0, 2), Arc(3, 5)]


def test_smoothing_requires_crossing():
    n = 4
    with pytest.raises(ValueError):
        smooth_crossing(n, Arc(0, 2), Arc(0, 4))
