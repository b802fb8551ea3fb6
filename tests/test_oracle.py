import pytest

from cluster_loc import oracle
from cluster_loc.linalg import rank_rows
from cluster_loc.oracle import label_hom_matrix, labels
from oracle_reference import (Interval, Stalk, hom_dim_mod,
                              label_to_stalk, reference_label_hom_matrix,
                              tau_inv_stalk)


def ext1_dim_mod(n, x, y):
    """dim Ext^1_kQ(x, y) via 0 -> P_{j+1} -> P_i -> x -> 0, one pair at a
    time: the reference for the Ext^1 rows label_hom_matrix reads off its
    hom table."""
    if x.j == n:  # x projective
        return 0
    p0 = Interval(x.i, n)
    p1 = Interval(x.j + 1, n)
    # 0 -> Hom(x,y) -> Hom(P0,y) -> Hom(P1,y) -> Ext1(x,y) -> 0
    return (hom_dim_mod(n, p1, y) - hom_dim_mod(n, p0, y)
            + hom_dim_mod(n, x, y))


def test_module_homs_linear_a2():
    # modules over 1 -> 2: S1 = M(1,1), S2 = M(2,2), P1 = M(1,2)
    n = 2
    s1, s2, p1 = Interval(1, 1), Interval(2, 2), Interval(1, 2)
    assert hom_dim_mod(n, s1, s1) == 1
    assert hom_dim_mod(n, s1, s2) == 0
    assert hom_dim_mod(n, s2, p1) == 1     # socle inclusion
    assert hom_dim_mod(n, p1, s1) == 1     # top projection
    assert hom_dim_mod(n, p1, s2) == 0
    assert hom_dim_mod(n, s1, p1) == 0


def test_ext_linear_a2():
    n = 2
    s1, s2 = Interval(1, 1), Interval(2, 2)
    assert ext1_dim_mod(n, s1, s2) == 1    # the nonsplit extension P1
    assert ext1_dim_mod(n, s2, s1) == 0
    assert ext1_dim_mod(n, Interval(1, 2), s1) == 0  # projective source


def test_label_parsing():
    n = 4
    assert label_to_stalk(n, "M34") == Stalk(Interval(3, 4), 0)
    assert label_to_stalk(n, "SP2") == Stalk(Interval(2, 4), 1)
    assert len(labels(n)) == 14


def test_orbit_homs_match_frozen_counts():
    # total hom dimension over all ordered pairs of the fundamental domain
    expected = {1: 2, 2: 10, 3: 30, 4: 70}
    for n, want in expected.items():
        assert sum(map(sum, label_hom_matrix(n))) == want


def by_label(n):
    """The oracle's table as {(label, label): dim}."""
    labs = labels(n)
    return {(a, b): v for a, row in zip(labs, label_hom_matrix(n))
            for b, v in zip(labs, row)}


def test_orbit_homs_example_facts():
    m = by_label(4)
    assert m[("M44", "M14")] == 1
    assert m[("M14", "M44")] == 0
    assert m[("M44", "M34")] == 1
    assert m[("M14", "M34")] == 0
    assert m[("M11", "M34")] == 1
    assert m[("M14", "M11")] == 1
    assert m[("M44", "M11")] == 0
    # every object has a one-dimensional endomorphism space
    for lab in labels(4):
        assert m[(lab, lab)] == 1


def test_orbit_homs_shifted_projectives():
    n = 3
    m = by_label(n)
    # suspension is hom-preserving on the projective slice:
    # Hom(SPi, SPj) = Hom(Pi, Pj)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert m[(f"SP{i}", f"SP{j}")] == \
                hom_dim_mod(n, Interval(i, n), Interval(j, n))


def _ref_hom_dim_mod(n, x, y):
    """dim Hom_kQ(x, y) with the equation of every arrow v -> v+1 tried in
    turn; the reference for hom_dim_mod's shorter arrow range."""
    lo, hi = max(x.i, y.i), min(x.j, y.j)
    if lo > hi:
        return 0
    rows = []
    for v in range(1, n):
        if not (x.i <= v <= x.j and y.i <= v + 1 <= y.j):
            continue
        row = [0] * (hi - lo + 1)
        if v + 1 <= x.j:
            row[v + 1 - lo] += 1
        if y.i <= v:
            row[v - lo] -= 1
        if any(row):
            rows.append(row)
    return hi - lo + 1 - (rank_rows(rows) if rows else 0)


def _ref_hom_dim_orbit(n, x, y):
    """The orbit sum with the twists of y recomputed for each pair; the
    reference for the twists that label_hom_matrix computes once per label."""
    total = 0
    cur = y
    for _ in range(4):
        d = cur.shift - x.shift
        if d == 0:
            total += hom_dim_mod(n, x.mod, cur.mod)
        elif d == 1:
            total += ext1_dim_mod(n, x.mod, cur.mod)
        t = tau_inv_stalk(n, cur)
        cur = Stalk(t.mod, t.shift + 1)
        if cur.shift - x.shift > 1:
            break
    return total


@pytest.mark.parametrize("n", range(1, 13))
def test_orbit_homs_match_the_per_pair_reference(n):
    """Every interval pair: its hom dimension, and the value of the clamped
    class that a pair with overlapping supports goes to (y's start raised
    to x's, x's end lowered to y's, y's end lowered to x's end plus one,
    x moved to start at 1), is the direct solve of the pair's own system;
    there are n^2 classes.  Every label pair: the orbit table entry is the
    per-pair reference, and the table is the one built from interval and
    stalk objects."""
    intervals = [Interval(i, j) for i in range(1, n + 1)
                 for j in range(i, n + 1)]
    keys = set()
    for x in intervals:
        for y in intervals:
            want = _ref_hom_dim_mod(n, x, y)
            assert hom_dim_mod(n, x, y) == want
            if max(x.i, y.i) <= min(x.j, y.j):
                s, xj = x.i - 1, min(x.j, y.j)
                key = (1, xj - s, max(x.i, y.i) - s, min(y.j, xj + 1) - s)
                assert oracle._hom_dim_class(*key) == want
                keys.add(key)
    assert len(keys) == n * n
    stalks = [label_to_stalk(n, lab) for lab in labels(n)]
    assert label_hom_matrix(n) == tuple(tuple(_ref_hom_dim_orbit(n, x, y)
                                              for y in stalks)
                                        for x in stalks)
    assert label_hom_matrix(n) == reference_label_hom_matrix(n)


def test_cold_oracle_solves_once_per_clamped_class(monkeypatch):
    # the interval pairs at n = 12 with overlapping supports fall into
    # 12^2 = 144 clamped classes (translation alone leaves 12^3 = 1,728
    # classes), against 78^2 = 6,084 pairs; a class without equations
    # makes no rank_rows call
    want = label_hom_matrix(12)
    label_hom_matrix.cache_clear()
    oracle._hom_dim_class.cache_clear()
    calls = []
    monkeypatch.setattr(oracle, "rank_rows",
                        lambda rows: calls.append(rows) or rank_rows(rows))
    assert label_hom_matrix(12) == want
    assert oracle._hom_dim_class.cache_info().currsize == 144
    assert 0 < len(calls) <= 144
