"""Exact scalars: an ``int`` when integral, a ``Fraction`` otherwise, and
never a float, through the constructors and the operations that build new
entries (suspension both ways, composition, solving, kernels, inverses)."""

import random
import re
from fractions import Fraction

import pytest

from cluster_loc.category import Mor, build_category
from cluster_loc.linalg import Mat, inverse, kernel_basis, scalar, solve_right
from cluster_loc.localization import Zigzag, forward, inv, zigzag_eval
from cluster_loc.suites import cached_category
from cluster_loc.triangles import complete_triangle, mesh_map_into
from conftest import is_connected


def _exact(values) -> bool:
    return all(type(v) is int or type(v) is Fraction for v in values)


def _normal(values) -> bool:
    """Exact, and every integral value an ``int``."""
    return _exact(values) and all(type(v) is int or v.denominator != 1
                                  for v in values)


def _entries(f: Mor) -> list:
    return [v for row in f.m for v in row]


def test_scalar_keeps_integral_values_as_int():
    for value, want in ((Fraction(4, 2), 2), (3, 3), ("6/3", 2), (" -1 ", -1),
                        (True, 1), (2.0, 2)):
        got = scalar(value)
        assert type(got) is int and got == want
    for value in (Fraction(1, 2), "1/2", 0.5, Fraction(-3, 6)):
        got = scalar(value)
        assert type(got) is Fraction and abs(got) == Fraction(1, 2)


def test_scalar_rejects_what_is_not_a_number():
    # what Fraction rejects with ZeroDivisionError or TypeError is a
    # ValueError here, as for a string that is not a number
    for value in ("1/0", None, [1], {}, "abc"):
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            scalar(value)


def test_constructors_normalise(cat4):
    m = Mat.from_rows([[Fraction(4, 2), Fraction(1, 2)], [0, "3"]])
    assert [type(v) for v in m.entries] == [int, Fraction, int, int]
    assert _normal(Mat.column([Fraction(6, 3), 1]).entries)
    scaled = Mat.identity(2).scale(Fraction(4, 2)).entries
    assert scaled == (2, 0, 0, 2) and _normal(scaled)
    x, y = next((x, y) for (x, y) in sorted(cat4.hom_deg) if x != y)
    X, Y = cat4.obj([x]), cat4.obj([y])
    for f in (cat4.mor(X, Y, [[Fraction(4, 2)]]),
              cat4.mor_from_vec(X, Y, [Fraction(4, 2)]),
              cat4.scale_mor(Fraction(6, 3), cat4.basis_mor(x, y)),
              cat4.random_mor(random.Random(0), X, Y),
              cat4.parse_mor(f"{cat4.labels[x]} -> {cat4.labels[y]} @ [[4/2]]")):
        assert all(type(v) is int for v in _entries(f))
    half = cat4.parse_mor(f"{cat4.labels[x]} -> {cat4.labels[y]} @ [[1/2]]")
    assert half.m == ((Fraction(1, 2),),) and type(half.m[0][0]) is Fraction
    assert type(cat4.mor(X, Y, [[Fraction(1, 2)]]).m[0][0]) is Fraction


def _fractional(cat, rng, f: Mor) -> Mor:
    """f with each nonzero entry replaced by a fraction, some integral."""
    return cat.mor(f.src, f.tgt, [[Fraction(rng.randint(-6, 6),
                                            rng.choice((1, 2, 3))) if v else 0
                                   for v in row] for row in f.m])


@pytest.mark.parametrize("n", range(4, 9))
def test_operations_never_produce_a_float(n):
    cat = cached_category(n)
    rng = random.Random(f"scalars:{n}")
    kinds = set()
    for _ in range(30):
        X, Y, Z = (cat.random_obj(rng, 3) for _ in range(3))
        ints = cat.random_mor(rng, X, Y)
        for f in (ints, _fractional(cat, rng, ints)):
            kinds.update(map(type, _entries(f)))
            for k in (1, -1):
                s = cat.suspend_mor(f, k)
                assert _exact(_entries(s))
                assert cat.suspend_mor(s, -k) == f
            for g in (cat.random_mor(rng, Y, Z),
                      _fractional(cat, rng, cat.random_mor(rng, Y, Z))):
                assert _normal(_entries(cat.compose(g, f)))
            pre, post = cat.pre_rows(f, Z), cat.post_rows(f, X)
            assert _normal(kernel_basis(*pre).entries)
            assert _normal(kernel_basis(*post).entries)
            # a right side in the image, so that a solution exists
            rows, ncols = post
            x = [rng.randint(-3, 3) for _ in range(ncols)]
            rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
            sol = solve_right(rows, rhs, ncols)
            assert sol is not None
            v, d, kb = sol
            assert all(type(e) is int for e in (*v, d)) and d > 0
            assert kb == kernel_basis(*post)
    assert kinds == {int, Fraction}


def test_integral_results_of_the_additive_layer_are_int(cat4, example_T):
    """Products, sums and scalings whose value is integral give ``int``
    entries, also when their operands hold fractions."""
    s = mesh_map_into(cat4, cat4.arc_of_token("M34"))
    two = cat4.scale_mor(2, s)
    half = cat4.scale_mor(Fraction(1, 2), s)
    assert {type(v) for v in _entries(half)} == {Fraction}
    ident = zigzag_eval(cat4, example_T, Zigzag((forward(two), inv(two))))
    a = Mat.from_rows([[1, 0], [0, 2]])
    results = [v for c in ident.comps for v in c.entries]
    results += (inverse(a) * a).entries
    results += _entries(cat4.scale_mor(Fraction(1, 2), two))
    results += _entries(cat4.add_mor(half, half))
    results += _entries(cat4.compose(
        cat4.scale_mor(2, cat4.identity(s.tgt)), half))
    results += Mat.identity(2).scale(Fraction(1, 2)).scale(2).entries
    assert results and all(type(v) is int for v in results)


@pytest.mark.parametrize("size", range(1, 6))
def test_inverse_is_normalised(size):
    rng = random.Random(f"inverse:{size}")
    for den in (1, 2, 3):
        # unit lower times upper triangular with a nonzero diagonal is
        # invertible; the inverse is integral when den is 1 and the
        # diagonal is +-1, fractional otherwise
        lower = [[1 if i == j else (Fraction(rng.randint(-4, 4), den)
                                    if j < i else 0) for j in range(size)]
                 for i in range(size)]
        upper = [[rng.choice((1, -1, 2)) if i == j else
                  (rng.randint(-4, 4) if j > i else 0) for j in range(size)]
                 for i in range(size)]
        m = Mat.from_rows(lower) * Mat.from_rows(upper)
        inv = inverse(Mat.from_rows(m.to_rows()))
        assert inv is not None and _normal(inv.entries)
        assert (inv * m).entries == Mat.identity(size).entries


def test_normalised_keys_hash_as_fraction_keys():
    """Mor.key() of int entries equals and hashes like the key of the same
    entries held as Fraction, so the triangle memo and the seeded draws of
    a completion see the same map: the second completion adds no memo
    entry and returns the memoised triangle.  Two kinds of map get an
    equal triangle instead: a multiple c·b(x, y) with c != 1 of the basis
    map of two arcs, stored under b(x, y), and a map that splits into
    blocks, assembled from its blocks' entries on each call."""
    rng = random.Random("keys")
    cat_a, cat_b = build_category(5), build_category(5)
    for _ in range(20):
        f = cat_a.random_mor(rng, cat_a.random_obj(rng, 3),
                             cat_a.random_obj(rng, 3))
        old = Mor(f.src, f.tgt, tuple(tuple(Fraction(v) for v in row)
                                      for row in f.m))
        assert all(type(v) is int for v in _entries(f))
        assert old.key() == f.key() and hash(old.key()) == hash(f.key())
        tri = complete_triangle(cat_a, f)
        entries = len(cat_a._memo["triangles"])
        again = complete_triangle(cat_a, old)
        assert len(cat_a._memo["triangles"]) == entries
        multiple = len(f.src) + len(f.tgt) == 2 and f.m[0][0] not in (0, 1)
        split = not is_connected(f)
        assert again == tri if multiple or split else again is tri
        other = complete_triangle(cat_b, old)
        assert (other.z, other.g, other.h) == (tri.z, tri.g, tri.h)
