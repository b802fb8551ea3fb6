import json
import random
import re

import pytest

from cluster_loc.arcs import Polygon, crosses, rotate
from cluster_loc.category import (BuildError, Obj, build_category,
                                  load_category)
from cluster_loc.oracle import label_hom_matrix
from cluster_loc.suites import cached_category
from cluster_loc.triangles import mesh_middle


def test_build_guard():
    with pytest.raises(ValueError):
        build_category(0)
    with pytest.raises(ValueError):
        build_category(13)


def test_n1_category():
    cat = cached_category(1)
    assert cat.N == 2
    assert len(cat.hom_deg) == 2      # identities only
    for x in range(2):
        for y in range(2):
            assert cat.hom1(x, y) == (x == y)


@pytest.mark.parametrize("n", range(1, 9))
def test_mesh_dimensions_match_crossing_rule(n):
    cat = cached_category(n)
    p = cat.polygon
    for x in range(cat.N):
        for y in range(cat.N):
            predicted = crosses(p, cat.arcs[x], rotate(p, cat.arcs[y], -1))
            assert cat.hom1(x, y) == predicted


@pytest.mark.parametrize("n", range(1, 9))
def test_mesh_dimensions_match_oracle(n):
    cat = cached_category(n)
    want = label_hom_matrix(n)
    for x in range(cat.N):
        for y in range(cat.N):
            assert int(cat.hom1(x, y)) == want[(cat.labels[x], cat.labels[y])]


def test_identity_unit_and_zero(cat4):
    x = cat4.obj(["M34"])
    f = cat4.basis_mor(cat4.arc_of_token("M44"), cat4.arc_of_token("M34"))
    assert cat4.compose(cat4.identity(x), f).m == f.m
    assert cat4.compose(f, cat4.identity(f.src)).m == f.m
    z = cat4.zero_mor(f.src, f.tgt)
    assert cat4.compose(f, cat4.zero_mor(f.src, f.src)).is_zero()
    assert z.is_zero()


def test_mesh_composite_vanishes(cat4):
    for z in range(cat4.N):
        tz = cat4.shift_arc(z)
        acc = None
        for m in mesh_middle(cat4, z):
            term = cat4.compose(cat4.basis_mor(m, z), cat4.basis_mor(tz, m))
            acc = term if acc is None else cat4.add_mor(acc, term)
        assert acc is not None and acc.is_zero()


def test_endomorphism_rings_are_one_dimensional(cat4):
    for x in range(cat4.N):
        assert cat4.hom_deg[(x, x)] == 0
        X = Obj((x,))
        assert cat4.dim_hom_obj(X, X) == 1


def test_suspension_is_autoequivalence(cat4):
    seen = {cat4.shift_arc(x) for x in range(cat4.N)}
    assert len(seen) == cat4.N
    for (x, y) in cat4.hom_deg:
        assert cat4.hom1(cat4.shift_arc(x), cat4.shift_arc(y))
    rng = random.Random(2)
    for _ in range(300):
        x, y, z = (cat4.random_obj(rng, 2) for _ in range(3))
        f = cat4.random_mor(rng, x, y)
        g = cat4.random_mor(rng, y, z)
        assert cat4.suspend_mor(cat4.compose(g, f)).m == \
            cat4.compose(cat4.suspend_mor(g), cat4.suspend_mor(f)).m


def test_suspension_period_and_zero(cat4):
    assert cat4.suspend_obj(cat4.zero_obj).is_zero()
    x = cat4.obj(["M24", "M11"])
    assert cat4.suspend_obj(x, cat4.n + 3) == x


def test_label_bridge_positions(cat4):
    assert cat4.labels[cat4.arc_index[cat4.arcs[cat4.arc_of_token("M44")]]] == "M44"
    assert str(cat4.arcs[cat4.arc_of_token("M44")]) == "1-3"
    assert str(cat4.arcs[cat4.arc_of_token("M14")]) == "1-6"
    assert str(cat4.arcs[cat4.arc_of_token("M11")]) == "4-6"
    assert str(cat4.arcs[cat4.arc_of_token("SP2")]) == "0-4"
    # suspension prefix: SM24 = SP2 (M24 is the second projective)
    assert cat4.arc_of_token("SM24") == cat4.arc_of_token("SP2")
    assert cat4.arc_of_token("SSM24") == cat4.shift_arc(cat4.arc_of_token("SP2"))
    with pytest.raises(ValueError):
        cat4.arc_of_token("M99")


def test_example_hom_direction(cat4):
    # the chosen representation orientation: the inclusion M44 -> M14 exists
    # (simple socle into the big interval), the reverse map does not
    a = cat4.arc_of_token("M44")
    b = cat4.arc_of_token("M14")
    assert cat4.hom1(a, b) and not cat4.hom1(b, a)


def test_mor_validation(cat4):
    x = cat4.obj(["M44"])
    y = cat4.obj(["M11"])
    assert not cat4.hom1(x.summands[0], y.summands[0])
    with pytest.raises(ValueError):
        cat4.mor(x, y, [[1]])
    with pytest.raises(ValueError):
        cat4.mor(x, y, [[0], [0]])      # wrong shape


def test_is_isomorphism(cat4):
    x = cat4.obj(["M34", "M44"])
    assert cat4.is_isomorphism(cat4.identity(x))
    assert cat4.is_isomorphism(cat4.scale_mor(2, cat4.identity(x)))
    f = cat4.basis_mor(cat4.arc_of_token("M44"), cat4.arc_of_token("M34"))
    assert not cat4.is_isomorphism(f)
    assert not cat4.is_isomorphism(cat4.zero_mor(x, x))


def test_right_minimal_reduce(cat4):
    m44 = cat4.arc_of_token("M44")
    m34 = cat4.arc_of_token("M34")
    f = cat4.basis_mor(m44, m34)
    red, split = cat4.right_minimal_reduce(f)
    assert red.m == f.m and split.is_zero()
    # pad with a summand mapping to zero: it must split off
    padded_src = cat4.obj([m44, cat4.arc_of_token("M11")])
    g = cat4.mor(padded_src, f.tgt,
                 [[1 if cat4.hom1(s, m34) and s == m44 else 0
                   for s in padded_src.summands]])
    red2, split2 = cat4.right_minimal_reduce(g)
    assert split2.summands == (cat4.arc_of_token("M11"),)
    assert red2.src.summands == (m44,)
    assert cat4.is_right_minimal(red2)
    assert not cat4.is_right_minimal(g)


def test_right_minimal_reduce_kills_iso_padding(cat4):
    # f + (id on an extra copy mapping into an extra target copy) stays
    # minimal, but a duplicated source column does not
    m44 = cat4.arc_of_token("M44")
    m34 = cat4.arc_of_token("M34")
    src = cat4.obj([m44, m44])
    dup = cat4.mor(src, cat4.obj([m34]), [[1, 1]])
    red, split = cat4.right_minimal_reduce(dup)
    assert len(red.src.summands) == 1 and split.summands == (m44,)


def test_every_e_with_fe_f_is_iso_on_minimal(cat4):
    # the defining property, checked over the solution space of f.e = f
    from cluster_loc.linalg import Mat, kernel_basis, mat_from_cols
    rng = random.Random(4)
    for _ in range(40):
        x = cat4.random_obj(rng, 2)
        y = cat4.random_obj(rng, 2)
        f0 = cat4.random_mor(rng, x, y)
        f, _ = cat4.right_minimal_reduce(f0)
        X = f.src
        slots = cat4.hom_slots(X, X)
        cols = [cat4.vectorize(cat4.compose(f, cat4.slot_mor(X, X, s)))
                for s in slots]
        ker = kernel_basis(mat_from_cols(cols, cat4.dim_hom_obj(X, f.tgt)))
        for c in range(ker.cols):
            u = cat4.mor_from_vec(X, X, [ker.at(r, c) for r in range(ker.rows)])
            e = cat4.add_mor(cat4.identity(X), u)
            assert cat4.is_isomorphism(e)


def test_serialization_roundtrip(tmp_path, cat4):
    d = cat4.to_dict()
    path = tmp_path / "cat.json"
    cat4.save(str(path))
    loaded = load_category(str(path))
    assert loaded.hom_deg == cat4.hom_deg
    assert loaded.comp == cat4.comp
    assert loaded.sig == cat4.sig
    assert loaded.labels == cat4.labels
    with pytest.raises(ValueError):
        load_category({"schema": "bogus"})
    assert d["schema"] == "cluster-loc/cat/v1"


def test_load_rejects_non_unit_constants(cat4):
    assert all(type(c) is int for c in cat4.comp.values())
    assert all(type(c) is int for c in cat4.sig.values())
    for table, at in (("comp", 3), ("sigma", 2)):
        d = cat4.to_dict()
        entry = d[table][0]
        entry[at] = "1/2"
        key = tuple(entry[:at])
        with pytest.raises(ValueError, match=re.escape(str(key))):
            load_category(d)


def test_mor_literal_roundtrip(cat4):
    f = cat4.parse_mor("M44,SM24 -> M34")
    assert cat4.format_mor(f) == "SP2,M44 -> M34 @ [[1,1]]"
    g = cat4.parse_mor(cat4.format_mor(f))
    assert g.m == f.m and g.src == f.src
    h = cat4.parse_mor("M44 -> M34 @ [[-1/2]]")
    assert h.m[0][0] == -0.5
    with pytest.raises(ValueError):
        cat4.parse_mor("M44 M34")
