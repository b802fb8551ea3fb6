"""The package's value types, and the oracle reference's ``Interval`` and
``Stalk`` built on the same ``Value`` base, are immutable after
construction and behave as the frozen dataclasses they replace: equality
needs the same type and equal fields, the hash agrees with equality, and
the repr is ``Name(field=value, ...)``."""

from fractions import Fraction

import pytest

from cluster_loc import (Algebra, Arc, CertReport, InstanceConfig, LocHom,
                         Mat, Mor, Obj, RigidObject, Triangle, Zigzag,
                         build_category, rigid_object)
from cluster_loc.localization import algebra_of
from oracle_reference import Interval, Stalk


def _mor():
    return Mor(Obj((0,)), Obj((1, 2)), ((Fraction(1),), (Fraction(-1),)))


def _triangle_maps():
    """Maps 0 -> 1 + 2 -> 3 -> 4 that compose end to end, as a triangle's
    f, g and h do."""
    return (_mor(), Mor(Obj((1, 2)), Obj((3,)), ((1, 1),)),
            Mor(Obj((3,)), Obj((4,)), ((1,),)))


# each factory builds a fresh, equal value on every call; the tuple is its
# fields in declaration order
SAMPLES = {
    "Arc": (lambda: Arc(0, 2), (0, 2)),
    "Obj": (lambda: Obj((1, 1, 4)), ((1, 1, 4),)),
    "Mor": (_mor, (Obj((0,)), Obj((1, 2)),
                   ((Fraction(1),), (Fraction(-1),)))),
    "Mat": (lambda: Mat(1, 2, (Fraction(1), Fraction(2))),
            (1, 2, (Fraction(1), Fraction(2)))),
    "Interval": (lambda: Interval(2, 3), (2, 3)),
    "Stalk": (lambda: Stalk(Interval(2, 3), 1), (Interval(2, 3), 1)),
    "RigidObject": (lambda: RigidObject((0, 2)), ((0, 2),)),
    "CertReport": (lambda: CertReport(True, (("M11", "SX"),)),
                   (True, (("M11", "SX"),))),
    "Triangle": (lambda: Triangle(*_triangle_maps()), _triangle_maps()),
    "LocHom": (lambda: LocHom(Obj((0,)), Obj((1,)), (Obj((0,)), _mor()),
                              (Obj((1,)), _mor()), (_mor(),), 1),
               (Obj((0,)), Obj((1,)), (Obj((0,)), _mor()),
                (Obj((1,)), _mor()), (_mor(),), 1)),
    "Zigzag": (lambda: Zigzag(((_mor(), False),)), (((_mor(), False),),)),
    "InstanceConfig": (lambda: InstanceConfig(n=4, T=["M11"], seed=7),
                       (4, ["M11"], "A", 7, ["all"])),
}

FIELDS = {
    "Arc": ("a", "b"), "Obj": ("summands",), "Mor": ("src", "tgt", "m"),
    "Mat": ("rows", "cols", "entries"),
    "Interval": ("i", "j"), "Stalk": ("mod", "shift"),
    "RigidObject": ("arcs",),
    "CertReport": ("homdim_match", "exactness_failures"),
    "Triangle": ("f", "g", "h"),
    "LocHom": ("x", "y", "x_res", "y_res", "reps", "dim"),
    "Zigzag": ("steps",),
    "InstanceConfig": ("n", "T", "type", "seed", "suites"),
}


def _algebra():
    return Algebra((0, 1), ("a", "b"), ((0, 1),), {}, 3)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_cannot_be_assigned_or_deleted(name):
    value = SAMPLES[name][0]()
    for f in FIELDS[name]:
        before = getattr(value, f)
        with pytest.raises(AttributeError):
            setattr(value, f, before)
        with pytest.raises(AttributeError):
            delattr(value, f)
        assert getattr(value, f) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_equality_needs_the_same_type_and_equal_fields(name):
    make, fields = SAMPLES[name]
    value = make()
    assert tuple(getattr(value, f) for f in FIELDS[name]) == fields
    assert value == make() and not value != make()
    assert value != fields and fields != value
    assert value != object()


def test_equal_fields_of_different_types_are_unequal():
    assert Arc(0, 2) != Interval(0, 2)
    assert Interval(0, 2) != Arc(0, 2)
    assert Obj((1,)) != ((1,),)
    assert Obj((1,)) != Obj((1, 1))
    assert Mat(1, 1, (Fraction(1),)) != Mat(1, 1, (Fraction(2),))
    assert len({Arc(0, 2), Interval(0, 2), (0, 2)}) == 3


@pytest.mark.parametrize("name", sorted(set(SAMPLES) - {"InstanceConfig"}))
def test_hash_agrees_with_equality(name):
    make, fields = SAMPLES[name]
    assert hash(make()) == hash(make()) == hash(fields)
    assert len({make(), make()}) == 1


def test_instance_config_is_unhashable():
    # its T and suites are lists, as in the report it writes
    with pytest.raises(TypeError):
        hash(InstanceConfig(n=4, T=["M11"]))


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_repr_names_every_field(name):
    make, fields = SAMPLES[name]
    body = ", ".join(f"{f}={v!r}" for f, v in zip(FIELDS[name], fields))
    assert repr(make()) == f"{name}({body})"


def test_repr_literals():
    assert repr(Arc(0, 2)) == "Arc(a=0, b=2)"
    assert repr(Obj((1, 3))) == "Obj(summands=(1, 3))"
    assert repr(Stalk(Interval(1, 2), 0)) == \
        "Stalk(mod=Interval(i=1, j=2), shift=0)"
    assert repr(Mat(1, 1, (Fraction(1, 2),))) == \
        "Mat(rows=1, cols=1, entries=(Fraction(1, 2),))"
    assert str(Arc(0, 2)) == "0-2"


def test_arcs_sort_by_endpoints():
    arcs = [Arc(a, b) for a in range(4) for b in range(a + 2, 7)]
    shuffled = arcs[::2] + arcs[1::2][::-1]
    assert sorted(shuffled) == arcs
    for x in arcs:
        for y in arcs:
            key = ((x.a, x.b), (y.a, y.b))
            assert (x < y, x <= y, x > y, x >= y) == (
                key[0] < key[1], key[0] <= key[1], key[0] > key[1],
                key[0] >= key[1])
    with pytest.raises(TypeError):
        Arc(0, 2) < (0, 3)


def test_fields_bind_by_position_or_by_name():
    assert CertReport(homdim_match=True, exactness_failures=()) == \
        CertReport(True, ())
    assert CertReport(True, exactness_failures=()) == CertReport(True, ())
    for args, kwargs in [((True,), {}), ((True, (), 1), {}),
                         ((True,), {"exactness_failures": (), "extra": 1}),
                         ((True, ()), {"homdim_match": True}),
                         ((True,), {"homdim_match": True})]:
        with pytest.raises(TypeError, match="takes the fields homdim_match, "
                           "exactness_failures"):
            CertReport(*args, **kwargs)


def test_triangle_is_its_three_maps():
    """A triangle holds f, g and h only; its cone z is g's target, read
    off the map, and is no field to assign."""
    f, g, h = _triangle_maps()
    tri = Triangle(f, g, h)
    assert Triangle.__slots__ == ("f", "g", "h")
    assert tri.z is g.tgt
    with pytest.raises(AttributeError):
        tri.z = Obj(())


def test_rigid_object_memo_is_its_one_mutable_part():
    """A rigid object's memo slot is written once, in ``__init__``, like
    its arcs; the dict in it fills as results are computed.  Equality,
    hash and repr read the arcs only, and each object has its own memo."""
    t, u = RigidObject((0, 2)), RigidObject(arcs=(0, 2))
    assert t.memo == {} and t.memo is not u.memo
    memo = t.memo
    with pytest.raises(AttributeError):
        t.memo = {}
    with pytest.raises(AttributeError):
        del t.memo
    assert t.memo is memo
    t.memo["views"] = {}
    assert t == u and hash(t) == hash(u) and repr(t) == repr(u)
    with pytest.raises(TypeError):
        RigidObject((0, 2), {})


def test_constructors_still_check_their_arguments():
    with pytest.raises(ValueError, match="entry count 3 != 2x2"):
        Mat(2, 2, (Fraction(1),) * 3)
    with pytest.raises(ValueError, match="negative matrix dimensions"):
        Mat(-1, 0, ())


def test_algebra_equality_is_identity():
    alg = _algebra()
    assert alg == alg and hash(alg) == hash(alg)
    assert alg != _algebra()            # equal data, another algebra
    assert len({alg, _algebra()}) == 2
    for f in ("summands", "mult", "images"):
        with pytest.raises(AttributeError):
            setattr(alg, f, None)
    assert alg.images == {}
    assert repr(alg) == ("Algebra(summands=(0, 1), vertex_labels=('a', 'b'), "
                         "radical_pairs=((0, 1),), mult={}, dim=3)")


def test_algebra_of_hands_out_one_object_per_rigid_object():
    """The algebra is kept on the rigid object: the same object gets the
    same algebra, an equal object made again gets its own."""
    cat = build_category(4)
    t = rigid_object(cat, ["M44", "M14", "M11"])
    alg = algebra_of(cat, t)
    assert algebra_of(cat, t) is alg
    assert {alg: 1}[algebra_of(cat, t)] == 1
    again = rigid_object(cat, ["M44", "M14", "M11"])
    assert again == t
    other = algebra_of(cat, again)
    assert other is not alg and other != alg
    assert (other.summands, other.mult) == (alg.summands, alg.mult)
