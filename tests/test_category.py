import copy
import hashlib
import itertools
import json
import random
import re
from fractions import Fraction

import pytest

from cluster_loc import category, oracle
from cluster_loc.arcs import Arc, crosses, rotate
from cluster_loc.category import (BuildError, Category, Obj, _quotient_1d,
                                  build_category)
from cluster_loc.linalg import reduced_rows
from cluster_loc.modules import _induced
from cluster_loc.oracle import label_hom_matrix, labels
from cluster_loc.suites import cached_category
from associativity_reference import (all_chains, arrow_chains, chain_keys,
                                     chains_reading, chains_through,
                                     orbit_firsts, sides, sigma_functorial)
from conftest import (as_rows, is_isomorphism, is_right_minimal,
                      mat_from_cols, right_minimal_reduce, sample_rigid,
                      slot_hom_functor_matrix, slot_post_matrix)


def test_build_guard():
    with pytest.raises(ValueError):
        build_category(0)
    with pytest.raises(ValueError):
        build_category(13)
    # a bool is not rank 1, and a float or a string is not a rank at all
    for rank in (True, False, 4.0, "4", None):
        with pytest.raises(ValueError, match="rank must be an int"):
            build_category(rank)


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
    for x in range(cat.N):
        for y in range(cat.N):
            predicted = crosses(cat.arcs[x], rotate(n, cat.arcs[y], -1))
            assert cat.hom1(x, y) == predicted


@pytest.mark.parametrize("n", range(1, 9))
def test_mesh_dimensions_match_oracle(n):
    cat = cached_category(n)
    want = oracle_by_label(n)
    for x in range(cat.N):
        for y in range(cat.N):
            assert int(cat.hom1(x, y)) == want[(cat.labels[x], cat.labels[y])]


def oracle_by_label(n):
    """The oracle's table as {(label, label): dim}."""
    labs = labels(n)
    return {(a, b): v for a, row in zip(labs, label_hom_matrix(n))
            for b, v in zip(labs, row)}


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
        for m in cat4.arrows_in[z]:
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
    assert is_isomorphism(cat4, cat4.identity(x))
    assert is_isomorphism(cat4, cat4.scale_mor(2, cat4.identity(x)))
    f = cat4.basis_mor(cat4.arc_of_token("M44"), cat4.arc_of_token("M34"))
    assert not is_isomorphism(cat4, f)
    assert not is_isomorphism(cat4, cat4.zero_mor(x, x))


def test_right_minimal_reduce(cat4):
    m44 = cat4.arc_of_token("M44")
    m34 = cat4.arc_of_token("M34")
    f = cat4.basis_mor(m44, m34)
    red, split = right_minimal_reduce(cat4, f)
    assert red.m == f.m and split.is_zero()
    # pad with a summand mapping to zero: it must split off
    padded_src = cat4.obj([m44, cat4.arc_of_token("M11")])
    g = cat4.mor(padded_src, f.tgt,
                 [[1 if cat4.hom1(s, m34) and s == m44 else 0
                   for s in padded_src.summands]])
    red2, split2 = right_minimal_reduce(cat4, g)
    assert split2.summands == (cat4.arc_of_token("M11"),)
    assert red2.src.summands == (m44,)
    assert is_right_minimal(cat4, red2)
    assert not is_right_minimal(cat4, g)


def test_right_minimal_reduce_kills_iso_padding(cat4):
    # f + (id on an extra copy mapping into an extra target copy) stays
    # minimal, but a duplicated source column does not
    m44 = cat4.arc_of_token("M44")
    m34 = cat4.arc_of_token("M34")
    src = cat4.obj([m44, m44])
    dup = cat4.mor(src, cat4.obj([m34]), [[1, 1]])
    red, split = right_minimal_reduce(cat4, dup)
    assert len(red.src.summands) == 1 and split.summands == (m44,)


def test_every_e_with_fe_f_is_iso_on_minimal(cat4):
    # the defining property, checked over the solution space of f.e = f
    from cluster_loc.linalg import kernel_basis
    rng = random.Random(4)
    for _ in range(40):
        x = cat4.random_obj(rng, 2)
        y = cat4.random_obj(rng, 2)
        f0 = cat4.random_mor(rng, x, y)
        f, _ = right_minimal_reduce(cat4, f0)
        X = f.src
        slots = cat4.hom_slots(X, X)
        cols = [cat4.vectorize(cat4.compose(f, cat4.slot_mor(X, X, s)))
                for s in slots]
        ker = kernel_basis(*as_rows(
            mat_from_cols(cols, cat4.dim_hom_obj(X, f.tgt))))
        for c in range(ker.cols):
            u = cat4.mor_from_vec(X, X, [ker.at(r, c) for r in range(ker.rows)])
            e = cat4.add_mor(cat4.identity(X), u)
            assert is_isomorphism(cat4, e)


def test_serialization_roundtrip(tmp_path, cat4):
    path = tmp_path / "cat.json"
    cat4.save(str(path))
    with open(path) as fh:
        assert json.load(fh) == cat4.to_dict()
    assert cat4.to_dict()["schema"] == "cluster-loc/cat/v1"


def test_tables_store_nonzero_constants():
    """A built table keeps no zero composition constant, though 308 chains
    of hom pairs at n = 8 compose to zero."""
    cat = cached_category(8)
    assert all(cat.comp.values())
    zeros = [(x, y, z) for (x, y) in cat.hom_deg for z in cat.hom_out[y]
             if cat.hom1(x, z) and (x, y, z) not in cat.comp]
    assert len(zeros) == 308


def test_unit_tables_of_ints(cat4):
    # every built constant is an int in {-1, 1}
    assert all(type(c) is int and c in (-1, 1)
               for table in (cat4.comp, cat4.sig) for c in table.values())
    # values outside {-1, 1}, or not ints, fail the table checks by key
    key3 = next(k for k, c in cat4.comp.items() if c and k[0] != k[1] != k[2])
    key2 = next(k for k in cat4.sig if k[0] != k[1])
    for name, key, bad in (("comp", key3, 2), ("comp", key3, -2),
                           ("sig", key2, 2),
                           ("comp", key3, float(cat4.comp[key3])),
                           ("sig", key2, Fraction(cat4.sig[key2]))):
        tables = {"comp": dict(cat4.comp), "sig": dict(cat4.sig)}
        tables[name][key] = bad
        with pytest.raises(BuildError, match=re.escape(f"at {key} is")):
            category._check_tables(_planted(cat4, **tables))


def test_suspension_table_must_cover_the_hom_pairs(cat4):
    key = next(k for k in cat4.sig if k[0] != k[1])
    sig = {k: c for k, c in cat4.sig.items() if k != key}
    with pytest.raises(BuildError, match="^suspension table does not cover "
                                         "exactly the hom pairs$"):
        category._check_tables(_planted(cat4, sig=sig))


def test_obj_rejects_an_arc_of_another_polygon(cat4):
    # the same ValueError as an int out of range, not a KeyError
    for summand in (Arc(0, 20), Arc(1, 8), 14):
        with pytest.raises(ValueError):
            cat4.obj([summand])
    assert cat4.obj([Arc(0, 2)]) == Obj((cat4.arc_index[Arc(0, 2)],))


def test_object_tokens_reject_an_empty_token(cat4):
    # an empty token is an error, not a token to skip
    for text in ("M34,", "M34,,M13", ",M34", "M34, ,M13"):
        with pytest.raises(ValueError):
            cat4.parse_obj_tokens(text)
        with pytest.raises(ValueError):
            cat4.parse_mor(f"{text} -> M34")
    for text in ("0", "", " 0 "):
        assert cat4.parse_obj_tokens(text) == cat4.zero_obj
    assert cat4.parse_obj_tokens("M34, M13") == cat4.obj(["M34", "M13"])


def _direct_sum_reference(f, g):
    """The entries of f + g: the block-diagonal matrix on f's summands
    followed by g's, whose sorted position p reads the written position
    order[p], ties in written order."""
    src = f.src.summands + g.src.summands
    tgt = f.tgt.summands + g.tgt.summands
    dense = [[0] * len(src) for _ in tgt]
    for m, di, dj in ((f.m, 0, 0),
                      (g.m, len(f.tgt.summands), len(f.src.summands))):
        for i, row in enumerate(m):
            for j, v in enumerate(row):
                dense[di + i][dj + j] = v
    cols = sorted(range(len(src)), key=lambda k: (src[k], k))
    rows = sorted(range(len(tgt)), key=lambda k: (tgt[k], k))
    return tuple(tuple(dense[a][b] for b in cols) for a in rows)


def test_direct_sum_mor_entries(cat4):
    # summands drawn with repeats from an arc and three arcs it maps to, so
    # the two sides interleave and tie; entries are distinct, so a block
    # written to the wrong position shows
    x = next(a for a in range(cat4.N) if len(cat4.hom_out[a]) >= 4)
    pool = cat4.hom_out[x][:4]
    rng = random.Random("direct-sum")
    nonzero = 0
    for _ in range(60):
        objs = [Obj(tuple(sorted(rng.choice(pool)
                                 for _ in range(rng.randint(0, 3)))))
                for _ in range(4)]
        f, g = (cat4.mor_from_vec(X, Y, [Fraction(base + k) for k in
                                         range(cat4.dim_hom_obj(X, Y))])
                for X, Y, base in ((objs[0], objs[1], 1),
                                   (objs[2], objs[3], 101)))
        fs = cat4.direct_sum_mor(f, g)
        assert fs.src == Obj(tuple(sorted(f.src.summands + g.src.summands)))
        assert fs.tgt == Obj(tuple(sorted(f.tgt.summands + g.tgt.summands)))
        assert fs.m == _direct_sum_reference(f, g)
        nonzero += sum(1 for row in fs.m for v in row if v)
    assert nonzero > 100


def test_mor_literal_roundtrip(cat4):
    f = cat4.parse_mor("M44,SM24 -> M34")
    assert cat4.format_mor(f) == "SP2,M44 -> M34 @ [[1,1]]"
    g = cat4.parse_mor(cat4.format_mor(f))
    assert g.m == f.m and g.src == f.src
    h = cat4.parse_mor("M44 -> M34 @ [[-1/2]]")
    assert h.m[0][0] == -0.5
    with pytest.raises(ValueError):
        cat4.parse_mor("M44 M34")


def test_mor_literal_matrix_follows_written_token_order(cat4):
    # SM24 is SP2, which sorts before M44: the written columns are swapped
    f = cat4.parse_mor("M44,SM24 -> M34 @ [[2,3]]")
    assert cat4.format_mor(f) == "SP2,M44 -> M34 @ [[3,2]]"
    g = cat4.parse_mor("M44,SP2 -> M44,SP2 @ [[1,0],[0,2]]")
    assert cat4.format_mor(g) == "SP2,M44 -> SP2,M44 @ [[2,0],[0,1]]"
    # repeated summands keep their written order
    h = cat4.parse_mor("M44,SM24,M44 -> M34 @ [[1,2,3]]")
    assert cat4.format_mor(h) == "SP2,M44,M44 -> M34 @ [[2,1,3]]"


@pytest.mark.parametrize("matrix", ["[[1,1],junk]", "[x[1,1]]", "[[1,1]x]",
                                    "[[1,1]][[1,1]]", "[[1,]]", "[[1,x]]",
                                    "[[1]]", "[[1,1],[1,1]]"])
def test_mor_literal_rejects_malformed_matrix(cat4, matrix):
    with pytest.raises(ValueError):
        cat4.parse_mor(f"M44,SM24 -> M34 @ {matrix}")


# sha256 of json.dumps(build_category(n).to_dict(), sort_keys=True) and of
# json.dumps(sorted(oracle_by_label(n).items())), recorded from the Fraction
# build that the integer build replaced; the table hashes of n = 5..12 were
# re-recorded when zero composition constants stopped being stored, each
# equal to the hash of the earlier table with its "0" comp rows removed
# (n <= 4 has no zero constant)
PINNED_TABLES = {
    1: ("3d4d1812b8518411bff8963f83355766765d8e78f41f81332381eb91052aa5cd",
        "d6ce02f28f35653f3bf8f8c976226afaac0a35bbb680b5b83880e8eb47121b52"),
    2: ("f569420f3a0e7acf237fa0a475d08f9ed9a08187f3abc2cac3213943ea442d30",
        "fe4e960a1669f95e03bc5bd0d56f5e9c81b3cddf0cd7c97bb7a9b5a4afddefba"),
    3: ("8d09d4bcbd28627ec91041130fe1c8392b8b5650d29738dde3bdb302e8a97712",
        "7127e5732caed4a900d84a3aed9d87fc1cdce2e491125cc298aabc50368963a1"),
    4: ("90261d336427397cbb4baeea0873abaabf5b2ab8a85b23b8c35dee51255efd41",
        "e1b9614b05a3506ba0582886824b45ca6a0f9b20fb6770c330196561add99396"),
    5: ("4fb5452d09da6bce26194b33aa3fbc3ec9f809b241415820825e86aad4e2818b",
        "b0b2110a75124bfc89152bd5a74d485610b82d939d11a7f4e55cb12cdbb7b0c1"),
    6: ("759f7df3e49baff1bfd84acbf470f9de08f19a02054e209f38c5cca4dd730596",
        "d7fe0cd1e5c9c84a88f00959e79ddeb931a8258c29151426e8bc9cf3b109eccd"),
    7: ("04ab22b4d53837750c2316f8dac19322bc5c351db9940ecac83d6c05d12356a8",
        "e485a80b5261cfb1f786c256177a6ddd4e5b4567391340ce194e6131e40873de"),
    8: ("32bf955cbd7d35a349bd142f1e8624f7c0f87260425a79fe8ddf33a765b60cc4",
        "e4d35f62cf81e764b4f221cc0fcc65ebe12f527dca2cedca5c3b7b232536eb3c"),
    9: ("0b104b8c6ad32d12f74933919d25504eed74970d0ab3c2cc7cbaaef93b26bb01",
        "33d63be6bb518e5a19bf9cbf47ce937b9634e94cefd07c01bb95c23a59174b5b"),
    10: ("68f1c2f1ac9f284891a72df4174f0539aae3ce27252d8d9785c6c99efe9f66d9",
        "d9ee0305b1fc70dc528745cd65301222074be5c5560e2b33be393c694985eebb"),
    11: ("2502f36d921b213868c161adc8b3c00cf16297d5c905f6dfaa1c6c22f142b342",
        "eba6554b2d3d42120f379072c4a2e0d01f3c30db25c86dc8e11e7e820ce42e4c"),
    12: ("353907192cced459faf6371e8127d82bffcefd15b234ee617935e5f0663363f1",
        "399ec7939a5daa7030127d7458b1e44a13dcd7b15079c732d86ebecc0c862aea"),
}

# (count, sha256 of json.dumps(list of chains)) of the associativity chains
# the build checks: the chains with a nonzero side whose last step is an
# arrow and whose first arc is the least index of its suspension orbit, in
# reference order
PINNED_CHAINS = {
    1: (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    2: (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    3: (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    4: (4, "c7a32dea95dbcd43972c9a73e2a22d6f199ac56625ebcdd3c873109cec972b13"),
    5: (27, "ba9fc3b0226892c747e7d9c0057e8afe15747be0e436f2cb63b2b3c932f07142"),
    6: (61, "f0e2b5858be5626ab677cba6dad6079d43b637d86bec2df94a251f30cc72f9ff"),
    7: (183, "114e2b4263baa4fbe415f6bb4f659a401221692241e686b61ebabfb79d1032b8"),
    8: (301, "932980316177f82a905c2c83db6a533bb5111eae9cee8a06440f8cd9bbe9781a"),
    9: (671, "15bcb6a940691bcdafcdeead21ed5a75a2134d9974b8826a8c90b5ec2a6f496a"),
    10: (966, "50543faeeb6f4840aea367f06fcf33ba1d3b864c9c55b63dbb85cbd85085d132"),
    11: (1828, "6a288fc3cf0e9200aee78993b4825841bc0c0657dac86468847f97bc7755fcf7"),
    12: (2442, "754d95822cc6442a3be9da83eb9c1bdefa402ca52c3908667621a8329b85b365"),
}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _orbit_chains(cat):
    """The chains the table check compares, by the reference."""
    return [c for c in arrow_chains(cat.hom_deg, orbit_firsts(cat.sigma_arc))
            if any(sides(cat.comp, c))]


@pytest.mark.parametrize("n", range(1, 13))
def test_tables_pinned(n):
    cat = build_category(n)
    assert all(type(c) is int for c in cat.comp.values())
    assert all(type(c) is int for c in cat.sig.values())
    assert (_sha(cat.to_dict()), _sha(sorted(oracle_by_label(n).items()))) \
        == PINNED_TABLES[n]
    chains = _orbit_chains(cat)
    assert _constants_check(cat, cat.comp, cat.sig, cat.sigma_arc) \
        == len(chains)
    assert (len(chains), _sha(chains)) == PINNED_CHAINS[n]


def _rows(N, table, fill):
    """table[(x, y)] as rows[x][y], ``fill`` off its keys."""
    return [[table.get((x, y), fill) for y in range(N)] for x in range(N)]


def _constants_check(cat, comp, sig, sigma_arc):
    """``_check_constants`` on ``comp`` with ``cat``'s hom degrees and the
    suspension ``sig`` on ``sigma_arc``; the number of chains it finds
    equal."""
    return category._check_constants(
        cat.arcs, cat.hom_deg, comp, _rows(cat.N, cat.hom_deg, None),
        _rows(cat.N, sig, 0), sigma_arc)


@pytest.mark.parametrize("n", range(1, 13))
def test_associativity_checks_every_chain_with_a_nonzero_side(n):
    """The chains with a nonzero side that end in an arrow and start at an
    orbit's least arc: each holds, each has a nonzero left side (so the
    right sides count the same chains), and the check finds exactly as
    many equal, at most 10,000."""
    cat = cached_category(n)
    chains = _orbit_chains(cat)
    assert len(set(chains)) == len(chains) <= 10_000
    assert all(lhs == rhs != 0 for lhs, rhs in
               (sides(cat.comp, c) for c in chains))
    assert _constants_check(cat, cat.comp, cat.sig, cat.sigma_arc) \
        == len(chains)


def _caught(cat, comp):
    """The chain named by the table check on ``comp``, or None.

    The suspension is the identity, with constant 1 on every pair of arcs,
    so that neither it nor a key's (x, z) can fail, and every arc is the
    least of its orbit, so that every chain ending in an arrow is walked.
    A key whose (x, y) or (y, z) is not a hom pair is read as zero by
    every chain (its other factor would need that pair), so the check's
    rejection of it counts as no chain caught."""
    ones = {(x, y): 1 for x in range(cat.N) for y in range(cat.N)}
    try:
        _constants_check(cat, comp, ones, list(range(cat.N)))
    except BuildError as err:
        if str(err).endswith("is not a chain of hom pairs"):
            return None
        return _named_chain(cat, err)
    return None


def _named_chain(cat, err):
    """The chain an associativity failure names."""
    found = re.fullmatch(r"associativity fails on chain (\S+) -> (\S+) "
                         r"-> (\S+) -> (\S+)", str(err))
    assert found, err
    return tuple(cat.arc_of_token(a) for a in found.groups())


def _on_hom_pairs(cat, key):
    x, y, z = key
    return all(p in cat.hom_deg for p in ((x, y), (y, z), (x, z)))


def _drawn_extras(cat, rng, count):
    """``count`` unstored keys on hom pairs and ``count`` off them, each
    read by a seeded chain (one of its four keys, drawn)."""
    steps = sorted(k for k in cat.hom_deg if k[0] != k[1])
    out: dict[int, list[int]] = {}
    for (x, y) in steps:
        out.setdefault(x, []).append(y)
    on, off = set(), set()
    while len(on) < count or len(off) < count:
        x, y = rng.choice(steps)
        z = rng.choice(out[y])
        if z in out:
            key = rng.choice(chain_keys((x, y, z, rng.choice(out[z]))))
            if key not in cat.comp:
                kind = on if _on_hom_pairs(cat, key) else off
                if len(kind) < count:
                    kind.add(key)
    return sorted(on) + sorted(off)


@pytest.mark.parametrize("n, sample", [(3, None), (4, None), (5, None),
                                       (6, None), (7, 80), (8, 80), (9, 40),
                                       (10, 20), (11, 20), (12, 20)])
def test_associativity_catches_what_the_reference_catches(n, sample):
    """One planted change at a time, a sign flip of a stored constant or an
    extra constant where none is stored: the check rejects the table
    exactly when some chain of the reference fails, and names a failing
    chain.  Up to n = 6 every flip, every extra constant on hom pairs and
    up to 300 other seeded extra constants; above, seeded samples of
    ``sample`` flips, ``sample`` extras on hom pairs and ``sample`` off
    them.  Up to n = 9 the extras are drawn from every key some chain
    reads, above from the keys of seeded chains."""
    cat = cached_category(n)
    rng = random.Random(f"assoc:{n}")
    flips = sorted(cat.comp)
    if n <= 9:
        chains = all_chains(cat.hom_deg)
        assert not any(lhs != rhs for lhs, rhs in
                       (sides(cat.comp, c) for c in chains))
        reading = chains_reading(chains)
        extras = sorted(k for k in reading if k not in cat.comp)
        on_pairs = [k for k in extras if _on_hom_pairs(cat, k)]
        if sample is None:
            extras = rng.sample(extras, min(len(extras), 300)) + on_pairs
        else:
            flips, extras = rng.sample(flips, sample), rng.sample(extras, sample)
            extras += rng.sample(on_pairs, min(len(on_pairs), sample))
    else:
        flips = rng.sample(flips, sample)
        extras = _drawn_extras(cat, rng, sample)
    plants = [(k, -cat.comp[k]) for k in flips]
    plants += [(k, rng.choice((-1, 1))) for k in extras]
    by_right_side = 0
    for k, v in plants:
        comp = {**cat.comp, k: v}
        chain = _caught(cat, comp)
        # the unplanted table passes every chain, so only the chains that
        # read the planted key can fail; above n = 9 those are checked on
        # the unplanted table here
        through = (reading.get(k, ()) if n <= 9
                   else chains_through(cat.hom_deg, k))
        if n > 9:
            assert all(lhs == rhs for lhs, rhs in
                       (sides(cat.comp, c) for c in through))
        by_reference = (sides(comp, c) for c in through)
        assert (chain is not None) == any(a != b for a, b in by_reference)
        if chain is not None:
            lhs, rhs = sides(comp, chain)
            assert lhs != rhs
            by_right_side += lhs == 0
    # the backward step, not only the walk over nonzero left sides, is hit
    assert by_right_side or n == 3


@pytest.mark.parametrize("n", range(3, 6))
def test_chains_through_a_key_are_the_chains_that_read_it(n):
    """The reference's chains through one key, found from the key, are
    the chains of every chain that read it, for every key of a triple of
    arcs."""
    cat = cached_category(n)
    reading = chains_reading(all_chains(cat.hom_deg))
    for key in itertools.product(range(cat.N), repeat=3):
        assert chains_through(cat.hom_deg, key) == set(reading.get(key, ()))


def _planted(cat, **tables):
    """A copy of ``cat`` with the named tables replaced, for the table
    checks."""
    planted = copy.copy(cat)
    for name, table in tables.items():
        setattr(planted, name, table)
    return planted


def _table_check_rejects(cat, sig, comp) -> bool:
    try:
        category._check_tables(_planted(cat, sig=sig, comp=comp))
    except BuildError:
        return True
    return False


@pytest.mark.parametrize("n", range(3, 13))
def test_suspension_check_catches_what_the_reference_catches(n):
    """One planted change at a time, a sign flip of a suspension constant
    or of the composition constant at the suspension's image of a stored
    key: the table checks reject the table exactly when the reference
    does, that is the suspension checked on every stored constant, an
    identity's constant other than 1, or a chain that reads the planted
    key.  Every plant of both kinds up to n = 5, 40 seeded ones of each
    above."""
    cat = cached_category(n)
    sa = cat.sigma_arc
    flips, keys = sorted(cat.sig), sorted(cat.comp)
    if n >= 6:
        rng = random.Random(f"sigma:{n}")
        flips, keys = rng.sample(flips, 40), rng.sample(keys, 40)
    plants = [({**cat.sig, k: -cat.sig[k]}, cat.comp, None) for k in flips]
    for x, y, z in keys:
        k = (sa[x], sa[y], sa[z])
        plants.append((cat.sig, {**cat.comp, k: -cat.comp[k]}, k))
    for sig, comp, k in plants:
        assert _table_check_rejects(cat, sig, comp) == (
            not sigma_functorial(comp, sig, sa)
            or any(sig[(x, x)] != 1 for x in range(cat.N))
            or any(comp[(x, x, y)] != 1 or comp[(x, y, y)] != 1
                   for x, y in cat.hom_deg)
            or k is not None
            and any(a != b for a, b in (sides(comp, c) for c in
                                        chains_through(cat.hom_deg, k))))


def _key_orbit(sigma_arc, key):
    orbit, k = [key], tuple(sigma_arc[v] for v in key)
    while k != key:
        orbit.append(k)
        k = tuple(sigma_arc[v] for v in k)
    return orbit


@pytest.mark.parametrize("n", range(4, 13))
def test_associativity_check_transports_along_the_suspension(n):
    """One suspension-equivariant plant at a time: a stored constant with
    two non-identity steps flipped together with every constant on its
    suspension orbit of keys, which the suspension check cannot see.  The
    table checks reject the table exactly when some chain of the reference
    reading a flipped key fails, and then name a failing chain, though
    they compare only the chains from each orbit's least arc.  Every orbit
    up to n = 5, 20 seeded ones above."""
    cat = cached_category(n)
    sa = cat.sigma_arc
    orbits = {min(_key_orbit(sa, k)) for k in cat.comp
              if k[0] != k[1] != k[2]}
    orbits = sorted(orbits)
    if n >= 6:
        orbits = random.Random(f"orbit:{n}").sample(orbits, 20)
    caught = 0
    for key in orbits:
        flipped = _key_orbit(sa, key)
        comp = {**cat.comp, **{k: -cat.comp[k] for k in flipped}}
        assert sigma_functorial(comp, cat.sig, sa)
        through = set().union(*(chains_through(cat.hom_deg, k)
                                for k in flipped))
        fails = any(a != b for a, b in (sides(comp, c) for c in through))
        try:
            category._check_tables(_planted(cat, comp=comp))
        except BuildError as err:
            lhs, rhs = sides(comp, _named_chain(cat, err))
            assert fails and lhs != rhs
            caught += 1
        else:
            assert not fails
    assert caught


@pytest.mark.parametrize("n", range(3, 9))
def test_duality_check_rejects_each_deleted_orbit(n):
    """Negative control of 2-Calabi–Yau duality, the premise on which the
    triangle certificate reads every Hom(-, W) rank off Hom(Σ⁻²W, -): the
    composition keys (v, a, Σ²v) with v != a, deleted one Σ-orbit at a
    time, fail the table checks with the duality error, which names a
    pair; the unplanted tables pass."""
    cat = cached_category(n)
    sa, serre = cat.sigma_arc, cat.sigma_powers[2]
    category._check_tables(Category(n, cat.hom_deg, cat.comp, cat.sig))
    orbits = {min(_key_orbit(sa, k)) for k in cat.comp
              if k[0] != k[1] and k[2] == serre[k[0]]}
    assert len(orbits) == {3: 4, 4: 8, 5: 16, 6: 25, 7: 40, 8: 56}[n]
    for key in sorted(orbits):
        gone = set(_key_orbit(sa, key))
        comp = {k: c for k, c in cat.comp.items() if k not in gone}
        with pytest.raises(BuildError, match=r"^2-Calabi–Yau duality fails "
                           r"at \(\d+-\d+, \d+-\d+\): "):
            category._check_tables(Category(n, cat.hom_deg, comp, cat.sig))


def test_table_checks_name_every_planted_non_unit_constant(cat4):
    """Twice the constant at each key (x, y, z) with x != y != z, one at a
    time: the table checks name the planted key, also where a key that the
    suspension maps onto it comes first in ``comp``."""
    keys = [k for k in cat4.comp if k[0] != k[1] != k[2]]
    assert len(keys) == 70
    for k in keys:
        c = 2 * cat4.comp[k]
        with pytest.raises(BuildError, match=re.escape(
                f"composition constant at {k} is {c}, not an int")):
            category._check_tables(_planted(cat4, comp={**cat4.comp, k: c}))


@pytest.mark.parametrize("n", [10, 11, 12])
def test_table_checks_reject_seeded_sign_flips(n):
    """200 seeded sign flips of stored constants with two non-identity
    steps, one at a time: the table checks, which every build runs, reject
    each."""
    cat = cached_category(n)
    keys = sorted(k for k in cat.comp if k[0] != k[1] != k[2])
    rng = random.Random(f"flip:{n}")
    for k in rng.sample(keys, 200):
        comp = {**cat.comp, k: -cat.comp[k]}
        assert _table_check_rejects(cat, cat.sig, comp), k


def test_table_checks_check_the_degree_premises(cat4):
    """The premises the table check rests on, each broken in a rank-4
    table, fail inside the table checks, naming the pair: a degree-2 step
    without its constants over the arrows into its target, steps of
    degree 0, and a step whose degree its suspension does not keep."""
    arcs, hom = cat4.arcs, cat4.hom_deg
    z, w = next(k for k, d in hom.items() if d == 2)
    comp = {k: c for k, c in cat4.comp.items() if not (
        k[0] == z and k[2] == w and hom.get((k[1], w)) == 1)}
    assert len(comp) < len(cat4.comp)
    planted = _planted(cat4, comp=comp)
    with pytest.raises(BuildError, match=re.escape(
            f"hom pair ({arcs[z]}, {arcs[w]}) of degree 2 does not factor "
            "through an arrow")):
        category._check_tables(planted)
    # degree 0 on a whole suspension orbit of an arrow, which the
    # suspension keeps, so only the steps' degree is wrong; degree 2 on the
    # orbit's first pair in table order, which comes before its preimage
    sa = cat4.sigma_arc
    x, y = next((x, y) for x, y, e in cat4.to_dict()["hom"] if x != y and e == 1)
    orbit = {(x, y)}
    while (sa[x], sa[y]) not in orbit:
        x, y = sa[x], sa[y]
        orbit.add((x, y))
    for degree, changed in ((0, orbit), (2, {min(orbit)})):
        # in table order, as the check meets the pairs
        planted = _planted(cat4, hom_deg={
            k: degree if k in changed else e for k, e in sorted(hom.items())})
        x, y = min(changed)
        with pytest.raises(BuildError, match=re.escape(
                f"hom degree {degree} at ({arcs[x]}, {arcs[y]}) is not a "
                "positive integer that the suspension keeps")):
            category._check_tables(planted)


def test_quotient_rejects_non_integral_coefficient():
    assert _quotient_1d([1, 1], 2) == (1, 1, [-1, 1])
    with pytest.raises(BuildError, match="not an integer"):
        _quotient_1d([2, 1], 2)
    # the one-row path and the general path agree on the message
    with pytest.raises(BuildError, match="coefficient 1/2 is not"):
        _quotient_1d([-2, 1], 2)
    with pytest.raises(BuildError, match="coefficient 1/2 is not"):
        _quotient_1d_by_reduced_rows([[-2, 1]], 2)


def _quotient_1d_by_reduced_rows(rel_rows, ngens):
    """The quotient by a list of relation rows, each set sent through
    ``reduced_rows``: the reference for ``_quotient_1d``."""
    if ngens == 0:
        return 0, None, []
    if not rel_rows:
        if ngens > 1:
            return ngens, None, []
        return 1, 0, [1]
    red, pivots, d = reduced_rows(rel_rows)
    free = [c for c in range(ngens) if c not in pivots]
    dim = len(free)
    if dim != 1:
        return dim, None, ([0] * ngens if dim == 0 else [])
    f0 = free[0]
    reduction = [0] * ngens
    reduction[f0] = 1
    for rr, pc in enumerate(pivots):
        q, rem = divmod(-red[rr][f0], d)
        if rem:
            raise BuildError(f"mesh reduction coefficient {-red[rr][f0]}/{d} "
                             "is not an integer")
        reduction[pc] = q
    return 1, f0, reduction


def _one_row_reference(rel_row, ngens):
    """``_quotient_1d_by_reduced_rows`` for ``_quotient_1d``'s signature:
    one relation row, or None for none."""
    return _quotient_1d_by_reduced_rows(
        [] if rel_row is None else [rel_row], ngens)


def test_one_row_quotients_match_reduced_rows():
    # every row in {-2..2}^k for k = 1..4, and no relation
    for ngens in range(1, 5):
        for row in itertools.product(range(-2, 3), repeat=ngens):
            for rel_row in (list(row), None):
                try:
                    want = _one_row_reference(rel_row, ngens)
                except BuildError as err:
                    with pytest.raises(BuildError, match=re.escape(str(err))):
                        _quotient_1d(rel_row, ngens)
                else:
                    assert _quotient_1d(rel_row, ngens) == want


@pytest.mark.parametrize("n", range(1, 13))
def test_tables_match_the_reduced_rows_build(n, monkeypatch):
    fast = build_category(n).to_dict()
    monkeypatch.setattr(category, "_quotient_1d", _one_row_reference)
    assert build_category(n).to_dict() == fast


def test_label_bridge_names_the_first_pair_that_disagrees(cat4):
    # one mesh pair dropped: the bridge, the first table check, names it
    pair = next(k for k in sorted(cat4.hom_deg) if k[0] != k[1])
    hom_deg = {k: d for k, d in cat4.hom_deg.items() if k != pair}
    x, y = (cat4.arcs[i] for i in pair)
    with pytest.raises(BuildError,
                       match=rf"label bridge fails at \({x}, {y}\): oracle "
                             r"dim Hom\(\w+, \w+\) = 1, mesh 0"):
        category._check_tables(_planted(cat4, hom_deg=hom_deg))
    category._check_tables(cat4)
    assert cat4.meta == {"bridge": {"reflection": 0, "rotation": 0,
                                    "projective_slice": [
                                        cat4.labels.index(f"SP{i}")
                                        for i in range(1, 5)]}}


def test_table_checks_reject_a_missing_hom_pair(cat4, monkeypatch):
    """A missing hom pair fails the label bridge, or with an oracle that
    agrees with it the crossing check."""
    x, y = next(k for k in sorted(cat4.hom_deg) if k[0] != k[1])
    hom_deg = {p: e for p, e in cat4.hom_deg.items() if p != (x, y)}
    planted = _planted(cat4, hom_deg=hom_deg)
    with pytest.raises(BuildError, match="label bridge fails"):
        category._check_tables(planted)
    at = {lab: k for k, lab in enumerate(labels(cat4.n))}
    a, b = at[cat4.labels[x]], at[cat4.labels[y]]
    table = [list(row) for row in label_hom_matrix(cat4.n)]
    table[a][b] = 0
    monkeypatch.setattr(oracle, "label_hom_matrix",
                        lambda n: tuple(map(tuple, table)))
    with pytest.raises(BuildError, match="mesh/crossing mismatch"):
        category._check_tables(planted)


@pytest.mark.parametrize("n", range(3, 7))
def test_table_checks_catch_every_sign_flip(n):
    """Every single sign flip of a stored composition or suspension
    constant fails the table checks."""
    cat = cached_category(n)
    for k, c in cat.comp.items():
        assert _table_check_rejects(cat, cat.sig, {**cat.comp, k: -c}), k
    for k, c in cat.sig.items():
        assert _table_check_rejects(cat, {**cat.sig, k: -c}, cat.comp), k


def test_table_checks_accept_a_consistently_rescaled_table(cat4):
    """Negating one non-identity basis map e_ab rescales every constant
    that reads it: c(x, y, z) by s(x, y) s(y, z) s(x, z) and sig(x, y) by
    s(x, y) s(Sx, Sy), with s = -1 at (a, b) only.  The table checks
    accept that table, as it is as consistent as the build's."""
    sa = cat4.sigma_arc
    a, b = next(k for k in sorted(cat4.hom_deg) if k[0] != k[1])

    def s(*pair):
        return -1 if pair == (a, b) else 1

    comp = {(x, y, z): c * s(x, y) * s(y, z) * s(x, z)
            for (x, y, z), c in cat4.comp.items()}
    sig = {(x, y): c * s(x, y) * s(sa[x], sa[y])
           for (x, y), c in cat4.sig.items()}
    assert comp != cat4.comp and sig != cat4.sig
    planted = _planted(cat4, comp=comp, sig=sig)
    category._check_tables(planted)


def _slot_pre_matrix(cat, f, W):
    """Hom(f, W) one slot at a time; the reference for Category.pre_rows."""
    cols = [cat.vectorize(cat.compose(cat.slot_mor(f.tgt, W, s), f))
            for s in cat.hom_slots(f.tgt, W)]
    return mat_from_cols(cols, cat.dim_hom_obj(f.src, W))


def _hom_matrix_maps(cat, rng):
    """40 seeded maps: random (some with a repeated summand), zero, from and
    to the zero object, and between two arcs with no hom between them."""
    zero_pairs = [(a, b) for a in range(cat.N) for b in range(cat.N)
                  if not cat.hom1(a, b)]
    maps = []
    for _ in range(8):
        x, y = cat.random_obj(rng, 3), cat.random_obj(rng, 3)
        a = rng.randrange(cat.N)
        rep = Obj(tuple(sorted((a, a, rng.choice(cat.hom_out[a])))))
        a, b = rng.choice(zero_pairs)
        maps += [cat.random_mor(rng, x, y), cat.random_mor(rng, rep, y),
                 cat.zero_mor(cat.zero_obj, y), cat.zero_mor(x, cat.zero_obj),
                 cat.zero_mor(Obj((a,)), Obj((b,)))]
    return maps


@pytest.mark.parametrize("n", range(1, 9))
def test_hom_matrices_match_the_slot_reference(n):
    from cluster_loc.linalg import kernel_basis
    from cluster_loc.rigid import functor_slots
    cat = cached_category(n)
    rng = random.Random(f"hom-matrices:{n}")
    maps = _hom_matrix_maps(cat, rng)
    assert len(maps) == 40
    shapes = set()
    for f in maps:
        observers = ([Obj((w,)) for w in range(cat.N)]
                     + [cat.random_obj(rng, 3), cat.zero_obj])
        for W in observers:
            post = _induced(*cat.post_rows(f, W))
            pre = _induced(*cat.pre_rows(f, W))
            assert post == slot_post_matrix(cat, f, W)
            assert pre == _slot_pre_matrix(cat, f, W)
            shapes.update((m.rows > 0, m.cols > 0) for m in (post, pre))
        for arcs in (sample_rigid(cat, rng).arcs,
                     tuple(rng.randrange(cat.N) for _ in range(3))):
            ref = slot_hom_functor_matrix(cat, arcs, f.src, f.tgt)
            slots = cat.hom_slots(f.src, f.tgt)
            seen = functor_slots(cat, arcs, f.src, f.tgt)
            assert seen == [s for s in slots if s in seen]
            # the kernel of the reference is spanned by the unit vectors of
            # the slots outside functor_slots: it holds each of them (their
            # columns vanish) and has their number as its dimension
            assert all(not any(ref.col(c)) for c, s in enumerate(slots)
                       if s not in seen)
            assert kernel_basis(*as_rows(ref)).cols == len(slots) - len(seen)
            shapes.add((ref.rows > 0, ref.cols > 0))
    # every shape occurs: k x m, 0 x m, k x 0 and 0 x 0 with k, m > 0
    assert shapes == {(True, True), (False, True), (True, False),
                      (False, False)}


def test_table_checks_reject_composition_keys_off_the_hom_pairs(cat4):
    # at rank 4, (0, 1) and (1, 4) are hom pairs and (0, 4) is not; (13, 0)
    # is not either, so the two constants on an identity step are off too
    for key in ((0, 1, 4), (13, 13, 0), (13, 0, 0)):
        with pytest.raises(BuildError, match=re.escape(
                f"composition key {key} is not a chain of hom pairs")):
            category._check_tables(_planted(cat4, comp={**cat4.comp, key: 1}))


def test_categories_of_one_rank_share_an_immutable_quiver():
    # the translation quiver is computed once per rank and shared, so a
    # mutable field would let one category corrupt every other of its rank
    built, other = build_category(4), build_category(4)
    tuples = ("arcs", "sigma_powers", "sigma_arc", "sigma_arc_inv",
              "arrows_in", "_cross", "labels", "sigma_orbits")
    for name in tuples + ("arc_index", "label_to_arc"):
        assert getattr(built, name) is getattr(other, name)
    for name in tuples:
        assert type(getattr(built, name)) is tuple
    assert all(type(row) is tuple for row in built.arrows_in + built._cross
               + built.sigma_orbits + built.sigma_powers)
    assert all(type(pos) is tuple and type(pos[2]) is tuple
               for orbit in built.sigma_orbits for pos in orbit)
    with pytest.raises(TypeError):
        built.arc_index[Arc(0, 2)] = 1
    with pytest.raises(TypeError):
        built.label_to_arc["M11"] = 0


@pytest.mark.parametrize("n", range(1, 13))
def test_quiver_arrows_are_the_hom_pairs_of_degree_1(n):
    # the arrows into z, read off the arcs, against the mesh build's tables
    cat = cached_category(n)
    assert [list(mids) for mids in cat.arrows_in] == \
        [[y for y in cat.hom_in[z] if cat.hom_deg[(y, z)] == 1]
         for z in range(cat.N)]


def test_constructor_rejects_a_hom_pair_off_the_arcs(cat4):
    with pytest.raises(BuildError, match=re.escape(
            "hom pair (0, 99) is not a pair of arcs")):
        Category(cat4.n, {**cat4.hom_deg, (0, 99): 1}, cat4.comp, cat4.sig)
    # with sigma and identity entries that negative indexing would
    # otherwise make look consistent
    y, deg = next((y, d) for (x, y), d in sorted(cat4.hom_deg.items())
                  if x == cat4.N - 1 and y != x)
    with pytest.raises(BuildError, match="not a pair of arcs"):
        Category(cat4.n, {**cat4.hom_deg, (-1, y): deg},
                 {**cat4.comp, (-1, -1, y): 1, (-1, y, y): 1},
                 {**cat4.sig, (-1, y): 1})


def test_a_wrong_oracle_class_fails_the_label_bridge(monkeypatch):
    """Each clamped class of rank 5 in turn solved wrong (0 and 1 swapped):
    the rank-5 build then fails at the label bridge."""
    n, solve = 5, oracle._hom_dim_class
    classes = [(1, xj, yi, yj) for xj in range(1, n + 1)
               for yi in range(1, xj + 1)
               for yj in range(xj, min(xj + 1, n) + 1)]
    assert len(classes) == 25
    try:
        for planted in classes:
            monkeypatch.setattr(oracle, "_hom_dim_class", lambda *key: (
                1 - solve(*key) if key == planted else solve(*key)))
            label_hom_matrix.cache_clear()
            with pytest.raises(BuildError, match=r"label bridge fails at \("):
                build_category(n)
    finally:
        monkeypatch.undo()
        label_hom_matrix.cache_clear()
    build_category(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_associativity_check_evaluates_every_chain(n, monkeypatch):
    """The build's table check finds every chain with a nonzero side that
    ends in an arrow and starts at an orbit's least arc equal: a faster
    check cannot quietly cover less."""
    cat = cached_category(n)
    counts = []

    def counted(*args):
        counts.append(check(*args))

    check = category._check_constants
    monkeypatch.setattr(category, "_check_constants", counted)
    category._check_tables(cat)
    assert counts == [{4: 4, 5: 27, 6: 61, 7: 183, 8: 301, 9: 671, 10: 966,
                       11: 1828, 12: 2442}.get(n, 0)]


@pytest.mark.parametrize("n", range(1, 13))
def test_label_bridge_compares_every_pair(n, monkeypatch):
    """One oracle entry flipped at a time, over all N^2 pairs at n <= 8 and
    one seeded pair per row above: the bridge fails, naming exactly the
    flipped pair."""
    cat = cached_category(n)
    table = label_hom_matrix(n)
    at = {lab: k for k, lab in enumerate(labels(n))}
    current = [table]
    monkeypatch.setattr(oracle, "label_hom_matrix", lambda n: current[0])
    rng = random.Random(f"bridge:{n}")
    for x in range(cat.N):
        a = at[cat.labels[x]]
        for y in (range(cat.N) if n <= 8 else [rng.randrange(cat.N)]):
            b = at[cat.labels[y]]
            row = list(table[a])
            row[b] = 1 - row[b]
            current[0] = table[:a] + (tuple(row),) + table[a + 1:]
            try:
                category._check_tables(cat)
            except BuildError as err:
                assert str(err).startswith(f"label bridge fails at "
                                           f"({cat.arcs[x]}, {cat.arcs[y]}):")
            else:
                raise AssertionError(f"flip at ({x}, {y}) not caught")
    current[0] = table
    category._check_tables(cat)
