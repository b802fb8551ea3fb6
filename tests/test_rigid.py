import random
from fractions import Fraction

import pytest

from cluster_loc.category import InternalConsistencyError, Obj, build_category
from cluster_loc.localization import classify
from cluster_loc.modules import H_obj, end_algebra
from cluster_loc.rigid import (dim_factoring_through_add,
                               dim_hom_functor_kernel,
                               factors_through_mor, factors_through_subcat,
                               hom_functor_zero, in_CT, is_cluster_tilting,
                               is_rigid, left_sigma_perp_approx, perp_view,
                               rigid_object, right_addT_approx,
                               wakamatsu_check)
from cluster_loc.suites import cached_category
from cluster_loc.triangles import (complete_triangle, mesh_map_into,
                                   pre_rank_table)
from conftest import (bundle_left_approx, enumerate_basic_rigid,
                      is_isomorphism, mat_from_cols, rank_factoring_through_add,
                      right_minimal_reduce, sample_rigid, top_dims)
from factoring_reference import factors_through_sigma_perp


def test_is_rigid_examples(cat4, example_T):
    assert is_rigid(cat4, Obj(example_T.arcs))
    assert is_rigid(cat4, cat4.obj(["M34"]))
    sq = cached_category(1)
    assert not is_rigid(sq, sq.obj(["0-2", "1-3"]))


def test_rigid_object_validation(cat4):
    with pytest.raises(ValueError):
        rigid_object(cat4, ["0-2", "1-3"])
    with pytest.raises(ValueError):
        rigid_object(cat4, [])
    # a rigid object is basic: a repeated summand is refused where the
    # object is made, at rank 4 and on a seeded rank-5 sample
    with pytest.raises(ValueError, match="T repeats the summand M44"):
        rigid_object(cat4, ["M44", "M44"])
    cat5 = cached_category(5)
    arcs = sample_rigid(cat5, random.Random("assembly:non-basic-5")).arcs
    assert rigid_object(cat5, arcs).arcs == arcs
    with pytest.raises(ValueError, match="T repeats the summand "
                       f"{cat5.labels[arcs[0]]}"):
        rigid_object(cat5, arcs + arcs[:1])


def test_rigid_object_rejects_summands_that_are_not_arcs(cat4, example_T):
    # -14 would index SP4 from the end, -1 M11, and 14 no arc at all
    for summands in ([0, -14], [-1], [14]):
        with pytest.raises(ValueError, match="out of range"):
            rigid_object(cat4, summands)
    # bool is an int subclass, but True and False are no arc indices
    for summands in ([1.0], [True], [False]):
        with pytest.raises(ValueError, match="bad summand"):
            rigid_object(cat4, summands)
    arcs = tuple(reversed(example_T.arcs))
    assert rigid_object(cat4, list(arcs)).arcs == arcs


def test_perp_views_example(cat4, example_T):
    tperp = perp_view(cat4, example_T, "Tperp")
    assert sorted(cat4.labels[a] for a in tperp) == \
        ["M11", "M12", "M14", "M34", "M44"]
    sperp = perp_view(cat4, example_T, "SigmaTperp")
    assert isinstance(sperp, frozenset)
    assert sorted(cat4.labels[a] for a in sperp) == \
        ["M22", "M23", "SP1", "SP3", "SP4"]
    assert cat4.arc_of_token("M23") in sperp
    # the suspension of Tperp is exactly SigmaTperp
    assert {cat4.shift_arc(a) for a in tperp} == sperp
    assert perp_view(cat4, example_T, "addT") == set(example_T.arcs)
    with pytest.raises(ValueError):
        perp_view(cat4, example_T, "nonsense")


def test_single_arc_square():
    sq = cached_category(1)
    t = rigid_object(sq, ["0-2"])
    assert perp_view(sq, t, "Tperp") == {sq.arc_of_token("0-2")}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_doubleperp_every_rigid(n):
    cat = cached_category(n)
    for t in enumerate_basic_rigid(cat):
        perp_view(cat, t, "Tperp")  # raises on a double-perp violation


def test_approximation_of_T_summand_is_identity_like(cat4, example_T):
    for a in example_T.arcs:
        f = right_addT_approx(cat4, example_T, cat4.obj([a]))
        assert f.src.summands == (a,)
        assert is_isomorphism(cat4, f)


def test_approximation_of_perp_object_is_zero(cat4, example_T):
    y = cat4.obj(["M23"])   # in Sigma T-perp
    f = right_addT_approx(cat4, example_T, y)
    assert f.src.is_zero()


def test_example_minimal_approximation(cat4, example_T):
    """The minimal right add T-approximation of M34 has source M44 + M11
    (forced by the image module with dimension vector (1,0,1)) and cone M23;
    it differs from the almost split map into M34, whose source picks up the
    shifted projective SP2 instead of M11."""
    x = cat4.obj(["M34"])
    f = right_addT_approx(cat4, example_T, x)
    assert sorted(cat4.labels[a] for a in f.src.summands) == ["M11", "M44"]
    tri = complete_triangle(cat4, f)
    assert [cat4.labels[a] for a in tri.z.summands] == ["M23"]
    u = cat4.suspend_obj(tri.z, -1)
    assert [cat4.labels[a] for a in u.summands] == ["M12"]
    tperp = perp_view(cat4, example_T, "Tperp")
    assert all(a in tperp for a in u.summands)


def test_minimal_approximation_unique_up_to_iso(cat4, example_T):
    from cluster_loc.linalg import solve_right
    rng = random.Random(6)
    for _ in range(10):
        x = cat4.random_obj(rng, 2)
        f1 = right_addT_approx(cat4, example_T, x)
        # rebuild through a permuted bundle: pad, then reduce again
        pad = right_addT_approx(cat4, example_T, x, minimal=False)
        f2, _ = right_minimal_reduce(cat4, pad)
        assert sorted(f1.src.summands) == sorted(f2.src.summands)
        # an isomorphism sigma with f2 . sigma = f1 exists
        slots = cat4.hom_slots(f1.src, f2.src)
        cols = [cat4.vectorize(cat4.compose(f2, cat4.slot_mor(f1.src, f2.src, s)))
                for s in slots]
        a = mat_from_cols(cols, cat4.dim_hom_obj(f1.src, x))
        sol = solve_right(a.to_rows(), cat4.vectorize(f1), a.cols)
        assert sol is not None
        v, d, _ = sol
        sigma = cat4.mor_from_vec(f1.src, f2.src, [Fraction(e, d) for e in v])
        assert is_isomorphism(cat4, sigma)


def bundle_right_approx(cat, t, x):
    """The reference bundle: one source copy per basis map from a distinct
    summand of T into a summand of x, summands of T ascending, then target
    positions ascending."""
    cols = [(m, pos) for m in sorted(set(t.arcs))
            for pos, s in enumerate(x.summands) if cat.hom1(m, s)]
    rows = [[int(pos == i) for _, pos in cols] for i in range(len(x))]
    return cat.mor(Obj(tuple(m for m, _ in cols)), x, rows)


def _approximated_objects(cat, rng):
    """Every indecomposable and five random objects of up to 3 summands."""
    return ([cat.obj([a]) for a in range(cat.N)]
            + [cat.random_obj(rng, 3) for _ in range(5)])


def _equality_cases():
    for n in (1, 2, 3, 4):
        cat = cached_category(n)
        for t in enumerate_basic_rigid(cat):
            yield cat, t
    for n, count in ((5, 60), (6, 40)):
        cat = cached_category(n)
        rng = random.Random(f"approx-equality:{n}")
        for _ in range(count):
            yield cat, sample_rigid(cat, rng)


def test_direct_approximation_matches_reduced_bundle():
    """The approximation read off the top of Hom(T, x) is exactly the
    bundle of all basis maps (minimal=False) and exactly that bundle after
    the kernel-search reduction of the reference (minimal=True)."""
    cases = 0
    for cat, t in _equality_cases():
        rng = random.Random(f"approx-objects:{cat.n}:{t.arcs}")
        for x in _approximated_objects(cat, rng):
            bundle = bundle_right_approx(cat, t, x)
            assert right_addT_approx(cat, t, x, minimal=False) == bundle
            assert right_addT_approx(cat, t, x) == \
                right_minimal_reduce(cat, bundle)[0]
            cases += 1
    assert cases > 7000


def test_approximation_source_is_the_top_of_the_module():
    """Each t_i occurs in the source of the minimal approximation of x as
    often as the simple S_i in the top of Hom(T, x): the category tables
    against the module's action matrices."""
    for n in (1, 2, 3, 4):
        cat = cached_category(n)
        for t in enumerate_basic_rigid(cat):
            alg = end_algebra(cat, t)
            rng = random.Random(f"approx-top:{n}:{t.arcs}")
            for x in _approximated_objects(cat, rng):
                src = right_addT_approx(cat, t, x).src.summands
                assert tuple(src.count(a) for a in t.arcs) == \
                    top_dims(H_obj(cat, alg, x))


def test_wakamatsu_all_objects(cat4, example_T):
    for i in range(cat4.N):
        assert wakamatsu_check(cat4, example_T, cat4.obj([i]))
    assert wakamatsu_check(cat4, example_T, cat4.zero_obj)
    assert wakamatsu_check(cat4, example_T, cat4.obj(["M34", "M23", "M44"]))


def test_in_CT_examples(cat4, example_T, fan_T):
    for a in example_T.arcs:
        assert in_CT(cat4, example_T, cat4.obj([a]))
    assert in_CT(cat4, example_T, cat4.zero_obj)
    # suspended summands are presented (triangle T -> 0 -> ΣT)
    assert in_CT(cat4, example_T, cat4.suspend_obj(cat4.obj([example_T.arcs[0]])))
    # an object of Sigma T-perp whose cosuspension avoids add T is not
    assert not in_CT(cat4, example_T, cat4.obj(["SM34"]))
    assert not in_CT(cat4, example_T, cat4.obj(["M34"]))
    ct = sorted(cat4.labels[i] for i in range(cat4.N)
                if in_CT(cat4, example_T, cat4.obj([i])))
    assert ct == ["M11", "M13", "M14", "M22", "M44", "SP1", "SP2", "SP4"]
    # cluster tilting: everything is presented
    for i in range(cat4.N):
        assert in_CT(cat4, fan_T, cat4.obj([i]))


def test_is_cluster_tilting(cat4, example_T, fan_T):
    assert is_cluster_tilting(cat4, fan_T)
    assert not is_cluster_tilting(cat4, example_T)
    assert not is_cluster_tilting(cat4, rigid_object(cat4, ["M44"]))
    # cluster-tilting implies Tperp = add T
    assert perp_view(cat4, fan_T, "Tperp") == set(fan_T.arcs)


def test_factoring_example(cat4, example_T):
    ar = complete_triangle(cat4, mesh_map_into(cat4, cat4.arc_of_token("M34")))
    assert factors_through_subcat(cat4, example_T, ar.g)
    # ... through M23 specifically, as in the worked example
    m23 = [cat4.arc_of_token("M23")]
    assert factors_through_mor(cat4, ar.g,
                               bundle_left_approx(cat4, ar.g.src, m23))
    ident = cat4.identity(cat4.obj(["M44"]))
    assert not factors_through_subcat(cat4, example_T, ident)
    zero = cat4.zero_mor(cat4.obj(["M34"]), cat4.obj(["M13"]))
    assert factors_through_subcat(cat4, example_T, zero)


def test_kernel_criterion_all_basis_maps(cat4, example_T):
    for (x, y) in sorted(cat4.hom_deg):
        if x == y:
            continue
        f = cat4.basis_mor(x, y)
        functor_zero = hom_functor_zero(cat4, example_T, f)
        direct = factors_through_subcat(cat4, example_T, f)
        assert functor_zero == direct


def test_kernel_criterion_random_maps(cat4, example_T):
    rng = random.Random(14)
    for _ in range(200):
        f = cat4.random_mor(rng, cat4.random_obj(rng, 2),
                            cat4.random_obj(rng, 2))
        assert hom_functor_zero(cat4, example_T, f) == \
            factors_through_subcat(cat4, example_T, f)


def _factoring_objects(n):
    """Every basic rigid object at n <= 4, six seeded ones above."""
    cat = cached_category(n)
    if n <= 4:
        return cat, enumerate_basic_rigid(cat)
    rng = random.Random(f"factoring:{n}")
    return cat, [sample_rigid(cat, rng) for _ in range(6)]


@pytest.mark.parametrize("n", range(1, 9))
def test_entrywise_factoring_verdict_matches_the_solve(n):
    """factors_through_subcat, read entry-wise off the per-arc rank tables,
    against one linear solve through the assembled approximation: on every
    basis map and on seeded maps between objects of up to three summands,
    half of them composites v.l through the approximation l."""
    cat, objects = _factoring_objects(n)
    rng = random.Random(f"entrywise:{n}")
    basis = [cat.basis_mor(x, y) for (x, y) in sorted(cat.hom_deg)]
    verdicts = set()
    for t in objects:
        maps = list(basis)
        for _ in range(12):
            x = cat.random_obj(rng, 3)
            maps.append(cat.random_mor(rng, x, cat.random_obj(rng, 3)))
            ell = left_sigma_perp_approx(cat, t, x)
            v = cat.random_mor(rng, ell.tgt, cat.random_obj(rng, 3))
            maps.append(cat.compose(v, ell))
        for f in maps:
            direct = factors_through_subcat(cat, t, f)
            assert direct == factors_through_sigma_perp(cat, t, f)
            if not f.is_zero():
                verdicts.add(direct)
    assert verdicts == {True, False}


def test_planted_rank_fault_is_caught():
    """Flipping one entry of the per-arc rank memo makes the entry-wise
    verdict disagree with the hom-functor criterion on the basis map that
    reads it."""
    cat = build_category(4)
    t = rigid_object(cat, ["M44", "M14", "M11"])
    for (a, y) in sorted(cat.hom_deg):
        f = cat.basis_mor(a, y)
        factors_through_subcat(cat, t, f)
        ranks = t.memo["sigma_perp_ranks"][a]
        ranks[y] = 1 - ranks[y]
        with pytest.raises(InternalConsistencyError,
                           match="disagrees with direct factoring"):
            factors_through_subcat(cat, t, f)
        ranks[y] = 1 - ranks[y]
        assert factors_through_subcat(cat, t, f) == \
            factors_through_sigma_perp(cat, t, f)


def test_smaller_kernel_on_presented_objects(cat4, example_T):
    """Maps out of presented objects killed by the functor factor through
    add ΣT, with matching dimensions."""
    sigma_t = [cat4.shift_arc(a) for a in example_T.arcs]
    ct = [i for i in range(cat4.N) if in_CT(cat4, example_T, cat4.obj([i]))]
    for i in ct:
        for j in range(cat4.N):
            x, y = cat4.obj([i]), cat4.obj([j])
            dk = dim_hom_functor_kernel(cat4, example_T, x, y)
            da = dim_factoring_through_add(cat4, x, y, sigma_t)
            assert dk == da


def test_add_factoring_slot_count_matches_the_rank():
    """dim_factoring_through_add, counted off the composition table, against
    the rank of Hom(ell, y) for the left add W-approximation ell of x: at
    n = 1..8, for six seeded sets W of arcs per rank, on every pair of
    indecomposables and on 300 seeded pairs of sums of up to three
    summands."""
    cases = 0
    for n in range(1, 9):
        cat = cached_category(n)
        rng = random.Random(f"add-slots:{n}")
        indecs = [(cat.obj([i]), cat.obj([j]))
                  for i in range(cat.N) for j in range(cat.N)]
        for _ in range(6):
            w = rng.sample(range(cat.N), rng.randint(1, n))
            sums = [(cat.random_obj(rng, 3), cat.random_obj(rng, 3))
                    for _ in range(300)]
            for x, y in indecs + sums:
                assert dim_factoring_through_add(cat, x, y, w) == \
                    rank_factoring_through_add(cat, x, y, w)
            cases += len(indecs) + len(sums)
    assert cases == 41976


def test_enumerate_basic_rigid_counts():
    for n, want in [(1, 2), (2, 10), (3, 44), (4, 196)]:
        cat = cached_category(n)
        rigs = enumerate_basic_rigid(cat)
        assert len(rigs) == want
        assert all(is_rigid(cat, Obj(t.arcs)) for t in rigs)
        assert len({t.arcs for t in rigs}) == want


def test_sample_rigid_seeded(cat4):
    rng = random.Random(0)
    t = sample_rigid(cat4, rng)
    assert is_rigid(cat4, Obj(t.arcs))
    rng2 = random.Random(0)
    assert sample_rigid(cat4, rng2).arcs == t.arcs


# -- approximations assembled from one triangle per indecomposable ---------

# (rank, summand tokens of T or None for a seeded sample)
ASSEMBLY_CASES = {
    "example": (4, ["M44", "M14", "M11"]),
    "fan": (4, ["0-2", "0-3", "0-4", "0-5"]),
    "sampled-3": (3, None),
    "sampled-6": (6, None),
    "sampled-8": (8, None),
}


def _assembly_case(name):
    n, tokens = ASSEMBLY_CASES[name]
    cat = cached_category(n)
    if tokens is not None:
        return cat, rigid_object(cat, tokens)
    arcs = sample_rigid(cat, random.Random(f"assembly:{name}")).arcs
    return cat, rigid_object(cat, arcs)


def _seeded_objects(cat, rng, count):
    """Objects of 2-4 summands; every third one repeats a summand."""
    out = []
    for k in range(count):
        summands = [rng.randrange(cat.N) for _ in range(2 + k % 3)]
        if k % 3 == 0:
            summands[-1] = summands[0]
        out.append(cat.obj(summands))
    return out


def _whole_object_triangle(cat, t, x):
    """The reference: the approximation triangle of x as one object."""
    return complete_triangle(cat, right_addT_approx(cat, t, x))


@pytest.mark.parametrize("name", sorted(ASSEMBLY_CASES))
def test_assembled_approximation_is_certified(name):
    """The summand-wise left Sigma T-perp approximation lands in Sigma
    T-perp, every map into a member factors through it, and its factoring
    and C(T) verdicts are those of the whole-object triangle."""
    cat, t = _assembly_case(name)
    sperp = perp_view(cat, t, "SigmaTperp")
    addt = set(t.arcs)
    rng = random.Random(f"assembled:{name}")
    verdicts = set()
    for x in _seeded_objects(cat, rng, 9):
        g = left_sigma_perp_approx(cat, t, x)
        assert g.src == x
        assert all(s in sperp for s in g.tgt.summands)
        ranks = pre_rank_table(cat, g)
        assert all(ranks[m] == cat.hom_vec_from(x)[m] for m in sperp)
        ref = _whole_object_triangle(cat, t, x)
        assert g.tgt.summands == tuple(sorted(ref.z.summands))
        u = cat.suspend_obj(ref.z, -1)
        assert in_CT(cat, t, x) == all(s in addt for s in u.summands)
        into_sperp = cat.obj([rng.choice(sorted(sperp))]) if sperp else x
        maps = [cat.identity(x),
                cat.random_mor(rng, x, cat.random_obj(rng, 2)),
                cat.random_mor(rng, x, into_sperp),
                cat.compose(cat.random_mor(rng, ref.z, x), ref.g)]
        for f in maps:
            direct = factors_through_mor(cat, f, g)
            assert direct == factors_through_mor(cat, f, ref.g)
            verdicts.add(direct)
    assert verdicts == {True, False}
    zero = left_sigma_perp_approx(cat, t, cat.zero_obj)
    assert zero.src.is_zero() and zero.tgt.is_zero()
    assert in_CT(cat, t, cat.zero_obj)


def test_factoring_memo_holds_one_triangle_per_indecomposable():
    """Classifying maps between objects of several summands completes
    approximation triangles of indecomposables only, and C(T) membership
    is memoised per arc."""
    cat = build_category(7)
    rng = random.Random("memo-guard")
    t = sample_rigid(cat, rng)
    for k in range(24):
        x = cat.obj([rng.randrange(cat.N) for _ in range(2 + k % 3)])
        y = cat.random_obj(rng, 3)
        classify(cat, t, cat.random_mor(rng, x, y))
        in_CT(cat, t, x)
        in_CT(cat, t, y)
    memo = t.memo
    assert memo["approx_tri"]
    assert all(len(key) <= 1 for key in memo["approx_tri"])
    assert set(memo["in_ct"]) <= set(range(cat.N))
