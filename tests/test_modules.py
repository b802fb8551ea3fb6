import itertools
import random
from fractions import Fraction

import pytest

import candidate_reference
from candidate_reference import (candidate_enumeration, candidates,
                                 component, compositions)
from cluster_loc import suites
from cluster_loc.linalg import Mat, inverse, rank, solve_right
from cluster_loc.localization import algebra_of
from cluster_loc.modules import (H_mor, H_obj, Algebra, LambdaModule,
                                 ModuleHom, direct_sum_modules, end_algebra,
                                 enumerate_indec_modules, hom_dim_modules,
                                 is_indecomposable, lift_module_to_CT,
                                 module_hom_basis, modules_isomorphic,
                                 pairing_rank, simple_module, split_module)
from cluster_loc.category import InternalConsistencyError, build_category
from cluster_loc.rigid import in_CT, perp_view, rigid_object
from cluster_loc.suites import (InstanceConfig, cached_category, image_table,
                                run_suites)
from conftest import (enumerate_basic_rigid, five_rigid, projective_module,
                      sample_rigid, slot_hom_functor_matrix, zero_module)


def test_end_algebra_example(cat4, example_T):
    alg = end_algebra(cat4, example_T)
    assert alg.dim == 5
    assert alg.radical_pairs == ((0, 1), (1, 2))
    assert alg.gabriel_arrows() == [(2, 1), (3, 2)]
    assert alg.mult.get((0, 1, 2), Fraction(0)) == 0


def test_end_algebra_single_arc(cat4):
    t = rigid_object(cat4, ["M34"])
    alg = end_algebra(cat4, t)
    assert alg.dim == 1
    assert alg.radical_pairs == ()


def test_end_algebra_requires_basic(cat4):
    """end_algebra takes T from rigid_object, which refuses a repeated
    summand, so every algebra has one vertex per distinct summand."""
    with pytest.raises(ValueError, match="T repeats the summand M44"):
        rigid_object(cat4, ["M44", "M44"])


def test_composites_follow_their_factors():
    """On every basic rigid object of rank <= 4, composites() lists each pair
    of the square of the radical once, after both of its factors, and every
    projective module satisfies b_(i,k) = c b_(i,j) b_(j,k)."""
    objects = composites = 0
    for n in range(1, 5):
        cat = cached_category(n)
        for t in enumerate_basic_rigid(cat):
            alg = algebra_of(cat, t)
            known = set(alg.arrow_pairs())
            comps = alg.composites()
            for (i, j, k, c) in comps:
                assert c == alg.mult[(i, j, k)] != 0
                assert (i, j) in known and (j, k) in known
                assert (i, k) not in known
                known.add((i, k))
            assert sorted(known) == sorted(alg.radical_pairs)
            for v in range(alg.r):
                p = projective_module(alg, v)
                for (i, j, k, c) in comps:
                    prod = (p.act[(i, j)] * p.act[(j, k)]).scale(c)
                    assert p.act[(i, k)].entries == prod.entries
            objects += 1
            composites += len(comps)
    assert objects == 252 and composites > 0


def test_composites_raise_without_a_factorization():
    # b_(0,1) = b_(0,2) b_(2,1) and b_(0,2) = b_(0,1) b_(1,2): neither pair
    # of the square of the radical reaches the arrows first
    alg = Algebra((0, 1, 2), ("a", "b", "c"),
                  ((0, 1), (0, 2), (1, 2), (2, 1)),
                  {(0, 2, 1): 1, (0, 1, 2): 1}, 7)
    assert alg.arrow_pairs() == [(1, 2), (2, 1)]
    with pytest.raises(InternalConsistencyError, match="factorization"):
        alg.composites()


def test_validate_checks_products_through_a_zero_vertex():
    # the linear A3 path algebra: b_(0,2) = b_(0,1) b_(1,2)
    alg = Algebra((0, 1, 2), ("a", "b", "c"), ((0, 1), (1, 2), (0, 2)),
                  {(0, 1, 2): 1}, 6)
    # M_1 = 0 forces b_(0,2) to act by zero, though both sides are 1 x 1
    bad = LambdaModule(alg, (1, 0, 1), {(0, 2): Mat(1, 1, (Fraction(1),))})
    with pytest.raises(ValueError, match="structure constants"):
        bad.validate()
    LambdaModule(alg, (1, 0, 1), {}).validate()
    LambdaModule(alg, (0, 1, 1), {(1, 2): Mat(1, 1, (Fraction(1),))}).validate()
    # a nonzero constant into a pair that is not radical raises at any dims
    broken = Algebra((0, 1, 2), ("a", "b", "c"), ((0, 1), (1, 2)),
                     {(0, 1, 2): 1}, 5)
    with pytest.raises(InternalConsistencyError, match="missing hom pair"):
        LambdaModule(broken, (0, 1, 0), {}).validate()


def test_H_of_example_object(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    m = H_obj(cat4, alg, cat4.obj(["M34"]))
    m.validate()
    assert m.dims == (1, 0, 1)
    s1 = simple_module(alg, 0)
    s3 = simple_module(alg, 2)
    s13 = direct_sum_modules([s1, s3])
    assert modules_isomorphic(m, s13)


def test_H_vanishes_exactly_on_perp(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    sperp = perp_view(cat4, example_T, "SigmaTperp")
    for i in range(cat4.N):
        hm = H_obj(cat4, alg, cat4.obj([i]))
        assert hm.is_zero() == (i in sperp)


def test_H_functorial_and_additive(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    rng = random.Random(21)
    for _ in range(150):
        x, y, z = (cat4.random_obj(rng, 2) for _ in range(3))
        f = cat4.random_mor(rng, x, y)
        g = cat4.random_mor(rng, y, z)
        hg_f = H_mor(cat4, alg, cat4.compose(g, f))
        comp = H_mor(cat4, alg, g).compose(H_mor(cat4, alg, f))
        assert all(a.entries == b.entries
                   for a, b in zip(hg_f.comps, comp.comps))
    x = cat4.obj(["M34"])
    y = cat4.obj(["M14"])
    both = cat4.obj(["M34", "M14"])
    hsum = direct_sum_modules([H_obj(cat4, alg, x), H_obj(cat4, alg, y)])
    assert modules_isomorphic(H_obj(cat4, alg, both), hsum)


def test_H_mor_components_are_shaped(cat4, example_T, fan_T):
    # component i is dim Hom(t_i, tgt) x dim Hom(t_i, src), also when both
    # are 0: on maps from and to the zero object, and at summands of T that
    # map to neither end
    rng = random.Random(22)
    neither = 0
    for t in (example_T, fan_T):
        alg = algebra_of(cat4, t)
        for _ in range(20):
            x, y = cat4.random_obj(rng, 2), cat4.random_obj(rng, 2)
            for f in (cat4.random_mor(rng, x, y),
                      cat4.zero_mor(cat4.zero_obj, y),
                      cat4.zero_mor(x, cat4.zero_obj)):
                hf = H_mor(cat4, alg, f)
                assert len(hf.comps) == alg.r
                for ti, c in zip(alg.summands, hf.comps):
                    rows = sum(cat4.hom1(ti, s) for s in f.tgt.summands)
                    cols = sum(cat4.hom1(ti, s) for s in f.src.summands)
                    assert (c.rows, c.cols) == (rows, cols)
                    neither += not f.src.is_zero() and rows == cols == 0
    assert neither


def _H_obj_reference(cat, alg, x):
    """H(x) built entry by entry from hom1 and comp3."""
    dims = [sum(1 for s in x.summands if cat.hom1(alg.summands[i], s))
            for i in range(alg.r)]
    basis = [[pos for pos, s in enumerate(x.summands)
              if cat.hom1(alg.summands[i], s)] for i in range(alg.r)]
    act = {}
    for (i, j) in alg.radical_pairs:
        rows = [[Fraction(0)] * dims[j] for _ in range(dims[i])]
        for cj, pos in enumerate(basis[j]):
            s = x.summands[pos]
            if cat.hom1(alg.summands[i], s):
                ri = basis[i].index(pos)
                rows[ri][cj] = cat.comp3(alg.summands[i], alg.summands[j], s)
        act[(i, j)] = Mat.from_rows(rows) if dims[i] else Mat.zeros(0, dims[j])
    return LambdaModule(alg, dims, act)


def test_H_obj_matches_the_entrywise_reference(monkeypatch):
    """Every basic rigid object of rank <= 3 and sampled ones at ranks 4-6,
    on every indecomposable, random objects, repeated summands and the zero
    object: the same dimensions, shapes and entries.  An indecomposable's
    module is kept with the algebra and handed out again; a sum or the zero
    object is built afresh and not kept, so a seeded AC2 instance leaves at
    most N modules per T."""
    rng = random.Random(24)
    cases = 0
    for n in range(1, 7):
        cat = cached_category(n)
        ts = (enumerate_basic_rigid(cat) if n <= 3
              else [sample_rigid(cat, rng) for _ in range(10)])
        for t in ts:
            alg = algebra_of(cat, t)
            xs = [cat.obj([i]) for i in range(cat.N)]
            xs += [cat.zero_obj, cat.obj([t.arcs[0]] * 2 + [t.arcs[-1]])]
            xs += [cat.random_obj(rng, 4) for _ in range(5)]
            for x in xs:
                got, ref = H_obj(cat, alg, x), _H_obj_reference(cat, alg, x)
                # Mat equality compares the shape and the entries
                assert got.dims == ref.dims and got.act == ref.act
                again = H_obj(cat, alg, x)
                assert (again is got) == (len(x.summands) == 1)
                assert again.dims == ref.dims and again.act == ref.act
                cases += 1
            assert sorted(alg.images) == list(range(cat.N))
    assert cases > 1500
    # after every suite on a seeded AC2 object, at most one module per
    # indecomposable on the rigid object the run made
    cat = build_category(5)
    t = sample_rigid(cat, random.Random("ac2:5"))
    cfg = InstanceConfig(n=5, T=[cat.labels[a] for a in t.arcs], seed=7)
    made = []

    def making(cat, summands):
        made.append(rigid_object(cat, summands))
        return made[-1]

    monkeypatch.setattr(suites, "rigid_object", making)
    assert run_suites(cfg, sample_maps=100, cat=cat)["failures_total"] == 0
    (alg,) = [u.memo["algebra"] for u in made]
    assert alg.images and len(alg.images) <= cat.N
    assert all(a in range(cat.N) for a in alg.images)


def test_enumerate_indecs_raises_past_the_candidate_limit(cat4, example_T,
                                                          monkeypatch):
    alg = algebra_of(cat4, example_T)
    # the first dimension vector with an arrow in its support has 3
    # candidates, one per value for the arrow's 1 x 1 matrix
    monkeypatch.setattr(candidate_reference, "CANDIDATE_LIMIT", 2)
    with pytest.raises(ValueError,
                       match=r"too large \(3\) for dims \(0, 1, 1\)"):
        candidate_enumeration(alg, 2)
    monkeypatch.setattr(candidate_reference, "CANDIDATE_LIMIT", 3)
    assert len(candidate_enumeration(alg, 2)) == 5


def _square(mult):
    """Four vertices with arrows 0 -> 1 -> 3 and 0 -> 2 -> 3 (the pair (i, j)
    acts M_j -> M_i), and the radical pair (3, 0) when a composite is
    nonzero."""
    pairs = ((1, 0), (2, 0), (3, 1), (3, 2))
    pairs += ((3, 0),) if any(mult.values()) else ()
    return Algebra((0, 1, 2, 3), ("a", "b", "c", "d"), pairs, mult,
                   4 + len(pairs))


@pytest.mark.parametrize("alg, condition", [
    # a commutativity square: two nonzero paths from 1 to 4
    (_square({(3, 1, 0): 1, (3, 2, 0): 1}), "not a monomial algebra"),
    (Algebra((0, 1, 2, 3), ("a", "b", "c", "d"), ((1, 0), (2, 0), (3, 0)),
             {}, 7), "3 arrows start at vertex 1"),
    # the arrow 1 -> 2 composes nonzero with both arrows out of 2
    (Algebra((0, 1, 2, 3), ("a", "b", "c", "d"),
             ((1, 0), (2, 1), (3, 1), (2, 0), (3, 0)),
             {(2, 1, 0): 1, (3, 1, 0): 1}, 9),
     "arrow 1 -> 2 has more than one nonzero composite"),
    # the square 0 -> 1 <- 2 -> 3 <- 0 has no path of length two: the
    # hereditary algebra of type A3-tilde, gentle, with a band around it
    (Algebra((0, 1, 2, 3), ("a", "b", "c", "d"),
             ((1, 0), (1, 2), (3, 2), (3, 0)), {}, 8), "with a band"),
], ids=["commutativity", "three-arrows-out", "two-composites", "band"])
def test_string_premise_raises_naming_the_condition(alg, condition):
    with pytest.raises(InternalConsistencyError, match=condition):
        enumerate_indec_modules(alg)


@pytest.mark.parametrize("alg, count", [
    # both paths of the square 0 -> 1 -> 3, 0 -> 2 -> 3 are zero, so no
    # string runs around it: no band
    (_square({(3, 1, 0): 0, (3, 2, 0): 0}), 10),
    # 0 -> 1 -> 2 -> 3 with the one relation of length three: every interval
    # but the whole line
    (Algebra((0, 1, 2, 3), ("a", "b", "c", "d"),
             ((1, 0), (2, 1), (3, 2), (2, 0), (3, 1)),
             {(2, 1, 0): 1, (3, 2, 1): 1, (3, 2, 0): 0, (3, 1, 0): 0}, 9), 9),
], ids=["square-with-two-zero-relations", "relation-of-length-three"])
def test_monomial_algebras_match_the_candidate_reference(alg, count):
    classes = enumerate_indec_modules(alg)
    assert len(classes) == count
    _assert_same_classes(classes, candidate_enumeration(alg, 5))


def _assert_same_classes(got, ref):
    """The same dimension vectors in the same order, and each class
    isomorphic to exactly one class of the other list, both ways."""
    assert [m.dims for m in got] == [m.dims for m in ref]
    for a, b in ((got, ref), (ref, got)):
        for m in a:
            assert sum(1 for c in b if modules_isomorphic(m, c)) == 1


def _image_bound(cat, alg):
    """The largest total dimension of H(x) over the indecomposables x, at
    least 2: every indecomposable module is some H(x) with x in C(T)."""
    return max(2, max(H_obj(cat, alg, cat.obj([i])).total_dim
                      for i in range(cat.N)))


def test_enumerate_indecs_matches_candidate_reference():
    """On every basic rigid object of rank <= 4, the string modules are the
    classes of the {0, +-1} candidate enumeration, in the same order."""
    objects = 0
    for n in range(1, 5):
        cat = cached_category(n)
        for t in enumerate_basic_rigid(cat):
            alg = algebra_of(cat, t)
            bound = _image_bound(cat, alg)
            assert bound <= 5
            _assert_same_classes(enumerate_indec_modules(alg),
                                 candidate_enumeration(alg, bound))
            objects += 1
    assert objects == 252


def test_projectives_yoneda(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    for i in range(alg.r):
        p = projective_module(alg, i)
        p.validate()
        h = H_obj(cat4, alg, cat4.obj([example_T.arcs[i]]))
        assert modules_isomorphic(p, h)
        # Hom(P_i, M) has the dimension of e_i M
        for j in range(alg.r):
            m = projective_module(alg, j)
            assert hom_dim_modules(p, m) == m.dims[i]


def test_module_hom_examples(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    s1 = simple_module(alg, 0)
    s3 = simple_module(alg, 2)
    assert hom_dim_modules(s1, s3) == 0
    assert hom_dim_modules(s1, s1) == 1
    p2 = projective_module(alg, 1)
    assert hom_dim_modules(p2, p2) == 1


def _image_hom_dims_match_the_basis(cat, t):
    """hom_dim_modules, a rank count, against the basis that
    module_hom_basis builds, on every pair of image modules H(x), H(y)."""
    alg = algebra_of(cat, t)
    images = [H_obj(cat, alg, cat.obj([x])) for x in range(cat.N)]
    dims = [[hom_dim_modules(a, b) for b in images] for a in images]
    assert dims == [[len(module_hom_basis(a, b)) for b in images]
                    for a in images]
    return dims


def test_hom_dim_modules_counts_the_basis_on_images(cat4, example_T):
    dims = _image_hom_dims_match_the_basis(cat4, example_T)
    assert max(map(max, dims)) >= 1


@pytest.mark.parametrize("seed", ["hom-dim:6:a", "hom-dim:6:b"])
def test_hom_dim_modules_counts_the_basis_at_rank_6(seed):
    cat = build_category(6)
    t = sample_rigid(cat, random.Random(seed))
    assert len(t.arcs) >= 2
    dims = _image_hom_dims_match_the_basis(cat, t)
    assert max(map(max, dims)) >= 1


def test_enumerate_indecs_example(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    classes = enumerate_indec_modules(alg)
    dimvecs = sorted(m.dims for m in classes)
    assert dimvecs == sorted([(1, 0, 0), (0, 1, 0), (0, 0, 1),
                              (1, 1, 0), (0, 1, 1)])
    _assert_same_classes(classes, candidate_enumeration(alg, 5))


def _assert_interval_classes(classes, r):
    intervals = sorted(tuple(1 if a <= v <= b else 0 for v in range(r))
                       for a in range(r) for b in range(a, r))
    assert sorted(m.dims for m in classes) == intervals
    for m in classes:
        assert sum(1 for c in classes if modules_isomorphic(m, c)) == 1


def _fan(n):
    """The fan at vertex 0 of the (n + 3)-gon: the linear A_n quiver with
    all paths nonzero, one indecomposable per interval of vertices."""
    return InstanceConfig(n=n, T=[f"0-{k}" for k in range(2, n + 2)])


def test_enumerate_indecs_fan(cat4, fan_T):
    alg = algebra_of(cat4, fan_T)
    classes = enumerate_indec_modules(alg)
    _assert_interval_classes(classes, 4)
    _assert_same_classes(classes, candidate_enumeration(alg, 5))


def test_enumerate_indecs_fan_n5():
    cat = cached_category(5)
    alg = algebra_of(cat, rigid_object(cat, _fan(5).T))
    classes = enumerate_indec_modules(alg)
    _assert_interval_classes(classes, 5)
    _assert_same_classes(classes, candidate_enumeration(alg, 5))


@pytest.mark.parametrize("n", range(6, 13))
def test_image_table_of_the_fan_up_to_rank_12(n):
    """n(n + 1)/2 interval classes, and every image H(x) is a sum of them."""
    cat = cached_category(n)
    alg = algebra_of(cat, rigid_object(cat, _fan(n).T))
    _assert_interval_classes(enumerate_indec_modules(alg), n)
    rows = image_table(_fan(n), cat)
    assert len(rows) == cat.N
    assert not [p for row in rows for p in row["decomposition"]
                if p.startswith("?")]


def _raw_tuples(dims, slots):
    """Every {0, +-1} matrix tuple on the slots."""
    spaces = []
    for (i, j) in slots:
        ents = itertools.product([Fraction(v) for v in (0, 1, -1)],
                                 repeat=dims[i] * dims[j])
        spaces.append([Mat(dims[i], dims[j], tuple(e)) for e in ents])
    return itertools.product(*spaces)


def _sign_orbit_key(dims, slots, mats):
    """The least entry tuple over the orbit of the diagonal sign changes
    A_(i,j) -> D_i A_(i,j) D_j."""
    offs = [sum(dims[:i]) for i in range(len(dims))]
    return min(
        tuple(tuple(x * d[offs[i] + p // m.cols] * d[offs[j] + p % m.cols]
                    for p, x in enumerate(m.entries))
              for (i, j), m in zip(slots, mats))
        for d in itertools.product((1, -1), repeat=sum(dims)))


def _basis_graph_connected(dims, slots, mats):
    """Whether the nonzero entries A_(i,j)[a, b], as edges (i, a) - (j, b),
    join every basis vector (i, a)."""
    nodes = [(i, a) for i, d in enumerate(dims) for a in range(d)]
    edges = [((i, p // m.cols), (j, p % m.cols))
             for (i, j), m in zip(slots, mats)
             for p, x in enumerate(m.entries) if x]
    return len(component(nodes, edges)) == len(nodes)


def _small_algebras(cat4, example_T, fan_T, cat2):
    return [algebra_of(cat4, example_T), algebra_of(cat4, fan_T),
            algebra_of(cat2, rigid_object(cat2, ["M22", "M12"]))]


def test_sign_filter_keeps_one_candidate_per_orbit(cat4, example_T, fan_T,
                                                   cat2):
    """candidates on the arrow slots meets every orbit of the raw tuples
    whose basis graph is connected once, and yields nothing else.  Total
    dimension 4 is included: below it no graph of basis vectors has a
    cycle, so no entry would take both signs."""
    orbits = negative = 0
    for alg in _small_algebras(cat4, example_T, fan_T, cat2):
        for total in range(1, 5):
            for dims in compositions(total, alg.r):
                slots = [(i, j) for (i, j) in alg.arrow_pairs()
                         if dims[i] and dims[j]]
                cands = list(candidates(dims, slots))
                got = [_sign_orbit_key(dims, slots, mats) for mats in cands]
                assert len(got) == len(set(got)), dims
                assert set(got) == {_sign_orbit_key(dims, slots, mats)
                                    for mats in _raw_tuples(dims, slots)
                                    if _basis_graph_connected(dims, slots,
                                                              mats)}
                orbits += len(got)
                negative += sum(x < 0 for mats in cands for m in mats
                                for x in m.entries)
    assert orbits > 0 and negative > 0


def test_disconnected_candidates_are_decomposable(cat4, example_T, fan_T,
                                                  cat2):
    """Every raw arrow tuple of total dimension <= 4 whose basis graph is
    disconnected, with its composites forced, fails validation or is
    decomposable, so `candidates` drops no indecomposable."""
    checked = 0
    for alg in _small_algebras(cat4, example_T, fan_T, cat2):
        composites = alg.composites()
        for total in range(2, 5):
            for dims in compositions(total, alg.r):
                slots = [(i, j) for (i, j) in alg.arrow_pairs()
                         if dims[i] and dims[j]]
                for mats in _raw_tuples(dims, slots):
                    if _basis_graph_connected(dims, slots, mats):
                        continue
                    m = LambdaModule(alg, dims, dict(zip(slots, mats)))
                    for (i, j, k, c) in composites:
                        if dims[i] and dims[j] and dims[k]:
                            m.act[(i, k)] = (m.act[(i, j)]
                                             * m.act[(j, k)]).scale(c)
                    try:
                        m.validate()
                    except ValueError:
                        continue
                    assert not is_indecomposable(m), (dims, mats)
                    checked += 1
    assert checked > 0


def _unpruned_enumeration(alg, dim_bound):
    """The enumeration over every {0, +-1} matrix on every radical pair,
    arrows or not, with no sign orbits."""
    found = []
    for total in range(1, dim_bound + 1):
        for dims in compositions(total, alg.r):
            support = [i for i in range(alg.r) if dims[i]]
            if len(component(support, alg.radical_pairs)) != len(support):
                continue
            slots = [(i, j) for (i, j) in alg.radical_pairs
                     if dims[i] and dims[j]]
            classes = []
            for mats in _raw_tuples(dims, slots):
                m = LambdaModule(alg, dims, dict(zip(slots, mats)))
                try:
                    m.validate()
                except ValueError:
                    continue
                if not is_indecomposable(m):
                    continue
                if any(modules_isomorphic(m, c) for c in classes):
                    continue
                classes.append(m)
            found.extend(classes)
    return found


def test_enumerate_indecs_matches_unpruned_reference():
    """On one basic rigid object of rank <= 4 per orbit of the suspension,
    which is an autoequivalence and so keeps the algebra up to the order of
    its vertices, the string modules are the classes of the loop over every
    {0, +-1} matrix on every radical pair."""
    objects = 0
    for n in range(1, 5):
        cat = cached_category(n)
        for t in enumerate_basic_rigid(cat):
            arcs = cat.obj(t.arcs)
            if any(cat.suspend_obj(arcs, k).summands < arcs.summands
                   for k in range(1, n + 3)):
                continue
            alg = algebra_of(cat, t)
            bound = _image_bound(cat, alg)
            _assert_same_classes(enumerate_indec_modules(alg),
                                 _unpruned_enumeration(alg, bound))
            objects += 1
    assert objects == 41


def _module(alg, dims, act):
    m = LambdaModule(alg, dims, {k: Mat.from_rows(v) for k, v in act.items()})
    m.validate()
    return m


def _multiplicities(m, classes):
    """split_module's verdict as {dimension vector: multiplicity} over the
    classes that occur, and the leftover; the classes used here have
    pairwise distinct dimension vectors."""
    mults, left = split_module(m, classes)
    return {c.dims: mu for c, mu in zip(classes, mults) if mu}, left


def test_split_disconnected_on_zero_arrow(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    classes = enumerate_indec_modules(alg)
    # full support, but the arrow 3 -> 2 acts by zero: (1,1,0) + S3
    m = _module(alg, (1, 1, 1), {(0, 1): [[1]], (1, 2): [[0]]})
    assert not is_indecomposable(m)
    assert _multiplicities(m, classes) == ({(1, 1, 0): 1, (0, 0, 1): 1},
                                           (0, 0, 0))
    assert is_indecomposable(_module(alg, (1, 1, 0), {(0, 1): [[1]]}))


def test_split_simple_summand(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    classes = enumerate_indec_modules(alg)
    # M_2 = <e1, e2> with rad_2 = <e1> = image of the arrow from vertex 3:
    # e2 spans a simple summand S2 although the arrow graph is connected,
    # and the rest is P3
    m = _module(alg, (0, 2, 1), {(1, 2): [[1], [0]]})
    assert _multiplicities(m, classes) == ({(0, 1, 0): 1, (0, 1, 1): 1},
                                           (0, 0, 0))
    total = direct_sum_modules([simple_module(alg, 1),
                                projective_module(alg, 2)])
    assert modules_isomorphic(total, m)


def test_split_square_of_a_projective(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    classes = enumerate_indec_modules(alg)
    p3 = projective_module(alg, 2)
    square = direct_sum_modules([p3, p3])
    assert not is_indecomposable(square)
    assert _multiplicities(square, classes) == ({(0, 1, 1): 2}, (0, 0, 0))


def test_split_verdicts_match_trace_form(cat4, example_T, fan_T):
    """On every validated candidate of total dimension <= 3, r(M, M) equals
    the Gram rank of the product-and-trace reference, and M is
    indecomposable exactly when it is 1."""
    for t in (example_T, fan_T):
        alg = algebra_of(cat4, t)
        for total in range(1, 4):
            for dims in compositions(total, alg.r):
                slots = [(i, j) for (i, j) in alg.radical_pairs
                         if dims[i] and dims[j]]
                for mats in _raw_tuples(dims, slots):
                    m = LambdaModule(alg, dims, dict(zip(slots, mats)))
                    try:
                        m.validate()
                    except ValueError:
                        continue
                    basis = module_hom_basis(m, m)
                    # tr(pq), one vertex block at a time
                    gram = [[sum((pi * qi).at(k, k)
                                 for pi, qi in zip(p.comps, q.comps)
                                 for k in range(pi.rows))
                             for q in basis] for p in basis]
                    ref = rank(Mat.from_rows(gram)) if gram else 0
                    assert pairing_rank(m, m) == ref
                    assert is_indecomposable(m) == (ref == 1)


def _random_invertible(rng, d):
    while True:
        g = Mat.from_rows([[rng.randint(-2, 2) for _ in range(d)]
                           for _ in range(d)])
        gi = inverse(g)
        if gi is not None:
            return g, gi


def _base_changed_sum(rng, classes, mults):
    """The direct sum with mults[k] copies of classes[k], in shuffled order,
    conjugated by a random invertible matrix g_i at each vertex."""
    parts = [c for c, mu in zip(classes, mults) for _ in range(mu)]
    rng.shuffle(parts)
    total = direct_sum_modules(parts)
    gs = [_random_invertible(rng, d) for d in total.dims]
    m = LambdaModule(total.alg, total.dims,
                     {(i, j): gs[i][0] * a * gs[j][1]
                      for (i, j), a in total.act.items()})
    m.validate()
    return m


def test_split_and_isomorphism_on_base_changed_sums():
    """Seeded direct sums of string modules at n = 3..6, over the fan and
    three sampled rigid objects of at least three summands per rank, each
    sum base-changed at every vertex: split_module returns the
    multiplicities each sum was built from, with nothing left over, and
    modules_isomorphic holds exactly when two sums of equal dimension vector
    have equal multiplicity vectors.  The non-isomorphic partner of a sum
    trades one class for the simples of its dimension vector."""
    sums = pairs = non_iso = 0
    for n in range(3, 7):
        cat = cached_category(n)
        rng = random.Random(f"split:{n}")
        ts = [rigid_object(cat, _fan(n).T)]
        while len(ts) < 4:
            t = sample_rigid(cat, rng)
            if len(t.arcs) >= 3 and t not in ts:
                ts.append(t)
        for t in ts:
            alg = algebra_of(cat, t)
            classes = enumerate_indec_modules(alg)
            simple = {c.dims.index(1): k for k, c in enumerate(classes)
                      if c.total_dim == 1}
            for _ in range(6):
                mults = [0] * len(classes)
                for _ in range(rng.randint(1, 4)):
                    mults[rng.randrange(len(classes))] += 1
                m = _base_changed_sum(rng, classes, mults)
                assert split_module(m, classes) == (mults, (0,) * alg.r)
                assert is_indecomposable(m) == (sum(mults) == 1)
                sums += 1
                partners = [list(mults)]
                big = [k for k, mu in enumerate(mults)
                       if mu and classes[k].total_dim > 1]
                if big:
                    other = list(mults)
                    other[big[0]] -= 1
                    for v, d in enumerate(classes[big[0]].dims):
                        other[simple[v]] += d
                    partners.append(other)
                for other in partners:
                    m2 = _base_changed_sum(rng, classes, other)
                    assert m2.dims == m.dims
                    assert modules_isomorphic(m, m2) == (other == mults)
                    pairs += 1
                    non_iso += other != mults
    assert sums == 96 and non_iso > 50 and pairs == sums + non_iso


def test_split_leaves_a_missing_class_over(cat4, fan_T):
    """The sum of all ten classes of the heptagon fan, split over the list
    without one class: every other class once, and exactly the missing
    class's dimension vector left over.  A listed module that is not
    indecomposable makes the leftover negative, which raises."""
    alg = algebra_of(cat4, fan_T)
    classes = enumerate_indec_modules(alg)
    total = direct_sum_modules(classes)
    for k, missing in enumerate(classes):
        rest = classes[:k] + classes[k + 1:]
        assert split_module(total, rest) == ([1] * len(rest), missing.dims)
    square = direct_sum_modules([classes[-1]] * 2)
    with pytest.raises(InternalConsistencyError, match="exceed"):
        split_module(square, [square])


def test_enumerate_indecs_point_algebra(cat4):
    alg = algebra_of(cat4, rigid_object(cat4, ["M34"]))
    classes = enumerate_indec_modules(alg)
    assert [m.dims for m in classes] == [(1,)]


def test_enumerate_indecs_a2_path_algebra(cat2):
    # two compatible arcs with one map between them: the path algebra of A2,
    # which has the classical three indecomposables
    t = rigid_object(cat2, ["M22", "M12"])
    alg = algebra_of(cat2, t)
    assert alg.dim == 3
    classes = enumerate_indec_modules(alg)
    assert sorted(m.dims for m in classes) == [(0, 1), (1, 0), (1, 1)]


def test_indecomposability_and_decompose(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    classes = enumerate_indec_modules(alg)
    s1 = simple_module(alg, 0)
    assert is_indecomposable(s1)
    assert not is_indecomposable(zero_module(alg))
    square = direct_sum_modules([s1, s1])
    assert not is_indecomposable(square)
    assert _multiplicities(square, classes) == ({(1, 0, 0): 2}, (0, 0, 0))
    p3 = projective_module(alg, 2)
    assert is_indecomposable(p3)
    mixed = direct_sum_modules([p3, s1, s1])
    assert _multiplicities(mixed, classes) == ({(0, 1, 1): 1, (1, 0, 0): 2},
                                               (0, 0, 0))


def test_iso_invariant_under_base_change(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    p3 = projective_module(alg, 2)
    # conjugate the action by a nontrivial base change at vertex 2
    act = dict(p3.act)
    g = Fraction(3)
    act[(1, 2)] = act[(1, 2)].scale(g)          # M_2 -> M_1 rescaled source
    twisted = LambdaModule(alg, p3.dims, act)
    twisted.validate()
    assert modules_isomorphic(p3, twisted)
    assert not modules_isomorphic(p3, simple_module(alg, 2))


def test_lift_at_every_rank():
    """Every enumerated class of every basic rigid object of rank <= 4, of
    the rank-4 example with its summands in every order, and of AC3's
    objects at ranks 5..12 (five seeded ones and the fan), lifts to one
    arc, and three seeded sums of two classes per object lift to the sum
    of the two lifts, so the lift adds no summand of Sigma T."""
    instances = [(cached_category(n), t) for n in range(1, 5)
                 for t in enumerate_basic_rigid(cached_category(n))]
    cat4 = cached_category(4)
    instances += [(cat4, rigid_object(cat4, order)) for order in
                  itertools.permutations(["M44", "M14", "M11"])]
    for n in range(5, 13):
        cat = cached_category(n)
        fan = rigid_object(cat, [f"0-{k}" for k in range(2, n + 2)])
        instances += [(cat, t) for t in
                      five_rigid(cat, random.Random(f"ac3:{n}")) + [fan]]
    lifts = 0
    for cat, t in instances:
        alg = algebra_of(cat, t)
        classes = enumerate_indec_modules(alg)
        arcs = []
        for m in classes:
            x = lift_module_to_CT(cat, t, alg, m)
            assert len(x.summands) == 1
            arcs.append(x.summands[0])
        rng = random.Random(f"lift-sums:{cat.n}:{t.arcs}")
        for _ in range(3):
            a, b = rng.randrange(len(classes)), rng.randrange(len(classes))
            m = direct_sum_modules([classes[a], classes[b]])
            x = lift_module_to_CT(cat, t, alg, m)
            assert x.summands == tuple(sorted((arcs[a], arcs[b])))
        lifts += len(classes) + 3
    assert len(instances) == 252 + 6 + 48 and lifts == 2800


def test_lift_of_the_zero_module_is_the_zero_object(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    assert lift_module_to_CT(cat4, example_T, alg,
                             zero_module(alg)) == cat4.zero_obj


def test_density_round_trip(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    classes = enumerate_indec_modules(alg)
    sperp = perp_view(cat4, example_T, "SigmaTperp")
    images = {}
    for i in range(cat4.N):
        images[i] = H_obj(cat4, alg, cat4.obj([i]))
    lifts = {}
    for m in classes:
        x = lift_module_to_CT(cat4, example_T, alg, m)
        assert in_CT(cat4, example_T, x)
        assert modules_isomorphic(H_obj(cat4, alg, x), m)
        lifts[m.dims] = cat4.obj_label(x)
        # the class is realized by some indecomposable as well
        assert any(modules_isomorphic(images[i], m) for i in range(cat4.N))
    assert lifts == {(1, 0, 0): "M44", (0, 1, 0): "M13", (0, 0, 1): "SP2",
                     (1, 1, 0): "M14", (0, 1, 1): "M11"}
    zero_images = sum(1 for i in range(cat4.N) if images[i].is_zero())
    assert zero_images == len(sperp)


def test_fullness_on_presented_objects(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    ct = [i for i in range(cat4.N) if in_CT(cat4, example_T, cat4.obj([i]))]
    for i in ct:
        for j in ct:
            x, y = cat4.obj([i]), cat4.obj([j])
            hx, hy = H_obj(cat4, alg, x), H_obj(cat4, alg, y)
            ref = slot_hom_functor_matrix(cat4, alg.summands, x, y)
            for alpha in module_hom_basis(hx, hy):
                sol = solve_right(ref.to_rows(), [
                    v for c in alpha.comps for v in c.entries], ref.cols)
                assert sol is not None
                v, d, _ = sol
                hf = H_mor(cat4, alg, cat4.mor_from_vec(
                    x, y, [Fraction(e, d) for e in v]))
                assert all(a.entries == b.entries
                           for a, b in zip(hf.comps, alpha.comps))


def test_dimension_bookkeeping_on_presented_pairs(cat4, example_T):
    from cluster_loc.rigid import dim_hom_functor_kernel
    alg = algebra_of(cat4, example_T)
    ct = [i for i in range(cat4.N) if in_CT(cat4, example_T, cat4.obj([i]))]
    for i in ct:
        for j in ct:
            x, y = cat4.obj([i]), cat4.obj([j])
            dm = hom_dim_modules(H_obj(cat4, alg, x), H_obj(cat4, alg, y))
            assert dm == cat4.dim_hom_obj(x, y) - \
                dim_hom_functor_kernel(cat4, example_T, x, y)


def test_module_hom_validation(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    p2 = projective_module(alg, 1)
    s1 = simple_module(alg, 0)
    with pytest.raises(ValueError):
        ModuleHom(p2, s1, [Mat.from_rows([[1]]),
                           Mat.zeros(0, 1), Mat.zeros(0, 0)])
