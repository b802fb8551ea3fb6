import itertools
import random
import re
import sys
import threading

import pytest

from cluster_loc import localization, modules
from cluster_loc.category import InternalConsistencyError, build_category
from cluster_loc.linalg import Mat, rank
from cluster_loc.localization import (LocHom, Zigzag, algebra_of, classify,
                                      factor_through_s, forward, inv, loc_hom,
                                      s_resolution, zigzag_equal, zigzag_eval)
from cluster_loc.modules import (H_mor, H_obj, direct_sum_modules,
                                 end_algebra, hom_dim_modules,
                                 modules_isomorphic, simple_module)
from cluster_loc.rigid import in_CT, perp_view, rigid_object
from cluster_loc.suites import (InstanceConfig, basis_maps, cached_category,
                                map_pool, replay_failure, run_suites)
from cluster_loc.triangles import mesh_map_into, mesh_map_out_of
from conftest import enumerate_basic_rigid, five_rigid, sample_rigid


def test_classify_example_maps(cat4, example_T):
    m34 = cat4.arc_of_token("M34")
    s = mesh_map_into(cat4, m34)
    cs = classify(cat4, example_T, s)
    assert cs.in_S and cs.in_S_tilde
    t = mesh_map_out_of(cat4, m34)
    ct = classify(cat4, example_T, t)
    assert ct.in_S_tilde and not ct.in_S
    assert ct.H_mono and ct.H_epi
    ident = cat4.identity(cat4.obj(["M34", "M44"]))
    ci = classify(cat4, example_T, ident)
    assert ci.in_S and ci.in_S_tilde
    assert ci.witness_triangle.z.is_zero()


def test_classify_flags_track_mono_epi(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    # the basis map M44 -> M34 induces S1 -> S1 + S3: mono, not epi
    f = cat4.basis_mor(cat4.arc_of_token("M44"), cat4.arc_of_token("M34"))
    c = classify(cat4, example_T, f)
    hf = H_mor(cat4, alg, f)
    assert (c.H_mono, c.H_epi) == hf.mono_epi() == (
        all(rank(m) == m.cols for m in hf.comps),
        all(rank(m) == m.rows for m in hf.comps)) == (True, False)
    assert not c.in_S_tilde
    # the zero map out of a T-summand: neither mono nor epi
    z = cat4.zero_mor(cat4.obj(["M44"]), cat4.obj(["M34"]))
    cz = classify(cat4, example_T, z)
    assert not cz.H_mono and not cz.H_epi


def _flip_connecting_map_verdict(monkeypatch, which):
    """Flip factors_through_subcat's verdict on classify's connecting map
    ``which``: classify asks about g first, then about h."""
    real = localization.factors_through_subcat
    calls = itertools.count()

    def flipped(cat, t, f):
        got = real(cat, t, f)
        asks_g = next(calls) % 2 == 0
        return not got if asks_g == (which == "g") else got

    monkeypatch.setattr(localization, "factors_through_subcat", flipped)


@pytest.mark.parametrize("which", ["g", "h"])
def test_classify_flag_check_catches_a_flipped_connecting_map(
        cat4, example_T, monkeypatch, which):
    """The mono/epi flags of H(f) and the factoring of the connecting maps
    are two decisions of one fact.  Flipping the factoring verdict on g (on
    h) makes classify raise on every basis map, naming H_epi and g_fac
    (H_mono and h_fac) as the pair that disagrees; the stilde suite records
    that error under two-verdicts-agree, and the unpatched run is clean."""
    cfg = InstanceConfig(n=4, T=["M44", "M14", "M11"], seed=7,
                         suites=["stilde"])
    assert run_suites(cfg)["failures_total"] == 0
    flags = {cat4.format_mor(f): classify(cat4, example_T, f)
             for f in basis_maps(cat4)}

    def pairs(c):
        mono = f"H_mono={c.H_mono}, h_fac={c.H_mono != (which == 'h')}"
        epi = f"H_epi={c.H_epi}, g_fac={c.H_epi != (which == 'g')}"
        return mono, epi

    _flip_connecting_map_verdict(monkeypatch, which)
    for text, c in flags.items():
        mono, epi = pairs(c)
        with pytest.raises(InternalConsistencyError,
                           match=re.escape(f"{mono}, {epi}")):
            classify(cat4, example_T, cat4.parse_mor(text))
    (record,) = run_suites(cfg)["suites"]
    assert len(record["failures"]) == record["checks"] == len(flags)
    for failure in record["failures"]:
        mono, epi = pairs(flags[failure["detail"]["map"]])
        assert failure["check"] == "two-verdicts-agree"
        assert failure["error"].startswith(
            "InternalConsistencyError: mono/epi flags disagree")
        assert failure["error"].endswith(f"{mono}, {epi}")


def _flag_mismatches(cat, t, maps) -> list[tuple[str, str]]:
    """(map, problem) wherever classify's mono and epi flags differ from
    those of the module map H(f), or H_mor's commuting check raises.  The
    algebra is built afresh, so its image modules come from this call."""
    alg = end_algebra(cat, t)
    out = []
    for f in maps:
        try:
            want = H_mor(cat, alg, f).mono_epi()
        except ValueError as exc:   # the commuting check of ModuleHom
            out.append((cat.format_mor(f), str(exc)))
            continue
        c = classify(cat, t, f)
        if (c.H_mono, c.H_epi) != want:
            out.append((cat.format_mor(f), f"flags {c.H_mono, c.H_epi}, "
                                           f"H(f) {want}"))
    return out


def _flag_instances():
    """Every basic rigid T at n <= 4, and five seeded T at each of
    n = 5..8, each with its rank's maps."""
    for n in range(1, 9):
        cat = cached_category(n)
        maps = basis_maps(cat) + map_pool(cat, 7, 20)
        ts = (enumerate_basic_rigid(cat) if n <= 4
              else five_rigid(cat, random.Random(f"flags:{n}")))
        for t in ts:
            yield cat, t, maps


def test_classify_flags_equal_the_module_map():
    """classify reads H(f)'s mono and epi flags off one rank of Hom(t, f)
    per summand t of T, without building the module map.  On every basis
    map between indecomposables and 20 pool maps per rank, for every basic
    rigid T at n <= 4 and five seeded T at n = 5..8, the flags equal
    ``mono_epi()`` of H_mor's module map, whose commuting check runs on
    every map here: 24,120 maps over 272 T, about 2 s on a shared 2-core
    x86-64 host."""
    checked = 0
    for cat, t, maps in _flag_instances():
        assert _flag_mismatches(cat, t, maps) == []
        checked += len(maps)
    assert checked == 24_120


def test_flag_test_reports_a_wrong_action_entry(cat4, fan_T, monkeypatch):
    """A wrong action entry planted in one image module (``_hom_module``)
    is reported by the flag test: H_mor's commuting check rejects maps
    into or out of that module.  The entry is the first nonzero one of the
    first image with one, set to zero; T is the heptagon fan, whose images
    are large enough for basis maps between them to see it (at the
    example T no basis map sees any such entry).  The unpatched run is
    clean."""
    maps = basis_maps(cat4)
    assert _flag_mismatches(cat4, fan_T, maps) == []
    real = modules._hom_module
    alg = end_algebra(cat4, fan_T)
    x0, pair = next((x, p) for x in range(cat4.N)
                    for p, m in real(cat4, alg, cat4.obj([x])).act.items()
                    if any(m.entries))

    def planted(cat, alg, x):
        mod = real(cat, alg, x)
        if x.summands == (x0,):
            m = mod.act[pair]
            k = next(k for k, e in enumerate(m.entries) if e)
            mod.act[pair] = Mat(m.rows, m.cols, m.entries[:k] + (0,)
                                + m.entries[k + 1:])
        return mod

    monkeypatch.setattr(modules, "_hom_module", planted)
    bad = _flag_mismatches(cat4, fan_T, maps)
    assert bad
    assert all(problem == "components do not commute with action"
               and cat4.labels[x0] in text for text, problem in bad)


def test_classify_flag_check_catches_a_wrong_summand_rank(
        cat4, example_T, monkeypatch):
    """A rank of Hom(t, f) read one too high at the first summand t of T
    changes classify's module flags on some basis maps, and classify
    raises there; the stilde suite records each such error under
    two-verdicts-agree, and the unpatched run is clean."""
    cfg = InstanceConfig(n=4, T=["M44", "M14", "M11"], seed=7,
                         suites=["stilde"])
    assert run_suites(cfg)["failures_total"] == 0
    real = localization.rank_rows
    calls = itertools.count()
    r = len(example_T.arcs)
    monkeypatch.setattr(
        localization, "rank_rows",
        lambda rows: real(rows) + (next(calls) % r == 0))
    raised = []
    for f in basis_maps(cat4):
        try:
            classify(cat4, example_T, f)
        except InternalConsistencyError as exc:
            assert str(exc).startswith("mono/epi flags disagree")
            raised.append(cat4.format_mor(f))
    assert raised
    (record,) = run_suites(cfg)["suites"]
    assert sorted(f["detail"]["map"] for f in record["failures"]) == \
        sorted(raised)
    for failure in record["failures"]:
        assert failure["check"] == "two-verdicts-agree"
        assert failure["error"].startswith(
            "InternalConsistencyError: mono/epi flags disagree")


def test_zero_map_to_zero_is_in_S(cat4, example_T):
    # elementary identity (a): U -> 0 for U in Sigma T-perp
    for u in sorted(perp_view(cat4, example_T, "SigmaTperp")):
        f = cat4.zero_mor(cat4.obj([u]), cat4.zero_obj)
        assert classify(cat4, example_T, f).in_S


def test_zero_map_from_zero_not_always_in_S(cat4, example_T):
    # 0 -> U for U in Sigma T-perp is inverted (both ends have zero image)
    # but is NOT in S when the cosuspension of U leaves Sigma T-perp, e.g.
    # U = SP4 with cosuspension M44; resolutions of perp objects therefore
    # go through the octahedral construction rather than this shortcut
    f = cat4.zero_mor(cat4.zero_obj, cat4.obj(["SP4"]))
    c = classify(cat4, example_T, f)
    assert c.in_S_tilde is True
    assert c.in_S is False


def test_s_resolution_all_indecomposables(cat4, example_T):
    """On every indecomposable y of the rank-4 example and of one seeded T
    at each of n = 5..7: s: x' -> y has only ``int`` entries, x' lies in
    C(T), s is in S, and every basis map u: c -> y from a C(T)
    indecomposable c factors through s exactly."""
    instances = [(cat4, example_T)] + [
        (cat, sample_rigid(cat, random.Random(f"resolve:{n}")))
        for n in (5, 6, 7) for cat in [cached_category(n)]]
    for cat, t in instances:
        ct = [c for c in range(cat.N) if in_CT(cat, t, cat.obj([c]))]
        for i in range(cat.N):
            y = cat.obj([i])
            xp, s = s_resolution(cat, t, y)
            assert s.src == xp and s.tgt == y
            assert all(type(v) is int for row in s.m for v in row)
            assert in_CT(cat, t, xp)
            assert classify(cat, t, s).in_S
            for c in ct:
                if cat.hom1(c, i):
                    u = cat.basis_mor(c, i)
                    h = factor_through_s(cat, t, u, s)
                    assert cat.compose(s, h).m == u.m


def test_s_resolution_example_image(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    xp, s = s_resolution(cat4, example_T, cat4.obj(["M34"]))
    s1s3 = direct_sum_modules([simple_module(alg, 0), simple_module(alg, 2)])
    assert modules_isomorphic(H_obj(cat4, alg, xp), s1s3)


def test_s_resolution_zero_object(cat4, example_T):
    xp, s = s_resolution(cat4, example_T, cat4.zero_obj)
    assert xp.is_zero() and s.is_zero()


def test_factor_through_s(cat4, example_T):
    y = cat4.obj(["M13"])
    xp, s = s_resolution(cat4, example_T, y)
    # u = s itself factors (h is then an endomorphism with s.h = s)
    h = factor_through_s(cat4, example_T, s, s)
    assert cat4.compose(s, h).m == s.m
    # u = 0 factors through anything
    u0 = cat4.zero_mor(cat4.obj(["M44"]), y)
    h0 = factor_through_s(cat4, example_T, u0, s)
    assert cat4.compose(s, h0).is_zero()
    # basis maps from presented indecomposables factor
    for i in range(cat4.N):
        if not in_CT(cat4, example_T, cat4.obj([i])):
            continue
        if cat4.dim_hom_obj(cat4.obj([i]), y):
            u = cat4.mor(cat4.obj([i]), y, [[1]])
            h = factor_through_s(cat4, example_T, u, s)
            assert cat4.compose(s, h).m == u.m


def test_factor_through_s_preconditions(cat4, example_T):
    y = cat4.obj(["M13"])
    xp, s = s_resolution(cat4, example_T, y)
    with pytest.raises(ValueError):
        factor_through_s(cat4, example_T,
                         cat4.zero_mor(cat4.obj(["M34"]), y), s)  # M34 not in C(T)
    with pytest.raises(ValueError):
        factor_through_s(cat4, example_T,
                         cat4.zero_mor(cat4.obj(["M44"]), cat4.obj(["M44"])), s)


def test_classify_rejects_a_non_basic_T(cat4, example_T):
    """classify and s_resolution take T from rigid_object, which refuses a
    repeated summand, so neither ever sees a non-basic T."""
    with pytest.raises(ValueError, match="T repeats the summand M44"):
        rigid_object(cat4, [*example_T.arcs, example_T.arcs[0]])


def test_loc_hom_summand_endomorphisms(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    for i, a in enumerate(example_T.arcs):
        lh = loc_hom(cat4, example_T, cat4.obj([a]), cat4.obj([a]), verify=True)
        # End of the corresponding projective: e_i Lambda e_i is 1-dimensional
        assert lh.dim == 1 == hom_dim_modules(
            H_obj(cat4, alg, cat4.obj([a])), H_obj(cat4, alg, cat4.obj([a])))


def test_loc_hom_perp_source_vanishes(cat4, example_T):
    for u in sorted(perp_view(cat4, example_T, "SigmaTperp")):
        for j in (0, 5, 9):
            lh = loc_hom(cat4, example_T, cat4.obj([u]), cat4.obj([j % cat4.N]))
            assert lh.dim == 0


def test_loc_hom_matches_module_dimension_all_pairs(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    mods = [H_obj(cat4, alg, cat4.obj([i])) for i in range(cat4.N)]
    for i in range(cat4.N):
        for j in range(cat4.N):
            lh = loc_hom(cat4, example_T, cat4.obj([i]), cat4.obj([j]))
            assert lh.dim == hom_dim_modules(mods[i], mods[j])
            assert len(lh.reps) == lh.dim
            assert isinstance(lh, LocHom)


def test_loc_hom_verify_catches_a_wrong_dimension(cat4, example_T,
                                                 monkeypatch):
    """verify=True decides the dimension a second time on the module side,
    so a quotient off by one raises on every pair, and without verify on
    none."""
    real = localization._quotient_reps

    def off_by_one(*args):
        dim, reps = real(*args)
        return dim + 1, reps

    monkeypatch.setattr(localization, "_quotient_reps", off_by_one)
    objs = [cat4.obj([i]) for i in range(cat4.N)]
    assert len(objs) ** 2 == 196
    for x in objs:
        for y in objs:
            assert loc_hom(cat4, example_T, x, y).dim >= 1
            with pytest.raises(InternalConsistencyError,
                               match="differs from the module hom dimension"):
                loc_hom(cat4, example_T, x, y, verify=True)


def test_module_suites_record_a_wrong_localized_dimension(monkeypatch):
    """equivalence and chain decide the dimension through
    loc_hom(verify=True), so a quotient off by one is a failure record with
    the error on every checked pair, and its reproducer fails again."""
    real = localization._quotient_reps

    def off_by_one(*args):
        dim, reps = real(*args)
        return dim + 1, reps

    monkeypatch.setattr(localization, "_quotient_reps", off_by_one)
    cfg = InstanceConfig(n=4, T=["M44", "M14", "M11"], seed=7,
                         suites=["equivalence", "chain"])
    rep = run_suites(cfg)
    for suite, check in (("equivalence", "loc-hom-dimension"),
                         ("chain", "quotient-dimension-chain")):
        (record,) = [s for s in rep["suites"] if s["name"] == suite]
        failed = [f for f in record["failures"] if f["check"] == check]
        assert len(failed) == record["coverage"]["pairs"] > 0
        for f in failed:
            assert "differs from the module hom dimension" in f["error"]
        assert replay_failure(failed[0]) is True


def test_loc_hom_verify_on_repeated_summands_and_zero(cat4, example_T):
    rng = random.Random("loc-hom-sums")
    objs = [cat4.zero_obj, cat4.obj(["M34", "M34"]),
            cat4.obj(["M13", "M44", "M13"])]
    objs += [cat4.random_obj(rng, 3) for _ in range(6)]
    for x in objs:
        for y in objs:
            lh = loc_hom(cat4, example_T, x, y, verify=True)
            assert len(lh.reps) == lh.dim
            if x.is_zero() or y.is_zero():
                assert lh.dim == 0
    m34, doubled = cat4.obj(["M34"]), cat4.obj(["M34", "M34"])
    one = loc_hom(cat4, example_T, m34, m34, verify=True).dim
    assert loc_hom(cat4, example_T, doubled, doubled,
                   verify=True).dim == 4 * one == 8


def test_zigzag_eval_and_equal(cat4, example_T):
    alg = algebra_of(cat4, example_T)
    m34 = cat4.arc_of_token("M34")
    s = mesh_map_into(cat4, m34)
    # single forward step evaluates to H
    z = Zigzag((forward(s),))
    ev = zigzag_eval(cat4, example_T, z)
    hs = H_mor(cat4, alg, s)
    assert all(a.entries == b.entries for a, b in zip(ev.comps, hs.comps))
    # s then its formal inverse is the identity
    z2 = Zigzag((forward(s), inv(s)))
    ident = Zigzag((forward(cat4.identity(s.src)),))
    assert zigzag_equal(cat4, example_T, z2, ident)
    # the inverse of s is an isomorphism on a module isomorphic to S1+S3
    zi = zigzag_eval(cat4, example_T, Zigzag((inv(s),)))
    assert zi.is_iso()
    s1s3 = direct_sum_modules([simple_module(alg, 0), simple_module(alg, 2)])
    assert modules_isomorphic(zi.src, s1s3)


def test_zigzag_insert_cancelling_pair(cat4, example_T):
    m34 = cat4.arc_of_token("M34")
    t = mesh_map_out_of(cat4, m34)
    s = mesh_map_into(cat4, m34)
    z1 = Zigzag((forward(s), forward(t)))
    z2 = Zigzag((forward(s), inv(s), forward(s), forward(t)))
    assert zigzag_equal(cat4, example_T, z1, z2)


def test_zigzag_translation_by_perp_factoring(cat4, example_T):
    # u + v ~ u whenever v factors through Sigma T-perp; built on sum
    # objects so that u itself has a nonzero image
    x = cat4.obj(["M44", "M34"])
    y = cat4.obj(["M34", "M13"])
    mid = cat4.obj(["M23"])
    alg = algebra_of(cat4, example_T)
    v = cat4.compose(cat4.random_mor(random.Random(1), mid, y),
                     cat4.random_mor(random.Random(2), x, mid))
    assert H_mor(cat4, alg, v).is_zero()
    u = cat4.random_mor(random.Random(3), x, y)
    assert not H_mor(cat4, alg, u).is_zero()
    z1 = Zigzag((forward(cat4.add_mor(u, v)),))
    z2 = Zigzag((forward(u),))
    assert zigzag_equal(cat4, example_T, z1, z2)
    # distinct module images stay distinct
    z3 = Zigzag((forward(cat4.scale_mor(3, u)),))
    assert not zigzag_equal(cat4, example_T, z2, z3)


def test_zigzag_validation(cat4, example_T):
    m34 = cat4.arc_of_token("M34")
    s = mesh_map_into(cat4, m34)
    t = mesh_map_out_of(cat4, m34)
    with pytest.raises(ValueError):
        Zigzag((forward(s), forward(s))).validate()
    with pytest.raises(ValueError):
        zigzag_equal(cat4, example_T, Zigzag((forward(s),)),
                     Zigzag((forward(t),)))
    # an empty zigzag is rejected on either side, before the endpoints
    # are compared
    for pair in ((Zigzag(()), Zigzag((forward(s),))),
                 (Zigzag((forward(s),)), Zigzag(()))):
        with pytest.raises(ValueError, match="^empty zigzag$"):
            zigzag_equal(cat4, example_T, *pair)
    # inverting a map outside the inverted class is rejected
    f = cat4.basis_mor(cat4.arc_of_token("M44"), m34)
    with pytest.raises(ValueError):
        zigzag_eval(cat4, example_T, Zigzag((inv(f),)))


def test_elementary_identities(cat4, cat2):
    for cat, tokens in [(cat4, ["M44", "M14", "M11"]),
                        (cat4, ["0-2", "0-3", "0-4", "0-5"]),
                        (cat2, ["M22", "M12"])]:
        cfg = InstanceConfig(n=cat.n, T=tokens, seed=3, suites=["elementary"])
        (rep,) = run_suites(cfg, cat=cat)["suites"]
        assert rep["failures"] == []
        assert rep["checks"] > 10
        assert rep["coverage"] == {"checks": rep["checks"]}


def test_built_category_shared_across_threads():
    """Threads classifying maps on one shared, freshly built category and
    one shared rigid object (cold memos, so they fill the per-rank and the
    per-T memos concurrently) get the serial verdicts and keep the serial
    image modules.  classify reads no image module, so each thread also asks
    for the image of every summand of each map's ends, which fills
    ``Algebra.images`` concurrently."""

    def verdicts(cat, t, order):
        alg = algebra_of(cat, t)
        out = {}
        for k in order:
            rng = random.Random(k)
            x, y = cat.random_obj(rng, 2), cat.random_obj(rng, 2)
            for a in x.summands + y.summands:
                H_obj(cat, alg, cat.obj([a]))
            c = classify(cat, t, cat.random_mor(rng, x, y))
            out[k] = (c.in_S_tilde, c.in_S, c.H_mono, c.H_epi,
                      c.witness_triangle.z)
        return out

    T = ["M55", "M25", "M22"]
    maps = list(range(24))
    serial_cat = build_category(5)
    serial_t = rigid_object(serial_cat, T)
    serial = verdicts(serial_cat, serial_t, maps)
    shared = build_category(5)
    shared_t = rigid_object(shared, T)
    results = [None] * 4
    errors = []

    def work(i):
        try:
            results[i] = verdicts(shared, shared_t,
                                  maps[6 * i:] + maps[:6 * i])
        except Exception as exc:   # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert all(r == serial for r in results)
    # the image modules the threads kept are the serial ones
    mine, theirs = (algebra_of(c, t).images
                    for c, t in ((shared, shared_t), (serial_cat, serial_t)))
    assert mine and mine.keys() == theirs.keys()
    assert all(mine[a].act == theirs[a].act for a in mine)


def test_algebra_of_hands_racing_threads_the_stored_algebra(monkeypatch):
    """Two threads that both miss the memo both build End(T); the second
    stores after the first has returned, and both hold the stored one."""
    real = localization.end_algebra
    cat = build_category(3)
    t = rigid_object(cat, ["0-2", "0-3"])
    both_in = threading.Barrier(2, timeout=60)
    first_back = threading.Event()
    lock = threading.Lock()
    entered = []

    def racing(cat, t):
        alg = real(cat, t)
        both_in.wait()
        with lock:
            entered.append(alg)
            second = len(entered) == 2
        if second and not first_back.wait(timeout=60):
            raise RuntimeError("the first thread never returned")
        return alg

    monkeypatch.setattr(localization, "end_algebra", racing)
    got = [None, None]

    def work(i):
        got[i] = algebra_of(cat, t)
        first_back.set()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
    assert not any(th.is_alive() for th in threads)
    assert len(entered) == 2 and entered[0] is not entered[1]
    stored = algebra_of(cat, t)
    assert got[0] is stored and got[1] is stored
