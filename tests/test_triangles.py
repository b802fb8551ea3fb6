import json
import os
import random
import subprocess
import sys

import pytest

from cluster_loc import category, triangles
from cluster_loc.category import BuildError, Category, Obj, build_category
from cluster_loc.linalg import eliminate, integer_row, kernel_basis, rank
from cluster_loc.suites import (InstanceConfig, basis_maps, cached_category,
                                run_suites)
from cluster_loc.triangles import (Triangle, TriangleError, certify_triangle,
                                   certify_triangle_parts, complete_triangle,
                                   cone_profile, mesh_map_into,
                                   mesh_map_out_of, profile_candidates)
from profile_reference import (hom_dim_matrix, reduced_hom_dim_system,
                               reference_candidates)
from smoothing_reference import smooth_crossing
from conftest import as_rows, shift_once


def ar_triangle(cat, x: int) -> Triangle:
    """The almost split triangle Σx -> E -> x -> Σ²x, certified."""
    return complete_triangle(cat, mesh_map_into(cat, x))


def rotate_forward(cat, tri: Triangle) -> Triangle:
    """(f, g, h) -> (g, h, -Σf); the certificate is recomputed."""
    nf = cat.scale_mor(-1, cat.suspend_mor(tri.f))
    sx = cat.suspend_obj(tri.x)
    cert = certify_triangle_parts(cat, tri.y, tri.z, sx, tri.g, tri.h, nf)
    return Triangle(tri.y, tri.z, sx, tri.g, tri.h, nf, cert)


def test_cone_of_identity_is_zero(cat4):
    x = cat4.obj(["M34"])
    tri = complete_triangle(cat4, cat4.identity(x))
    assert tri.z.is_zero()
    assert tri.cert.is_valid()


def test_cone_of_zero_map_splits(cat4):
    x = cat4.obj(["M34"])
    y = cat4.obj(["M13"])
    tri = complete_triangle(cat4, cat4.zero_mor(x, y))
    want = cat4.obj(list(y.summands) + list(cat4.suspend_obj(x).summands))
    assert tri.z == want
    assert tri.cert.is_valid()


def test_cone_profile_examples(cat4):
    x = cat4.obj(["M34"])
    prof = cone_profile(cat4, cat4.identity(x))
    assert all(v == 0 for v in prof)
    s = mesh_map_into(cat4, cat4.arc_of_token("M34"))
    prof = cone_profile(cat4, s)
    m13 = cat4.arc_of_token("M13")
    for w in range(cat4.N):
        assert prof[w] == int(cat4.hom1(w, m13))


_NULLITY = [(1, 0), (2, 0), (3, 0), (4, 0), (5, 2), (6, 0), (7, 2), (8, 0),
            (9, 4), (10, 0), (11, 4), (12, 0)]


@pytest.mark.parametrize("n,nullity", _NULLITY,
                         ids=[f"{n}-{k == 0}" for n, k in _NULLITY])
def test_hom_dim_matrix_invertibility_pattern(n, nullity):
    # the id reads "rank-invertible"; the singular ranks exercise the
    # bounded enumeration of free coordinates in profile_candidates
    cat = cached_category(n)
    assert cat.N - rank(hom_dim_matrix(cat)) == nullity


def _mesh_matrix(cat) -> list[list[int]]:
    """A with column W equal to e_W + e_σW - Σ_{m in E_W} e_m."""
    a = [[0] * cat.N for _ in range(cat.N)]
    for w in range(cat.N):
        a[w][w] += 1
        a[cat.sigma_arc[w]][w] += 1
        for m in cat.arrows_in[w]:
            a[m][w] -= 1
    return a


@pytest.mark.parametrize("n", range(1, 13))
def test_mesh_identity_on_the_built_tables(n):
    # Aᵀ.D = P_σ + P_σ² and D.A = I + P_σ⁻¹, written out entry by entry:
    # (Aᵀ.D)[w][v] = [v = σw] + [v = σ²w], (D.A)[w][v] = [v = w] + [v = σw]
    cat = cached_category(n)
    d, a, sig = hom_dim_matrix(cat).to_rows(), _mesh_matrix(cat), \
        cat.sigma_arc
    rng = range(cat.N)
    col = [[k for k in rng if a[k][w]] for w in rng]   # A is sparse
    assert all(sum(a[k][w] * d[k][v] for k in col[w])
               == (v == sig[w]) + (v == sig[sig[w]]) for w in rng for v in rng)
    assert all(sum(d[w][k] * a[k][v] for k in col[v])
               == (v == w) + (v == sig[w]) for w in rng for v in rng)


def test_mesh_identity_guard_rejects_a_flipped_hom_pair():
    # both flips change the hom list of arc 0 (0-2, labelled SP6), the
    # first arc whose mesh-identity row then fails
    cat = cached_category(6)
    for pair in ((0, cat.hom_out[0][-1]),
                 next((x, y) for x in range(cat.N) for y in range(cat.N)
                      if not cat.hom1(x, y))):
        hom_deg = dict(cat.hom_deg)
        if hom_deg.pop(pair, None) is None:
            hom_deg[pair] = 1
        bad = Category(cat.n, hom_deg, cat.comp, cat.sig)
        with pytest.raises(BuildError, match="^hom table breaks the "
                                             "mesh identity at SP6$"):
            category._check_mesh_identity(bad)
        # in the table checks, the label bridge fires first
        with pytest.raises(BuildError, match="^label bridge fails at "):
            category._check_tables(bad)


def _reference_profiles(cat, rng: random.Random) -> list[list[int]]:
    """Cones of random maps, hom vectors of random objects with up to eight
    summands, the cones of all mesh maps, the hom vectors of the positive
    and negative parts of each kernel vector of D (each has at least two
    solutions), and each of these with one entry moved by one."""
    profiles = [cone_profile(cat, cat.random_mor(
        rng, cat.random_obj(rng, 3), cat.random_obj(rng, 3)))
        for _ in range(25)]
    profiles += [list(cat.hom_vec_into(cat.random_obj(rng, 8)))
                 for _ in range(25)]
    profiles += [cone_profile(cat, mesh_map_into(cat, x))
                 for x in range(cat.N)]
    kb = kernel_basis(*as_rows(hom_dim_matrix(cat)))
    for c in range(kb.cols):
        k = integer_row([kb.row(r)[c] for r in range(kb.rows)])
        plus = Obj(tuple(i for i, x in enumerate(k) for _ in range(max(x, 0))))
        profiles.append(list(cat.hom_vec_into(plus)))
    perturbed = []
    for p in profiles:
        q = list(p)
        i = rng.randrange(cat.N)
        q[i] += rng.choice((-1, 1)) if q[i] else 1
        perturbed.append(q)
    return profiles + perturbed


@pytest.mark.parametrize("n", range(1, 13))
def test_profile_candidates_match_the_elimination_reference(n):
    # the same cones in the same order, or a raise exactly where the
    # [D | I] elimination finds no nonnegative integer solution
    cat = cached_category(n)
    system = reduced_hom_dim_system(cat)
    multiple = 0
    for p in _reference_profiles(cat, random.Random(f"profiles:{n}")):
        try:
            want = [Obj(tuple(i for i, k in enumerate(m) for _ in range(k)))
                    for m in reference_candidates(cat, p, system)]
        except TriangleError:
            with pytest.raises(TriangleError):
                profile_candidates(cat, p)
            continue
        assert profile_candidates(cat, p) == want
        multiple += len(want) > 1
    assert (multiple > 0) == (n in (5, 7, 9, 11))


def test_profile_candidates_solve_the_profile():
    # rank 4 has an invertible hom-dimension matrix, rank 5 a singular one
    for n, invertible in ((4, True), (5, False)):
        cat = cached_category(n)
        rng = random.Random(n)
        maps = [cat.random_mor(rng, cat.random_obj(rng, 3),
                               cat.random_obj(rng, 3)) for _ in range(25)]
        maps += [mesh_map_into(cat, x) for x in range(cat.N)]
        for f in maps:
            profile = cone_profile(cat, f)
            cands = profile_candidates(cat, profile)
            assert cands
            for z in cands:
                assert all(cat.hom_vec_into(z)[w] == profile[w]
                           for w in range(cat.N))
            if invertible:
                assert len(cands) == 1


def test_completion_on_singular_rank():
    cat = cached_category(5)
    import random
    rng = random.Random(5)
    for _ in range(12):
        f = cat.random_mor(rng, cat.random_obj(rng, 2), cat.random_obj(rng, 2))
        tri = complete_triangle(cat, f)
        assert tri.cert.is_valid()
        assert tri.z == complete_triangle(cat, f, seed=1).z
    for x in range(cat.N):
        tri = ar_triangle(cat, x)
        assert tri.cert.is_valid()
        assert tri.z == cat.suspend_obj(tri.y, 2)


def test_ar_triangles_certify(cat4):
    for x in range(cat4.N):
        tri = ar_triangle(cat4, x)
        assert tri.cert.is_valid()
        # almost split triangle: Σx -> E -> x -> Σ²x
        assert tri.y == Obj((x,))
        assert tri.z == cat4.suspend_obj(Obj((x,)), 2)


def test_example_triangle(cat4):
    m34 = cat4.arc_of_token("M34")
    s = mesh_map_into(cat4, m34)
    assert sorted(cat4.labels[a] for a in s.src.summands) == ["M44", "SP2"]
    tri = complete_triangle(cat4, s)
    assert [cat4.labels[a] for a in tri.z.summands] == ["M13"]
    conn = cat4.suspend_obj(tri.z, -1)
    assert conn == Obj((cat4.arc_of_token("SM34"),))
    t = mesh_map_out_of(cat4, m34)
    assert sorted(cat4.labels[a] for a in t.tgt.summands) == ["M24", "M33"]
    tri2 = complete_triangle(cat4, t)
    assert [cat4.labels[a] for a in tri2.z.summands] == ["M23"]


def test_split_triangle_certifies(cat4):
    x = cat4.obj(["M44"])
    y = cat4.obj(["M13"])
    xy = cat4.obj(["M44", "M13"])
    i = xy.summands.index(x.summands[0])
    j = xy.summands.index(y.summands[0])
    inc = cat4.mor(x, xy, [[1 if r == i else 0] for r in range(2)])
    proj = cat4.mor(xy, y, [[1 if c == j else 0 for c in range(2)]])
    cert = certify_triangle_parts(cat4, x, xy, y, inc, proj,
                                  cat4.zero_mor(y, cat4.suspend_obj(x)))
    assert cert.is_valid()


def test_negative_control_zero_g_fails(cat4):
    tri = ar_triangle(cat4, cat4.arc_of_token("M34"))
    bad = certify_triangle_parts(cat4, tri.x, tri.y, tri.z, tri.f,
                                 cat4.zero_mor(tri.y, tri.z), tri.h)
    assert not bad.is_valid()
    assert bad.left_exactness_failures or bad.right_exactness_failures


def test_certificate_reports_each_planted_fault(cat4):
    """A chain x -> y -> z of arcs with a nonzero composite, planted as
    (f, g), as (g, h) and as (h, Sf) of a rank-4 sequence, fails the
    composite check of that position; a certified triangle with h = 0
    fails exactness at its node SX, in both variances."""
    cat, inv = cat4, cat4.sigma_arc_inv
    for x, y, z in [k for k in sorted(cat.comp) if k[0] != k[1] != k[2]][:5]:
        fxy, gyz = cat.basis_mor(x, y), cat.basis_mor(y, z)
        X, Y, Z = fxy.src, fxy.tgt, gyz.tgt
        planted = {
            "g.f": (X, Y, Z, fxy, gyz,
                    cat.zero_mor(Z, cat.suspend_obj(X))),
            "h.g": (Obj((inv[z],)), X, Y, cat.zero_mor(Obj((inv[z],)), X),
                    fxy, gyz),
            "Sf.h": (Obj((inv[y],)), Obj((inv[z],)), X,
                     cat.basis_mor(inv[y], inv[z]),
                     cat.zero_mor(Obj((inv[z],)), X), fxy)}
        for name, parts in planted.items():
            cert = certify_triangle_parts(cat, *parts)
            assert ("composite", name) in cert.left_exactness_failures
    tri = complete_triangle(cat, cat.basis_mor(*next(
        k for k in sorted(cat.hom_deg) if k[0] != k[1])))
    assert tri.cert.is_valid()
    bad = certify_triangle_parts(cat, tri.x, tri.y, tri.z, tri.f, tri.g,
                                 cat.zero_mor(tri.z, cat.suspend_obj(tri.x)))
    for failures in (bad.left_exactness_failures,
                     bad.right_exactness_failures):
        assert any(node == "SX" for _, node in failures)


def _two_cone_map(n: int):
    """The zero map 0 -> Y for the Y = SP(n-1) + M2n + M12 + M34 + ... +
    M(n-2)(n-1) of odd rank n, whose cone profile allows two cones."""
    cat = cached_category(n)
    Y = cat.obj([f"SP{n - 1}", f"M2{n}" if n < 10 else f"M2,{n}"]
                + [f"M{k}{k + 1}" if k < 9 else f"M{k},{k + 1}"
                   for k in range(1, n - 1, 2)])
    return cat, cat.zero_mor(cat.obj([]), Y)


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_completion_certifies_the_second_candidate_cone(n):
    """The profile of 0 -> Y allows Y and a second cone, listed first; its
    search draws every generic (g, h), none certifies, and the completion
    goes on to Y."""
    cat, f = _two_cone_map(n)
    profile = cone_profile(cat, f)
    first, second = profile_candidates(cat, profile)
    assert second == f.tgt and first != f.tgt
    rf, pf = triangles.post_rank_table(cat, f), triangles.pre_rank_table(cat, f)
    assert triangles._search_completion(cat, f, first, profile, rf, pf,
                                        0) is None
    tri = complete_triangle(cat, f)
    assert tri.z == f.tgt and tri.cert.is_valid()


def _with_extra_summand(z: Obj) -> Obj:
    """The cone z plus one more summand, the arc of least index: a wrong
    cone, whose hom vector differs from the profile."""
    return Obj(tuple(sorted(z.summands + (0,))))


def test_a_wrong_candidate_cone_fails_the_certificate(monkeypatch):
    """Negative control of the candidate cones against the certificate, on
    the rank-4 example.  A wrong cone (the true one plus a summand) listed
    first is searched and refused, and the completion certifies the true
    cone; listed alone, no completion certifies, and the stilde suite
    records the TriangleError under two-verdicts-agree.  So the candidate
    memo cannot stand in for the certificate.  A map between two arcs is
    completed from its Σ-orbit representative's search, so both halves
    drive the direct search on every map as well as ``complete_triangle``.
    The unpatched run is clean."""
    cfg = InstanceConfig(n=4, T=["M44", "M14", "M11"], seed=7,
                         suites=["stilde"])
    assert run_suites(cfg, cat=build_category(4))["failures_total"] == 0
    rng = random.Random("wrong-cone")
    ref = build_category(4)
    maps = basis_maps(ref) + [
        ref.random_mor(rng, ref.random_obj(rng, 2), ref.random_obj(rng, 2))
        for _ in range(20)]
    cones = [complete_triangle(ref, f).z for f in maps]
    real = triangles.profile_candidates
    searched = []

    def wrong_first(cat, profile):
        got = real(cat, profile)
        searched.append(_with_extra_summand(got[0]))
        return [searched[-1]] + got

    monkeypatch.setattr(triangles, "profile_candidates", wrong_first)
    cat = build_category(4)
    for f, z in zip(maps, cones):
        tri = triangles._search_triangle(cat, f, 0)
        assert tri.z == z != searched[-1]
        assert certify_triangle(cat, tri).is_valid()
    assert len(searched) == len(maps)
    for f, z in zip(maps, cones):
        tri = complete_triangle(cat, f)
        assert tri.z == z and certify_triangle(cat, tri).is_valid()

    monkeypatch.setattr(triangles, "profile_candidates", lambda cat, p: [
        _with_extra_summand(real(cat, p)[0])])
    cat = build_category(4)
    for f in maps:
        with pytest.raises(TriangleError, match="no certified completion"):
            triangles._search_triangle(cat, f, 0)
        with pytest.raises(TriangleError, match="no certified completion"):
            complete_triangle(cat, f)
    (record,) = run_suites(cfg, cat=build_category(4))["suites"]
    assert record["failures"]
    assert len(record["failures"]) == record["checks"]
    for failure in record["failures"]:
        assert failure["check"] == "two-verdicts-agree"
        assert failure["error"].startswith(
            "TriangleError: no certified completion")


def _recertification_failures(n: int) -> list[str]:
    """The re-certification sweep at rank n, as a list of failures.

    - Every basis map f0 and its multiples f = c·f0 by 2 and -3, at seeds
      0 and 1, completes to a triangle on f itself that the certificate
      accepts, with the cone of a direct search on f;
    - its connecting maps are Σ^{-k} of those of the representative b0,
      applied stepwise (``shift_once``), the third times sign(c)·s·(-1)^k,
      where Σ^k f0 = s·b0;
    - Σ^k of each basis map and of seeded maps between sums
      (``suspend_mor``) equals k single shifts for k in -m..m, m = n + 3;
    - the suspension index names each hom pair's least orbit pair.
    """
    cat = build_category(n)
    m, failures = n + 3, []
    for f0 in basis_maps(cat):
        k = cat.suspension_index[f0.src.summands[0], f0.tgt.summands[0]][0]
        b0 = f0
        for _ in range(k):
            b0 = shift_once(cat, b0, 1)
        s = b0.m[0][0]
        b0 = cat.scale_mor(s, b0)
        for seed in (0, 1):
            rep = complete_triangle(cat, b0, seed)
            g, h = rep.g, rep.h
            for _ in range(k):
                g, h = shift_once(cat, g, -1), shift_once(cat, h, -1)
            for c in (1, 2, -3):
                f = cat.scale_mor(c, f0)
                tri = complete_triangle(cat, f, seed)
                if not (tri.f == f and certify_triangle(cat, tri).is_valid()
                        and tri.z == triangles._search_triangle(
                            cat, f, seed).z):
                    failures.append(f"completion {cat.format_mor(f)} "
                                    f"seed {seed}")
                sign = (1 if c > 0 else -1) * s * (-1) ** k
                if (tri.g, tri.h) != (g, cat.scale_mor(sign, h)):
                    failures.append(f"transport {cat.format_mor(f)} "
                                    f"seed {seed}")
    rng = random.Random(f"one-pass:{n}")
    a = rng.randrange(cat.N)
    maps = basis_maps(cat) + [
        cat.random_mor(rng, cat.random_obj(rng, 3), cat.random_obj(rng, 3))
        for _ in range(8)]
    maps += [cat.random_mor(rng, Obj((a, a)), Obj((a, a))),
             cat.zero_mor(cat.zero_obj, cat.random_obj(rng, 2))]
    for f in maps:
        for direction in (1, -1):
            ref = f
            for k in range(1, m + 1):
                ref = shift_once(cat, ref, direction)
                if cat.suspend_mor(f, direction * k) != ref:
                    failures.append(f"suspension {cat.format_mor(f)} "
                                    f"k {direction * k}")
    for x, y in cat.hom_deg:
        k, signs = cat.suspension_index[x, y]
        orbit = [(cat.shift_arc(x, i), cat.shift_arc(y, i)) for i in range(m)]
        if orbit.index(min(orbit)) != k or len(signs) != 2 * m:
            failures.append(f"orbit index {(x, y)}")
    return failures


@pytest.mark.parametrize("n", range(1, 9))
def test_arc_map_completions_recertify(n):
    """Every completion of a map between two arcs, transported from its
    orbit representative's triangle, passes the certificate and has the
    direct search's cone, and the one-pass suspension it is transported by
    is the stepwise one."""
    assert _recertification_failures(n) == []


def test_transport_without_the_suspension_signs_is_caught(monkeypatch):
    """Negative control of the transport: with the products of ``sig``
    dropped from the one-pass Σ^k (arcs rotated, signs not applied), the
    re-certification sweep fails; the unpatched sweep is clean.  The
    certificate alone does not see this plant: the composites of these
    triangles with two terms read two keys whose constants the dropped
    signs flip together.  The stepwise suspension catches it, both as Σ^k
    of the maps and as the transported connecting maps."""
    assert _recertification_failures(4) == []

    def unsigned(index, pair):
        got = index[pair] = (real(index, pair)[0], (1,) * (2 * index.n + 6))
        return got

    real = category.SuspensionIndex.__missing__
    monkeypatch.setattr(category.SuspensionIndex, "__missing__", unsigned)
    failures = _recertification_failures(4)
    assert {f.split()[0] for f in failures} == {"suspension", "transport"}


def test_rotation_closure(cat4):
    rng = random.Random(9)
    for _ in range(10):
        f = cat4.random_mor(rng, cat4.random_obj(rng, 2),
                            cat4.random_obj(rng, 2))
        tri = complete_triangle(cat4, f)
        rot = rotate_forward(cat4, tri)
        assert rot.cert.is_valid()


def test_cone_of_direct_sum(cat4):
    rng = random.Random(10)
    for _ in range(8):
        f1 = cat4.random_mor(rng, cat4.random_obj(rng, 1),
                             cat4.random_obj(rng, 1))
        f2 = cat4.random_mor(rng, cat4.random_obj(rng, 1),
                             cat4.random_obj(rng, 1))
        fs = cat4.direct_sum_mor(f1, f2)
        z1 = complete_triangle(cat4, f1).z
        z2 = complete_triangle(cat4, f2).z
        zs = complete_triangle(cat4, fs).z
        assert sorted(zs.summands) == sorted(z1.summands + z2.summands)


def test_completion_independent_of_search_order(cat4):
    rng = random.Random(12)
    for _ in range(12):
        f = cat4.random_mor(rng, cat4.random_obj(rng, 2),
                            cat4.random_obj(rng, 2))
        t0 = complete_triangle(cat4, f, seed=0)
        t1 = complete_triangle(cat4, f, seed=1)
        assert t0.z == t1.z
        assert t1.cert.is_valid()


@pytest.fixture(scope="module")
def drawn_pool():
    """Completions at seeds 0 and 1 of a seeded pool of maps at ranks 5..8,
    on fresh categories, with the draws each solution space took."""
    spaces = []     # [kernel dimension, draws] per solution space
    real = triangles.generic_maps

    def counted(cat, X, Y, kb, rng, base=None):
        rec = [kb.cols, 0]
        spaces.append(rec)
        for m in real(cat, X, Y, kb, rng, base):
            rec[1] += 1
            yield m

    pool = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triangles, "generic_maps", counted)
        for n in range(5, 9):
            cat = build_category(n)
            rng = random.Random(100 + n)
            for _ in range(8):
                f = cat.random_mor(rng, cat.random_obj(rng, 2),
                                   cat.random_obj(rng, 3))
                first = len(spaces)
                t0 = complete_triangle(cat, f, seed=0)
                t1 = complete_triangle(cat, f, seed=1)
                pool.append((cat, t0, t1, spaces[first][0]))
    return pool, spaces


def test_generic_draw_depends_on_the_seed(drawn_pool):
    pool, _ = drawn_pool
    differ = 0
    for cat, t0, t1, kdim in pool:
        assert t0.z == t1.z
        assert certify_triangle(cat, t0).is_valid()
        assert certify_triangle(cat, t1).is_valid()
        if kdim >= 1 and (t0.g, t0.h) != (t1.g, t1.h):
            differ += 1
    assert differ >= 1


def test_generic_draw_needs_few_draws(drawn_pool):
    _, spaces = drawn_pool
    assert spaces
    assert max(draws for _, draws in spaces) <= 3


_DRAWS_SCRIPT = """
import json, random
from fractions import Fraction
from cluster_loc.category import build_category
from cluster_loc.triangles import complete_triangle
out = []
for n in (5, 7):
    cat = build_category(n)
    rng = random.Random(f"draws:{n}")
    for k in range(8):
        f = cat.random_mor(rng, cat.random_obj(rng, 2), cat.random_obj(rng, 3))
        if k % 2:
            f = cat.scale_mor(Fraction(1, 2), f)
        tri = complete_triangle(cat, f)
        out.append([str(v) for m in (tri.g, tri.h) for row in m.m for v in row])
print(json.dumps(out))
"""


def test_generic_draws_repeat_across_processes():
    """The draws are keyed by hashes that Python does not salt, so two
    fresh interpreters with different PYTHONHASHSEED complete the same
    seeded maps, some with Fraction entries, with identical (g, h)."""
    src = os.path.dirname(os.path.dirname(triangles.__file__))
    outs = []
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-c", _DRAWS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        outs.append(json.loads(res.stdout))
    assert outs[0] == outs[1]
    assert len(outs[0]) == 16
    assert any(v != "0" for row in outs[0] for v in row)


@pytest.mark.parametrize("n", range(1, 5))
def test_smoothing_matches_cone(n):
    """For every crossing pair, the cone of the basis map x -> Σy is the
    suspension of the smoothing resolution (exhaustive for small ranks; the
    acceptance suite extends this to rank 6)."""
    cat = cached_category(n)
    for x in range(cat.N):
        for y in range(cat.N):
            if not cat.crosses_idx(x, y):
                continue
            sy = cat.shift_arc(y)
            assert cat.hom1(x, sy)
            tri = complete_triangle(cat, cat.basis_mor(x, sy))
            want = sorted(cat.shift_arc(cat.arc_index[a])
                          for a in smooth_crossing(n, cat.arcs[x], cat.arcs[y]))
            assert sorted(tri.z.summands) == want


def test_certify_triangle_of_stored_triangle(cat4):
    tri = ar_triangle(cat4, cat4.arc_of_token("M22"))
    rep = certify_triangle(cat4, tri)
    assert rep.is_valid()
    assert isinstance(tri, Triangle)


def _dense_post_rank_table(cat, f):
    """rank of Hom(w, f) with a block eliminated for every observer w: the
    reference for post_rank_table."""
    fm = [integer_row(row) for row in f.m]
    src = f.src.summands
    tgt = f.tgt.summands
    out = []
    for w in range(cat.N):
        cols = [j for j, xj in enumerate(src) if cat.hom1(w, xj)]
        mat = [[fm[i][j] * cat.comp.get((w, src[j], yi), 0) for j in cols]
               for i, yi in enumerate(tgt) if cat.hom1(w, yi)]
        out.append(len(eliminate(mat)[0]))
    return out


def _dense_pre_rank_table(cat, f):
    """rank of Hom(f, w) with a block eliminated for every observer w: the
    reference for pre_rank_table."""
    fm = [integer_row(row) for row in f.m]
    src = f.src.summands
    tgt = f.tgt.summands
    out = []
    for w in range(cat.N):
        cols = [i for i, yi in enumerate(tgt) if cat.hom1(yi, w)]
        mat = [[fm[i][j] * cat.comp.get((xj, tgt[i], w), 0) for i in cols]
               for j, xj in enumerate(src) if cat.hom1(xj, w)]
        out.append(len(eliminate(mat)[0]))
    return out


def _closed_form_maps(cat):
    """Maps whose blocks reach each closed-form rank.  On copies of one arc
    a every entry is a -> a, whose constants are 1, so every observer's
    block is the matrix itself (transposed for Hom(f, w)): two entries in
    one row, in one column and on a diagonal, two proportional rows, two
    rows of one support that are not proportional, a 2x3 block with a
    cancelling minor and a 3x3 block of rank 2.  On (a, a) -> (a, b), the
    observers w with comp(w, a, b) = 0 see only the two entries of row a,
    and those of Hom(f, w) with comp(a, b, w) = 0 only the two of column
    a."""
    a = 0
    aa, aaa = Obj((a, a)), Obj((a, a, a))
    maps = [cat.mor(aa, aa, m) for m in (
        [[1, 2], [0, 0]], [[1, 0], [2, 0]], [[1, 0], [0, 2]],
        [[1, 2], [2, 4]], [[1, 2], [2, 3]])]
    maps += [cat.mor(aaa, aa, [[1, 2, 3], [2, 4, 5]]),
             cat.mor(aaa, aaa, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])]
    b = next((y for y in cat.hom_out[a] if y > a), None)
    if b is not None:
        maps.append(cat.mor(aa, Obj((a, b)), [[1, 2], [3, 0]]))
    return maps


def _table_maps(n):
    """Seeded maps at rank n with entries in -3..3: random, zero, between
    single summands, to and from an object with a repeated summand, and to
    and from the zero object.  Also rational maps whose entries have
    denominators that differ within and between rows, composites through
    one indecomposable z, whose blocks have rank at most 1 (every hom
    space between arcs is at most 1-dimensional), and the maps of
    ``_closed_form_maps``."""
    cat = cached_category(n)
    rng, via = random.Random(f"tables:{n}"), random.Random(f"tables:via:{n}")
    maps = []
    for _ in range(8):
        x, y = cat.random_obj(rng, 4), cat.random_obj(rng, 4)
        a = rng.randrange(cat.N)
        b = rng.choice(cat.hom_out[a])
        rep = Obj(tuple(sorted((a, a, b))))
        f = cat.random_mor(rng, x, y)
        maps += [f, cat.zero_mor(x, y),
                 cat.random_mor(rng, Obj((a,)), Obj((b,))),
                 cat.random_mor(rng, rep, y), cat.random_mor(rng, x, rep),
                 cat.zero_mor(cat.zero_obj, x), cat.zero_mor(y, cat.zero_obj),
                 cat.mor(x, y, [[v / (2 + i + j) for j, v in enumerate(row)]
                                for i, row in enumerate(f.m)])]
        z = via.randrange(cat.N)
        into = Obj(tuple(sorted(via.choices(cat.hom_in[z], k=4))))
        out = Obj(tuple(sorted(via.choices(cat.hom_out[z], k=4))))
        maps.append(cat.compose(cat.random_mor(via, Obj((z,)), out),
                                cat.random_mor(via, into, Obj((z,)))))
    return cat, maps + _closed_form_maps(cat)


@pytest.mark.parametrize("n", range(1, 13))
def test_rank_tables_match_the_dense_reference(n, monkeypatch):
    cat, maps = _table_maps(n)
    shapes = []

    def spy(rows, reduce=False):
        shapes.append((len(rows), len(rows[0])))
        return eliminate(rows, reduce)

    monkeypatch.setattr(triangles, "eliminate", spy)
    for f in maps:
        post = triangles.post_rank_table(cat, f)
        assert post == _dense_post_rank_table(cat, f)
        assert triangles.pre_rank_table(cat, f) == _dense_pre_rank_table(cat, f)
    # blocks of at most two rows or two columns are read off, never
    # eliminated
    assert shapes
    assert all(r >= 3 and c >= 3 for r, c in shapes)


@pytest.mark.parametrize("n", range(4, 9))
def test_completions_of_integer_maps_are_integral(n):
    # the draws scale each kernel-basis column to integers, so no Fraction
    # reaches g, h or their rank tables
    cat, maps = _table_maps(n)
    ints = [f for f in maps
            if all(type(v) is int for row in f.m for v in row)]
    assert len(ints) > len(maps) // 2
    for f in ints:
        tri = complete_triangle(cat, f)
        assert all(type(v) is int for m in (tri.g, tri.h)
                   for row in m.m for v in row)


def test_rank_tables_add_nothing_to_the_memo():
    """The tables add nothing to the category's memo: the observers they
    read per entry come from the two observer indexes keyed by arc pair
    (``Category.observers_into`` / ``observers_from``), which sit beside
    it and are filled pair by pair on first read."""
    cat = build_category(6)
    rng = random.Random("tables:memo")
    maps = [cat.random_mor(rng, cat.random_obj(rng, 4), cat.random_obj(rng, 4))
            for _ in range(20)]

    def keys():
        return {k: set(v) if isinstance(v, dict) else None
                for k, v in cat._memo.items()}

    before = keys()
    for f in maps:
        triangles.post_rank_table(cat, f)
        triangles.pre_rank_table(cat, f)
    assert keys() == before


@pytest.mark.parametrize("n", range(1, 13))
def test_hom_vectors_count_hom1(n):
    cat, maps = _table_maps(n)
    for X in {O for f in maps for O in (f.src, f.tgt)}:
        assert cat.hom_vec_into(X) == [
            sum(cat.hom1(w, s) for s in X.summands) for w in range(cat.N)]
        assert cat.hom_vec_from(X) == [
            sum(cat.hom1(s, w) for s in X.summands) for w in range(cat.N)]
