import dataclasses
import hashlib
import json
import random
import threading
import time
from collections import Counter

import pytest

from cluster_loc import CertReport, category, cli, modules, rigid, suites
from cluster_loc.category import build_category
from cluster_loc.cli import main
from cluster_loc.localization import algebra_of
from cluster_loc.modules import H_obj
from cluster_loc.rigid import rigid_object
from cluster_loc.suites import (InstanceConfig, export_dot, image_table,
                                replay_failure, run_suites, strip_timing)
from cluster_loc.values import setfield
from conftest import sample_rigid


@pytest.fixture(scope="module")
def example_cfg():
    return InstanceConfig(n=4, T=["M44", "M14", "M11"], seed=7)


@pytest.fixture(scope="module")
def example_report(example_cfg):
    return run_suites(example_cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        InstanceConfig(n=13, T=["M11"])
    assert InstanceConfig(n=12, T=["M11"]).n == 12
    with pytest.raises(ValueError):
        InstanceConfig(n=4, T=["M11"], suites=["bogus"])
    with pytest.raises(ValueError):
        InstanceConfig(n=4, T=["M11"], type="D")
    # an empty list would run nothing and report no failures; a repeated
    # name would run its suite twice into one record
    with pytest.raises(ValueError, match="suites is empty"):
        InstanceConfig(n=4, T=["M11"], suites=[])
    for names in (["kernel", "kernel"], ["kernel", "chain", "kernel"]):
        with pytest.raises(ValueError,
                           match="suite 'kernel' is named more than once"):
            InstanceConfig.from_dict({"n": 4, "T": ["M11"], "suites": names})
    # 'all' is a valid name, so listing it with others is not "unknown"
    for names in (["all", "kernel"], ["kernel", "all"]):
        with pytest.raises(ValueError, match="'all' must stand alone"):
            InstanceConfig(n=4, T=["M11"], suites=names)
    cfg = InstanceConfig.from_dict({"schema": "cluster-loc/config/v1",
                                    "n": 2, "T": ["M11"], "seed": 3})
    assert cfg.resolved_suites() == list(suites.SUITE_NAMES)


def test_config_rejects_suites_that_are_not_a_list(tmp_path):
    # a string would otherwise be read letter by letter
    with pytest.raises(ValueError, match="suites must be a list"):
        InstanceConfig(n=4, T=["M44", "M14", "M11"], suites="all")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"n": 4, "T": ["M44"], "suites": "kernel"}))
    with pytest.raises(ValueError, match="suites must be a list"):
        InstanceConfig.load(str(p))
    p.write_text(json.dumps({"n": 4, "T": ["M44"], "suites": ["kernel"]}))
    assert InstanceConfig.load(str(p)).resolved_suites() == ["kernel"]


@pytest.mark.parametrize("field, value", [
    ("T", "M44"),           # would be read letter by letter
    ("T", ["M44", 14]),
    ("seed", 1.9),          # would be truncated to 1
    ("seed", True),
    ("n", "4"),             # would raise a bare TypeError
    ("n", 4.0),             # would run and write 4.0 into the report
])
def test_config_rejects_fields_of_the_wrong_type(field, value):
    d = {"n": 4, "T": ["M44", "M14", "M11"], "seed": 7}
    d[field] = value
    # n is checked by the category's own rank check, which names the rank
    name = "rank" if field == "n" else field
    with pytest.raises(ValueError, match=f"^{name} must be"):
        InstanceConfig.from_dict(d)


def test_config_ranks_are_the_category_ranks(monkeypatch):
    # one rank check for builds and configs, read at call time
    with pytest.raises(ValueError, match="rank out of supported range 1..12"):
        InstanceConfig(n=13, T=["M44"])
    monkeypatch.setattr(category, "MAX_RANK", 13)
    assert InstanceConfig(n=13, T=["M44"]).n == 13


def test_config_rejects_missing_keys_and_non_objects(tmp_path):
    # a ValueError naming the key or the type, not KeyError or AttributeError
    for key in ("n", "T"):
        d = {"n": 4, "T": ["M44", "M14", "M11"], "seed": 7}
        del d[key]
        with pytest.raises(ValueError, match=f"lacks the key '{key}'"):
            InstanceConfig.from_dict(d)
    p = tmp_path / "cfg.json"
    for data in ([4, ["M44"]], "n", None):
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="must be a JSON object"):
            InstanceConfig.load(str(p))


def test_config_roundtrip(tmp_path, example_cfg):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(example_cfg.to_dict()))
    loaded = InstanceConfig.load(str(p))
    assert loaded == example_cfg


def test_non_rigid_T_rejected():
    sq = InstanceConfig(n=1, T=["0-2", "1-3"])
    with pytest.raises(ValueError):
        run_suites(sq)


def test_full_battery_on_example(example_report):
    assert example_report["failures_total"] == 0
    names = {s["name"] for s in example_report["suites"]}
    assert "example71" in names and "equivalence" in names
    ex71 = next(s for s in example_report["suites"] if s["name"] == "example71")
    assert ex71["checks"] == 6
    kz = next(s for s in example_report["suites"] if s["name"] == "kz")
    assert kz["coverage"].get("skipped")


def test_reports_deterministic(example_cfg, example_report):
    rep2 = run_suites(example_cfg)
    assert strip_timing(rep2) == strip_timing(example_report)


# sha256 of the stripped rank-4 report, sorted keys; a change that moves
# a verdict, a count or a field re-pins it on purpose
RANK4_REPORT_SHA256 = ("bf73d35de1e113518a709aaa70bd562d"
                       "176dfd3314669126815a6839f495df90")


def test_rank4_report_is_pinned():
    rep = run_suites(InstanceConfig(n=4, T=["M44", "M14", "M11"], seed=7))
    assert rep["failures_total"] == 0
    text = json.dumps(strip_timing(rep), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RANK4_REPORT_SHA256


def test_battery_memo_keeps_no_entry_per_object_pair():
    """After a seeded AC2 instance the category's memo holds the per-rank
    kinds only: triangles per map, the candidate cones per cone profile,
    the hom vectors per object and the map pool.  The per-T memos live on
    the rigid object, so none is left on the category, and hom slot lists
    are built on demand, so nothing is stored per (X, Y) pair."""
    cat = build_category(6)
    t = sample_rigid(cat, random.Random("ac2:6"))
    cfg = InstanceConfig(n=6, T=[cat.labels[a] for a in t.arcs], seed=7,
                         suites=["kernel", "stilde", "doubleperp", "wakamatsu",
                                 "identify", "factoring-surjection"])
    assert run_suites(cfg, sample_maps=100, cat=cat)["failures_total"] == 0
    assert set(cat._memo) == {"triangles", "candidates", "vec_into",
                              ("map_pool", 7, 100)}
    assert all(isinstance(a, int) for key in cat._memo["vec_into"]
               for a in key)
    # keyed by profile, one int per indecomposable, not by object pair
    assert cat._memo["candidates"]
    assert all(type(key) is tuple and len(key) == cat.N
               and all(type(a) is int for a in key)
               for key in cat._memo["candidates"])


AC2_SUITES = ["kernel", "stilde", "doubleperp", "wakamatsu", "identify",
              "factoring-surjection"]


def _other_rigid(cat, rng, count, skip):
    """``count`` seeded basic rigid objects with distinct sets of arcs,
    none of them the set of an object in ``skip``."""
    seen = {frozenset(t.arcs) for t in skip}
    out = []
    while len(out) < count:
        t = sample_rigid(cat, rng)
        if frozenset(t.arcs) not in seen:
            seen.add(frozenset(t.arcs))
            out.append(t)
    return out


def _history_mismatches() -> list[str]:
    """The sampled instances whose stripped report on a fresh category is
    not byte-identical to the one run on a shared category after a battery
    of 20 other instances: the rank-4 example with all suites, and three
    seeded basic rigid objects at n = 5 with AC2's six suites."""
    rng = random.Random("history")
    cat5 = build_category(5)
    sample = {4: [InstanceConfig(n=4, T=["M44", "M14", "M11"], seed=7)],
              5: [InstanceConfig(n=5, T=[cat5.labels[a] for a in t.arcs],
                                 seed=7, suites=AC2_SUITES)
                  for t in _other_rigid(cat5, rng, 3, ())]}
    mismatched = []
    for n, cfgs in sample.items():
        shared = build_category(n)
        mine = [rigid_object(shared, cfg.T) for cfg in cfgs]
        for t in _other_rigid(shared, rng, 20, mine):
            run_suites(InstanceConfig(n=n, T=[shared.labels[a]
                                              for a in t.arcs],
                                      seed=7, suites=AC2_SUITES),
                       sample_maps=0, cat=shared)
        for cfg in cfgs:
            cold, warm = (json.dumps(strip_timing(run_suites(
                cfg, sample_maps=0, cat=cat)), sort_keys=True)
                for cat in (build_category(n), shared))
            if cold != warm:
                mismatched.append("+".join(cfg.T))
    return mismatched


def test_reports_do_not_depend_on_the_instances_run_before():
    """A report is the same on a fresh category and after a battery of other
    instances on one category; a planted memo keyed too coarsely, one memo
    dict shared by every rigid object of a category, is caught."""
    assert _history_mismatches() == []
    memos = {}

    def sharing(cat, summands):
        t = rigid_object(cat, summands)
        setfield(t, "memo", memos.setdefault(cat, {}))
        return t

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "rigid_object", sharing)
        assert _history_mismatches()


def test_battery_observer_indexes_stay_within_the_hom_pairs():
    """After the same seeded AC2 instance the one observer index of the
    rank tables holds at most one entry per hom pair, keyed by a pair of
    arc indices that is a hom pair, and each entry is a flat tuple of
    ints."""
    cat = build_category(6)
    t = sample_rigid(cat, random.Random("ac2:6"))
    cfg = InstanceConfig(n=6, T=[cat.labels[a] for a in t.arcs], seed=7,
                         suites=["kernel", "stilde", "doubleperp", "wakamatsu",
                                 "identify", "factoring-surjection"])
    assert run_suites(cfg, sample_maps=100, cat=cat)["failures_total"] == 0
    index = cat.observers_into
    assert 0 < len(index) <= len(cat.hom_deg)
    for key, obs in index.items():
        assert len(key) == 2
        assert all(type(a) is int for a in key) and key in cat.hom_deg
        assert type(obs) is tuple and len(obs) % 2 == 0
        assert all(type(v) is int for v in obs)


def test_map_suite_mode_follows_the_drawn_pool():
    """The map suites are 'sampled' exactly when run_suites drew the seeded
    matrix-map pool, whatever the rank."""
    for n, T, sample_maps, mode in ((5, ["M11", "M15"], 0, "exhaustive"),
                                    (4, ["M44", "M14", "M11"], 30, "sampled")):
        cat = suites.cached_category(n)
        cfg = InstanceConfig(n=n, T=T, seed=7, suites=["kernel", "stilde"])
        rep = run_suites(cfg, sample_maps=sample_maps, cat=cat)
        assert rep["failures_total"] == 0
        maps = len(suites.basis_maps(cat)) + sample_maps
        stilde = next(s for s in rep["suites"] if s["name"] == "stilde")
        assert stilde["coverage"]["maps"] == maps
        for s in rep["suites"]:
            assert s["coverage"]["mode"] == mode


def test_stilde_classifies_each_basis_map_once_at_seed_zero(monkeypatch):
    """The permuted-completion check takes seed 0's verdict from the first
    loop, matched by map: each basis map is classified once per seed.  A
    map whose first classify raised is one failure, and its permuted check
    is not run; a replay of a permuted-check failure, whose map list is that
    one map, classifies the other basis maps at seed 0 itself."""
    real = suites.classify
    calls = Counter()
    cat = suites.cached_category(4)
    basis = suites.basis_maps(cat)
    bad = basis[3]

    def counted(cat, t, f, seed=0):
        calls[seed] += 1
        return real(cat, t, f, seed=seed)

    monkeypatch.setattr(suites, "classify", counted)
    cfg = InstanceConfig(n=4, T=["M44", "M14", "M11"], seed=7,
                         suites=["stilde"])
    (rec,) = run_suites(cfg)["suites"]
    assert rec["failures"] == [] and rec["checks"] == 2 * len(basis)
    assert calls == {0: len(basis), 1: len(basis)}

    def raising(cat, t, f, seed=0):
        if f == bad and seed == 0:
            raise RuntimeError("boom")
        return real(cat, t, f, seed=seed)

    monkeypatch.setattr(suites, "classify", raising)
    (rec,) = run_suites(cfg)["suites"]
    assert rec["checks"] == 2 * len(basis) - 1
    assert [(f["check"], f["detail"], f["error"]) for f in rec["failures"]] \
        == [("two-verdicts-agree", {"map": cat.format_mor(bad)},
             "RuntimeError: boom")]

    def permuted(cat, t, f, seed=0):
        c = counted(cat, t, f, seed)
        return dataclasses.replace(c, in_S=not c.in_S) \
            if f == bad and seed == 1 else c

    monkeypatch.setattr(suites, "classify", permuted)
    (rec,) = run_suites(cfg)["suites"]
    (failure,) = rec["failures"]
    assert failure["check"] == "well-defined-under-permuted-completion"
    assert failure["detail"] == {"map": cat.format_mor(bad)}
    calls.clear()
    assert replay_failure(failure) is True
    assert calls == {0: len(basis), 1: len(basis)}


def test_kz_suite_on_fan():
    cfg = InstanceConfig(n=4, T=["0-2", "0-3", "0-4", "0-5"], seed=7,
                         suites=["kz", "doubleperp"])
    rep = run_suites(cfg)
    assert rep["failures_total"] == 0
    kz = next(s for s in rep["suites"] if s["name"] == "kz")
    assert kz["checks"] >= 14 * 14 + 2


def test_module_suites_build_each_image_once(monkeypatch):
    """equivalence, chain, kz and the image table take the image module of
    an indecomposable from H_obj, which builds it once for the algebra of
    the instance's rigid object and hands out that module after: on a fresh
    rank-4 fan, where kz runs and every pair is presented, no indecomposable
    is built twice within one instance, neither by the three suites in one
    run nor by the image table nor by a rigid object of one's own."""
    real = modules._hom_module
    builds = Counter()

    def counting(cat, alg, x):
        if len(x.summands) == 1:
            builds[x.summands] += 1
        return real(cat, alg, x)

    monkeypatch.setattr(modules, "_hom_module", counting)
    cat = build_category(4)
    T = ["0-2", "0-3", "0-4", "0-5"]
    cfg = InstanceConfig(n=4, T=T, seed=7,
                         suites=["equivalence", "chain", "kz"])
    rep = run_suites(cfg, cat=cat)
    assert rep["failures_total"] == 0
    assert [r["coverage"] for r in rep["suites"]] == \
        [{"pairs": cat.N ** 2, "mode": "exhaustive"}] * 3
    assert len(builds) == cat.N and max(builds.values()) == 1
    builds.clear()
    assert len(image_table(InstanceConfig(n=4, T=T), cat)) == cat.N
    assert len(builds) == cat.N and max(builds.values()) == 1
    builds.clear()
    alg = algebra_of(cat, rigid_object(cat, T))
    for i in range(cat.N):
        assert H_obj(cat, alg, cat.obj([i])) is H_obj(cat, alg, cat.obj([i]))
    assert len(builds) == cat.N and max(builds.values()) == 1


def test_replay_failure_mechanism(monkeypatch, example_cfg):
    # a reproducer for a passing check replays to success
    rep = {"suite": "kernel", "check": "kernel-criterion", "n": 4,
           "T": ["M44", "M14", "M11"], "seed": 7,
           "detail": {"map": "M44 -> M34"}}
    assert replay_failure(rep) is False
    # sabotage one verdict: the same reproducer now fails deterministically,
    # and the record names the disagreement that factors_through_subcat
    # raised
    real = rigid.hom_functor_zero
    monkeypatch.setattr(rigid, "hom_functor_zero",
                        lambda cat, t, f: not real(cat, t, f))
    assert replay_failure(rep) is True
    cfg = InstanceConfig(n=4, T=rep["T"], seed=7, suites=["kernel"])
    (record,) = run_suites(cfg, sample_maps=0)["suites"]
    assert record["failures"]
    for f in record["failures"]:
        assert f["error"].startswith("InternalConsistencyError: hom-functor "
                                     "kernel test disagrees")


def test_suite_exception_is_a_replayable_failure(tmp_path, monkeypatch,
                                                 capsys):
    """A library call that raises inside a suite becomes a failure record
    with the error and the reproducer, and verify exits 1."""
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(suites, "classify", boom)
    cfg = InstanceConfig(n=4, T=["M44", "M14", "M11"], seed=7,
                         suites=["identify"])
    rep = run_suites(cfg)
    (suite,) = rep["suites"]
    assert rep["failures_total"] == suite["checks"] == 14
    first = suite["failures"][0]
    assert first["error"] == "RuntimeError: boom"
    assert (first["suite"], first["check"]) == ("identify",
                                                "resolution-in-CT-and-S")
    assert "the existence of S-resolutions" in first["falsifies"]
    assert (first["n"], first["T"], first["seed"]) == (4, cfg.T, 7)
    assert first["detail"] == {"y": "SP4"}    # the first indecomposable
    assert replay_failure(first) is True
    path = _write_cfg(tmp_path, suites=["identify"])
    assert main(["verify", "--config", path]) == 1
    assert "total failures: 14" in capsys.readouterr().out


# per suite, a library call it makes; two are made in the suite's set-up
RAISING_CALL = {
    "kernel": "factors_through_subcat",
    "stilde": "classify",
    "doubleperp": "perp_view",
    "wakamatsu": "wakamatsu_check",
    "identify": "s_resolution",
    "factoring-surjection": "in_CT",            # set-up
    "equivalence": "loc_hom",
    "chain": "dim_hom_functor_kernel",
    "kz": "dim_factoring_through_add",
    "elementary": "zigzag_equal",
    "example71": "mesh_map_into",               # set-up
}


@pytest.mark.parametrize("suite", suites.SUITE_NAMES)
def test_a_raise_in_any_suite_is_a_replayable_failure(tmp_path, monkeypatch,
                                                      capsys, suite):
    """Whether a library call raises inside a check or in the suite's
    set-up, run_suites returns and every failure it records names the
    error, the fact and a reproducer that fails again."""
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(suites, RAISING_CALL[suite], boom)
    # kz runs on a cluster-tilting object only: the fan, labelled as reported
    T = ["SP4", "SP3", "SP2", "SP1"] if suite == "kz" else ["M44", "M14", "M11"]
    cfg = InstanceConfig(n=4, T=T, seed=7, suites=[suite])
    rep = run_suites(cfg)
    (record,) = rep["suites"]
    assert record["name"] == suite
    failures = record["failures"]
    assert failures and rep["failures_total"] == len(failures)
    for f in failures:
        assert f["suite"] == suite and f["check"]
        assert f["error"] == "RuntimeError: boom"
        assert suites.SUITES[suite][1] in f["falsifies"]
        assert (f["n"], f["T"], f["seed"]) == (4, T, 7)
        assert isinstance(f["detail"], dict)
    for check in sorted({f["check"] for f in failures}):
        first = next(f for f in failures if f["check"] == check)
        assert replay_failure(first) is True
    path = _write_cfg(tmp_path, T=T, suites=[suite])
    assert main(["verify", "--config", path]) == 1
    assert f"total failures: {len(failures)}" in capsys.readouterr().out


# -- planted faults in the verdict branches that a clean run never takes ------


def test_wakamatsu_suite_records_a_cone_outside_Tperp(monkeypatch,
                                                      example_cfg):
    """With an empty T-perp, every approximation cone that is not zero lies
    outside it, and wakamatsu_check's verdict is a recorded failure."""
    cfg = InstanceConfig(n=4, T=example_cfg.T, seed=7, suites=["wakamatsu"])
    (clean,) = run_suites(cfg, cat=build_category(4))["suites"]
    assert clean["failures"] == [] and clean["checks"] > 0
    monkeypatch.setattr(rigid, "perp_view", lambda cat, t, kind: frozenset())
    (planted,) = run_suites(cfg, cat=build_category(4))["suites"]
    assert planted["checks"] == clean["checks"]
    failures = planted["failures"]
    assert 0 < len(failures) < planted["checks"]
    for f in failures:
        assert f["check"] == "cone-perp-and-left-approximation"
        assert "error" not in f and set(f["detail"]) == {"x"}
        # the object is rendered as its label in the failure record only
        assert isinstance(f["detail"]["x"], str)


@pytest.mark.parametrize("suite, T, side, check, failed", [
    # the kernel dimension against the dimension through add ΣT
    ("chain", ["M44", "M14", "M11"], "dim_hom_functor_kernel",
     "quotient-dimension-chain", 64),
    # the quotient dimension against the module dimension, on the heptagon
    # fan, which is cluster-tilting
    ("kz", ["0-2", "0-3", "0-4", "0-5"], "hom_dim_modules",
     "quotient-equals-module-dimension", 196),
], ids=["chain", "kz"])
def test_a_dimension_one_too_high_fails_its_double_decision(
        monkeypatch, suite, T, side, check, failed):
    """Negative controls of two double decisions: with one side's
    dimension read one too high, the suite reports a failure under its
    check for every pair it compares; the unpatched run reads none."""
    cfg = InstanceConfig(n=4, T=T, seed=7, suites=[suite])
    (clean,) = run_suites(cfg, cat=build_category(4))["suites"]
    assert clean["failures"] == [] and clean["checks"] >= failed
    real = getattr(suites, side)
    monkeypatch.setattr(suites, side, lambda *args: real(*args) + 1)
    (planted,) = run_suites(cfg, cat=build_category(4))["suites"]
    assert planted["checks"] == clean["checks"]
    assert len(planted["failures"]) == failed
    assert {f["check"] for f in planted["failures"]} == {check}


def test_factoring_suite_skips_a_y_without_a_resolution(monkeypatch,
                                                        example_cfg):
    """A resolution that raises for one y is one ``resolution`` failure,
    and no map into that y is factored."""
    cat = build_category(4)
    y_label = "M34"
    targets = []
    real_factor = suites.factor_through_s

    def factor(cat, t, u, s):
        targets.append(cat.obj_label(u.tgt))
        return real_factor(cat, t, u, s)

    monkeypatch.setattr(suites, "factor_through_s", factor)
    cfg = InstanceConfig(n=4, T=example_cfg.T, seed=7,
                         suites=["factoring-surjection"])
    (clean,) = run_suites(cfg, cat=cat)["suites"]
    assert clean["failures"] == [] and y_label in targets
    into_y = targets.count(y_label)
    real_resolution = suites.s_resolution

    def resolution(cat, t, y):
        if cat.obj_label(y) == y_label:
            raise RuntimeError("planted")
        return real_resolution(cat, t, y)

    monkeypatch.setattr(suites, "s_resolution", resolution)
    targets.clear()
    (planted,) = run_suites(cfg, cat=cat)["suites"]
    (failure,) = planted["failures"]
    assert (failure["check"], failure["detail"]) == ("resolution",
                                                     {"y": y_label})
    assert failure["error"] == "RuntimeError: planted"
    assert y_label not in targets
    assert planted["checks"] == clean["checks"] - into_y + 1
    assert (planted["coverage"]["maps"]
            == clean["coverage"]["maps"] - into_y)


def test_image_table_writes_what_the_classes_leave_over(monkeypatch,
                                                        example_cfg):
    """With one class missing from the enumeration, exactly the rows that
    contain it get a ?(...) entry: its dimension vector times its
    multiplicity."""
    clean = image_table(example_cfg)
    assert not any(d.startswith("?") for r in clean
                   for d in r["decomposition"])
    cat = suites.cached_category(example_cfg.n)
    classes = suites.enumerate_indec_modules(
        algebra_of(cat, rigid_object(cat, example_cfg.T)))
    dropped = next(m for m in classes if m.dims == (1, 0, 0))
    monkeypatch.setattr(suites, "enumerate_indec_modules",
                        lambda alg: [m for m in classes if m is not dropped])
    planted = image_table(example_cfg)
    hit = 0
    for before, after in zip(clean, planted, strict=True):
        mu = before["decomposition"].count("S1")
        rest = [d for d in before["decomposition"] if d != "S1"]
        want = rest + [f"?{(mu, 0, 0)}"] if mu else rest
        assert after["decomposition"] == sorted(want)
        hit += bool(mu)
    assert hit > 0


def test_image_table_example(example_cfg):
    rows = image_table(example_cfg)
    assert len(rows) == 14
    by_label = {r["label"]: r for r in rows}
    assert by_label["M34"]["decomposition"] == ["S1", "S3"]
    assert by_label["M34"]["H_dims"] == [1, 0, 1]
    zero_rows = [r for r in rows if r["H_dims"] == [0, 0, 0]]
    assert len(zero_rows) == 5
    # every indecomposable module class appears among the images
    seen = set()
    for r in rows:
        seen.update(r["decomposition"])
    assert {"S1", "S2", "S3", "(1,1,0)", "(0,1,1)"} <= seen


def test_image_table_cluster_tilting():
    cfg = InstanceConfig(n=4, T=["0-2", "0-3", "0-4", "0-5"])
    rows = image_table(cfg)
    nonzero = [r for r in rows if any(r["H_dims"])]
    assert len(nonzero) == 10  # 14 - 4


def test_export_dot(example_cfg):
    text = export_dot(example_cfg, "ar-quiver")
    assert text.startswith("digraph")
    assert text.count("->") == 21  # arrows of the rank-4 translation quiver
    assert text.count("[label=") == 14
    annotated = export_dot(example_cfg, "image-quiver")
    assert "H=" in annotated
    with pytest.raises(ValueError):
        export_dot(example_cfg, "nonsense")


def test_export_dot_rank1():
    cfg = InstanceConfig(n=1, T=["0-2"])
    text = export_dot(cfg, "ar-quiver")
    assert text.count("[label=") == 2
    assert text.count("->") == 0


# -- CLI ----------------------------------------------------------------------


def _write_cfg(tmp_path, name="cfg.json", **kw):
    d = {"schema": "cluster-loc/config/v1", "type": "A", "n": 4,
         "T": ["M44", "M14", "M11"], "seed": 7, "suites": ["all"]}
    d.update(kw)
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return str(p)


def test_cli_build(tmp_path, capsys):
    out = tmp_path / "cat.json"
    assert main(["build", "--n", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "cluster-loc/cat/v1"
    assert len(data["arcs"]) == 9
    capsys.readouterr()
    # without --out the serialized category goes to stdout
    assert main(["build", "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == data


def test_cli_verify_and_determinism(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, suites=["example71", "doubleperp"])
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["verify", "--config", cfg, "--seed", "7",
                 "--report", str(r1)]) == 0
    assert main(["verify", "--config", cfg, "--seed", "7",
                 "--report", str(r2)]) == 0
    d1 = json.loads(r1.read_text())
    d2 = json.loads(r2.read_text())
    assert strip_timing(d1) == strip_timing(d2)
    assert d1["failures_total"] == 0
    out = capsys.readouterr().out
    assert "total failures: 0" in out


def test_cli_verify_single_suite(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["verify", "--config", cfg, "--suite", "identify"]) == 0
    out = capsys.readouterr().out
    assert "identify" in out


def test_cli_classify_cone_lochom(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["classify", "--config", cfg,
                 "--map", "M44,SM24 -> M34"]) == 0
    out = capsys.readouterr().out
    assert "in_S:       True" in out
    assert main(["cone", "--config", cfg, "--map", "M44,SM24 -> M34"]) == 0
    out = capsys.readouterr().out
    assert "M13" in out and "certificate valid: True" in out
    # the README's form: a rank instead of a config
    assert main(["cone", "--n", "4", "--map", "M44,SM24 -> M34"]) == 0
    assert capsys.readouterr().out == out
    # the cone of an identity is the zero object, labelled 0
    assert main(["cone", "--n", "4", "--map", "M34 -> M34"]) == 0
    assert "M34 -> M34 -> 0 -> S(M34)" in capsys.readouterr().out
    # rank 0 is a rank the build rejects, not a missing rank
    assert main(["cone", "--n", "0", "--map", "M44,SM24 -> M34"]) == 2
    assert "rank out of supported range" in capsys.readouterr().err
    assert main(["loc-hom", "--config", cfg, "--x", "M34", "--y", "M34"]) == 0
    out = capsys.readouterr().out
    assert "dimension 2" in out


def test_cli_cone_recertifies_the_triangle(monkeypatch, capsys):
    """cone prints the certificate it computes for the triangle it shows:
    with a failing certificate planted, the line reads False."""
    failing = CertReport(True, (("composite", "g.f"),))
    monkeypatch.setattr(cli, "certify_triangle", lambda cat, tri: failing)
    assert main(["cone", "--n", "4", "--map", "M44,SM24 -> M34"]) == 0
    assert "certificate valid: False" in capsys.readouterr().out


@pytest.mark.parametrize("argv,message", [
    (["build", "--n", "13"], "rank out of supported range"),
    (["cone", "--n", "0", "--map", "M34 -> M34"],
     "rank out of supported range"),
    (["cone", "--n", "4", "--map", "M44 M34"], "needs 'SRC -> TGT'"),
    (["cone", "--n", "4", "--map", "M44 -> M34 @ [[1,2]]"],
     "col count"),
    (["cone", "--n", "4", "--map", "M99 -> M34"], "cannot resolve"),
    (["verify", "--config", "{cfg}.bad"], "Expecting"),
    (["verify", "--config", "{cfg}.empty"], "must be a JSON object"),
    (["verify", "--config", "{cfg}.missing"], "No such file or directory"),
    (["verify", "--config", "{dir}"], "Is a directory"),
    (["verify", "--config", "{cfg}", "--report", "{dir}/no/report.json"],
     "No such file or directory"),
    (["cone", "--map", "M44,SM24 -> M34"], "need --config or --n"),
    (["verify", "--config", "{cfg}", "--suite", "bogus"],
     "unknown suite 'bogus'"),
    (["verify", "--config", "{cfg}.nosuites"], "suites is empty"),
    (["verify", "--config", "{cfg}.twice"],
     "suite 'kernel' is named more than once"),
    (["verify", "--config", "{cfg}.repeated"], "T repeats the summand M11"),
    (["classify", "--config", "{cfg}", "--map", "M44 -> M34 @ [[1/0]]"],
     "not a scalar: '1/0'"),
    (["zigzag", "--config", "{cfg}", "--path", "M44,SM24 -> M34",
      "--path2", ";"], "empty zigzag"),
    (["check-rigid", "--config", "{cfg}.M99"],
     "cannot resolve object token 'M99'"),
    (["check-rigid", "--config", "{cfg}.noT"],
     "rigid object must have at least one summand"),
    (["check-rigid", "--config", "{cfg}.repeated"],
     "T repeats the summand M11"),
    (["classify", "--config", "{cfg}.repeated", "--map", "M44 -> M34"],
     "T repeats the summand M11"),
    (["cone", "--config", "{cfg}.M99", "--map", "M44 -> M34"],
     "cannot resolve object token 'M99'"),
    (["cone", "--config", "{cfg}.repeated", "--map", "M44 -> M34"],
     "T repeats the summand M11"),
    (["export-dot", "--config", "{cfg}.M99", "--what", "ar-quiver"],
     "cannot resolve object token 'M99'"),
    (["export-dot", "--config", "{cfg}.repeated", "--what", "ar-quiver"],
     "T repeats the summand M11"),
])
def test_cli_bad_input_gives_one_line_and_status_2(tmp_path, capsys, argv,
                                                    message):
    cfg = _write_cfg(tmp_path)
    with open(cfg + ".bad", "w") as fh:
        fh.write('{"n": 4, "T": [')
    with open(cfg + ".empty", "w") as fh:
        fh.write("[]")
    for ext, names in (("nosuites", []), ("twice", ["kernel", "kernel"])):
        _write_cfg(tmp_path, f"cfg.json.{ext}", suites=names)
    for ext, T in (("repeated", ["M11", "M11"]), ("M99", ["M99"]),
                   ("noT", [])):
        _write_cfg(tmp_path, f"cfg.json.{ext}", T=T)
    assert main([a.format(cfg=cfg, dir=tmp_path) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"cluster-loc {argv[0]}: error: ")
    assert message in err and err.count("\n") == 1


def test_cli_resolve_zigzag(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["resolve", "--config", cfg, "--y", "M34"]) == 0
    capsys.readouterr()
    # s followed by its formal inverse equals the identity path on the source
    assert main(["zigzag", "--config", cfg,
                 "--path", "M44,SM24 -> M34; inv:M44,SM24 -> M34",
                 "--path2",
                 "SP2,M44 -> SP2,M44 @ [[1,0],[0,1]]"]) == 0
    out = capsys.readouterr().out
    assert "equal: True" in out


def test_cli_check_rigid_perp_approx(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["check-rigid", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out == "rigid: True; cluster-tilting: False\n"
    bad = _write_cfg(tmp_path, name="bad.json", T=["0-2", "1-3"], n=1)
    assert main(["check-rigid", "--config", bad]) == 1
    assert capsys.readouterr().out == "not rigid: summand arcs cross\n"
    assert main(["perp", "--config", cfg, "--kind", "SigmaTperp"]) == 0
    out = capsys.readouterr().out
    assert "M23" in out
    assert main(["approx", "--config", cfg, "--x", "M34"]) == 0
    out = capsys.readouterr().out
    assert "M44" in out and "M11" in out


def test_cli_image_table_and_dot(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["image-table", "--config", cfg, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 14
    assert main(["image-table", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14
    m34 = next(line for line in lines if line.startswith("M34 "))
    assert m34.endswith("dims=(1,0,1)  H = S1 + S3")
    dot = tmp_path / "g.dot"
    assert main(["export-dot", "--config", cfg, "--what", "image-quiver",
                 "--out", str(dot)]) == 0
    capsys.readouterr()
    assert dot.read_text().startswith("digraph")
    # without --out the graph text goes to stdout
    assert main(["export-dot", "--config", cfg, "--what", "image-quiver"]) == 0
    assert capsys.readouterr().out == dot.read_text()


def test_cached_category_returns_one_object_across_threads(monkeypatch):
    """Threads that all miss the cache for one rank get the same category,
    the one left in the cache."""
    build = suites.build_category

    def slow_build(n):
        time.sleep(0.2)
        return build(n)

    monkeypatch.setattr(suites, "_CAT_CACHE", {})
    monkeypatch.setattr(suites, "build_category", slow_build)
    got = [None] * 4

    def work(i):
        got[i] = suites.cached_category(2)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
    assert not any(th.is_alive() for th in threads)
    assert all(c is suites._CAT_CACHE[2] for c in got)
