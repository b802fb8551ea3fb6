"""Span tracing of cluster-loc from outside the library.

``Tracer.install`` replaces every binding of each traced function in every
loaded ``cluster_loc`` module (so a name imported with ``from .triangles
import complete_triangle`` is wrapped as well as the original) and every
traced method on its class.  Each call records one span ``(name, start, end,
parent)`` in memory; ``uninstall`` puts the original objects back.  Spans are
written out once, by ``write``, when the run ends.

A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import gzip
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "cluster_loc"

# layer -> traced functions ("Class.method" for methods); cli is not traced
TARGETS = {
    "category": ["build_category", "Category.compose", "Category.suspend_mor",
                 "Category.mor_from_vec"],
    "arcs": ["crosses", "enumerate_arcs"],
    "oracle": ["label_hom_matrix"],
    "linalg": ["rank", "rank_rows", "kernel_basis", "solve_right", "inverse",
               "Mat.__mul__"],
    "triangles": ["cone_profile", "post_rank_table", "pre_rank_table",
                  "profile_candidates", "complete_triangle",
                  "certify_triangle_parts"],
    "rigid": ["rigid_object", "perp_view", "right_addT_approx", "in_CT",
              "factors_through_subcat", "factors_through_mor",
              "hom_functor_zero", "left_sigma_perp_approx"],
    "modules": ["end_algebra", "H_obj", "H_mor", "module_hom_basis",
                "split_module", "is_indecomposable", "modules_isomorphic",
                "enumerate_indec_modules", "lift_module_to_CT"],
    "localization": ["classify", "s_resolution", "factor_through_s",
                     "loc_hom", "zigzag_equal"],
    "suites": ["run_suites"],
}

# spans whose result length is recorded (candidate cones, enumerated classes)
MEASURE_LEN = {"triangles.profile_candidates", "modules.enumerate_indec_modules"}

SUITE_NAMES = ("kernel", "stilde", "doubleperp", "wakamatsu", "identify",
               "factoring-surjection", "equivalence", "chain", "kz",
               "elementary", "example71")

SPAN_NAMES = [f"{layer}.{name}" for layer, names in TARGETS.items()
              for name in names]

DERIVED = {
    "triangles.completions": "count",
    "triangles.memo_hit_frac": "ratio",
    "triangles.cone_candidates_per_completion": "ratio",
    "triangles.rank_tables_per_completion": "ratio",
    "triangles.certify_per_completion": "ratio",
    "modules.enum_candidates": "count",
    "modules.enum_classes": "count",
    "modules.iso_tests_per_candidate": "ratio",
    "localization.s_resolution_hit_frac": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for suite in SUITE_NAMES:
        units[f"suites.{suite}.s"] = "s"
    units.update(DERIVED)
    units["trace.overhead_frac"] = "ratio"
    return units


def rebind(span: str, make) -> list:
    """Replace ``<layer>.<function>`` (or ``<layer>.<Class>.<method>``) by
    ``make(original)`` wherever the loaded package binds it: in every module
    namespace that holds it, or on its class.  Returns what ``restore``
    needs to put the originals back."""
    layer, qual = span.split(".", 1)
    home = sys.modules[f"{PACKAGE}.{layer}"]
    if "." in qual:
        cls_name, meth = qual.split(".")
        cls = getattr(home, cls_name)
        orig = cls.__dict__[meth]
        setattr(cls, meth, make(orig))
        return [(cls, meth, orig)]
    orig = getattr(home, qual)
    wrapper = make(orig)
    done = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE
                               or name.startswith(PACKAGE + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
                done.append((mod, key, orig))
    return done


def restore(done: list):
    for owner, key, orig in reversed(done):
        setattr(owner, key, orig)


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name id, start, end, parent index)
        self.lengths: dict[int, int] = {}   # span index -> len(result)
        self._stack: list[int] = []
        self._restore: list = []
        self.suite_s: Counter = Counter()

    def _wrap(self, name_id: int, orig, measure_len: bool):
        spans, stack, lengths = self.spans, self._stack, self.lengths

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                spans[idx] = (name_id, start, perf_counter(), parent)
                stack.pop()
            if measure_len:
                lengths[idx] = len(result)
            return result

        return traced

    def install(self):
        """Wrap every traced function in the currently loaded package."""
        for name_id, span in enumerate(SPAN_NAMES):
            self._restore += rebind(
                span, lambda orig, i=name_id, s=span:
                self._wrap(i, orig, s in MEASURE_LEN))

    def uninstall(self):
        restore(self._restore)
        self._restore.clear()

    def write(self, path):
        """All spans as tab-separated text: index, name, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (nid, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{SPAN_NAMES[nid]}\t{start:.9f}\t{end:.9f}"
                         f"\t{parent}\n")

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per traced round (span counts, self time and
        the derived counts measured at the same boundaries)."""
        spans = self.spans
        n_names = len(SPAN_NAMES)
        calls = [0] * n_names
        total = [0.0] * n_names
        child = [0.0] * len(spans)
        has_child = [False] * len(spans)
        for nid, start, end, parent in spans:
            calls[nid] += 1
            total[nid] += end - start
            if parent >= 0:
                child[parent] += end - start
                has_child[parent] = True
        self_s = [0.0] * n_names
        for i, (nid, start, end, _) in enumerate(spans):
            self_s[nid] += (end - start) - child[i]

        ids = {name: i for i, name in enumerate(SPAN_NAMES)}

        def ancestor(i: int, target: int) -> int:
            p = spans[i][3]
            while p >= 0 and spans[p][0] != target:
                p = spans[p][3]
            return p

        ct = ids["triangles.complete_triangle"]
        completing = {i for i, s in enumerate(spans)
                      if s[0] == ct and has_child[i]}
        ct_calls = calls[ct]
        rank_tables = {ids["triangles.post_rank_table"],
                       ids["triangles.pre_rank_table"]}
        cert = ids["triangles.certify_triangle_parts"]
        under_rank = under_cert = 0
        for i, s in enumerate(spans):
            if s[0] in rank_tables or s[0] == cert:
                if ancestor(i, ct) in completing:
                    if s[0] == cert:
                        under_cert += 1
                    else:
                        under_rank += 1
        pc = ids["triangles.profile_candidates"]
        cand = [n for i, n in self.lengths.items() if spans[i][0] == pc]
        enum = ids["modules.enumerate_indec_modules"]
        indec = ids["modules.is_indecomposable"]
        iso = ids["modules.modules_isomorphic"]
        enum_candidates = sum(1 for i, s in enumerate(spans)
                              if s[0] == indec and ancestor(i, enum) >= 0)
        enum_iso = sum(1 for i, s in enumerate(spans)
                       if s[0] == iso and ancestor(i, enum) >= 0)
        enum_classes = sum(n for i, n in self.lengths.items()
                           if spans[i][0] == enum)
        sres = ids["localization.s_resolution"]
        sres_hits = sum(1 for i, s in enumerate(spans)
                        if s[0] == sres and not has_child[i])

        def ratio(a, b):
            return a / b if b else 0.0

        completions = len(completing)
        per_round = max(rounds, 1)
        out = {}
        for nid, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = calls[nid] / per_round
            out[f"{name}.self_s"] = self_s[nid] / per_round
        for suite in SUITE_NAMES:
            out[f"suites.{suite}.s"] = self.suite_s[suite] / per_round
        out.update({
            "triangles.completions": completions / per_round,
            "triangles.memo_hit_frac": ratio(ct_calls - completions, ct_calls),
            "triangles.cone_candidates_per_completion":
                ratio(sum(cand), len(cand)),
            "triangles.rank_tables_per_completion":
                ratio(under_rank, completions),
            "triangles.certify_per_completion": ratio(under_cert, completions),
            "modules.enum_candidates": enum_candidates / per_round,
            "modules.enum_classes": enum_classes / per_round,
            "modules.iso_tests_per_candidate":
                ratio(enum_iso, enum_candidates),
            "localization.s_resolution_hit_frac":
                ratio(sres_hits, calls[sres]),
        })
        return out
