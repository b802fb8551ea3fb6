"""Each public entry point rejects a malformed input with a ValueError that
says what is wrong, rather than a bare traceback from deeper down."""

import re

import pytest

from cluster_loc import rigid, triangles
from cluster_loc.arcs import parse_arc
from cluster_loc.category import Obj
from cluster_loc.cli import main
from cluster_loc.linalg import Mat, inverse
from cluster_loc.modules import (LambdaModule, ModuleHom, direct_sum_modules,
                                 end_algebra, simple_module)
from cluster_loc.suites import InstanceConfig


def _zero_pair(cat):
    """(x, y) with Hom(x, y) = 0."""
    return next((x, y) for x in range(cat.N) for y in range(cat.N)
                if not cat.hom1(x, y))


def _unmatched(cat):
    """(1_x, f) for a basis map f: x -> y with x != y, so that the source
    of the first is not the target of the second."""
    x, y = next(k for k in sorted(cat.hom_deg) if k[0] != k[1])
    return cat.identity(Obj((x,))), cat.basis_mor(x, y)


def _not_invertible(cat, t):
    s = simple_module(end_algebra(cat, t), 0)
    return ModuleHom(s, s, [Mat.zeros(d, d) for d in s.dims])


def _identity_of_simple(cat, t, i):
    s = simple_module(end_algebra(cat, t), i)
    return ModuleHom(s, s, [Mat.identity(d) for d in s.dims])


CASES = {
    "parse_arc": (lambda cat, t: parse_arc(4, "1-2-3"),
                  "bad arc literal '1-2-3'; expected 'a-b'"),
    "ragged rows": (lambda cat, t: Mat.from_rows([[1, 2], [3]]),
                    "ragged rows"),
    "product shapes": (lambda cat, t: Mat.identity(2) * Mat.identity(3),
                       "shape mismatch in product: 2x2 by 3x3"),
    "mor columns": (lambda cat, t: cat.mor(Obj((0, 1)), Obj((0,)), [[1]]),
                    "col count != number of source summands"),
    "basis_mor": (lambda cat, t: cat.basis_mor(*_zero_pair(cat)),
                  "hom space SP4 -> M44 is zero"),
    "mor_from_vec": (lambda cat, t: cat.mor_from_vec(
        Obj((0,)), Obj((0,)), [1, 2]), "vector length != hom dimension"),
    "compose": (lambda cat, t: cat.compose(*_unmatched(cat)),
                "objects do not match in composition"),
    "add_mor": (lambda cat, t: cat.add_mor(*_unmatched(cat)),
                "objects do not match in sum"),
    "composes_to_zero": (lambda cat, t: triangles._composes_to_zero(
        cat, *_unmatched(cat)), "objects do not match in composition"),
    "factors_through_mor": (lambda cat, t: rigid.factors_through_mor(
        cat, _unmatched(cat)[1], cat.identity(Obj((1,)))), "sources differ"),
    "config schema": (lambda cat, t: InstanceConfig.from_dict(
        {"n": 4, "T": ["M11"], "schema": "other/v0"}),
        "unexpected config schema 'other/v0'"),
    "module inverse": (lambda cat, t: _not_invertible(cat, t).inverse(),
                       "module map is not invertible"),
    "module action": (lambda cat, t: LambdaModule(
        end_algebra(cat, t), [1, 1, 0], {(0, 1): Mat.zeros(2, 1)}),
        "action shape mismatch at (0, 1)"),
    "module map component": (lambda cat, t: ModuleHom(
        simple_module(end_algebra(cat, t), 0),
        simple_module(end_algebra(cat, t), 0),
        [Mat.identity(1), Mat.zeros(1, 0), Mat.zeros(0, 0)]),
        "component shape mismatch at vertex 1"),
    "module compose": (lambda cat, t: _identity_of_simple(cat, t, 0).compose(
        _identity_of_simple(cat, t, 1)), "module maps not composable"),
    "empty module sum": (lambda cat, t: direct_sum_modules([]),
                         "empty direct sum: no algebra to build it over"),
}


@pytest.mark.parametrize("case", CASES)
def test_malformed_input_raises_a_named_value_error(case, cat4, example_T):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(cat4, example_T)


def test_classify_reports_a_bad_arc_on_one_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 4, "T": ["M44", "M14", "M11"]}')
    assert main(["classify", "--config", str(cfg),
                 "--map", "1-2-3 -> M34"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("cluster-loc classify: error: bad arc literal '1-2-3'; "
                   "expected 'a-b'\n")


def test_inverse_of_a_non_square_matrix_is_none():
    assert inverse(Mat.zeros(2, 3)) is None
