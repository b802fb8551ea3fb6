import math
import random
from fractions import Fraction

import pytest

from cluster_loc.linalg import (Mat, inverse, kernel_basis, kernel_basis_rows,
                                rank, rank_rows, reduced_rows, solvable_rows,
                                solve_right, solve_rows)
from conftest import hstack, mat_from_cols


def test_rank_examples():
    assert rank(Mat.identity(2)) == 2
    assert rank(Mat.zeros(2, 2)) == 0
    assert rank(Mat.from_rows([[1, 2], [2, 4]])) == 1


def test_rank_empty_shapes():
    assert rank(Mat.zeros(0, 3)) == 0
    assert rank(Mat.zeros(3, 0)) == 0


def test_solve_right_examples():
    b = Mat.from_rows([[3], [4]])
    x = solve_right(Mat.identity(2), b)
    assert x.entries == b.entries

    a = Mat.from_rows([[1], [0]])
    assert solve_right(a, Mat.from_rows([[0], [1]])) is None

    x = solve_right(Mat.from_rows([[2]]), Mat.from_rows([[1]]))
    assert x.entries == (Fraction(1, 2),)


def test_solve_right_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_right(Mat.identity(2), Mat.identity(3))


def test_kernel_examples():
    assert kernel_basis(Mat.identity(3)).cols == 0
    assert kernel_basis(Mat.zeros(2, 3)).cols == 3
    k = kernel_basis(Mat.from_rows([[1, 1]]))
    assert k.cols == 1
    # spans (1, -1)
    assert k.at(0, 0) == -k.at(1, 0) != 0


def _random_mat(rng, rows, cols, den=3):
    return Mat.from_rows([[Fraction(rng.randint(-5, 5), rng.randint(1, den))
                           for _ in range(cols)] for _ in range(rows)])


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(60):
        m = _random_mat(rng, rng.randint(0, 5), rng.randint(0, 5))
        k = kernel_basis(m)
        assert rank(m) + k.cols == m.cols
        if m.cols and k.cols:
            assert (m * k).is_zero()


def test_solve_iff_rank_condition():
    rng = random.Random(11)
    for _ in range(60):
        a = _random_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = _random_mat(rng, a.rows, rng.randint(1, 2))
        solvable = solve_right(a, b) is not None
        assert solvable == (rank(hstack(a, b)) == rank(a))
        if solvable:
            x = solve_right(a, b)
            assert (a * x).entries == b.entries


def test_solve_rows_matches_solve_right():
    # one elimination of [A | b] decides solvability (solvable_rows) and
    # gives solve_right's solution over a shared denominator plus A's kernel
    rng = random.Random(17)
    for _ in range(80):
        a = _random_mat(rng, rng.randint(0, 4), rng.randint(0, 4))
        b = _random_mat(rng, a.rows, 1)
        rows = [a.row(i) for i in range(a.rows)]
        x = solve_right(a, b)
        assert solvable_rows(rows, b.col(0), a.cols) == (x is not None)
        got = solve_rows(rows, b.col(0), a.cols)
        if x is None:
            assert got is None
            continue
        v, d, kb = got
        assert d > 0 and all(type(e) is int for e in v)
        assert tuple(Fraction(e, d) for e in v) == x.col(0)
        assert kb == kernel_basis(a)


def test_scalar_invariants_random():
    rng = random.Random(13)
    for _ in range(200):
        p, q = rng.randint(-40, 40), rng.randint(1, 40)
        s = Fraction(p, q)
        from math import gcd
        assert s.denominator > 0
        assert gcd(s.numerator, s.denominator) == 1
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert (s + t) - t == s
        if t != 0:
            assert (s * t) / t == s


def test_inverse():
    m = Mat.from_rows([[2, 1], [1, 1]])
    mi = inverse(m)
    assert (m * mi).entries == Mat.identity(2).entries
    assert inverse(Mat.from_rows([[1, 2], [2, 4]])) is None
    assert inverse(Mat.zeros(0, 0)) is not None


def test_inverse_is_two_sided_on_seeded_invertible_matrices():
    """An exact solution of m.x = I is the inverse: both products are I."""
    rng = random.Random("inverse")
    invertible = 0
    while invertible < 40:
        k = rng.randint(1, 5)
        m = Mat.from_rows([[rng.randint(-3, 3) for _ in range(k)]
                           for _ in range(k)])
        mi = inverse(m)
        if rank(m) < k:
            assert mi is None
            continue
        assert (m * mi).entries == (mi * m).entries == Mat.identity(k).entries
        invertible += 1


def test_mat_from_cols_keeps_shape():
    m = mat_from_cols([(1, 2), (3, 4)], 2)
    assert (m.rows, m.cols) == (2, 2)
    empty = mat_from_cols([(), ()], 0)
    assert (empty.rows, empty.cols) == (0, 2)
    assert kernel_basis(empty).cols == 2


def test_kernel_basis_rows_keeps_shape():
    """The kernel of stacked rows, with no Mat built for the system, is
    kernel_basis of the stacked matrix, empty row lists included."""
    assert kernel_basis_rows([], 2) == kernel_basis(Mat.zeros(0, 2))
    assert kernel_basis_rows([], 2).cols == 2
    assert kernel_basis_rows([[1, 2]] + [[2, 4]], 2) == kernel_basis(
        Mat.from_rows([[1, 2], [2, 4]]))
    assert kernel_basis_rows([], 0) == Mat.zeros(0, 0)
    rows = [[Fraction(1, 2), 1, 0], [0, 0, 0]]
    assert kernel_basis_rows(rows, 3) == kernel_basis(Mat.from_rows(rows))
    assert rows == [[Fraction(1, 2), 1, 0], [0, 0, 0]]   # left as it was


def test_rank_rows_mixed_entries():
    assert rank_rows([[Fraction(1, 2), 1], [1, 2]]) == 1
    assert rank_rows([]) == 0


# -- the elimination core against a plain Fraction Gauss-Jordan reference --


def _ref_rref(rows):
    """Reduced row echelon form over Fraction, first-nonzero pivoting."""
    rows = [r[:] for r in rows]
    if not rows:
        return rows, []
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col]
        if inv != 1:
            rows[r] = [x / inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _ref_kernel(m):
    red, pivots = _ref_rref(m.to_rows())
    cols = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][f]
        cols.append(v)
    return cols


def _primitive(v):
    """The rational vector v scaled to integers with gcd 1, keeping signs."""
    mult = math.lcm(*(x.denominator for x in v))
    ints = [int(x * mult) for x in v]
    g = math.gcd(*ints)
    return [x // g for x in ints]


def _ref_solve(a, b):
    red, pivots = _ref_rref([list(a.row(i)) + list(b.row(i))
                             for i in range(a.rows)])
    if any(p >= a.cols for p in pivots):
        return None
    sol = [[Fraction(0)] * b.cols for _ in range(a.cols)]
    for r, col in enumerate(pivots):
        sol[col] = red[r][a.cols:]
    return sol


def _shaped_random_mat(rng, rows, cols):
    """Fractional entries, about a third zero, with a zero row, a zero column
    and a repeated scaled row mixed in at random."""
    ent = [[Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5)))
            if rng.random() < 0.65 else Fraction(0) for _ in range(cols)]
           for _ in range(rows)]
    if rows and cols:
        if rng.random() < 0.3:
            ent[rng.randrange(rows)] = [Fraction(0)] * cols
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in ent:
                row[j] = Fraction(0)
        if rows > 1 and rng.random() < 0.4:
            k = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            ent[rng.randrange(rows)] = [k * x for x in ent[rng.randrange(rows)]]
    return Mat(rows, cols, tuple(x for row in ent for x in row))


_SHAPES = [(1, 1), (1, 6), (2, 7), (3, 3), (4, 4), (6, 2), (7, 1), (5, 8),
           (8, 5), (6, 6), (0, 4), (4, 0)]


@pytest.mark.parametrize("shape", _SHAPES, ids=[f"{r}x{c}" for r, c in _SHAPES])
def test_core_matches_fraction_reference(shape):
    rows, cols = shape
    rng = random.Random(100 * rows + cols)
    for _ in range(40):
        m = _shaped_random_mat(rng, rows, cols)
        ref, ref_pivots = _ref_rref(m.to_rows())
        red, pivots, d = reduced_rows(m.to_rows())
        assert pivots == ref_pivots and d > 0
        for r in range(len(pivots)):
            assert [Fraction(x, d) for x in red[r]] == ref[r]
        assert not any(x for row in red[len(pivots):] for x in row)

        assert rank(m) == rank_rows(m.to_rows()) == len(ref_pivots)
        k = kernel_basis(m)
        if cols:
            # the reference columns are 1 at their free column, so their
            # primitive multiples are positive there
            assert [list(k.col(j)) for j in range(k.cols)] == \
                [_primitive(v) for v in _ref_kernel(m)]
            assert all(type(x) is int for x in k.entries)
        if rows and cols:
            for b in (_shaped_random_mat(rng, rows, 2),
                      m * _shaped_random_mat(rng, cols, 1)):
                x = solve_right(m, b)
                want = _ref_solve(m, b)
                if want is None:
                    assert x is None
                else:
                    assert x.to_rows() == want
