import math
import random
from fractions import Fraction

import pytest

from cluster_loc.linalg import (Mat, inverse, kernel_basis, rank, rank_rows,
                                reduced_rows, solvable_rows, solve_right)
from conftest import as_rows, hstack, mat_from_cols


def test_rank_examples():
    assert rank(Mat.identity(2)) == 2
    assert rank(Mat.zeros(2, 2)) == 0
    assert rank(Mat.from_rows([[1, 2], [2, 4]])) == 1


def test_rank_empty_shapes():
    assert rank(Mat.zeros(0, 3)) == 0
    assert rank(Mat.zeros(3, 0)) == 0


def _solve_columns(a: Mat, b: Mat):
    """The rows of the solution x of a.x = b that ``solve_right`` gives,
    one column of b at a time, or None when a column is unsolvable."""
    cols = []
    for j in range(b.cols):
        sol = solve_right(a.to_rows(), b.col(j), a.cols)
        if sol is None:
            return None
        v, d, _ = sol
        cols.append([Fraction(e, d) for e in v])
    return [list(row) for row in zip(*cols)]


def test_solve_right_examples():
    v, d, kb = solve_right([[1, 0], [0, 1]], [3, 4], 2)
    assert (v, d, kb) == ([3, 4], 1, Mat.zeros(2, 0))

    assert solve_right([[1], [0]], [0, 1], 1) is None

    v, d, _ = solve_right([[2]], [1], 1)
    assert (v, d) == ([1], 2)

    # free variables are zero, and the kernel comes with the solution
    v, d, kb = solve_right([[1, 1]], [Fraction(1, 2)], 2)
    assert (v, d) == ([1, 0], 2) and kb == Mat.from_rows([[-1], [1]])


def test_solve_right_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_right([[1, 0], [0, 1]], [1, 2, 3], 2)


def test_kernel_examples():
    assert kernel_basis(*as_rows(Mat.identity(3))).cols == 0
    assert kernel_basis(*as_rows(Mat.zeros(2, 3))).cols == 3
    k = kernel_basis([[1, 1]], 2)
    assert k.cols == 1
    # spans (1, -1)
    assert k.at(0, 0) == -k.at(1, 0) != 0


def test_kernel_basis_of_no_rows_is_the_identity():
    """No equations leave every unknown free: the n x n identity, and 0 x 0
    when there are no unknowns either."""
    for n in range(5):
        assert kernel_basis([], n) == Mat.identity(n)
    assert kernel_basis([], 0) == Mat(0, 0, ())
    assert kernel_basis([[0, 0, 0]], 3) == Mat.identity(3)
    rows = [[Fraction(1, 2), 1, 0], [0, 0, 0]]
    assert kernel_basis(rows, 3) == Mat.from_rows([[-2, 0], [1, 0], [0, 1]])
    assert rows == [[Fraction(1, 2), 1, 0], [0, 0, 0]]   # left as it was


def _random_mat(rng, rows, cols, den=3):
    return Mat.from_rows([[Fraction(rng.randint(-5, 5), rng.randint(1, den))
                           for _ in range(cols)] for _ in range(rows)])


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(60):
        m = _random_mat(rng, rng.randint(0, 5), rng.randint(0, 5))
        k = kernel_basis(*as_rows(m))
        assert rank(m) + k.cols == m.cols
        if m.cols and k.cols:
            assert (m * k).is_zero()


def test_solve_iff_rank_condition():
    rng = random.Random(11)
    for _ in range(60):
        a = _random_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = _random_mat(rng, a.rows, rng.randint(1, 2))
        x = _solve_columns(a, b)
        assert (x is not None) == (rank(hstack(a, b)) == rank(a))
        if x is not None:
            assert (a * Mat.from_rows(x)).entries == b.entries


def test_solve_right_solves_and_agrees_with_the_kernel():
    """One elimination of [A | b] gives v / d with A.(v / d) = b, decides
    solvability as ``solvable_rows`` does, and gives A's kernel basis; the
    reference is the product A.x.  Half the right sides are in the image by
    construction."""
    rng = random.Random(17)
    solved = unsolvable = 0
    for k in range(80):
        a = _random_mat(rng, rng.randint(0, 4), rng.randint(0, 4))
        b = (a * _random_mat(rng, a.cols, 1) if k % 2 and a.cols
             else _random_mat(rng, a.rows, 1))
        rows = a.to_rows()
        got = solve_right(rows, b.col(0), a.cols)
        assert rows == a.to_rows()   # left as it was
        assert solvable_rows(rows, b.col(0), a.cols) == (got is not None)
        assert (got is not None) == (rank(hstack(a, b)) == rank(a))
        if got is None:
            unsolvable += 1
            continue
        solved += 1
        v, d, kb = got
        assert d > 0 and all(type(e) is int for e in (*v, d))
        x = Mat.column([Fraction(e, d) for e in v])
        assert (a * x).entries == b.entries
        assert kb == kernel_basis(rows, a.cols)
        assert (a * kb).is_zero()
    assert solved > 20 and unsolvable > 5


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
    assert inverse(Mat.zeros(1, 1)) is None
    assert inverse(Mat.zeros(0, 0)) == Mat(0, 0, ())
    # not square: no inverse, however the rows stand
    assert inverse(Mat.from_rows([[1, 0, 0], [0, 1, 0]])) is None
    assert inverse(Mat.from_rows([[1, 0], [0, 1], [0, 0]])) is None
    a = Mat.from_rows([[1, 0], [0, 2]])
    assert inverse(a) == Mat.from_rows([[1, 0], [0, Fraction(1, 2)]])
    assert inverse(a) * a == Mat.identity(2)


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
    assert kernel_basis(*as_rows(empty)).cols == 2


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
        k = kernel_basis(*as_rows(m))
        if cols:
            # the reference columns are 1 at their free column, so their
            # primitive multiples are positive there
            assert [list(k.col(j)) for j in range(k.cols)] == \
                [_primitive(v) for v in _ref_kernel(m)]
            assert all(type(x) is int for x in k.entries)
        if rows and cols:
            for b in (_shaped_random_mat(rng, rows, 2),
                      m * _shaped_random_mat(rng, cols, 1)):
                assert _solve_columns(m, b) == _ref_solve(m, b)
