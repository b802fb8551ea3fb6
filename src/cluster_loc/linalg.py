"""Exact linear algebra over the rationals.

Everything in this package reduces to small dense systems over Q, so the
representation is deliberately plain: a matrix is a row-major tuple of exact
scalars.  A scalar is an ``int`` when it is integral and a
``fractions.Fraction`` (lowest terms, positive denominator) otherwise;
``scalar`` normalises a value to that form, and the constructors apply it.
Arithmetic mixes the two exactly, and ``int`` arithmetic, the common case in
this package, is the cheaper.  No code divides with ``/``, which on two
``int`` gives a float; quotients go through ``_ratio``.

One elimination core, ``eliminate``, serves every operation.  It works on
integer rows, whose denominators ``integer_row`` clears once per row, and
never divides inexactly: forward Bareiss elimination gives ranks and pivot
columns, and fraction-free Gauss-Jordan gives the reduced row echelon form
over one shared denominator, the last pivot.  Solutions are read off that
form, as scalars (``solve_right``) or as an integer vector over the shared
denominator (``solve_rows``, which reads the kernel basis off the same
form); kernel bases are read off it as primitive integer columns.  Pivoting
takes the first nonzero entry, and the reduced form is unique, so ranks,
solutions and kernel bases are reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .values import Value, setfield

Scalar = int | Fraction


def scalar(x) -> Scalar:
    """x as an exact scalar: an ``int`` when its value is integral, else a
    ``Fraction``.  Accepts whatever ``Fraction`` does (int, Fraction, str,
    float); raises ValueError naming x for anything else, "1/0" and None
    included."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        try:
            x = Fraction(x)
        except (ArithmeticError, TypeError):
            raise ValueError(f"not a scalar: {x!r}") from None
    return x.numerator if x.denominator == 1 else x


class Mat(Value):
    """Dense rational matrix; ``entries`` is row-major and immutable, and
    ``from_rows``, ``column`` and ``scale`` normalise them with ``scalar``."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[Scalar, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ValueError(f"entry count {len(entries)} != {rows}x{cols}")
        setfield(self, "rows", rows)
        setfield(self, "cols", cols)
        setfield(self, "entries", entries)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
        return Mat(r, c, tuple(scalar(x) for row in rows for x in row))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, tuple(1 if i == j else 0
                               for i in range(n) for j in range(n)))

    @staticmethod
    def column(values: Sequence) -> "Mat":
        vals = [scalar(v) for v in values]
        return Mat(len(vals), 1, tuple(vals))

    # -- access --------------------------------------------------------

    def at(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[Scalar, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    # -- arithmetic ----------------------------------------------------

    def scale(self, c) -> "Mat":
        c = scalar(c)
        return Mat(self.rows, self.cols, tuple(c * x for x in self.entries))

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in product: {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}")
        out = []
        orows = other.to_rows()
        for i in range(self.rows):
            srow = self.row(i)
            acc = [0] * other.cols
            for k, a in enumerate(srow):
                if a == 0:
                    continue
                orow = orows[k]
                for j in range(other.cols):
                    b = orow[j]
                    if b != 0:
                        acc[j] += a * b
            out.extend(acc)
        return Mat(self.rows, other.cols, tuple(out))


# -- elimination core ---------------------------------------------------


def integer_row(row: Sequence) -> list[int]:
    """The row times the least common multiple of its denominators.

    Entries are ``int`` or ``Fraction``.  Scaling a row by a nonzero constant
    changes neither the row space nor the solutions nor any pivot column.
    A row of ``int``s, the common case, is copied as it is.
    """
    for x in row:
        if type(x) is not int:
            break
    else:
        return list(row)
    mult = 1
    for x in row:
        d = x.denominator
        if d != 1:
            mult = mult * d // gcd(mult, d)
    if mult == 1:
        return [x.numerator for x in row]
    return [x.numerator * (mult // x.denominator) for x in row]


def eliminate(rows: list[list[int]], reduce: bool = False
              ) -> tuple[list[int], int]:
    """Fraction-free elimination of integer rows, in place, with
    first-nonzero pivoting.  Returns (pivot columns, last pivot).

    Forward (Bareiss) elimination leaves an echelon form of rank
    ``len(pivots)``.  With ``reduce`` it is fraction-free Gauss-Jordan: each
    pivot also clears its column above, every pivot entry ends equal to the
    last pivot d, and rows[r] / d for r < len(pivots) are the rows of the
    reduced row echelon form.  Every entry stays a minor of the input, up to
    sign, so each division is exact.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if rows[i][col]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        rp = rows[r]
        p = rp[col]
        for i in range(0 if reduce else r + 1, nrows):
            ri = rows[i]
            x = ri[col]
            if i == r or (x == 0 and p == prev):
                continue
            if x == 0:
                rows[i] = [p * a // prev for a in ri]
            elif prev == 1:
                rows[i] = [p * a - x * b for a, b in zip(ri, rp)]
            else:
                rows[i] = [(p * a - x * b) // prev for a, b in zip(ri, rp)]
        pivots.append(col)
        prev = p
        r += 1
    return pivots, prev


def reduced_rows(rows: Sequence[Sequence]
                 ) -> tuple[list[list[int]], list[int], int]:
    """Reduced row echelon form over one positive denominator.

    Returns (integer rows, pivot columns, d > 0): rows[r] / d for
    r < len(pivots) are the nonzero rows of the reduced row echelon form,
    which is unique, and the remaining rows are zero.
    """
    ints = [integer_row(row) for row in rows]
    pivots, d = eliminate(ints, reduce=True)
    if d < 0:
        d = -d
        for r in range(len(pivots)):
            ints[r] = [-a for a in ints[r]]
    return ints, pivots, d


def _ratio(a: int, d: int) -> Scalar:
    """a / d as a scalar, d > 0: an ``int`` when d divides a."""
    q, r = divmod(a, d)
    return Fraction(a, d) if r else q


# -- public operations ---------------------------------------------------


def rank(m: Mat) -> int:
    """Rank of ``m`` over Q."""
    return len(eliminate([integer_row(m.row(i)) for i in range(m.rows)])[0])


def rank_rows(rows: list[list]) -> int:
    """Rank of a plain list-of-lists matrix (int or Fraction entries)."""
    return len(eliminate([integer_row(row) for row in rows])[0])


def solve_right(a: Mat, b: Mat) -> Optional[Mat]:
    """Some exact solution x of a*x = b, or None if the system is unsolvable.

    Free variables are set to zero, so the solution is deterministic.
    """
    if a.rows != b.rows:
        raise ValueError(f"row mismatch: a has {a.rows}, b has {b.rows}")
    red, pivots, d = reduced_rows([a.row(i) + b.row(i)
                                   for i in range(a.rows)])
    if pivots and pivots[-1] >= a.cols:
        return None  # pivot in the rhs block: inconsistent
    sol = [(0,) * b.cols] * a.cols
    for r, col in enumerate(pivots):
        sol[col] = tuple(_ratio(x, d) for x in red[r][a.cols:])
    return Mat(a.cols, b.cols, tuple(x for row in sol for x in row))


def kernel_basis(m: Mat) -> Mat:
    """Matrix whose columns form a basis of ker(m); cols = cols(m) - rank(m).

    Column k is the primitive vector of ker(m) (``int`` entries, gcd 1)
    that is positive at the k-th free column and 0 at the others."""
    return kernel_basis_rows([m.row(i) for i in range(m.rows)], m.cols)


def kernel_basis_rows(rows: list[Sequence], ncols: int) -> Mat:
    """``kernel_basis`` of the matrix with these rows and ncols columns,
    with no ``Mat`` built for it."""
    return _kernel_of_reduced(*reduced_rows(rows), ncols)


def solve_rows(rows: Sequence[Sequence], rhs: Sequence, ncols: int
               ) -> Optional[tuple[list[int], int, Mat]]:
    """A x = b by one elimination of [A | b], A given by its rows and its
    column count ncols, b by its entries.

    Returns (v, d, kb): v / d is the solution whose free variables are
    zero (v integer, d > 0), and kb is ``kernel_basis`` of A, read off the
    same reduced form; None when the system is unsolvable.
    """
    red, pivots, d = reduced_rows(_augmented(rows, rhs))
    if pivots and pivots[-1] == ncols:
        return None  # pivot in the rhs column: inconsistent
    v = [0] * ncols
    for r, col in enumerate(pivots):
        v[col] = red[r][ncols]
    return v, d, _kernel_of_reduced(red, pivots, d, ncols)


def solvable_rows(rows: Sequence[Sequence], rhs: Sequence, ncols: int
                  ) -> bool:
    """Is A x = b solvable?  One forward elimination of [A | b]; the
    system is inconsistent exactly when a pivot lies in the rhs column."""
    pivots, _ = eliminate([integer_row(row) for row in _augmented(rows, rhs)])
    return not pivots or pivots[-1] != ncols


def _augmented(rows: Sequence[Sequence], rhs: Sequence) -> list[list]:
    """The rows of [A | b]."""
    return [[*row, b] for row, b in zip(rows, rhs, strict=True)]


def _kernel_of_reduced(red: list[list[int]], pivots: list[int], d: int,
                       ncols: int) -> Mat:
    """The primitive kernel columns of the first ncols columns of a
    reduced form from ``reduced_rows``."""
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    cols = []
    for f in free:
        v = [0] * ncols
        v[f] = d
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][f]
        g = gcd(*v)
        cols.append([x // g for x in v])
    return Mat(ncols, len(cols), tuple(x for row in zip(*cols) for x in row))


def inverse(m: Mat) -> Optional[Mat]:
    """Exact inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        return None
    # an exact solution of m . x = I is also a left inverse, as m is square
    return solve_right(m, Mat.identity(m.rows))
