"""Exact linear algebra over rationals for small matrices.

Dense matrices are lists of rows of ``fractions.Fraction``; the sparse
integer elimination ``integer_rref`` works on rows stored as
``{column: int}`` dicts. Everything is exact;
the optional ``float`` rank backend (numpy SVD with a relative cutoff) exists
for exploratory runs and never feeds a certification path.
"""

from __future__ import annotations

import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np

Matrix = list[list[Fraction]]
Vector = list[Fraction]
SparseRow = dict[int, int]  # column -> nonzero integer entry

RANK_BACKENDS = ("exact", "float")
FLOAT_RANK_CUTOFF = 1e-9


def as_fraction(value) -> Fraction:
    """Convert int, "p/q" string, float, or Fraction to an exact Fraction.

    Floats are read through their decimal repr, so 0.1 becomes 1/10 rather
    than the binary expansion.
    """
    if isinstance(value, bool):
        raise ValueError("boolean is not a scalar weight")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        try:
            return Fraction(Decimal(repr(value)))
        except InvalidOperation as exc:
            raise ValueError(f"cannot convert {value!r} to a rational") from exc
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid rational literal {value!r}") from exc
    raise ValueError(f"cannot interpret {value!r} as a rational scalar")


def format_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fraction_to_json(x: Fraction):
    """Integers serialize as JSON ints, everything else as "p/q"."""
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def zeros(nrows: int, ncols: int) -> Matrix:
    return [[Fraction(0)] * ncols for _ in range(nrows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def copy_matrix(m) -> Matrix:
    return [list(row) for row in m]


def transpose(m) -> Matrix:
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a, b) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"dimension mismatch: {len(a[0])} vs {len(b)}")
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def hstack(*mats) -> Matrix:
    mats = [m for m in mats if m]
    if not mats:
        return []
    nrows = len(mats[0])
    if any(len(m) != nrows for m in mats):
        raise ValueError("hstack: row counts differ")
    return [sum((list(m[i]) for m in mats), []) for i in range(nrows)]


def is_zero_matrix(m) -> bool:
    return all(x == 0 for row in m for x in row)


def _integer_rows(m) -> list[list[int]]:
    # scaling each row by the lcm of its denominators preserves rank
    rows = []
    for row in m:
        den = 1
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
        rows.append([int(x * den) for x in row])
    return rows


def _rank_bareiss(m) -> int:
    """Fraction-free elimination on denominator-cleared integer rows."""
    if not m or not m[0]:
        return 0
    rows = _integer_rows(m)
    nr, nc = len(rows), len(rows[0])
    r = 0
    prev = 1
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pivval = rows[r][c]
        for i in range(r + 1, nr):
            factor = rows[i][c]
            for j in range(c + 1, nc):
                num = rows[i][j] * pivval - factor * rows[r][j]
                q, rem = divmod(num, prev)
                assert rem == 0, "fraction-free elimination lost exactness"
                rows[i][j] = q
            rows[i][c] = 0
        prev = pivval
        r += 1
        if r == nr:
            break
    return r


def _rank_float(m) -> int:
    if not m or not m[0]:
        return 0
    arr = np.array([[float(x) for x in row] for row in m], dtype=float)
    s = np.linalg.svd(arr, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > FLOAT_RANK_CUTOFF * s[0]))


def rank(m, backend: str = "exact") -> int:
    if backend == "exact":
        return _rank_bareiss(m)
    if backend == "float":
        return _rank_float(m)
    raise ValueError(f"unknown rank backend {backend!r}; expected one of {RANK_BACKENDS}")


def rref(m) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (Gauss-Jordan over Fraction); returns (R, pivot columns)."""
    rows = copy_matrix(m)
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def independent_columns(m) -> list[int]:
    """Indices of a lexicographically-first maximal independent column set."""
    if not m or not m[0]:
        return []
    rows = copy_matrix(m)
    nr, nc = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, nr):
            if rows[i][c] != 0:
                f = rows[i][c] / pv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return pivots


def nullspace(m) -> list[Vector]:
    """Basis of {x : m x = 0}, one vector per free column."""
    if not m:
        return []
    nc = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][f]
        basis.append(v)
    return basis


def solve_affine(a, b, ncols: int | None = None) -> tuple[Vector, list[Vector]] | None:
    """Solve a x = b; returns (particular solution, nullspace basis) or None if inconsistent.

    With no rows the system is vacuous: particular 0, basis = unit vectors
    (``ncols`` must be given in that case).
    """
    if not a:
        if ncols is None:
            raise ValueError("ncols required for an empty system")
        particular = [Fraction(0)] * ncols
        basis = [list(row) for row in identity(ncols)]
        return particular, basis
    nc = len(a[0])
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    red, pivots = rref(aug)
    if nc in pivots:
        return None
    particular = [Fraction(0)] * nc
    for r, pc in enumerate(pivots):
        particular[pc] = red[r][nc]
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][f]
        basis.append(v)
    return particular, basis


def _combine(row: SparseRow, prow: SparseRow, c: int) -> SparseRow:
    # integer combination of row and prow that cancels column c, gcd-normalised
    g = math.gcd(row[c], prow[c])
    fr, fp = prow[c] // g, row[c] // g
    out = {k: fr * v for k, v in row.items()}
    for k, v in prow.items():
        x = out.get(k, 0) - fp * v
        if x:
            out[k] = x
        else:
            out.pop(k, None)
    return _normalise(out)


def _normalise(row: SparseRow) -> SparseRow:
    # divide by the gcd of the entries; the leading entry becomes positive
    if not row:
        return row
    g = math.gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {k: v // g for k, v in row.items()}


def integer_rref(
    rows, rhs_col: int, pivots: dict[int, SparseRow] | None = None
) -> dict[int, SparseRow] | None:
    """Exact sparse Gauss-Jordan over the integers; None if the system is inconsistent.

    A row is a dict ``{column: nonzero int}`` in which column ``rhs_col``
    (larger than every unknown's column) holds the right-hand side. The rows
    are reduced into ``pivots``, a map from pivot column to its row, which is
    copied and never modified, so one reduced prefix can seed many systems.
    The result is fully reduced: no row has an entry in another row's pivot
    column. Every combination is fraction-free and divided by the gcd of its
    entries (the exactness idea of Bareiss elimination), so dividing each row
    by its pivot gives the unique reduced row echelon form over the
    rationals. Returns None as soon as a row reduces to ``0 = b`` with
    ``b != 0``.
    """
    piv = dict(pivots) if pivots else {}
    for row in rows:
        for c in [c for c in row if c in piv]:
            # pivot rows are fully reduced, so this brings in no other pivot column
            row = _combine(row, piv[c], c)
        if not row:
            continue
        lead = min(row)
        if lead == rhs_col:
            return None
        row = _normalise(row)
        for pc, prow in list(piv.items()):
            if lead in prow:
                piv[pc] = _combine(prow, row, lead)
        piv[lead] = row
    return piv
