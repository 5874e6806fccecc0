"""Exact linear algebra over rationals for small matrices.

Dense matrices are lists of rows of ``fractions.Fraction``. There are two
elimination routines, both on denominator-cleared integers.
``integer_rref`` reduces an EP constraint system, given as ``{column: int}``
rows, to fully reduced form (Gauss-Jordan, one ``_add_row`` per row). Weight
draws read the integer rows as they are; ``solve_affine`` reads the Fraction
solutions off them for library code and tests. ``independent_vectors``
answers every rank and independence question (``rank``,
``independent_columns``, the Krylov span) on dense integer vectors
(``integer_vector`` clears a Fraction vector's denominators), pivoting on
each vector's last nonzero coordinate. ``rank`` and ``independent_columns``
work over the rationals. ``krylov.controllable_dim`` also works over
GF(``MODULUS``): never above the rank over the rationals and equal to it
unless the prime divides some minor.
"""

from __future__ import annotations

import math
from decimal import Decimal, InvalidOperation
from fractions import Fraction

Matrix = list[list[Fraction]]
SparseRow = dict[int, int]  # column -> nonzero integer entry

MODULUS = (1 << 61) - 1  # the Mersenne prime 2^61 - 1


def as_fraction(value) -> Fraction:
    """Convert int, "p/q" string, float, or Fraction to an exact Fraction.

    Floats are read through their decimal repr, so 0.1 becomes 1/10 rather
    than the binary expansion.
    """
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, bool):
        raise ValueError("boolean is not a scalar weight")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        try:
            return Fraction(Decimal(repr(value)))
        except (InvalidOperation, OverflowError) as exc:  # inf overflows
            raise ValueError(f"cannot convert {value!r} to a rational") from exc
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid rational literal {value!r}") from exc
    raise ValueError(f"cannot interpret {value!r} as a rational scalar")


def transpose(m) -> Matrix:
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a, b) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"dimension mismatch: {len(a[0])} vs {len(b)}")
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def integer_vector(vec) -> list[int]:
    """A rational vector as dense integers, scaled by the lcm of its denominators."""
    den = math.lcm(*(x.denominator for x in vec))
    return [x.numerator * (den // x.denominator) for x in vec]


def rank(m) -> int:
    width = len(m[0]) if m else 0
    return len(independent_vectors(map(integer_vector, m), {}, width))


def independent_columns(m) -> list[int]:
    """Indices of a lexicographically-first maximal independent column set of ``m``.

    Each column is kept iff it is independent of the columns kept before it.
    """
    return independent_vectors(map(integer_vector, zip(*m)), {}, len(m))


def independent_vectors(
    vectors, piv: dict[int, list[int]], limit: int, modulus: int | None = None
) -> list[int]:
    """Indices of the integer vectors independent of the ones before them.

    Independence is over the rationals, or over GF(``modulus``) when it is
    given; a set independent mod p is independent over the rationals, so the
    modular count is a lower bound on the rational rank. Each vector is a
    dense list of integers. ``piv`` maps a lead column, a row's *last*
    nonzero coordinate, to a row stored up to its lead: monic mod p, divided
    by its content over Q. It carries the vectors kept by earlier calls and
    is extended in place. A vector is reduced only while its lead is a
    pivot, so a Krylov column that reaches one coordinate further than the
    columns before it is kept without touching them. Over Q each reduction is
    fraction-free and divided by the gcd of the result (Bareiss); mod p the
    entries stay congruent and are reduced when read. Scanning stops once
    ``piv`` holds ``limit`` rows; ``limit`` at the vectors' length stops
    nothing early.
    """
    keep = []
    for j, vec in enumerate(vectors):
        if len(piv) >= limit:
            break
        v = list(vec)
        while v:
            f = v[-1] if modulus is None else v[-1] % modulus
            if not f:
                v.pop()
            elif (row := piv.get(len(v) - 1)) is None:
                if modulus is None:
                    g = math.gcd(*v)
                    piv[len(v) - 1] = [x // g for x in v]
                else:
                    inv = pow(f, -1, modulus)
                    piv[len(v) - 1] = [x * inv % modulus for x in v]
                keep.append(j)
                break
            elif modulus is None:
                g = math.gcd(f, row[-1])
                fv, fr = row[-1] // g, f // g
                v = [fv * a - fr * b for a, b in zip(v, row)]
                g = math.gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
            else:
                v = [a - f * b for a, b in zip(v, row)]
    return keep


def solve_affine(pivots: dict[int, SparseRow], ncols: int) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Solutions of a consistent system reduced by ``integer_rref``: (particular, basis).

    The unknowns are columns ``0 .. ncols-1`` and column ``ncols`` is the
    right-hand side. Dividing each row by its pivot gives the reduced row
    echelon form, so the solutions are ``particular`` plus the span of
    ``basis`` (one vector per free column), exactly as Gauss-Jordan over
    Fraction gives them.
    """
    particular = [Fraction(0)] * ncols
    free = [c for c in range(ncols) if c not in pivots]
    slot = {f: i for i, f in enumerate(free)}
    basis = [[Fraction(0)] * ncols for _ in free]
    for i, f in enumerate(free):
        basis[i][f] = Fraction(1)
    for pc, row in pivots.items():
        for c, x in row.items():
            if c == ncols:
                particular[pc] = Fraction(x, row[pc])
            elif c != pc:
                basis[slot[c]][pc] = Fraction(-x, row[pc])
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


def _add_row(piv: dict[int, SparseRow], row: SparseRow) -> int | None:
    """Reduce ``row`` into the fully reduced ``piv`` (Gauss-Jordan); its lead column, or None.

    The row is cleared at every pivot column and each earlier row at the new
    lead; None if the row vanishes.
    """
    for c in [c for c in row if c in piv]:
        # pivot rows are fully reduced, so this brings in no other pivot column
        row = _combine(row, piv[c], c)
    if not row:
        return None
    lead = min(row)
    row = _normalise(row)
    for pc, prow in list(piv.items()):
        if lead in prow:
            piv[pc] = _combine(prow, row, lead)
    piv[lead] = row
    return lead


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
        if _add_row(piv, row) == rhs_col:
            return None
    return piv
