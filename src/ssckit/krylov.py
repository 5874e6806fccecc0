"""Controllable subspace of a pair (L, M) and the controllability/observability dual.

The subspace im(M) + L im(M) + L^2 im(M) + ... is built in one pass over the
Krylov columns: each round's columns go once through
``linalg.independent_columns``, which tests them against an echelon pivot map
carried across rounds, and the iteration stops after the first round that adds
no pivot (the span is then L-invariant, so later powers add nothing). The
columns are carried as integers, ``D^k L^k M`` for D the lcm of L's
denominators, and divided back into Fractions only when kept. The "float"
backend runs the same loop with an SVD rank of the kept Fraction columns as
its independence test, trading certification for speed on larger exploratory
runs.

The observability matrix of (L, M) is the transpose of the Krylov matrix of
(L^T, M), so its rank is ``controllable_subspace(L^T, M).dim``, which is how
the CLI reads it; ``observability_matrix`` is the definition, kept for
library callers and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .graphs import BlockMatrix


@dataclass(frozen=True)
class ControllableSubspace:
    """Basis columns (stored row-major, nd x dim) spanning <L|M>."""

    basis: tuple[tuple[Fraction, ...], ...]
    dim: int


def _check_pair(L: BlockMatrix, M: BlockMatrix):
    if L.block_rows != L.block_cols:
        raise ValueError("L must be square")
    if L.d != M.d or L.block_rows != M.block_rows:
        raise ValueError("L and M have mismatched dimensions")


def controllable_subspace(L: BlockMatrix, M: BlockMatrix, backend: str = "exact") -> ControllableSubspace:
    """Minimal L-invariant subspace containing im(M), as a basis of Krylov columns.

    The columns of M, L M, L^2 M, ... are tested in that order, each once,
    against the columns kept so far, and kept iff independent of them: the
    result is the lexicographically-first basis of the Krylov span. The loop
    ends after a round that keeps nothing (the span is then L-invariant) or
    once the kept columns span all of R^{nd}; every other round keeps a
    column, so there are at most nd rounds.

    The columns are carried as Python ints: with D the lcm of L's
    denominators and E that of M's, round k holds the integer matrix
    E D^k L^k M, computed from ``D L`` as sparse int rows. A positive scale
    changes no independence, so only a kept column is divided back into
    Fractions; the float backend tests that Fraction column by SVD rank.
    """
    _check_pair(L, M)
    nd = L.nrows
    L_sparse = [[(c, x) for c, x in enumerate(row) if x] for row in L.entries]
    D = math.lcm(*(x.denominator for row in L_sparse for _, x in row))
    L_int = [[(c, x.numerator * (D // x.denominator)) for c, x in row] for row in L_sparse]
    scale = math.lcm(*(x.denominator for row in M.entries for x in row))
    # this round's Krylov columns times scale, nd x m
    block = [[x.numerator * (scale // x.denominator) for x in row] for row in M.entries]
    kept: list[list[Fraction]] = []
    pivots: dict[int, linalg.SparseRow] = {}  # echelon map of the kept columns
    while True:
        before = len(kept)
        if backend == "exact":
            for j in linalg.independent_columns(block, pivots):
                kept.append([Fraction(row[j], scale) for row in block])
        else:
            for col in zip(*block):
                col = [Fraction(x, scale) for x in col]
                if len(kept) < nd and linalg.rank(kept + [col], backend) > len(kept):
                    kept.append(col)
        if len(kept) in (before, nd):
            break
        block = [
            [sum(x * block[c][j] for c, x in row) for j in range(len(block[0]))]
            for row in L_int
        ]
        scale *= D
    basis_rows = tuple(tuple(col[r] for col in kept) for r in range(nd))
    return ControllableSubspace(basis_rows, len(kept))


def is_controllable(L: BlockMatrix, M: BlockMatrix, backend: str = "exact") -> bool:
    """Kalman test: the pair is controllable iff the Krylov span fills all of R^{nd}."""
    return controllable_subspace(L, M, backend).dim == L.nrows


def observability_matrix(L: BlockMatrix, M: BlockMatrix, powers: int | None = None):
    """Row stack [M^T; M^T L; ...; M^T L^{p-1}] whose rank is the observability rank.

    The definition, kept for library callers and tests; the CLI does not build it.
    """
    _check_pair(L, M)
    if powers is None:
        powers = L.nrows
    L_rows = L.to_lists()
    block = linalg.transpose(M.to_lists())
    rows = []
    for _ in range(powers):
        rows.extend(list(r) for r in block)
        block = linalg.mat_mul(block, L_rows)
    return rows


def dual_pair(L: BlockMatrix, M: BlockMatrix) -> tuple[BlockMatrix, BlockMatrix]:
    """(L^T, M): controllability of this pair is observability of (L, M)."""
    _check_pair(L, M)
    return L.transpose(), M


def shifted(L: BlockMatrix, alpha: Fraction) -> BlockMatrix:
    """L + alpha I; shares the controllable subspace of L for every alpha."""
    ent = tuple(
        tuple(x + alpha if r == c else x for c, x in enumerate(row))
        for r, row in enumerate(L.entries)
    )
    return BlockMatrix(L.block_rows, L.block_cols, L.d, ent)


def negated(L: BlockMatrix) -> BlockMatrix:
    ent = tuple(tuple(-x for x in row) for row in L.entries)
    return BlockMatrix(L.block_rows, L.block_cols, L.d, ent)


def spans_equal(basis_a, basis_b) -> bool:
    """Mutual-containment test by exact ranks of stacked bases (row-major inputs)."""
    a = [list(r) for r in basis_a]
    b = [list(r) for r in basis_b]
    if not a and not b:
        return True
    ra = linalg.rank(a)
    rb = linalg.rank(b)
    if ra != rb:
        return False
    return linalg.rank(linalg.hstack(a, b)) == ra
