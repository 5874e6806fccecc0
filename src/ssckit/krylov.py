"""Controllable subspace of a pair (L, M) and the controllability/observability dual.

The subspace im(M) + L im(M) + L^2 im(M) + ... is built by one loop,
``_rounds``, over the integer Krylov columns ``D^k L^k M`` (D the lcm of L's
denominators; ``integer_pair`` clears them). It tests each column once
with ``linalg.independent_vectors``, over Q or over GF(``MODULUS``),
multiplies only the columns it keeps, and stops after a round that keeps
nothing (the span is then L-invariant, so later powers add nothing).
Independence mod p implies independence over Q, so the modular count is a
lower bound on the dimension. ``controllable_subspace`` runs the loop over Q
and divides the kept columns back into Fractions.

``controllable_dim`` reads only the dimension of an integer pair and takes a
certified upper bound u on it (nd always; d*k for a draw from a k-cell
equitable-partition system). When the modular rank reaches u the dimension
is proven with no rational arithmetic; otherwise the exact loop decides,
stopping at u too. Its "float" backend (the CLI's ``--backend float``) is
the modular rank alone, unchecked.

The observability matrix of (L, M) is the transpose of the Krylov matrix of
(L^T, M), so its rank is the dimension of the dual pair's span: the CLI reads
it as ``controllable_dim`` of L^T's integer rows (``graphs.laplacian_rows``
read from the edges, transposed sparsely), with ``support_bound`` (at most
nd: the coordinates the inputs reach) as the certified upper bound.
``observability_matrix`` is the definition, kept public for library callers
and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .graphs import BlockMatrix

MODULUS = linalg.MODULUS
BACKENDS = ("exact", "float")


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


def integer_pair(L: BlockMatrix, M: BlockMatrix):
    """``(L_int, M_cols, D, E)``: ``D L`` as sparse int rows and ``E M`` as dense int columns.

    ``D`` and ``E`` are the lcms of the denominators of L and of M; a sparse
    row is ``[(column, int), ...]`` over its nonzero entries. Positive scales
    change no span.
    """
    L_sparse = [[(c, x) for c, x in enumerate(row) if x] for row in L.entries]
    D = math.lcm(*(x.denominator for row in L_sparse for _, x in row))
    L_int = [[(c, x.numerator * (D // x.denominator)) for c, x in row] for row in L_sparse]
    E = math.lcm(*(x.denominator for row in M.entries for x in row))
    M_cols = [[x.numerator * (E // x.denominator) for x in col] for col in zip(*M.entries)]
    return L_int, M_cols, D, E


def _rounds(L_int, cols, limit: int, modulus: int | None = None):
    """The Krylov loop: yields, per round, the integer columns it keeps.

    ``L_int`` is the nd x nd integer matrix as sparse rows ``[(column, int),
    ...]`` and ``cols`` the first round's dense integer columns. Each round
    tests its columns, in order, with ``linalg.independent_vectors`` (over
    GF(``modulus``) when it is given, else over Q) against the pivots of
    every column kept before, and the next round is ``L_int`` times the
    columns kept. A dependent column's image lies in the span of the images
    of the columns before it, which are all tested earlier, so the kept
    columns are still the first independent columns of ``[M, L M, L^2 M,
    ...]``. With ``modulus`` the products are reduced mod it. Ends after a
    round that keeps nothing (the span is then invariant) or once ``limit``
    columns are kept; ``limit`` must be at least the span's dimension.
    """
    pivots: dict = {}
    while True:
        cols = [cols[j] for j in linalg.independent_vectors(cols, pivots, limit, modulus)]
        yield cols
        if not cols or len(pivots) >= limit:
            return
        if modulus is None:
            cols = [[sum([x * col[c] for c, x in row]) for row in L_int] for col in cols]
        else:
            cols = [[sum([x * col[c] for c, x in row]) % modulus for row in L_int] for col in cols]


def controllable_dim(L_int, cols, upper: int, backend: str = "exact") -> int:
    """dim <L|M> of an integer pair, given a certified upper bound ``upper`` on it.

    ``L_int`` is the nd x nd integer matrix as sparse rows ``[(column, int),
    ...]`` and ``cols`` the columns of the integer nd x m input matrix; any
    positive scale of either leaves the span unchanged. The rank of the
    Krylov matrix mod ``MODULUS`` is a lower bound on the dimension; when it
    reaches ``upper`` it is the dimension, proven without rational
    arithmetic. Otherwise the exact loop decides, stopping at ``upper`` as
    well. The "float" backend returns the mod-p rank with no exact check.
    ``upper`` must really bound the dimension (nd always does, and so does
    ``support_bound``; d*k does for a draw from a feasible k-cell system with
    leaders as singletons).
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown rank backend {backend!r}; expected one of {BACKENDS}")
    low = sum(map(len, _rounds(L_int, cols, upper, MODULUS)))
    if low >= upper or backend == "float":
        return low
    return sum(map(len, _rounds(L_int, cols, upper)))


def support_bound(L_int, cols) -> int:
    """A certified upper bound on dim <L|M>: the size of a coordinate subspace holding it.

    The coordinates reached from the nonzero entries of ``cols`` by following
    ``L_int`` (coordinate c reaches r when ``L[r][c] != 0``) span a subspace
    that contains im(M) and that L maps into itself, so it holds the whole
    Krylov span. For the dual pair of a graph these are the leaders and the
    nodes they reach along out-edges.
    """
    reaches: list[list[int]] = [[] for _ in L_int]
    for r, row in enumerate(L_int):
        for c, _ in row:
            reaches[c].append(r)
    seen = {r for col in cols for r, x in enumerate(col) if x}
    stack = list(seen)
    while stack:
        for r in reaches[stack.pop()]:
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return len(seen)


def controllable_subspace(L: BlockMatrix, M: BlockMatrix) -> ControllableSubspace:
    """Minimal L-invariant subspace containing im(M), as a basis of Krylov columns.

    The columns of M, L M, L^2 M, ... are tested in that order, each once,
    against the columns kept so far, and kept iff independent of them: the
    result is the lexicographically-first basis of the Krylov span. The loop
    ends after a round that keeps nothing (the span is then L-invariant) or
    once the kept columns span all of R^{nd}; every other round keeps a
    column, so there are at most nd rounds.

    The columns are carried as Python ints: with D the lcm of L's
    denominators and E that of M's, round k holds columns of the integer
    matrix E D^k L^k M, computed from ``D L`` as sparse int rows
    (``integer_pair``) by ``_rounds``, the loop ``controllable_dim`` runs too.
    A positive scale changes no independence, so only a kept column is
    divided back into Fractions. Callers that read only ``.dim`` of an
    integer pair with a known upper bound use ``controllable_dim`` instead.
    """
    _check_pair(L, M)
    nd = L.nrows
    L_int, cols, D, scale = integer_pair(L, M)
    kept: list[list[Fraction]] = []
    for cols in _rounds(L_int, cols, nd):
        kept.extend([Fraction(x, scale) for x in col] for col in cols)
        scale *= D
    basis_rows = tuple(tuple(col[r] for col in kept) for r in range(nd))
    return ControllableSubspace(basis_rows, len(kept))


def is_controllable(L: BlockMatrix, M: BlockMatrix) -> bool:
    """Kalman test: the pair is controllable iff the Krylov span fills all of R^{nd}."""
    return controllable_subspace(L, M).dim == L.nrows


def observability_matrix(L: BlockMatrix, M: BlockMatrix):
    """Row stack [M^T; M^T L; ...; M^T L^{nd-1}] whose rank is the observability rank.

    The definition, kept for library callers and tests; the CLI does not build it.
    """
    _check_pair(L, M)
    L_rows = L.to_lists()
    block = linalg.transpose(M.to_lists())
    rows = []
    for _ in range(L.nrows):
        rows.extend(list(r) for r in block)
        block = linalg.mat_mul(block, L_rows)
    return rows


def dual_pair(L: BlockMatrix, M: BlockMatrix) -> tuple[BlockMatrix, BlockMatrix]:
    """(L^T, M): controllability of this pair is observability of (L, M)."""
    _check_pair(L, M)
    return L.transpose(), M
