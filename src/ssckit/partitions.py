"""Partitions, equitable-partition verification and refinement, quotient graphs.

A partition is a list of disjoint nonempty cells covering 1..n, kept in
canonical form: cells ordered by smallest member, members ascending. A
partition is equitable when any two nodes of one cell have equal block
out-sums (A_ij summed over the j of a cell) into every cell: the row
condition L P = P Q of Laplacian dynamics. There is no in-sum variant; an
in-sum EP of a digraph need not be L^T-invariant, and ``dual`` analyses the
pair (L^T, M) by Krylov ranks instead. The quotient graph carries the sums as
directed block weights, and its Laplacian satisfies the exact lift identity
L P = P L_q certified by verify_lift. The EP test and the quotient read every
block sum from one ``graphs.cell_sums`` table, one pass over the edges per
call. The refinement reads the edges once, as ``graphs.integer_edges``, and
then sums only the edges into each splitter cell it takes from its worklist.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    Block,
    BlockMatrix,
    MatrixWeightedGraph,
    block_is_zero,
    block_zeros,
    cell_sums,
    integer_edges,
    laplacian_of,
)


class InvalidPartitionError(ValueError):
    pass


class NotEquitableError(ValueError):
    pass


@dataclass(frozen=True)
class Partition:
    """Cells in canonical order (sorted by least member, members ascending)."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # repeats are kept, so the check below reports them
        canon = tuple(sorted(tuple(sorted(int(v) for v in cell)) for cell in self.cells))
        object.__setattr__(self, "cells", canon)
        seen: set[int] = set()
        for cell in canon:
            if not cell:
                raise InvalidPartitionError("empty cell")
            for v in cell:
                if v < 1:
                    raise InvalidPartitionError(f"node index {v} must be >= 1")
                if v in seen:
                    where = "twice in one cell" if cell.count(v) > 1 else "in two cells"
                    raise InvalidPartitionError(f"node {v} appears {where}")
                seen.add(v)

    @property
    def k(self) -> int:
        return len(self.cells)

    def to_lists(self) -> list[list[int]]:
        return [list(cell) for cell in self.cells]


def partition_of(cells, n: int) -> Partition:
    """Validate and canonicalize cells as a partition of 1..n."""
    pi = Partition(tuple(tuple(c) for c in cells))
    nodes, want = {v for cell in pi.cells for v in cell}, set(range(1, n + 1))
    if nodes != want:
        missing = want - nodes
        extra = nodes - want
        detail = []
        if missing:
            detail.append(f"missing nodes {sorted(missing)}")
        if extra:
            detail.append(f"unknown nodes {sorted(extra)}")
        raise InvalidPartitionError("not a partition of 1..%d (%s)" % (n, "; ".join(detail)))
    return pi


def characteristic_matrix(pi: Partition, n: int, d: int) -> BlockMatrix:
    """nd x kd block 0/I matrix with the identity at (node, its cell)."""
    pi = partition_of(pi.cells, n)
    k = pi.k
    rows = [[Fraction(0)] * (k * d) for _ in range(n * d)]
    for col, cell in enumerate(pi.cells):
        for v in cell:
            for p in range(d):
                rows[(v - 1) * d + p][col * d + p] = Fraction(1)
    return BlockMatrix(n, k, d, tuple(tuple(row) for row in rows))


@dataclass(frozen=True)
class EPViolation:
    cell: int          # 1-based index of the cell holding the unequal pair
    r: int
    s: int
    target_cell: int   # 1-based index of the cell the sums point into
    sum_r: Block
    sum_s: Block


@dataclass(frozen=True)
class EPReport:
    verdict: bool
    violations: tuple[EPViolation, ...]


def _violations(pi: Partition, sums, d: int, include_same_cell: bool = True):
    """Each violating tuple of the cell-sum table ``sums`` of ``pi``, in report order.

    A cell whose nodes all have the nonzero sums of its first node, over the
    targets the pairs compare, has no violating pair and is skipped; only the
    other cells are read pair by pair, so an equitable cell costs one pass.
    """
    zero = block_zeros(d)
    for ci, cell in enumerate(pi.cells, start=1):
        own = None if include_same_cell else ci - 1

        def compared(v):
            return {c: blk for c, blk in sums.get(v, {}).items() if c != own and blk != zero}

        first = compared(cell[0])
        if all(compared(v) == first for v in cell[1:]):
            continue
        for r, s in itertools.combinations(cell, 2):
            for cj in range(1, pi.k + 1):
                if not include_same_cell and cj == ci:
                    continue
                sum_r = sums.get(r, {}).get(cj - 1, zero)
                sum_s = sums.get(s, {}).get(cj - 1, zero)
                if sum_r != sum_s:
                    yield EPViolation(ci, r, s, cj, sum_r, sum_s)


def verify_equitable(g: MatrixWeightedGraph, pi: Partition,
                     include_same_cell: bool = True) -> EPReport:
    """Check the equitable-partition condition, enumerating every violating tuple."""
    pi = partition_of(pi.cells, g.n)
    violations = tuple(_violations(pi, cell_sums(g, pi.cells), g.d, include_same_cell))
    return EPReport(not violations, violations)


def coarsest_ep(g: MatrixWeightedGraph, protected=()) -> Partition:
    """Coarsest equitable partition keeping each protected node in a singleton cell.

    Splitter worklist over the integer edge table (Paige & Tarjan 1987, in the
    weighted form of Valmari & Franceschinis 2010). A popped cell S gives each
    node with an edge into it its block out-sum into S (a sum that cancels to
    zero counts as no edge), and every cell holding such a node splits by those
    sums. The largest part keeps the old cell's id, and its place in the queue;
    every other part is queued. A cell left out of the queue needs no pass:
    the nodes of any cell have equal sums into the old cell, so equal sums into
    the queued parts leave equal sums into the largest one. A queued part is
    at most half its old cell, so each node is summed over O(log n) times and
    the work is O(m log n).
    """
    protected = sorted(set(int(v) for v in protected))
    for v in protected:
        if not 1 <= v <= g.n:
            raise ValueError(f"protected node {v} out of range 1..{g.n}")
    rest = set(range(1, g.n + 1)).difference(protected)
    cells: list[set[int]] = [{v} for v in protected] + ([rest] if rest else [])
    cell_of = {v: c for c, cell in enumerate(cells) for v in cell}
    # into[t] lists (r, A_rt as a tuple of integers over a common denominator)
    _, out, values = integer_edges(g.n, g.d, g.adjacency)
    into: dict[int, list] = {v: [] for v in range(1, g.n + 1)}
    for r, edges in out.items():
        for t, cols in edges:
            into[t].append((r, tuple([values[c] for c in cols])))
    queue = list(range(len(cells)))
    while queue and len(cells) < g.n:  # all singletons: nothing left to split
        s = queue.pop()
        sums: dict[int, tuple] = {}
        for t in cells[s]:
            for r, blk in into[t]:
                acc = sums.get(r)
                sums[r] = blk if acc is None else tuple([a + b for a, b in zip(acc, blk)])
        touched: dict[int, dict[tuple, list[int]]] = {}
        for r, acc in sums.items():
            if any(acc):
                touched.setdefault(cell_of[r], {}).setdefault(acc, []).append(r)
        for c, groups in touched.items():
            cell = cells[c]
            parts = list(groups.values())
            unmoved = len(cell) - sum(map(len, parts))  # nodes with no sum into S
            if not unmoved and len(parts) == 1:
                continue
            largest = max(parts, key=len)
            if unmoved >= len(largest):
                # the unmoved nodes keep the cell, and are never scanned
                for part in parts:
                    cell.difference_update(part)
            else:
                parts.remove(largest)  # the parts are disjoint: only itself is equal
                cells[c] = set(largest)
                if unmoved:  # fewer than the moved nodes, so the scan is cheap
                    moved = set().union(*groups.values())
                    parts.append([v for v in cell if v not in moved])
            for part in parts:
                idx = len(cells)
                cells.append(set(part))
                for v in part:
                    cell_of[v] = idx
                queue.append(idx)
    return Partition(tuple(tuple(cell) for cell in cells))


@dataclass(frozen=True)
class QuotientGraph:
    """Cells as nodes; directed block weights d(V_i, V_j); no self-loops."""

    cells: tuple[tuple[int, ...], ...]
    d: int
    adjacency: dict[tuple[int, int], Block]  # 1-based cell indices

    @property
    def k(self) -> int:
        return len(self.cells)


def quotient(g: MatrixWeightedGraph, pi: Partition) -> QuotientGraph:
    """Quotient graph over an equitable partition; refuses non-equitable input."""
    pi = partition_of(pi.cells, g.n)
    sums = cell_sums(g, pi.cells)
    v = next(_violations(pi, sums, g.d), None)
    if v is not None:
        raise NotEquitableError(
            f"partition is not equitable: nodes {v.r} and {v.s} of cell {v.cell} "
            f"have unequal sums into cell {v.target_cell}"
        )
    adjacency: dict[tuple[int, int], Block] = {}
    for i, cell in enumerate(pi.cells):
        for j, w in sorted(sums.get(cell[0], {}).items()):
            if j != i and not block_is_zero(w):
                adjacency[(i + 1, j + 1)] = w
    return QuotientGraph(pi.cells, g.d, adjacency)


def quotient_laplacian(q: QuotientGraph) -> BlockMatrix:
    """Laplacian of the quotient: diagonal (i,i) sums d(V_i, V_j) over the other cells."""
    return laplacian_of(q.k, q.d, q.adjacency)


def verify_lift(L: BlockMatrix, P: BlockMatrix, Lq: BlockMatrix) -> bool:
    """Certify L P = P Lq exactly, and with it that im(P) is L-invariant."""
    if L.d != P.d or P.d != Lq.d:
        raise ValueError("block dimension mismatch")
    if L.block_rows != L.block_cols or Lq.block_rows != Lq.block_cols:
        raise ValueError("L and Lq must be square")
    if L.block_cols != P.block_rows or P.block_cols != Lq.block_rows:
        raise ValueError("L, P, Lq are not conformable")
    # every column of L P = P Lq lies in im(P), so no rank test is needed
    return (L @ P).entries == (P @ Lq).entries
