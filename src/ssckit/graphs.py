"""Matrix-weighted network model.

Nodes are 1-based. An undirected graph stores both directions of every edge,
tied together by the configured symmetry convention; a directed graph stores
exactly the declared arcs. Edge weights are d x d blocks of exact rationals,
and a stored edge never carries the all-zero block.

A :class:`WeightPattern` is the symbolic counterpart: the same topology with
one free d x d block per edge plus equality / fixed-value / sign constraints.
It is the object "for any choice of weight" quantifies over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .linalg import as_fraction, mat_mul

Block = tuple[tuple[Fraction, ...], ...]
Edge = tuple[int, int]

# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def block_from(data, d: int) -> Block:
    """Normalize a list of rows (or a bare scalar) into a d x d Fraction block."""
    if isinstance(data, (int, str, float, Fraction)):
        data = [[data]]
    if not (isinstance(data, (list, tuple)) and all([isinstance(r, (list, tuple)) for r in data])):
        raise ValueError("weight block must be a scalar or a list of rows")
    rows = tuple([tuple([Fraction(x) if type(x) is int else as_fraction(x) for x in row])
                  for row in data])
    if not rows or any([len(row) != len(rows) for row in rows]):
        raise ValueError("weight block must be square")
    if len(rows) != d:
        raise ValueError(f"weight block is {len(rows)}x{len(rows)}, expected {d}x{d}")
    return rows


def block_zeros(d: int) -> Block:
    return tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d))


def block_add(a: Block, b: Block) -> Block:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def block_transpose(a: Block) -> Block:
    return tuple(zip(*a))


def block_is_zero(a: Block) -> bool:
    return not any(map(any, a))


# ---------------------------------------------------------------------------
# block matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockMatrix:
    """Dense rational matrix with a (block_rows x block_cols) grid of d x d blocks."""

    block_rows: int
    block_cols: int
    d: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.block_rows * self.d:
            raise ValueError("entry row count does not match block_rows * d")
        if any(len(row) != self.block_cols * self.d for row in self.entries):
            raise ValueError("entry column count does not match block_cols * d")

    @property
    def nrows(self) -> int:
        return self.block_rows * self.d

    @property
    def ncols(self) -> int:
        return self.block_cols * self.d

    @classmethod
    def from_rows(cls, rows, block_rows: int, block_cols: int, d: int) -> "BlockMatrix":
        ent = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        return cls(block_rows, block_cols, d, ent)

    @classmethod
    def zeros(cls, block_rows: int, block_cols: int, d: int) -> "BlockMatrix":
        row = tuple(Fraction(0) for _ in range(block_cols * d))
        return cls(block_rows, block_cols, d, tuple(row for _ in range(block_rows * d)))

    @classmethod
    def identity(cls, block_count: int, d: int) -> "BlockMatrix":
        n = block_count * d
        ent = tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))
        return cls(block_count, block_count, d, ent)

    def block(self, bi: int, bj: int) -> Block:
        """The d x d block at 0-based block position (bi, bj)."""
        if not (0 <= bi < self.block_rows and 0 <= bj < self.block_cols):
            raise ValueError(f"block index ({bi}, {bj}) out of range")
        return tuple(
            tuple(self.entries[bi * self.d + p][bj * self.d + q] for q in range(self.d))
            for p in range(self.d)
        )

    def to_lists(self) -> list[list[Fraction]]:
        return [list(row) for row in self.entries]

    def transpose(self) -> "BlockMatrix":
        return BlockMatrix(self.block_cols, self.block_rows, self.d, tuple(zip(*self.entries)))

    def __matmul__(self, other: "BlockMatrix") -> "BlockMatrix":
        if self.d != other.d or self.block_cols != other.block_rows:
            raise ValueError("block dimension mismatch in matrix product")
        ent = tuple(tuple(row) for row in mat_mul(self.entries, other.entries))
        return BlockMatrix(self.block_rows, other.block_cols, self.d, ent)


# ---------------------------------------------------------------------------
# concrete graphs
# ---------------------------------------------------------------------------

def _validate_leaders(leaders: Iterable[int], n: int) -> tuple[int, ...]:
    leaders = tuple(int(l) for l in leaders)
    if not leaders:
        raise ValueError("leader set must be nonempty")
    if len(set(leaders)) != len(leaders):
        raise ValueError("leader set contains duplicates")
    for l in leaders:
        if not 1 <= l <= n:
            raise ValueError(f"leader index {l} out of range 1..{n}")
    return leaders


def _check_topology(obj, kind: str, edges: Iterable[Edge]) -> None:
    """Checks of a graph's or pattern's n, d, symmetry, leaders and ``edges``; ``kind`` names it."""
    n = obj.n
    if n < 1 or obj.d < 1:
        raise ValueError("n and d must be positive")
    if obj.directed:
        if obj.symmetry != "none":
            raise ValueError(f"directed {kind} use symmetry convention 'none'")
    elif obj.symmetry not in ("entrywise", "transpose"):
        raise ValueError(f"unknown symmetry convention {obj.symmetry!r}")
    _validate_leaders(obj.leaders, n)
    for (i, j) in edges:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge ({i},{j}) out of range 1..{n}")
        if i == j:
            raise ValueError(f"self-loop at node {i}")


def _mirrored(adjacency: dict[Edge, Block], directed: bool, symmetry: str) -> dict[Edge, Block]:
    """Add the mirror of each undirected edge given in one direction only, in place.

    An edge given in both directions is left to the graph's check of the convention.
    """
    if not directed:
        for (i, j), blk in list(adjacency.items()):
            if (j, i) not in adjacency:
                adjacency[(j, i)] = blk if symmetry == "entrywise" else block_transpose(blk)
    return adjacency


@dataclass(frozen=True)
class MatrixWeightedGraph:
    n: int
    d: int
    directed: bool
    adjacency: dict[Edge, Block]
    leaders: tuple[int, ...]
    symmetry: str = "entrywise"

    def __post_init__(self):
        _check_topology(self, "graphs", self.adjacency)
        for (i, j), blk in self.adjacency.items():
            if len(blk) != self.d:
                raise ValueError(f"edge ({i},{j}) weight is not {self.d}x{self.d}")
            if block_is_zero(blk):
                raise ValueError(f"edge ({i},{j}) carries the all-zero weight")
        if not self.directed:
            for (i, j), blk in self.adjacency.items():
                mirror = self.adjacency.get((j, i))
                expected = blk if self.symmetry == "entrywise" else block_transpose(blk)
                if mirror is None:
                    raise ValueError(f"undirected edge ({i},{j}) is missing its mirror")
                if mirror != expected:
                    raise ValueError(
                        f"edges ({i},{j}) and ({j},{i}) violate the {self.symmetry} convention"
                    )

    @classmethod
    def create(
        cls,
        n: int,
        d: int,
        edges: Mapping[Edge, object],
        leaders: Iterable[int],
        directed: bool = False,
        symmetry: str | None = None,
    ) -> "MatrixWeightedGraph":
        """Build a graph from any block-like weights, mirroring undirected edges."""
        if symmetry is None:
            symmetry = "none" if directed else "entrywise"
        adjacency = {(int(i), int(j)): block_from(w, d) for (i, j), w in edges.items()}
        return cls(n, d, directed, _mirrored(adjacency, directed, symmetry),
                   tuple(leaders), symmetry)


def cell_sums(g: MatrixWeightedGraph, cells) -> dict[int, dict[int, Block]]:
    """``{node: {cell index: block sum}}`` over 0-based indices into ``cells``, in one edge pass.

    Node i's entry for a cell sums A_ij over the j in it: the out-sum, or row,
    condition L P = P Q that every equitable-partition test here reads. A cell
    the node has no edge into is absent (cancelling edges leave a zero block);
    edges into no cell are left out.
    """
    cell_of = {v: idx for idx, cell in enumerate(cells) for v in cell}
    sums: dict[int, dict[int, Block]] = {}
    for (i, j), blk in g.adjacency.items():
        idx = cell_of.get(j)
        if idx is not None:
            row = sums.setdefault(i, {})
            row[idx] = block_add(row[idx], blk) if idx in row else blk
    return sums


def degree(g: MatrixWeightedGraph, i: int) -> Block:
    """Block sum of the weights from node i to its (out-)neighbors."""
    return cell_degree(g, i, range(1, g.n + 1))


def cell_degree(g: MatrixWeightedGraph, i: int, cell: Iterable[int]) -> Block:
    """Block sum of the weights from node i to the nodes of ``cell``, as in ``cell_sums``."""
    if not 1 <= i <= g.n:
        raise ValueError(f"node index {i} out of range 1..{g.n}")
    members = set(cell)
    for j in members:
        if not 1 <= j <= g.n:
            raise ValueError(f"node index {j} out of range 1..{g.n}")
    return cell_sums(g, [members]).get(i, {}).get(0, block_zeros(g.d))


def integer_edges(n: int, d: int, adjacency: Mapping[Edge, Block]):
    """``(den, out, values)``: the edge blocks of 1-based ``{(i, j): block}`` as integers.

    ``values`` holds every block entry scaled by ``den``, the lcm of their
    denominators; ``out[r]`` lists ``(t, cols)`` per edge (r, t), with
    A_rt[p][q] at ``values[cols[p*d + q]]``, the form ``laplacian_rows`` reads.
    """
    entries = [x for blk in adjacency.values() for row in blk for x in row]
    den = math.lcm(*{x.denominator for x in entries})
    values = [x.numerator * (den // x.denominator) for x in entries]
    out: dict[int, list] = {v: [] for v in range(1, n + 1)}
    size = d * d
    for k, (i, j) in enumerate(adjacency):
        out[i].append((j, range(k * size, (k + 1) * size)))
    return den, out, values


def laplacian_rows(n: int, d: int, out, values) -> list[list[tuple[int, int]]]:
    """L = D - A as sparse integer rows, over the edges ``out`` and entries ``values``.

    ``out[r]`` lists ``(t, cols)`` per edge (r, t), with A_rt[p][q] at
    ``values[cols[p*d + q]]``. Row ``(r-1)*d + p`` holds ``[(column, int), ...]``:
    the degree block of node r (the sum of its edge blocks) on the diagonal
    and ``-A_rt`` at each neighbour t, so every block row sums to zero. This is
    the one place the sign and degree convention of the Laplacian is written.
    Neighbour entries accumulate, so an ``out`` read through a cell map (one
    representative node per cell, t its neighbour's cell) gives the quotient
    Laplacian: neighbours sharing a cell add up, and one in r's own cell
    cancels against the degree. On a simple graph nothing is merged.
    """
    rows = []
    for r in range(1, n + 1):
        base = (r - 1) * d
        for p in range(d):
            row: dict[int, int] = {}
            for t, cols in out[r]:
                off = (t - 1) * d
                for q in range(d):
                    x = values[cols[p * d + q]]
                    if x:
                        row[base + q] = row.get(base + q, 0) + x
                        row[off + q] = row.get(off + q, 0) - x
            rows.append([(c, x) for c, x in row.items() if x])
    return rows


def laplacian_of(n: int, d: int, adjacency: Mapping[Edge, Block]) -> BlockMatrix:
    """``laplacian_rows`` of 1-based ``{(i, j): block}`` as a dense Fraction matrix."""
    den, out, values = integer_edges(n, d, adjacency)
    rows = [[Fraction(0)] * (n * d) for _ in range(n * d)]
    for row, sparse in zip(rows, laplacian_rows(n, d, out, values)):
        for c, x in sparse:
            row[c] = Fraction(x, den)
    return BlockMatrix(n, n, d, tuple(tuple(row) for row in rows))


def build_laplacian(g: MatrixWeightedGraph) -> BlockMatrix:
    """L = D - A with block diagonal D of (signed) degrees; block rows sum to zero."""
    return laplacian_of(g.n, g.d, g.adjacency)


def build_input_matrix(leaders: Iterable[int], n: int, d: int) -> BlockMatrix:
    """nd x md indicator matrix: the l-th block column is identity at leader l's block row."""
    leaders = _validate_leaders(leaders, n)
    m = len(leaders)
    rows = [[Fraction(0)] * (m * d) for _ in range(n * d)]
    for col, l in enumerate(leaders):
        for p in range(d):
            rows[(l - 1) * d + p][col * d + p] = Fraction(1)
    return BlockMatrix(n, m, d, tuple(tuple(row) for row in rows))


# ---------------------------------------------------------------------------
# weight patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EqualConstraint:
    left: str
    right: str

    kind = "equal"


@dataclass(frozen=True)
class FixedConstraint:
    var: str
    value: Block

    kind = "fixed"


@dataclass(frozen=True)
class SignConstraint:
    var: str
    sign: str  # "+" all entries >= 0, "-" all entries <= 0

    kind = "sign"


Constraint = Union[EqualConstraint, FixedConstraint, SignConstraint]


def default_variable_name(i: int, j: int) -> str:
    """Name of the variable on edge (i, j) when the document gives none."""
    return f"w{i}_{j}"


def _constraint_sort_key(c: Constraint):
    if isinstance(c, EqualConstraint):
        return (0, c.left, c.right)
    if isinstance(c, FixedConstraint):
        return (1, c.var, "")
    return (2, c.var, c.sign)


@dataclass(frozen=True)
class WeightPattern:
    """Fixed topology with one symbolic d x d block per edge plus constraints."""

    n: int
    d: int
    directed: bool
    leaders: tuple[int, ...]
    edges: tuple[Edge, ...]
    variable_names: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    symmetry: str = "entrywise"
    # each variable's sign constraint, None where it has none; set by __post_init__
    signs: tuple[str | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_topology(self, "patterns", self.edges)
        seen: set[Edge] = set()
        for (i, j) in self.edges:
            if not self.directed and i > j:
                raise ValueError(f"undirected pattern edge ({i},{j}) must be stored as ({j},{i})")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
        if len(self.variable_names) != len(self.edges):
            raise ValueError("one variable name per edge required")
        if len(set(self.variable_names)) != len(self.variable_names):
            raise ValueError("variable names must be unique")
        names = set(self.variable_names)
        signs: dict[str, str] = {}
        for c in self.constraints:
            if isinstance(c, EqualConstraint):
                missing = {c.left, c.right} - names
            elif isinstance(c, FixedConstraint):
                missing = {c.var} - names
                if len(c.value) != self.d:
                    raise ValueError(f"fixed value for {c.var} is not {self.d}x{self.d}")
                if block_is_zero(c.value):
                    raise ValueError(f"fixed value for {c.var} is the all-zero block")
            elif isinstance(c, SignConstraint):
                missing = {c.var} - names
                if c.sign not in ("+", "-"):
                    raise ValueError(f"sign constraint on {c.var} must be '+' or '-'")
            else:
                raise ValueError(f"unknown constraint {c!r}")
            if missing:
                raise ValueError(f"constraint references undeclared variable(s) {sorted(missing)}")
            if isinstance(c, SignConstraint) and signs.setdefault(c.var, c.sign) != c.sign:
                raise ValueError(f"conflicting sign constraints on {c.var}: '+' and '-'")
        object.__setattr__(self, "signs", tuple(signs.get(v) for v in self.variable_names))

    @classmethod
    def create(
        cls,
        n: int,
        d: int,
        edges: Iterable[Edge],
        leaders: Iterable[int],
        directed: bool = False,
        symmetry: str | None = None,
        variable_names: Mapping[Edge, str] | None = None,
        constraints: Iterable[Constraint] = (),
    ) -> "WeightPattern":
        if symmetry is None:
            symmetry = "none" if directed else "entrywise"
        norm: list[Edge] = []
        for (i, j) in edges:
            i, j = int(i), int(j)
            if not directed and i > j:
                i, j = j, i
            norm.append((i, j))
        norm.sort()
        names = []
        given = dict(variable_names or {})
        if not directed:
            given = {((min(i, j), max(i, j))): v for (i, j), v in given.items()}
        for e in norm:
            names.append(given.get(e, default_variable_name(*e)))
        cons = tuple(sorted(constraints, key=_constraint_sort_key))
        return cls(n, d, directed, tuple(leaders), tuple(norm), tuple(names), cons, symmetry)

    @property
    def followers(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if v not in self.leaders)

    @property
    def unknown_count(self) -> int:
        return len(self.edges) * self.d * self.d

    def variable_index(self, name: str) -> int:
        try:
            return self.variable_names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    def variable_column(self, name: str, p: int, q: int) -> int:
        """Unknown-vector column of entry (p, q) of a variable's block."""
        return self.variable_index(name) * self.d * self.d + p * self.d + q

    def entry_column(self, i: int, j: int, p: int, q: int) -> int | None:
        """Unknown-vector column storing A_ij[p][q], or None if (i, j) is not an edge.

        For undirected patterns the reverse orientation resolves to the same
        variable, with indices transposed under the 'transpose' convention.
        """
        if self.directed:
            if (i, j) not in self.edges:
                return None
            idx = self.edges.index((i, j))
            return idx * self.d * self.d + p * self.d + q
        key = (min(i, j), max(i, j))
        if key not in self.edges:
            return None
        idx = self.edges.index(key)
        if i > j and self.symmetry == "transpose":
            p, q = q, p
        return idx * self.d * self.d + p * self.d + q

    def sign_of(self, name: str) -> str | None:
        return dict(zip(self.variable_names, self.signs)).get(name)

    def materialize(self, assignment: Mapping[str, Block]) -> MatrixWeightedGraph:
        """Instantiate the pattern with concrete blocks, one per variable."""
        missing = set(self.variable_names) - set(assignment)
        if missing:
            raise ValueError(f"assignment missing variable(s) {sorted(missing)}")
        edges = {e: assignment[name] for e, name in zip(self.edges, self.variable_names)}
        return MatrixWeightedGraph.create(
            self.n, self.d, edges, self.leaders,
            directed=self.directed, symmetry=self.symmetry,
        )
