"""Shared builders and independent oracles for the test suite.

Oracles deliberately avoid the library's own code paths where they check one:
ranks go through sympy, partition enumeration through sympy's
multiset_partitions, and the materialized controllability matrix is built by
a plain power loop.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.utilities.iterables import multiset_partitions

from ssckit import linalg
from ssckit.graphs import (
    BlockMatrix,
    EqualConstraint,
    FixedConstraint,
    MatrixWeightedGraph,
    SignConstraint,
    WeightPattern,
    block_add,
    block_is_zero,
    block_zeros,
    build_laplacian,
)
from ssckit.partitions import (
    EPReport,
    EPViolation,
    NotEquitableError,
    Partition,
    QuotientGraph,
    partition_of,
    verify_equitable,
)
from ssckit.ssc import (
    REJECTION_BUDGET,
    SAMPLE_RANGE,
    WIDENED_RANGE,
    ReversalReport,
    _ep_rows,
    _forced_zero,
    ep_constraint_system,
    resolve_mode,
)


def benchmark_workloads():
    """``benchmark/workloads.py``, which builds the benchmark decks and imports nothing from ssckit."""
    # loaded under its own name, so no other module called ``workloads`` is shadowed
    name = "benchmark_workloads"
    path = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules.setdefault(name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def rand_block(rng: random.Random, d: int, lo=-4, hi=4, max_den=1):
    """A nonzero d x d block; entries over denominators up to ``max_den``."""
    while True:
        blk = tuple(
            tuple(
                Fraction(rng.randint(lo, hi), rng.randint(1, max_den) if max_den > 1 else 1)
                for _ in range(d)
            )
            for _ in range(d)
        )
        if not block_is_zero(blk):
            return blk


def random_graph(
    rng: random.Random,
    n: int,
    d: int = 1,
    directed: bool = False,
    density: float = 0.5,
    leaders=None,
    symmetric_blocks: bool = False,
    max_den: int = 1,
) -> MatrixWeightedGraph:
    edges = {}
    pairs = (
        itertools.permutations(range(1, n + 1), 2)
        if directed
        else itertools.combinations(range(1, n + 1), 2)
    )
    for (i, j) in pairs:
        if rng.random() < density:
            blk = rand_block(rng, d, max_den=max_den)
            if symmetric_blocks:
                blk = tuple(
                    tuple((blk[p][q] + blk[q][p]) / 2 for q in range(d)) for p in range(d)
                )
                if block_is_zero(blk):
                    blk = tuple(
                        tuple(Fraction(1 if p == q else 0) for q in range(d)) for p in range(d)
                    )
            edges[(i, j)] = blk
    if leaders is None:
        m = rng.randint(1, max(1, n - 1))
        leaders = sorted(rng.sample(range(1, n + 1), m))
    return MatrixWeightedGraph.create(n, d, edges, leaders, directed=directed)


def inline_weight_documents(kind: str, reversed_edge: bool, named: bool, d: int):
    """``(inline, explicit, weighted)``: three documents for one 3-node pattern, leader 1.

    ``kind`` is "directed", "entrywise" or "transpose". Edge {1, 2} carries
    the weight W, listed as (2, 1) when ``reversed_edge`` and named "a" when
    ``named``; edge (2, 3) is free. ``inline`` gives W inline; ``explicit``
    gives it as a ``fixed`` constraint on the block of the stored orientation,
    W^T for a reversed undirected edge under "transpose"; ``weighted`` is the
    graph with W inline and every other edge weighted too.
    """
    W = [[1, 2], [3, 4]] if d == 2 else [[3]]
    V = [[1, 0], [2, 1]] if d == 2 else [[7]]
    i, j = (2, 1) if reversed_edge else (1, 2)
    header = {"n": 3, "d": d, "directed": kind == "directed", "leaders": [1]}
    if kind != "directed":
        header["symmetry"] = kind
    variables = [{"edge": [i, j], "name": "a"}] if named else []
    name = "a" if named else "w%d_%d" % ((i, j) if kind == "directed" else (1, 2))
    stored = [list(row) for row in zip(*W)] if kind == "transpose" and reversed_edge else W
    inline = {**header, "edges": [{"i": i, "j": j, "weight": W}, {"i": 2, "j": 3}],
              "variables": variables}
    explicit = {**header, "edges": [{"i": i, "j": j}, {"i": 2, "j": 3}],
                "variables": variables, "constraints": [{"kind": "fixed", "args": [name, stored]}]}
    weighted = {**header,
                "edges": [{"i": i, "j": j, "weight": W}, {"i": 2, "j": 3, "weight": V}]}
    return json.dumps(inline), json.dumps(explicit), json.dumps(weighted)


def random_ep_lift(rng: random.Random, max_cells=4, max_cell_size=3, d_choices=(1, 2)):
    """Directed graph that admits a given partition as an EP by construction.

    Random block weights q_ij on a quotient skeleton are split, per node of
    cell i, into blocks over the nodes of cell j summing exactly to q_ij.
    Returns (graph, partition, quotient weights keyed by 1-based cell pair).
    """
    d = rng.choice(d_choices)
    k = rng.randint(2, max_cells)
    sizes = [rng.randint(1, max_cell_size) for _ in range(k)]
    n = sum(sizes)
    nodes = list(range(1, n + 1))
    rng.shuffle(nodes)
    cells = []
    pos = 0
    for s in sizes:
        cells.append(tuple(sorted(nodes[pos:pos + s])))
        pos += s
    cells.sort()  # canonical cell order, so quotient indices line up
    qweights = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i != j and rng.random() < 0.6:
                qweights[(i, j)] = rand_block(rng, d)
    edges = {}
    zero = tuple(tuple(Fraction(0) for _ in range(d)) for _ in range(d))
    for (i, j), q in qweights.items():
        targets = cells[j - 1]
        for v in cells[i - 1]:
            remaining = q
            for idx, w in enumerate(targets):
                if idx == len(targets) - 1:
                    blk = remaining
                else:
                    blk = tuple(
                        tuple(Fraction(rng.randint(-2, 2)) for _ in range(d)) for _ in range(d)
                    )
                    remaining = tuple(
                        tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(remaining, blk)
                    )
                if blk != zero:
                    edges[(v, w)] = blk
    g = MatrixWeightedGraph.create(n, d, edges, leaders=[1], directed=True)
    return g, Partition(tuple(cells)), qweights


def reference_laplacian(g: MatrixWeightedGraph) -> BlockMatrix:
    """L = D - A by its definition, over every ordered node pair, in Fraction arithmetic."""
    n, d = g.n, g.d
    rows = [[Fraction(0)] * (n * d) for _ in range(n * d)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            blk = g.adjacency.get((i, j))
            if blk is None:
                continue
            for p in range(d):
                for q in range(d):
                    rows[(i - 1) * d + p][(i - 1) * d + q] += blk[p][q]
                    rows[(i - 1) * d + p][(j - 1) * d + q] -= blk[p][q]
    return BlockMatrix(n, n, d, tuple(tuple(row) for row in rows))


def materialized_ctrb(L, M, powers=None):
    """Rows of [M  L M  ...  L^{p-1} M], built by a direct power loop."""
    nd = L.nrows
    if powers is None:
        powers = nd
    Lr = [list(r) for r in L.entries]
    block = [list(r) for r in M.entries]
    cols = [list(col) for col in zip(*block)]
    for _ in range(powers - 1):
        block = [
            [sum((Lr[r][t] * block[t][c] for t in range(nd)), Fraction(0))
             for c in range(len(block[0]))]
            for r in range(nd)
        ]
        cols.extend(list(col) for col in zip(*block))
    return [[cols[c][r] for c in range(len(cols))] for r in range(nd)]


def reference_reversal_check(g: MatrixWeightedGraph) -> ReversalReport:
    """``ssc.reversal_check`` by its definition: compare all n^2 blocks of L_rev and L^T.

    Builds the reversed graph's Laplacian and the transposed Laplacian as
    dense matrices and reports every differing block, row-major.
    """
    reversed_adj = {(j, i): blk for (i, j), blk in g.adjacency.items()}
    reversed_graph = MatrixWeightedGraph(
        g.n, g.d, g.directed, reversed_adj, g.leaders, g.symmetry
    )
    L_rev = build_laplacian(reversed_graph)
    L_t = build_laplacian(g).transpose()
    mismatches = []
    for bi in range(g.n):
        for bj in range(g.n):
            a = L_rev.block(bi, bj)
            b = L_t.block(bi, bj)
            if a != b:
                mismatches.append((bi + 1, bj + 1, a, b))
    return ReversalReport(not mismatches, tuple(mismatches))


# ---------------------------------------------------------------------------
# per-pair references for graphs.cell_sums and its readers: one scan of the
# edges per (node, cell) sum, as the library did before the one-pass table
# ---------------------------------------------------------------------------

def reference_degree(g: MatrixWeightedGraph, i: int):
    """``graphs.degree`` as a scan of every edge for those leaving node i."""
    if not 1 <= i <= g.n:
        raise ValueError(f"node index {i} out of range 1..{g.n}")
    total = block_zeros(g.d)
    for (a, _), blk in g.adjacency.items():
        if a == i:
            total = block_add(total, blk)
    return total


def reference_cell_degree(g: MatrixWeightedGraph, i: int, cell):
    """``graphs.cell_degree`` as one adjacency lookup per member of the cell."""
    if not 1 <= i <= g.n:
        raise ValueError(f"node index {i} out of range 1..{g.n}")
    members = set(cell)
    for j in members:
        if not 1 <= j <= g.n:
            raise ValueError(f"node index {j} out of range 1..{g.n}")
    total = block_zeros(g.d)
    for j in members:
        blk = g.adjacency.get((i, j))
        if blk is not None:
            total = block_add(total, blk)
    return total


def reference_verify_equitable(g, pi, include_same_cell=True) -> EPReport:
    """``partitions.verify_equitable`` with one ``reference_cell_degree`` per pair and cell."""
    pi = partition_of(pi.cells, g.n)
    violations = []
    for ci, cell in enumerate(pi.cells, start=1):
        for r, s in itertools.combinations(cell, 2):
            for cj, target in enumerate(pi.cells, start=1):
                if not include_same_cell and cj == ci:
                    continue
                sum_r = reference_cell_degree(g, r, target)
                sum_s = reference_cell_degree(g, s, target)
                if sum_r != sum_s:
                    violations.append(EPViolation(ci, r, s, cj, sum_r, sum_s))
    return EPReport(not violations, tuple(violations))


def reference_coarsest_ep(g, protected=()) -> Partition:
    """``partitions.coarsest_ep`` splitting on zero-filled per-cell signature tuples."""
    protected = sorted(set(int(v) for v in protected))
    for v in protected:
        if not 1 <= v <= g.n:
            raise ValueError(f"protected node {v} out of range 1..{g.n}")
    rest = [v for v in range(1, g.n + 1) if v not in protected]
    cells = [(v,) for v in protected]
    if rest:
        cells.append(tuple(rest))
    while True:
        new_cells = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups = {}
            for v in cell:
                sig = tuple(reference_cell_degree(g, v, other) for other in cells)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for members in sorted(groups.values()):
                    new_cells.append(tuple(members))
        cells = new_cells
        if not changed:
            break
    return Partition(tuple(cells))


def reference_quotient(g, pi) -> QuotientGraph:
    """``partitions.quotient`` reading each cell pair's weight off the cell's first node."""
    report = reference_verify_equitable(g, pi)
    if not report.verdict:
        v = report.violations[0]
        raise NotEquitableError(
            f"partition is not equitable: nodes {v.r} and {v.s} of cell {v.cell} "
            f"have unequal sums into cell {v.target_cell}"
        )
    pi = partition_of(pi.cells, g.n)
    adjacency = {}
    for i, cell_i in enumerate(pi.cells, start=1):
        for j, cell_j in enumerate(pi.cells, start=1):
            if i != j:
                w = reference_cell_degree(g, cell_i[0], cell_j)
                if not block_is_zero(w):
                    adjacency[(i, j)] = w
    return QuotientGraph(pi.cells, g.d, adjacency)


def fraction_sample_weights(system, seed):
    """``ssc.sample_weights`` in plain Fraction arithmetic, dense vectors throughout.

    The same seeded draw sequence (one ``randint`` per basis vector, the small
    range and then the widened one, each with its rejection budget) over the
    Fraction solution space ``linalg.solve_affine`` reads off the system's
    rows; returns None where ``sample_weights`` raises ``SamplingError``.
    """
    pattern, d = system.pattern, system.pattern.d
    particular, basis = linalg.solve_affine(system.rows, pattern.unknown_count)
    rng = random.Random(f"{system.key()}|{seed}")
    for spread in (SAMPLE_RANGE, WIDENED_RANGE):
        for _ in range(REJECTION_BUDGET):
            coeffs = [Fraction(rng.randint(-spread, spread)) for _ in basis]
            vec = list(particular)
            for c, bvec in zip(coeffs, basis):
                if c:
                    vec = [x + c * y for x, y in zip(vec, bvec)]
            blocks = {
                name: tuple(tuple(vec[idx * d * d + p * d + q] for q in range(d))
                            for p in range(d))
                for idx, name in enumerate(pattern.variable_names)
            }
            ok = True
            for name, blk in blocks.items():
                entries = [x for row in blk for x in row]
                sign = pattern.sign_of(name)
                if (all(x == 0 for x in entries)
                        or (sign == "+" and any(x < 0 for x in entries))
                        or (sign == "-" and any(x > 0 for x in entries))):
                    ok = False
            if ok:
                return pattern.materialize(blocks)
    return None


def sympy_rank(rows) -> int:
    if not rows or not rows[0]:
        return 0
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).rank()


def sympy_domain_rank(rows) -> int:
    """``sympy_rank`` through sympy's DomainMatrix over QQ, fast enough for nd around 24."""
    if not rows or not rows[0]:
        return 0
    entries = [[QQ(x.numerator, x.denominator) for x in map(Fraction, row)] for row in rows]
    return DomainMatrix(entries, (len(rows), len(rows[0])), QQ).rank()


def sympy_pivots(rows) -> tuple[int, ...]:
    """Pivot columns of sympy's reduced row echelon form."""
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).rref()[1]


def hstack(*mats):
    """Side-by-side concatenation of dense matrices with equal row counts."""
    mats = [m for m in mats if m]
    if not mats:
        return []
    nrows = len(mats[0])
    if any(len(m) != nrows for m in mats):
        raise ValueError("hstack: row counts differ")
    return [sum((list(m[i]) for m in mats), []) for i in range(nrows)]


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
    """Mutual containment of two column spans (row-major bases), by sympy ranks."""
    a = [list(r) for r in basis_a]
    b = [list(r) for r in basis_b]
    if not a and not b:
        return True
    ra = sympy_domain_rank(a)
    if ra != sympy_domain_rank(b):
        return False
    return sympy_domain_rank(hstack(a, b)) == ra


def first_nonzero_independent_exact(vectors, piv, limit):
    """The exact rule ``linalg.independent_vectors`` used before it pivoted on the last nonzero.

    Rows are sparse ``{column: int}`` dicts led by their *first* nonzero
    coordinate. A vector is reduced only at its lead, while that is a pivot,
    by a fraction-free combination divided by the gcd of its entries, and
    kept iff something nonzero is left.
    """
    keep = []
    for j, vec in enumerate(vectors):
        if len(piv) >= limit:
            break
        row = {c: x for c, x in enumerate(vec) if x}
        while row and (lead := min(row)) in piv:
            prow = piv[lead]
            g = math.gcd(row[lead], prow[lead])
            fr, fp = prow[lead] // g, row[lead] // g
            row = {c: fr * row.get(c, 0) - fp * prow.get(c, 0) for c in row.keys() | prow.keys()}
            row = {c: x for c, x in row.items() if x}
            g = math.gcd(*row.values())
            row = {c: x // g for c, x in row.items()}
        if row:
            piv[min(row)] = row
            keep.append(j)
    return keep


def first_nonzero_independent_mod_p(vectors, piv, limit, p):
    """``linalg.independent_vectors`` mod ``p``, each row's lead at its *first* nonzero coordinate.

    The rule the library used before it pivoted on the last nonzero: each
    vector is reduced against every pivot row left to right (rows stored
    from their lead on), and kept iff something nonzero is left. Which
    vectors are kept does not depend on the pivot rule.
    """
    keep = []
    for j, vec in enumerate(vectors):
        if len(piv) >= limit:
            break
        v = list(vec)
        for lead in sorted(piv):
            f = v[lead] % p
            if f:
                v[lead:] = [(a - f * b) % p for a, b in zip(v[lead:], piv[lead])]
        v = [x % p for x in v]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            inv = pow(v[lead], -1, p)
            piv[lead] = [y * inv % p for y in v[lead:]]
            keep.append(j)
    return keep


def refines(p: Partition, q: Partition) -> bool:
    qcells = [set(c) for c in q.cells]
    return all(any(set(c) <= qc for qc in qcells) for c in p.cells)


def brute_force_coarsest(g: MatrixWeightedGraph, protected) -> Partition:
    """Coarsest protected-singleton EP by exhaustive partition search.

    Also certifies coarseness: the minimum cell count is attained once and
    every other candidate refines the winner.
    """
    protected = set(protected)
    candidates = []
    for parts in multiset_partitions(list(range(1, g.n + 1))):
        cells = [tuple(sorted(c)) for c in parts]
        if any(len(c) > 1 and protected & set(c) for c in cells):
            continue
        pi = Partition(tuple(cells))
        if verify_equitable(g, pi).verdict:
            candidates.append(pi)
    best = min(candidates, key=lambda p: (p.k, p.cells))
    assert sum(1 for p in candidates if p.k == best.k) == 1, "coarsest EP is not unique"
    assert all(refines(p, best) for p in candidates)
    return best


def follower_partitions(followers):
    """Set partitions of the follower list via restricted-growth strings."""
    if not followers:
        yield []
        return
    n = len(followers)
    rgs = [0] * n
    maxes = [0] * n
    while True:
        cells: dict[int, list[int]] = {}
        for v, c in zip(followers, rgs):
            cells.setdefault(c, []).append(v)
        yield [cells[c] for c in sorted(cells)]
        i = n - 1
        while i > 0 and rgs[i] == maxes[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        m = max(maxes[i - 1], rgs[i])
        maxes[i] = m
        for j in range(i + 1, n):
            rgs[j] = 0
            maxes[j] = m


def leader_singleton_partitions(pattern: WeightPattern):
    """Every partition of 1..n that keeps each leader in a singleton cell."""
    for fcells in follower_partitions(list(pattern.followers)):
        yield Partition(tuple([(l,) for l in pattern.leaders] + [tuple(c) for c in fcells]))


def reference_support_uniform(pattern: WeightPattern, pi: Partition) -> bool:
    """``ssc._support_uniform`` with the neighbours read off ``pattern.edges``."""
    nbrs = {v: set() for v in range(1, pattern.n + 1)}
    for (i, j) in pattern.edges:
        nbrs[i].add(j)
        if not pattern.directed:
            nbrs[j].add(i)
    cell_of = {v: idx for idx, cell in enumerate(pi.cells) for v in cell}
    return all(len({frozenset(cell_of[t] for t in nbrs[v]) for v in cell}) == 1
               for cell in pi.cells)


def reference_search(pattern: WeightPattern, prepared, include_same_cell: bool):
    """``ssc._search`` testing every child: the next cell may take any unassigned followers.

    The cell-by-cell search before children were filtered by edge counts: the
    next cell is the least unassigned follower plus each subset of the others
    (2^(f-1) children at a root with f followers), every child reduced with
    ``linalg.integer_rref`` and pruned when inconsistent or forcing an edge to
    zero. It never reads the mode; strict leaves are filtered afterwards.
    """
    cols = pattern.unknown_count

    def visit(cells, rest, piv):
        if not rest:
            yield cells, piv
            return
        first, others = rest[0], rest[1:]
        fixed = {v: gi for gi, cell in enumerate(cells) for v in cell}
        j = len(cells)
        for size in range(len(others) + 1):
            for extra in itertools.combinations(others, size):
                new = (first,) + extra
                left = tuple(v for v in others if v not in extra)
                group_of = {**fixed, **dict.fromkeys(new, j), **dict.fromkeys(left, j + 1)}
                rows = _ep_rows(prepared, cells, dict.fromkeys(new, j), True)
                rows += _ep_rows(prepared, [new], group_of, include_same_cell)
                child = linalg.integer_rref(rows, cols, piv)
                if child is not None and not _forced_zero(pattern, child):
                    yield from visit(cells + [new], left, child)

    root = prepared.reduced
    if root is not None and not _forced_zero(pattern, root):
        yield from visit([(l,) for l in pattern.leaders], pattern.followers, root)


def exhaustive_feasible_eps(pattern: WeightPattern, mode="cancellative", include_same_cell=True):
    """``ssc.enumerate_feasible_eps`` without pruning: one EP system per set partition.

    Reference for the cell-by-cell search: every leader-singleton partition
    goes through ``ep_constraint_system`` on its own (no cap, Bell-number
    many), and the feasible systems are sorted the same way. Strict mode
    uses ``reference_support_uniform``.
    """
    effective = resolve_mode(pattern, mode)
    out = []
    for pi in leader_singleton_partitions(pattern):
        if effective == "strict" and not reference_support_uniform(pattern, pi):
            continue
        system = ep_constraint_system(pattern, pi, include_same_cell)
        if system.feasible:
            out.append(system)
    out.sort(key=lambda s: (s.partition.k, s.partition.cells))
    return out


def pinned_sign_conflicts(pattern: WeightPattern) -> list[str]:
    """Variables one of whose entries the pattern's own constraints fix against its sign.

    Read off ``dense_ep_system`` of the unconstrained system: a column that
    no basis vector moves is fixed at its particular value in every system.
    Empty when the constraints are inconsistent.
    """
    particular, basis, _, _ = dense_ep_system(pattern, None)
    dd = pattern.d * pattern.d
    out = []
    for idx, name in enumerate(pattern.variable_names if particular is not None else ()):
        sign = pattern.sign_of(name)
        pinned = [particular[c] for c in range(idx * dd, (idx + 1) * dd)
                  if all(v[c] == 0 for v in basis)]
        if any((sign == "+" and x < 0) or (sign == "-" and x > 0) for x in pinned):
            out.append(name)
    return out


def without_signs(pattern: WeightPattern) -> WeightPattern:
    """The pattern with its sign constraints dropped; every linear constraint stays."""
    kept = tuple(c for c in pattern.constraints if not isinstance(c, SignConstraint))
    return dataclasses.replace(pattern, constraints=kept)


def oracle_feasible_partitions(pattern: WeightPattern, include_same_cell=True):
    """All-partitions symbolic oracle for EP feasibility over a pattern.

    Independent route: sympy symbols per edge entry, ALL same-cell pairs (not
    consecutive ones), sympy.linsolve, and an identical-vanishing test on the
    parametric solution. Returns the set of canonical cell tuples that are
    feasible.
    """
    d = pattern.d
    syms = {}
    for (i, j) in pattern.edges:
        syms[(i, j)] = sympy.Matrix(
            d, d, lambda p, q, i=i, j=j: sympy.Symbol(f"x_{i}_{j}_{p}_{q}")
        )

    def weight_expr(r, t):
        if pattern.directed:
            return syms.get((r, t))
        key = (min(r, t), max(r, t))
        m = syms.get(key)
        if m is None:
            return None
        if r > t and pattern.symmetry == "transpose":
            return m.T
        return m

    unknowns = [s for m in syms.values() for s in m]
    zero = sympy.zeros(d, d)
    edge_of = dict(zip(pattern.variable_names, pattern.edges))
    base_eqs = []
    for c in pattern.constraints:
        kind = type(c).__name__
        if kind == "EqualConstraint":
            diff = syms[edge_of[c.left]] - syms[edge_of[c.right]]
            base_eqs.extend(list(diff))
        elif kind == "FixedConstraint":
            diff = syms[edge_of[c.var]] - sympy.Matrix(
                [[sympy.Rational(x) for x in row] for row in c.value]
            )
            base_eqs.extend(list(diff))

    feasible = set()
    followers = list(pattern.followers)
    fparts = multiset_partitions(followers) if followers else iter([[]])
    for parts in fparts:
        cells = tuple(sorted(
            [tuple(sorted(c)) for c in parts] + [(l,) for l in pattern.leaders]
        ))
        eqs = list(base_eqs)
        for cell in cells:
            for r, s in itertools.combinations(cell, 2):
                for target in cells:
                    if not include_same_cell and target == cell:
                        continue
                    sum_r = zero[:, :]
                    sum_s = zero[:, :]
                    for t in target:
                        wr = weight_expr(r, t)
                        ws = weight_expr(s, t)
                        if wr is not None:
                            sum_r = sum_r + wr
                        if ws is not None:
                            sum_s = sum_s + ws
                    eqs.extend(list(sum_r - sum_s))
        eqs = [e for e in eqs if e != 0]
        if eqs:
            sol = sympy.linsolve(eqs, unknowns)
            if sol is sympy.S.EmptySet:
                continue
            values = dict(zip(unknowns, next(iter(sol))))
        else:
            values = {u: u for u in unknowns}
        ok = True
        for m in syms.values():
            if all(sympy.expand(values[s]) == 0 for s in m):
                ok = False
                break
        if ok:
            feasible.add(cells)
    return feasible


def rref(m):
    """Reduced row echelon form (Gauss-Jordan over Fraction); returns (R, pivot columns)."""
    rows = [list(row) for row in m]
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


def solve_affine(a, b, ncols: int | None = None):
    """Solve a x = b; returns (particular solution, nullspace basis) or None if inconsistent.

    With no rows the system is vacuous: particular 0, basis = unit vectors
    (``ncols`` must be given in that case).
    """
    if not a:
        if ncols is None:
            raise ValueError("ncols required for an empty system")
        particular = [Fraction(0)] * ncols
        basis = [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
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


def dense_ep_system(pattern: WeightPattern, partition, include_same_cell=True):
    """The EP system by dense Fraction rows and ``solve_affine``.

    Reference route for the sparse integer elimination in ``ssc``: every
    entry goes through ``pattern.entry_column``. Returns
    ``(particular, basis, feasible, forced_zero)`` with ``particular`` None
    iff the system is inconsistent.
    """
    d = pattern.d
    cols = pattern.unknown_count
    rows, rhs = [], []

    def add_row(row, b):
        if any(x != 0 for x in row) or b != 0:
            rows.append(row)
            rhs.append(b)

    for c in pattern.constraints:
        for p in range(d):
            for q in range(d):
                row = [Fraction(0)] * cols
                if isinstance(c, EqualConstraint):
                    row[pattern.variable_column(c.left, p, q)] += 1
                    row[pattern.variable_column(c.right, p, q)] -= 1
                    add_row(row, Fraction(0))
                elif isinstance(c, FixedConstraint):
                    row[pattern.variable_column(c.var, p, q)] = Fraction(1)
                    add_row(row, c.value[p][q])
    if partition is not None:
        for cell in partition.cells:
            for r, s in zip(cell, cell[1:]):
                for target in partition.cells:
                    if not include_same_cell and target == cell:
                        continue
                    for p in range(d):
                        for q in range(d):
                            row = [Fraction(0)] * cols
                            for t in target:
                                cr = pattern.entry_column(r, t, p, q)
                                if cr is not None:
                                    row[cr] += 1
                                cs = pattern.entry_column(s, t, p, q)
                                if cs is not None:
                                    row[cs] -= 1
                            add_row(row, Fraction(0))
    solved = solve_affine(rows, rhs, ncols=cols)
    if solved is None:
        return None, [], False, tuple(pattern.edges)
    particular, basis = solved
    forced = tuple(
        edge for idx, edge in enumerate(pattern.edges)
        if all(particular[c] == 0 and all(v[c] == 0 for v in basis)
               for c in range(idx * d * d, (idx + 1) * d * d))
    )
    return particular, basis, not forced, forced
