"""Strong-structural-controllability analysis over weight patterns.

For a fixed topology the admissible weights form a solution space of a linear
system: pattern constraints plus, per candidate partition, the equitable-
partition equalities. A partition is feasible when no edge block is forced to
vanish identically on that space (decided symbolically, never by sampling).
The minimum feasible cell count k yields the upper bound d*k on the dimension
of the strong structural controllable subspace; sampled weight draws give a
reproducible empirical estimate alongside the certified bound.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .graphs import (
    Block,
    EqualConstraint,
    FixedConstraint,
    MatrixWeightedGraph,
    WeightPattern,
    build_input_matrix,
    integer_edges,
    laplacian_rows,
)
from .krylov import controllable_dim
from .krylov import controllable_subspace  # noqa: F401  (kept importable from this module)
from .partitions import Partition, partition_of
from .render import block_to_json

DEFAULT_SAMPLES = 32
DEFAULT_ENUMERATION_CAP = 12
SAMPLE_RANGE = 9
WIDENED_RANGE = 999
REJECTION_BUDGET = 64

MODES = ("strict", "cancellative")


class EnumerationCapError(RuntimeError):
    """Follower count exceeds the partition-enumeration cap."""


class SamplingError(RuntimeError):
    """Weight sampling failed (infeasible system or rejection budget exhausted)."""


# ---------------------------------------------------------------------------
# constraint systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EPConstraintSystem:
    """The linear system over the pattern unknowns for one partition, fully reduced.

    ``partition=None`` means only the pattern's own constraints apply (the
    "any admissible weight" space used for unconstrained sampling). ``rows``
    is the ``linalg.integer_rref`` pivot map of the system, None if it is
    inconsistent; ``linalg.solve_affine(rows, pattern.unknown_count)`` reads
    its Fraction solution space off it, and the draws read it directly.
    """

    pattern: WeightPattern
    partition: Partition | None
    rows: dict[int, dict[int, int]] | None
    forced_zero: tuple[tuple[int, int], ...]  # edges whose block vanishes on the space

    @property
    def feasible(self) -> bool:
        return self.rows is not None and not self.forced_zero

    @property
    def k(self) -> int | None:
        return None if self.partition is None else self.partition.k

    def key(self) -> str:
        if self.partition is None:
            return "unconstrained"
        return "ep:" + json.dumps(self.partition.to_lists(), separators=(",", ":"))


@dataclass(frozen=True)
class _PatternRows:
    """The partition-independent half of every EP system of one pattern."""

    # node r -> ((t, columns of A_rt[p][q] at index p*d + q), ...) over its edges
    out: dict[int, tuple[tuple[int, tuple[int, ...]], ...]]
    # the pattern constraints after integer_rref; None if they are inconsistent
    reduced: dict[int, dict[int, int]] | None


def _pattern_rows(pattern: WeightPattern) -> _PatternRows:
    d = pattern.d
    dd = d * d
    rhs = pattern.unknown_count
    out: dict[int, list] = {v: [] for v in range(1, pattern.n + 1)}
    for idx, (i, j) in enumerate(pattern.edges):
        cols = tuple(range(idx * dd, (idx + 1) * dd))
        out[i].append((j, cols))
        if not pattern.directed:
            if pattern.symmetry == "transpose":
                # A_ji[p][q] is A_ij[q][p]
                cols = tuple(idx * dd + q * d + p for p in range(d) for q in range(d))
            out[j].append((i, cols))

    rows = []
    for c in pattern.constraints:
        if isinstance(c, EqualConstraint):
            left = pattern.variable_index(c.left) * dd
            right = pattern.variable_index(c.right) * dd
            if left != right:
                rows.extend({left + k: 1, right + k: -1} for k in range(dd))
        elif isinstance(c, FixedConstraint):
            base = pattern.variable_index(c.var) * dd
            for k in range(dd):
                value = c.value[k // d][k % d]
                row = {base + k: value.denominator}
                if value:
                    row[rhs] = value.numerator
                rows.append(row)
        # sign constraints are nonlinear; they act at sampling time
    return _PatternRows(
        {v: tuple(nbrs) for v, nbrs in out.items()}, linalg.integer_rref(rows, rhs)
    )


def _ep_rows(prepared: _PatternRows, cells, group_of: dict[int, int], include_same_cell: bool):
    """Sparse EP rows: consecutive nodes r, s of each cell have equal block sums into each group.

    ``group_of`` maps target nodes to group indices; edges into nodes outside
    it are left out. A cell's own group (the one holding its nodes) is left
    out too unless ``include_same_cell``.
    """
    rows = []
    for cell in cells:
        own = None if include_same_cell else group_of.get(cell[0])
        for r, s in zip(cell, cell[1:]):
            acc: dict[tuple[int, int], dict[int, int]] = {}
            for node, sign in ((r, 1), (s, -1)):
                for t, cols in prepared.out[node]:
                    ti = group_of.get(t)
                    if ti is None or ti == own:
                        continue
                    for k, col in enumerate(cols):
                        row = acc.setdefault((ti, k), {})
                        x = row.get(col, 0) + sign
                        if x:
                            row[col] = x
                        else:
                            del row[col]
            rows.extend(row for row in acc.values() if row)
    return rows


def _forced_zero(pattern: WeightPattern, piv: dict[int, dict[int, int]]) -> tuple:
    """Edges whose block vanishes on the solutions of the consistent reduced rows ``piv``."""
    dd = pattern.d * pattern.d
    # a pivot row holding only its pivot (and no right-hand side) fixes that column at 0
    zero = {pc for pc, row in piv.items() if len(row) == 1}
    return tuple(
        edge for idx, edge in enumerate(pattern.edges)
        if all(c in zero for c in range(idx * dd, (idx + 1) * dd))
    )


def ep_constraint_system(
    pattern: WeightPattern,
    partition: Partition | None,
    include_same_cell: bool = True,
) -> EPConstraintSystem:
    """The reduced system of one partition (or None), and the edges it forces to zero.

    Feasibility is decided by exact sparse integer elimination of the EP rows
    together with the pattern rows (``linalg.integer_rref``); a column is fixed
    on the solution set when its pivot row has no other unknown, and an edge is
    forced to zero when all its columns are fixed at 0. The reduced rows are
    unique (each fully reduced and divided by its content), so this
    one-partition entry point and the search in ``enumerate_feasible_eps``,
    which reaches the same rows cell by cell, give equal systems.
    """
    prepared = _pattern_rows(pattern)
    piv = prepared.reduced
    if partition is not None:
        partition = partition_of(partition.cells, pattern.n)
        if piv is not None:
            cell_of = {v: idx for idx, cell in enumerate(partition.cells) for v in cell}
            rows = _ep_rows(prepared, partition.cells, cell_of, include_same_cell)
            piv = linalg.integer_rref(rows, pattern.unknown_count, piv)
    forced = tuple(pattern.edges) if piv is None else _forced_zero(pattern, piv)
    return EPConstraintSystem(pattern, partition, piv, forced)


# ---------------------------------------------------------------------------
# search for feasible equitable partitions
# ---------------------------------------------------------------------------

def _search(pattern: WeightPattern, prepared: _PatternRows, include_same_cell: bool):
    """Yield (cells, reduced rows) for every leader-singleton partition the search keeps.

    Cells are fixed one at a time, leaders first as singletons: the next cell
    is the least unassigned follower plus a subset of the other unassigned
    followers compatible with it, so each set partition is reached at most
    once. With fixed cells C1..Cj and R the union of the unassigned
    followers, the rows "same-cell nodes of a fixed cell have equal block
    sums into each fixed cell and into R" are sums of EP rows of every
    completion. Each child reduces only its new rows into its parent's
    pivots: the earlier cells into the new cell, and the new cell into every
    fixed cell, itself and what remains of R. Inconsistency and a
    forced-zero edge can only appear, never vanish, as rows are added, so a
    child showing either is pruned with its subtree.

    A follower v is compatible with the new cell's first node u unless one
    of them has exactly one edge into some fixed cell F and the other has
    none: their row into F is then that edge's block = 0, which pins every
    entry of the edge, so any child holding both is pruned anyway. The new
    cell is never a fixed cell, so this holds for either
    ``include_same_cell`` and in either mode. Testing only compatible
    children turns the 2^(f-1) root children of a path led from one end into
    one. At a leaf R is empty and the rows span exactly the partition's EP
    system.
    """
    cols = pattern.unknown_count

    def visit(cells, rest, piv):
        if not rest:
            yield cells, piv
            return
        first, others = rest[0], rest[1:]
        fixed = {v: gi for gi, cell in enumerate(cells) for v in cell}

        def edges_into_fixed(v):
            counts = [0] * len(cells)
            for t, _ in prepared.out[v]:
                gi = fixed.get(t)
                if gi is not None:
                    counts[gi] += 1
            return counts

        mine = edges_into_fixed(first)

        def compatible(v):
            return not any(a + b == 1 for a, b in zip(mine, edges_into_fixed(v)))

        j = len(cells)
        fits = [v for v in others if compatible(v)]
        for size in range(len(fits) + 1):
            for extra in itertools.combinations(fits, size):
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


def resolve_mode(pattern: WeightPattern, mode: str) -> str:
    """Strict pruning is sound only when all edges share one sign constraint."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "strict":
        signs = set(pattern.signs)
        if None in signs or len(signs) != 1:
            return "cancellative"
    return mode


def _support_uniform(prepared: _PatternRows, pi: Partition) -> bool:
    # strict pruning: same-cell nodes must reach the same set of cells
    cell_of = {v: idx for idx, cell in enumerate(pi.cells) for v in cell}
    for cell in pi.cells:
        supports = {frozenset(cell_of[t] for t, _ in prepared.out[v]) for v in cell}
        if len(supports) > 1:
            return False
    return True


def _check_pinned_signs(pattern: WeightPattern, reduced) -> None:
    """Refuse a pattern whose own constraints pin an entry against its variable's sign.

    A pivot row of the pattern's reduced rows that holds only its pivot and
    the right-hand side fixes that column in every system, so no admissible
    weight exists when the fixed value breaks the sign. EP rows are not read:
    a pin they add makes one system sign-infeasible, not the pattern.
    """
    rhs = pattern.unknown_count
    d = pattern.d
    for pc, row in sorted((reduced or {}).items()):
        if len(row) != 2 or rhs not in row:
            continue
        idx, k = divmod(pc, d * d)
        value = Fraction(row[rhs], row[pc])
        sign = pattern.signs[idx]
        if (sign == "+" and value < 0) or (sign == "-" and value > 0):
            raise ValueError(
                f"pattern constraints admit no weight assignment: entry ({k // d},{k % d}) "
                f"of {pattern.variable_names[idx]} is pinned to {value} against its sign {sign!r}"
            )


def enumerate_feasible_eps(
    pattern: WeightPattern,
    mode: str = "cancellative",
    cap: int = DEFAULT_ENUMERATION_CAP,
    include_same_cell: bool = True,
) -> list[EPConstraintSystem]:
    """All leader-singleton partitions whose EP system leaves every edge free to be nonzero.

    Partitions range over the followers only (leaders are pinned to
    singleton cells so every column of M is a column of the characteristic
    matrix). ``_search`` fixes one cell at a time. It tests as the next cell
    only followers whose edge counts into the fixed cells are compatible
    with its first node, and it prunes every subtree whose rows so far are
    already inconsistent or force an edge to zero. So each returned system
    equals ``ep_constraint_system`` of its partition without every set
    partition being built: a path led from one end takes one reduction per
    follower. Symmetric patterns, such as a star whose leaves are all
    followers, still prune nothing. In strict mode a partition must also pass
    ``_support_uniform``. Raises ``EnumerationCapError`` above
    ``cap`` followers, and ``ValueError`` when the pattern's own constraints
    pin an entry against its sign. Sorted by (cell count, canonical cells).
    """
    return _feasible(pattern, mode, cap, include_same_cell)[2]


def _feasible(pattern: WeightPattern, mode: str, cap: int, include_same_cell: bool = True):
    # (effective mode, prepared rows, sorted feasible systems): the search of
    # enumerate_feasible_eps, with what it prepared for estimate_ssc_dimension
    if not pattern.edges:
        raise ValueError("pattern has no edges")
    if len(pattern.followers) > cap:
        raise EnumerationCapError(
            f"{len(pattern.followers)} followers exceed the enumeration cap {cap}"
        )
    effective = resolve_mode(pattern, mode)
    prepared = _pattern_rows(pattern)
    _check_pinned_signs(pattern, prepared.reduced)
    out = []
    for cells, piv in _search(pattern, prepared, include_same_cell):
        pi = Partition(tuple(cells))
        if effective == "strict" and not _support_uniform(prepared, pi):
            continue
        # the search prunes every child that forces an edge to zero
        out.append(EPConstraintSystem(pattern, pi, piv, ()))
    out.sort(key=lambda s: (s.partition.k, s.partition.cells))
    return effective, prepared, out


def min_cell_ep(
    pattern: WeightPattern,
    mode: str = "cancellative",
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> EPConstraintSystem:
    """Feasible system with the fewest cells; ties break on canonical cell order."""
    systems = enumerate_feasible_eps(pattern, mode, cap)
    if not systems:
        # even the all-singleton partition failed, so the pattern's own
        # constraints are unsatisfiable or zero an edge outright
        raise ValueError("pattern constraints admit no weight assignment")
    return systems[0]


def ssc_upper_bound(
    pattern: WeightPattern,
    mode: str = "cancellative",
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> int:
    """d * k for the minimum-cell feasible partition; bounds the SSC dimension."""
    return pattern.d * min_cell_ep(pattern, mode, cap).partition.k


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _entries_ok(entries, sign: str | None) -> bool:
    # one edge's block entries, scaled by a positive denominator: not all zero
    # and within the edge's sign constraint
    if not any(entries):
        return False
    if sign == "+":
        return min(entries) >= 0
    if sign == "-":
        return max(entries) <= 0
    return True


def sample_weights(system, seed=0) -> MatrixWeightedGraph:
    """Draw one concrete weight assignment from a system's solution space.

    Each free unknown of the reduced rows is an integer from a small range,
    drawn in column order, and each row then fixes its pivot unknown; draws
    that zero an edge block or break a sign constraint are rejected and
    redrawn, widening the range once before giving up. Deterministic per
    (system, seed).
    """
    if isinstance(system, WeightPattern):
        system = ep_constraint_system(system, None)
    form = _integer_form(system)
    return _graph(system.pattern, form[0], _draw(system.pattern, system.key(), form, seed))


def _integer_form(system: EPConstraintSystem):
    """``(den, free, rows)``: the solution space over one common denominator.

    ``den`` is the lcm of the pivots. Each reduced row is divided by its
    content and has a positive pivot, so ``den`` is the least common
    denominator of the Fraction solutions ``linalg.solve_affine`` reads off
    the rows. ``free`` lists the free columns in ascending order, and
    ``rows`` holds per pivot column ``(pivot column, pivot, den * rhs, other
    (column, entry) pairs)``. Built once per system, so every draw is
    combined and tested in integers (``den`` is positive, so zero and sign
    tests carry over).
    """
    if not system.feasible:
        raise SamplingError(
            f"system is infeasible (forced-zero edges: {list(system.forced_zero)})"
        )
    pattern = system.pattern
    rhs = pattern.unknown_count
    den = math.lcm(*(row[pc] for pc, row in system.rows.items()))
    free = [c for c in range(rhs) if c not in system.rows]
    rows = [(pc, row[pc], den * row.get(rhs, 0),
             [(c, x) for c, x in row.items() if c != pc and c != rhs])
            for pc, row in system.rows.items()]
    return den, free, rows


def _draw(pattern: WeightPattern, key: str, form, seed) -> list[int]:
    # the unknowns of sample_weights's draw for the system with this key(),
    # scaled by the _integer_form's den
    den, free, rows = form
    dd = pattern.d * pattern.d
    rng = random.Random(f"{key}|{seed}")
    budgets = [(SAMPLE_RANGE, REJECTION_BUDGET), (WIDENED_RANGE, REJECTION_BUDGET)]
    offender = None
    for spread, budget in budgets:
        for _ in range(budget):
            vec = [0] * pattern.unknown_count
            for c in free:
                vec[c] = den * rng.randint(-spread, spread)
            for pc, pivot, b, terms in rows:
                # exact: the pivot divides den
                vec[pc] = (b - sum(x * vec[c] for c, x in terms)) // pivot
            bad = next((idx for idx, sign in enumerate(pattern.signs)
                        if not _entries_ok(vec[idx * dd:(idx + 1) * dd], sign)), None)
            if bad is None:
                return vec
            offender = pattern.edges[bad]
    raise SamplingError(
        f"rejection budget exhausted; edge {offender} kept vanishing or broke its sign"
    )


def _graph(pattern: WeightPattern, den: int, vec) -> MatrixWeightedGraph:
    # the graph of a drawn unknown vector scaled by den
    d = pattern.d
    return pattern.materialize({
        name: _block(vec[idx * d * d:(idx + 1) * d * d], den, d)
        for idx, name in enumerate(pattern.variable_names)
    })


def _derive_seed(master, key: str, index: int) -> int:
    digest = hashlib.sha256(f"{master}:{key}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemSamples:
    partition: Partition | None
    k: int | None
    samples: tuple[tuple[int, int], ...]  # (derived seed, controllable dim)


@dataclass(frozen=True)
class SSCReport:
    n: int
    d: int
    directed: bool
    leaders: tuple[int, ...]
    mode: str                 # effective enumeration mode
    mode_requested: str
    seed: int
    samples_per_system: int
    backend: str
    k_min: int
    bound: int
    state_dim: int            # n * d
    witness_partition: Partition
    witness_weights: tuple[tuple[tuple[int, int], Block], ...]
    systems: tuple[SystemSamples, ...]
    sampled_dims: tuple[tuple[int, int], ...]
    ssc_estimate: int
    ssc_verdict: bool | None  # None = unknown (bound vacuous, no uncontrollable sample)

    @property
    def certified(self) -> bool:
        return self.backend == "exact"

    def to_dict(self) -> dict:
        verdict = "unknown" if self.ssc_verdict is None else self.ssc_verdict
        return {
            "n": self.n,
            "d": self.d,
            "directed": self.directed,
            "leaders": list(self.leaders),
            "mode": self.mode,
            "mode_requested": self.mode_requested,
            "seed": self.seed,
            "samples_per_system": self.samples_per_system,
            "backend": self.backend,
            "certified": self.certified,
            "k_min": self.k_min,
            "bound": self.bound,
            "state_dim": self.state_dim,
            "witness": {
                "partition": self.witness_partition.to_lists(),
                "weights": [
                    {"i": i, "j": j, "weight": block_to_json(blk)}
                    for (i, j), blk in self.witness_weights
                ],
            },
            "systems": [
                {
                    "partition": None if s.partition is None else s.partition.to_lists(),
                    "cells": s.k,
                    "sampled_dims": [[seed, dim] for seed, dim in s.samples],
                }
                for s in self.systems
            ],
            "sampled_dims": [[seed, dim] for seed, dim in self.sampled_dims],
            "ssc_estimate": self.ssc_estimate,
            "verdicts": {
                "strongly_structurally_controllable": verdict,
                "max_controllable_dimension": self.bound,
            },
        }


def _quotient_pair(pattern: WeightPattern, prepared: _PatternRows, cells):
    """The edge table and input columns of the quotient pair (Q, M_q) over ``cells``.

    Cell a (1-based, in the order of ``cells``) stands for its first node:
    ``out[a]`` lists ``(cell of t, cols)`` over that node's edges, so
    ``graphs.laplacian_rows(len(cells), d, out, vec)`` accumulates its sums
    into each cell, and gives ``den * Q`` for a draw ``vec`` that satisfies
    the EP equations of ``cells``. The inputs are the dense columns of M_q,
    the input matrix of the leaders' cells.
    """
    cell_of = {v: a for a, cell in enumerate(cells, 1) for v in cell}
    out = {a: tuple((cell_of[t], cols) for t, cols in prepared.out[cell[0]])
           for a, cell in enumerate(cells, 1)}
    m_q = build_input_matrix([cell_of[l] for l in pattern.leaders], len(cells), pattern.d)
    return out, [[int(x) for x in col] for col in zip(*m_q.entries)]


def estimate_ssc_dimension(
    pattern: WeightPattern,
    mode: str = "cancellative",
    samples_per_system: int = DEFAULT_SAMPLES,
    seed=0,
    cap: int = DEFAULT_ENUMERATION_CAP,
    backend: str = "exact",
) -> SSCReport:
    """Bound plus sampled controllable dimensions across every feasible EP system.

    Every feasible system is sampled (the minimum-cell one and the
    unconstrained pattern always included); the report records the certified
    bound d*k_min next to the sampled minimum, never conflating the two.

    Each draw stays in integers, and its span is read on the quotient. A
    draw from a k-cell system satisfies every EP equation and keeps the
    leaders as singletons, so L P = P Q and M = P M_q, with P the 0/1
    characteristic matrix. P has disjoint nonzero columns, so it is injective
    over Q and mod p alike, and dim <L|M> = dim <Q|M_q> exactly and mod p.
    The draw's unknowns go straight into the sparse rows of ``den * Q``
    (``graphs.laplacian_rows`` over ``_quotient_pair``'s one representative
    node per cell), and ``krylov.controllable_dim`` reads the dimension with
    d*k, the size of Q, as its certified upper bound. The unconstrained
    system is the all-singleton partition, whose quotient is L itself, with
    bound n*d. Each sampled dimension equals
    ``controllable_subspace(build_laplacian(g), M).dim`` for
    ``g = sample_weights(system, seed)``; no draw is built as a graph. Under
    ``backend="float"`` the modular rank is reported unchecked.
    """
    if samples_per_system < 1:
        raise ValueError("samples_per_system must be >= 1")
    effective, prepared, systems = _feasible(pattern, mode, cap)
    if not systems:
        raise ValueError("pattern constraints admit no weight assignment")
    minsys = systems[0]
    # the search found a system, so the pattern's own rows are consistent and
    # force no edge to zero
    entries = list(systems) + [EPConstraintSystem(pattern, None, prepared.reduced, ())]
    nd, dd = pattern.n * pattern.d, pattern.d * pattern.d
    singletons = tuple((v,) for v in range(1, pattern.n + 1))

    results = []
    witness_weights = None
    for system in entries:
        key = system.key()
        form = _integer_form(system)
        cells = singletons if system.partition is None else system.partition.cells
        out, inputs = _quotient_pair(pattern, prepared, cells)
        upper = pattern.d * len(cells)
        samples = []
        for i in range(samples_per_system):
            sseed = _derive_seed(seed, key, i)
            vec = _draw(pattern, key, form, sseed)
            if system is minsys and witness_weights is None:
                witness_weights = tuple(
                    (e, _block(vec[idx * dd:(idx + 1) * dd], form[0], pattern.d))
                    for idx, e in enumerate(pattern.edges))
            Q_int = laplacian_rows(len(cells), pattern.d, out, vec)
            samples.append((sseed, controllable_dim(Q_int, inputs, upper, backend)))
        results.append(SystemSamples(system.partition, system.k, tuple(samples)))

    flat = tuple(s for r in results for s in r.samples)
    estimate = min(dim for _, dim in flat)
    bound = pattern.d * minsys.partition.k
    if bound < nd or estimate < nd:
        verdict: bool | None = False
    else:
        verdict = None
    return SSCReport(
        n=pattern.n,
        d=pattern.d,
        directed=pattern.directed,
        leaders=pattern.leaders,
        mode=effective,
        mode_requested=mode,
        seed=seed,
        samples_per_system=samples_per_system,
        backend=backend,
        k_min=minsys.partition.k,
        bound=bound,
        state_dim=nd,
        witness_partition=minsys.partition,
        witness_weights=witness_weights,
        systems=tuple(results),
        sampled_dims=flat,
        ssc_estimate=estimate,
        ssc_verdict=verdict,
    )


# ---------------------------------------------------------------------------
# duality helpers and the invariant-node summary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReversalReport:
    holds: bool
    mismatches: tuple[tuple[int, int, Block, Block], ...]  # (block row, block col, L_rev, L^T)


def reversal_check(g: MatrixWeightedGraph) -> ReversalReport:
    """Does reversing every edge realize the transposed Laplacian?

    True exactly for undirected graphs with symmetric blocks and for
    weight-balanced digraphs with symmetric blocks; the mismatching blocks
    (typically diagonal degree blocks) are reported otherwise, in row-major
    order. Read off the edges in one pass: the reversed graph's Laplacian has
    -A_ji at block (i, j) and the in-sum of node i on its diagonal, while
    L^T has -A_ji^T there and the transposed out-sum of i. So a block can
    differ only on the diagonal or at an edge whose block is not symmetric.
    """
    d = g.d
    # per node: its in-sum and its transposed out-sum, entry p*d+q, as
    # integers over the common denominator of the weights
    den, out, values = integer_edges(g.n, d, g.adjacency)
    in_sum = {v: [0] * (d * d) for v in range(1, g.n + 1)}
    out_t = {v: [0] * (d * d) for v in range(1, g.n + 1)}
    mismatches = []
    for j in range(1, g.n + 1):
        for i, cols in out[j]:
            blk = [values[c] for c in cols]  # A_ji, row-major
            t = [blk[q * d + p] for p in range(d) for q in range(d)]
            acc_in, acc_out = in_sum[i], out_t[j]
            for k in range(d * d):
                acc_in[k] += blk[k]
                acc_out[k] += t[k]
            if t != blk:
                mismatches.append((i, j, _block([-x for x in blk], den, d),
                                   _block([-x for x in t], den, d)))
    for v in range(1, g.n + 1):
        if in_sum[v] != out_t[v]:
            mismatches.append((v, v, _block(in_sum[v], den, d), _block(out_t[v], den, d)))
    mismatches.sort(key=lambda m: m[:2])
    return ReversalReport(not mismatches, tuple(mismatches))


def _block(flat, den: int, d: int) -> Block:
    # the d x d block of row-major integer entries over den
    return tuple(tuple(Fraction(flat[p * d + q], den) for q in range(d)) for p in range(d))


def invariant_node_report(report: SSCReport) -> dict:
    """Plain-language summary of what the bound says about the network."""
    nd = report.state_dim
    lines = []
    invariant_core = False
    if report.bound < nd:
        lines.append(
            f"not strongly structurally controllable: at most {report.bound} of "
            f"{nd} state dimensions are controllable under any weight selection"
        )
        if report.ssc_estimate == report.bound:
            invariant_core = True
            lines.append(
                f"every sampled weight selection attains controllable dimension "
                f"{report.bound}; a controllable core of this size persists "
                f"regardless of the weights"
            )
    else:
        lines.append(
            "the upper bound equals the full state dimension; the partition "
            "method cannot decide strong structural controllability here"
        )
        if report.ssc_verdict is False:
            lines.append(
                f"a sampled weight selection reached only dimension "
                f"{report.ssc_estimate}, so the network is not strongly "
                f"structurally controllable"
            )
    verdict = "unknown" if report.ssc_verdict is None else report.ssc_verdict
    return {
        "state_dimension": nd,
        "bound": report.bound,
        "ssc_estimate": report.ssc_estimate,
        "strongly_structurally_controllable": verdict,
        "max_controllable_dimension": report.bound,
        "invariant_controllable_core": invariant_core,
        "summary": lines,
    }
