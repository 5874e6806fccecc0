import itertools
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_coarsest,
    rand_block,
    random_ep_lift,
    random_graph,
    reference_cell_degree,
    reference_coarsest_ep,
    reference_degree,
    reference_quotient,
    reference_verify_equitable,
    refines,
)
from ssckit import linalg
from ssckit.graphs import (
    BlockMatrix,
    MatrixWeightedGraph,
    build_laplacian,
    cell_degree,
    cell_sums,
    degree,
)
from ssckit.partitions import (
    InvalidPartitionError,
    NotEquitableError,
    Partition,
    characteristic_matrix,
    coarsest_ep,
    partition_of,
    quotient,
    quotient_laplacian,
    verify_equitable,
    verify_lift,
)


def scalar_graph(n, edges, leaders=(1,), directed=False):
    return MatrixWeightedGraph.create(
        n, 1, {e: [[w]] for e, w in edges.items()}, leaders, directed=directed
    )


def diamond_ab(a, b):
    return scalar_graph(4, {(1, 2): a, (1, 3): a, (2, 4): b, (3, 4): b})


# ---------------------------------------------------------------------------
# partitions and characteristic matrices
# ---------------------------------------------------------------------------

def test_partition_canonical_form():
    pi = Partition(((4, 3), (1,), (2,)))
    assert pi.cells == ((1,), (2,), (3, 4))
    assert pi.k == 3


def test_partition_validation():
    with pytest.raises(InvalidPartitionError):
        Partition(((1, 2), (2, 3)))
    with pytest.raises(InvalidPartitionError):
        Partition(((),))
    with pytest.raises(InvalidPartitionError, match="node 1 appears twice in one cell"):
        Partition(((1, 1), (2, 3), (4,)))
    with pytest.raises(InvalidPartitionError):
        partition_of([[1], [2]], 3)
    with pytest.raises(InvalidPartitionError):
        partition_of([[1], [2], [3], [4]], 3)


def test_characteristic_matrix_two_cell_block_pattern():
    pi = Partition(((1, 2), (3, 4, 5)))
    for d in (1, 2, 3):
        P = characteristic_matrix(pi, 5, d)
        assert (P.block_rows, P.block_cols) == (5, 2)
        for node in range(1, 6):
            cell = 0 if node <= 2 else 1
            for col in range(2):
                blk = P.block(node - 1, col)
                if col == cell:
                    assert blk == tuple(
                        tuple(Fraction(1 if p == q else 0) for q in range(d))
                        for p in range(d)
                    )
                else:
                    assert all(x == 0 for row in blk for x in row)


def test_characteristic_matrix_trivial_cases():
    singles = Partition(tuple((i,) for i in range(1, 4)))
    assert characteristic_matrix(singles, 3, 2).entries == BlockMatrix.identity(3, 2).entries
    ones = characteristic_matrix(Partition(((1, 2, 3),)), 3, 1)
    assert [row[0] for row in ones.entries] == [1, 1, 1]


def test_characteristic_matrix_full_column_rank():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 7)
        d = rng.choice([1, 2])
        labels = [rng.randint(0, 2) for _ in range(n)]
        cells = {}
        for v, lab in enumerate(labels, start=1):
            cells.setdefault(lab, []).append(v)
        pi = Partition(tuple(tuple(c) for c in cells.values()))
        P = characteristic_matrix(pi, n, d)
        assert linalg.rank(P.to_lists()) == pi.k * d


def test_characteristic_matrix_requires_partition():
    with pytest.raises(InvalidPartitionError):
        characteristic_matrix(Partition(((1, 2),)), 3, 1)


# ---------------------------------------------------------------------------
# equitable partition verification
# ---------------------------------------------------------------------------

def test_verify_equitable_diamond():
    g = diamond_ab(2, 5)
    report = verify_equitable(g, Partition(((1,), (2, 3), (4,))))
    assert report.verdict and report.violations == ()


def test_verify_singletons_always_equitable():
    rng = random.Random(4)
    for _ in range(10):
        g = random_graph(rng, rng.randint(1, 6), d=rng.choice([1, 2]),
                         directed=rng.random() < 0.5)
        singles = Partition(tuple((i,) for i in range(1, g.n + 1)))
        assert verify_equitable(g, singles).verdict


def test_verify_equitable_violation_details():
    g = scalar_graph(4, {(1, 2): 1, (1, 3): 2, (2, 4): 1, (3, 4): 1})
    report = verify_equitable(g, Partition(((1,), (2, 3), (4,))))
    assert not report.verdict
    v = report.violations[0]
    assert (v.r, v.s) == (2, 3) and v.target_cell == 1
    assert v.sum_r == ((Fraction(1),),) and v.sum_s == ((Fraction(2),),)


def test_verify_equitable_same_cell_flag(path3):
    # whole path in one cell: the in-cell sums are 1, 2, 1, so only the
    # same-cell comparisons can fail; excluding them leaves nothing to check
    pi = Partition(((1, 2, 3),))
    full = verify_equitable(path3, pi, include_same_cell=True)
    loose = verify_equitable(path3, pi, include_same_cell=False)
    assert not full.verdict
    assert loose.verdict
    assert all(v.cell == v.target_cell for v in full.violations)


def test_verify_equitable_non_partition():
    g = diamond_ab(1, 1)
    with pytest.raises(InvalidPartitionError):
        verify_equitable(g, Partition(((1, 2), (3,))))


def test_quotient_of_a_large_cell_is_not_quadratic():
    # 999 leaves in one cell: a per-pair test compares half a million pairs
    n = 1000
    g = scalar_graph(n, {(1, i): 1 for i in range(2, n + 1)})
    pi = Partition(((1,), tuple(range(2, n + 1))))
    start = time.perf_counter()
    q = quotient(g, pi)
    assert time.perf_counter() - start < 0.5
    assert q.adjacency == {(1, 2): ((Fraction(n - 1),),), (2, 1): ((Fraction(1),),)}


def test_verify_equitable_matches_reference_on_large_cells():
    # planted EPs with cells of up to 16 nodes, then a few nodes lose an edge,
    # gain one, or gain two into one cell that cancel into a zero block sum
    rng = random.Random(11)
    for _ in range(30):
        g, pi, _ = random_ep_lift(rng, max_cells=3, max_cell_size=16, d_choices=(1, 2))
        edges = dict(g.adjacency)
        for _ in range(rng.randint(0, 3)):
            v = rng.randint(1, g.n)
            cell = rng.choice(pi.cells)
            change = rng.choice(("drop", "add", "cancel"))
            if change == "drop" and edges:
                del edges[rng.choice(sorted(edges))]
            elif change == "add" and v not in cell:
                edges[(v, rng.choice(cell))] = rand_block(rng, g.d)
            elif change == "cancel" and v not in cell and len(cell) > 1:
                w, u = rng.sample(cell, 2)
                if (v, w) in edges or (v, u) in edges:
                    continue
                blk = rand_block(rng, g.d)
                edges[(v, w)] = blk
                edges[(v, u)] = tuple(tuple(-x for x in row) for row in blk)
        h = MatrixWeightedGraph.create(g.n, g.d, edges, [1], directed=True)
        for same in (True, False):
            assert verify_equitable(h, pi, same) == reference_verify_equitable(h, pi, same)


# ---------------------------------------------------------------------------
# coarsest refinement
# ---------------------------------------------------------------------------

def test_coarsest_ep_fixture_examples(diamond, path3, star4):
    assert coarsest_ep(diamond, [1]).cells == ((1,), (2, 3), (4,))
    assert coarsest_ep(path3, [1]).cells == ((1,), (2,), (3,))
    assert coarsest_ep(star4, [1]).cells == ((1,), (2, 3, 4))


def test_coarsest_ep_matches_brute_force_on_fixtures(diamond, path3, star4, k3):
    for g in (diamond, path3, star4, k3):
        assert coarsest_ep(g, [1]) == brute_force_coarsest(g, [1])


def test_coarsest_ep_matches_brute_force_random():
    rng = random.Random(17)
    for _ in range(12):
        n = rng.randint(2, 6)
        g = random_graph(rng, n, d=rng.choice([1, 2]), directed=rng.random() < 0.4,
                         density=0.6, leaders=[1])
        protected = sorted(rng.sample(range(1, n + 1), rng.randint(1, min(2, n))))
        mine = coarsest_ep(g, protected)
        best = brute_force_coarsest(g, protected)
        assert mine == best
        assert verify_equitable(g, mine).verdict


def test_coarsest_ep_relabeling_invariance():
    rng = random.Random(31)
    for _ in range(8):
        n = rng.randint(3, 6)
        g = random_graph(rng, n, d=1, directed=False, leaders=[1])
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        relabel = {old: new for old, new in zip(range(1, n + 1), perm)}
        mapped_edges = {
            (relabel[i], relabel[j]): blk for (i, j), blk in g.adjacency.items()
        }
        g2 = MatrixWeightedGraph(g.n, g.d, g.directed, mapped_edges,
                                 tuple(sorted(relabel[l] for l in g.leaders)), g.symmetry)
        pi1 = coarsest_ep(g, [1])
        pi2 = coarsest_ep(g2, [relabel[1]])
        mapped = Partition(tuple(tuple(relabel[v] for v in cell) for cell in pi1.cells))
        assert mapped == pi2


def test_coarsest_ep_merge_fails_split_holds(diamond):
    pi = coarsest_ep(diamond, [1])
    # refining the EP by splitting a cell into singletons keeps it equitable
    split = Partition(((1,), (2,), (3,), (4,)))
    assert refines(split, pi)
    assert verify_equitable(diamond, split).verdict
    # merging any two cells either breaks equitability or absorbs the
    # protected leader into a non-singleton cell (the diamond's {1,4},{2,3}
    # merge is equitable but no longer leader-protected)
    cells = list(pi.cells)
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            merged_cell = tuple(sorted(cells[i] + cells[j]))
            merged = [c for k, c in enumerate(cells) if k not in (i, j)]
            merged.append(merged_cell)
            equitable = verify_equitable(diamond, Partition(tuple(merged))).verdict
            protected_ok = (1,) in merged
            assert not (equitable and protected_ok)


def test_coarsest_ep_protected_out_of_range(diamond):
    with pytest.raises(ValueError):
        coarsest_ep(diamond, [9])


def test_coarsest_ep_cancelling_sums_count_as_no_edges():
    # node 2's edges into {2, 3, 4, 5} sum to zero, like those of 3, 4 and 5
    g = scalar_graph(5, {(2, 3): 1, (2, 4): -1}, directed=True)
    want = Partition(((1,), (2, 3, 4, 5)))
    assert coarsest_ep(g, (1,)) == reference_coarsest_ep(g, (1,)) == want


# ---------------------------------------------------------------------------
# quotients and the lift identity
# ---------------------------------------------------------------------------

def test_quotient_diamond_weights(diamond):
    q = quotient(diamond, Partition(((1,), (2, 3), (4,))))
    w = {k: v[0][0] for k, v in q.adjacency.items()}
    assert w == {(1, 2): 2, (2, 1): 1, (2, 3): 1, (3, 2): 2}


def test_quotient_identity_partition(diamond):
    singles = Partition(tuple((i,) for i in range(1, 5)))
    q = quotient(diamond, singles)
    assert q.k == 4 and q.adjacency == diamond.adjacency


def test_quotient_rejects_non_equitable():
    g = scalar_graph(4, {(1, 2): 1, (1, 3): 2, (2, 4): 1, (3, 4): 1})
    with pytest.raises(NotEquitableError):
        quotient(g, Partition(((1,), (2, 3), (4,))))


def test_quotient_laplacian_diamond(diamond):
    q = quotient(diamond, Partition(((1,), (2, 3), (4,))))
    Lq = quotient_laplacian(q)
    assert [[int(x) for x in row] for row in Lq.entries] == [
        [2, -2, 0], [-1, 2, -1], [0, -2, 2],
    ]


def test_quotient_laplacian_identity_partition_recovers_l(diamond):
    singles = Partition(tuple((i,) for i in range(1, 5)))
    Lq = quotient_laplacian(quotient(diamond, singles))
    assert Lq.entries == build_laplacian(diamond).entries


def test_quotient_single_cell_with_internal_edges(k3):
    # all of K3 in one cell: every node sees in-cell degree 2, an EP; the
    # quotient has no self-loops and a zero 1x1 Laplacian, and the lift holds
    pi = Partition(((1, 2, 3),))
    assert verify_equitable(k3, pi).verdict
    q = quotient(k3, pi)
    assert q.adjacency == {}
    Lq = quotient_laplacian(q)
    assert Lq.entries == ((Fraction(0),),)
    P = characteristic_matrix(pi, 3, 1)
    assert verify_lift(build_laplacian(k3), P, Lq)


def test_quotient_round_trip_cell_degrees():
    rng = random.Random(23)
    for _ in range(15):
        g, pi, _ = random_ep_lift(rng)
        q = quotient(g, pi)
        for i, cell_i in enumerate(pi.cells, start=1):
            for j, cell_j in enumerate(pi.cells, start=1):
                if i == j:
                    continue
                want = q.adjacency.get((i, j))
                for v in cell_i:
                    got = cell_degree(g, v, cell_j)
                    if want is None:
                        assert all(x == 0 for row in got for x in row)
                    else:
                        assert got == want


def test_verify_lift_diamond(diamond):
    pi = Partition(((1,), (2, 3), (4,)))
    L = build_laplacian(diamond)
    P = characteristic_matrix(pi, 4, 1)
    Lq = quotient_laplacian(quotient(diamond, pi))
    assert verify_lift(L, P, Lq)


def test_verify_lift_identity_case(diamond):
    L = build_laplacian(diamond)
    P = BlockMatrix.identity(4, 1)
    assert verify_lift(L, P, L)


def test_verify_lift_detects_mismatch():
    g = scalar_graph(4, {(1, 2): 1, (1, 3): 2, (2, 4): 1, (3, 4): 1})
    ok = diamond_ab(1, 1)
    pi = Partition(((1,), (2, 3), (4,)))
    P = characteristic_matrix(pi, 4, 1)
    Lq = quotient_laplacian(quotient(ok, pi))
    assert not verify_lift(build_laplacian(g), P, Lq)


def test_verify_lift_dimension_mismatch(diamond):
    L = build_laplacian(diamond)
    P = characteristic_matrix(Partition(((1,), (2, 3), (4,))), 4, 1)
    with pytest.raises(ValueError):
        verify_lift(L, P, BlockMatrix.identity(2, 1))


def test_lift_identity_on_random_ep_lifts():
    rng = random.Random(77)
    for _ in range(30):
        g, pi, qweights = random_ep_lift(rng)
        assert verify_equitable(g, pi).verdict
        q = quotient(g, pi)
        # reconstruction matches the generating quotient weights (zero sums drop out)
        for (i, j), blk in q.adjacency.items():
            assert qweights[(i, j)] == blk
        L = build_laplacian(g)
        P = characteristic_matrix(pi, g.n, g.d)
        assert verify_lift(L, P, quotient_laplacian(q))


# ---------------------------------------------------------------------------
# the one-pass cell-sum table against the per-pair references
# ---------------------------------------------------------------------------

@st.composite
def partitioned_graphs(draw):
    """(graph, partition) with d = 1..3: a planted EP lift, or a directed,
    entrywise or transpose graph with small signed entries (so sums into a
    cell often cancel) and a random partition."""
    kind = draw(st.sampled_from(("planted", "directed", "entrywise", "transpose")))
    if kind == "planted":
        g, pi, _ = random_ep_lift(random.Random(draw(st.integers(0, 2**32))),
                                  d_choices=(1, 2, 3))
        return g, pi
    n = draw(st.integers(1, 7))
    d = draw(st.integers(1, 3))
    directed = kind == "directed"
    pairs = (itertools.permutations if directed else itertools.combinations)(range(1, n + 1), 2)
    row = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    block = st.lists(row, min_size=d, max_size=d).filter(lambda b: any(any(r) for r in b))
    edges = {pair: draw(block) for pair in pairs if draw(st.booleans())}
    g = MatrixWeightedGraph.create(n, d, edges, [1], directed=directed,
                                   symmetry=None if directed else kind)
    cells = {}
    for v, label in enumerate(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), 1):
        cells.setdefault(label, []).append(v)
    return g, Partition(tuple(tuple(c) for c in cells.values()))


@given(partitioned_graphs())
@settings(max_examples=200, deadline=None)
def test_cell_sums_readers_match_per_pair_references(case):
    g, pi = case
    sums = cell_sums(g, pi.cells)
    for v in range(1, g.n + 1):
        assert degree(g, v) == reference_degree(g, v)
        for idx, cell in enumerate(pi.cells):
            want = reference_cell_degree(g, v, cell)
            assert cell_degree(g, v, cell) == want
            edge = any((v, w) in g.adjacency for w in cell)
            assert sums.get(v, {}).get(idx) == (want if edge else None)
    for same in (True, False):
        assert verify_equitable(g, pi, same) == reference_verify_equitable(g, pi, same)
    for protected in ((), g.leaders, pi.cells[-1]):
        assert coarsest_ep(g, protected) == reference_coarsest_ep(g, protected)
    for p in (pi, coarsest_ep(g, g.leaders)):
        try:
            want = reference_quotient(g, p)
        except NotEquitableError as exc:
            with pytest.raises(NotEquitableError, match=re.escape(str(exc))):
                quotient(g, p)
        else:
            got = quotient(g, p)
            assert got == want and list(got.adjacency) == list(want.adjacency)
