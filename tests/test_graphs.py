import random
import re
from fractions import Fraction

import pytest

from helpers import rand_block, random_graph, reference_laplacian
from ssckit import linalg
from ssckit.graphs import (
    BlockMatrix,
    MatrixWeightedGraph,
    SignConstraint,
    WeightPattern,
    block_from,
    block_is_zero,
    block_transpose,
    build_input_matrix,
    build_laplacian,
    cell_degree,
    cell_sums,
    degree,
    integer_edges,
    laplacian_rows,
)


def scalar_graph(n, edges, leaders=(1,), directed=False):
    return MatrixWeightedGraph.create(
        n, 1, {e: [[w]] for e, w in edges.items()}, leaders, directed=directed
    )


def test_degree_diamond(diamond):
    assert degree(diamond, 1) == ((Fraction(2),),)
    assert degree(diamond, 4) == ((Fraction(2),),)


def test_degree_isolated_node():
    g = scalar_graph(3, {(1, 2): 1})
    assert degree(g, 3) == ((Fraction(0),),)


def test_degree_signed_cancellation():
    g = scalar_graph(3, {(1, 2): 1, (2, 3): -1})
    assert degree(g, 2) == ((Fraction(0),),)


def test_degree_out_of_range(diamond):
    with pytest.raises(ValueError):
        degree(diamond, 5)


def test_cell_degree_diamond(diamond):
    assert cell_degree(diamond, 1, {2, 3}) == ((Fraction(2),),)
    assert cell_degree(diamond, 4, {1}) == ((Fraction(0),),)
    assert cell_degree(diamond, 1, set()) == ((Fraction(0),),)


def test_cell_degree_directions():
    g = scalar_graph(3, {(1, 2): 5}, directed=True)
    assert cell_degree(g, 1, {2}) == ((Fraction(5),),)
    # the arc 1 -> 2 is node 2's in-edge, not one of its out-edges
    assert cell_degree(g, 2, {1}) == ((Fraction(0),),)


def test_cell_sums_table():
    # 2 -> {3, 4} cancels, 4 -> 1 points outside every cell, 3 has no edges
    g = scalar_graph(5, {(1, 2): 2, (2, 3): 1, (2, 4): -1, (4, 1): 7, (5, 3): 4}, directed=True)
    cells = [(2,), (3, 4), (5,)]
    one = lambda x: ((Fraction(x),),)
    assert cell_sums(g, cells) == {1: {0: one(2)}, 2: {1: one(0)}, 5: {1: one(4)}}


def test_laplacian_path3(path3):
    L = build_laplacian(path3)
    want = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    assert [[int(x) for x in row] for row in L.entries] == want


def test_laplacian_edgeless():
    g = scalar_graph(3, {})
    assert all(x == 0 for row in build_laplacian(g).entries for x in row)


def test_laplacian_diamond_two_parameters():
    a, b = Fraction(3), Fraction(5, 2)
    g = scalar_graph(4, {(1, 2): a, (1, 3): a, (2, 4): b, (3, 4): b})
    L = build_laplacian(g)
    diag = [L.entries[i][i] for i in range(4)]
    assert diag == [2 * a, a + b, a + b, 2 * b]
    assert L.entries[0][1] == -a and L.entries[1][3] == -b


def test_laplacian_block_rows_sum_to_zero_random():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6), d=rng.choice([1, 2, 3]),
                         directed=rng.random() < 0.5)
        L = build_laplacian(g)
        for p in range(L.nrows):
            for q in range(g.d):
                assert sum(L.entries[p][c * g.d + q] for c in range(g.n)) == 0


def test_laplacian_is_read_from_the_integer_edges():
    # the sparse integer rows over den and their Fraction view both equal D - A
    rng = random.Random(31)
    for trial in range(45):
        n, d = rng.randint(1, 7), rng.choice([1, 2, 3])
        if trial % 3 == 2:
            edges = {(i, j): rand_block(rng, d, max_den=6)
                     for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.5}
            g = MatrixWeightedGraph.create(n, d, edges, [1], symmetry="transpose")
        else:
            g = random_graph(rng, n, d, directed=trial % 3 == 1, max_den=6)
        L = build_laplacian(g)
        assert L == reference_laplacian(g)
        den, out, values = integer_edges(g.n, g.d, g.adjacency)
        rows = laplacian_rows(g.n, g.d, out, values)
        assert len(rows) == L.nrows
        for row, expect in zip(rows, L.entries):
            assert all(x != 0 for _, x in row)
            dense = dict(row)
            assert [Fraction(dense.get(c, 0), den) for c in range(L.ncols)] == list(expect)


def test_undirected_scalar_laplacian_symmetric():
    rng = random.Random(21)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 6), d=1, directed=False)
        L = build_laplacian(g)
        assert L.entries == L.transpose().entries


def test_undirected_symmetric_blocks_laplacian_symmetric():
    rng = random.Random(22)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 5), d=2, directed=False,
                         symmetric_blocks=True)
        L = build_laplacian(g)
        assert L.entries == L.transpose().entries


def test_transpose_convention_ties_mirrored_blocks():
    g = MatrixWeightedGraph.create(
        2, 2, {(1, 2): [[1, 2], [3, 4]]}, [1], symmetry="transpose"
    )
    assert g.adjacency[(2, 1)] == block_transpose(g.adjacency[(1, 2)])
    L = build_laplacian(g)
    # off-diagonal blocks transpose into each other; the degree blocks need
    # symmetric weights for full-matrix symmetry, which asymmetric blocks lack
    assert L.block(1, 0) == block_transpose(L.block(0, 1))
    assert L.entries != L.transpose().entries


def test_input_matrix_examples():
    M = build_input_matrix([1], 4, 1)
    assert [row[0] for row in M.entries] == [1, 0, 0, 0]
    M2 = build_input_matrix([1, 2], 5, 2)
    assert M2.nrows == 10 and M2.ncols == 4
    assert M2.block(0, 0) == ((1, 0), (0, 1))
    assert M2.block(1, 1) == ((1, 0), (0, 1))
    assert block_is_zero(M2.block(2, 0)) and block_is_zero(M2.block(2, 1))


def test_input_matrix_full_column_rank_random():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 6)
        d = rng.choice([1, 2])
        m = rng.randint(1, n)
        leaders = rng.sample(range(1, n + 1), m)
        M = build_input_matrix(leaders, n, d)
        assert linalg.rank(M.to_lists()) == m * d


def test_input_matrix_errors():
    with pytest.raises(ValueError):
        build_input_matrix([], 4, 1)
    with pytest.raises(ValueError):
        build_input_matrix([1, 1], 4, 1)
    with pytest.raises(ValueError):
        build_input_matrix([5], 4, 1)


def test_graph_invariant_violations():
    with pytest.raises(ValueError):
        scalar_graph(4, {(2, 2): 1})
    with pytest.raises(ValueError):
        scalar_graph(4, {(2, 5): 1})
    with pytest.raises(ValueError):
        scalar_graph(4, {(1, 2): 0})
    with pytest.raises(ValueError):
        MatrixWeightedGraph.create(2, 2, {(1, 2): [[1, 0]]}, [1])
    with pytest.raises(ValueError):
        MatrixWeightedGraph(
            2, 1, {(1, 2): ((Fraction(1),),)}, (1,), "entrywise"
        )  # missing mirror for an undirected graph


@pytest.mark.parametrize("change,message", [
    ({"n": 0}, "n and d must be positive"),
    ({"d": 0}, "n and d must be positive"),
    ({"directed": True}, "directed {kind} use symmetry convention 'none'"),
    ({"symmetry": "skew"}, "unknown symmetry convention 'skew'"),
    ({"leaders": ()}, "leader set must be nonempty"),
    ({"edge": (1, 4)}, "edge (1,4) out of range 1..3"),
    ({"edge": (2, 2)}, "self-loop at node 2"),
])
def test_graphs_and_patterns_share_topology_checks(change, message):
    cfg = {"n": 3, "d": 1, "directed": False, "symmetry": "entrywise", "leaders": (1,),
           "edge": (1, 2), **change}
    n, d, directed, symmetry, leaders, edge = cfg.values()

    def exactly(kind):
        return "^" + re.escape(message.format(kind=kind)) + "$"

    with pytest.raises(ValueError, match=exactly("graphs")):
        MatrixWeightedGraph(n, d, directed, {edge: ((Fraction(1),),)}, leaders, symmetry)
    with pytest.raises(ValueError, match=exactly("patterns")):
        WeightPattern(n, d, directed, leaders, (edge,), ("a",), (), symmetry)


def test_single_node_graph_allowed():
    g = scalar_graph(1, {}, leaders=(1,))
    assert g.n == 1 and g.leaders == (1,)


def test_block_matrix_accessors():
    bm = BlockMatrix.identity(2, 2)
    assert bm.block(0, 0) == ((1, 0), (0, 1))
    assert block_is_zero(bm.block(0, 1))
    with pytest.raises(ValueError):
        bm.block(2, 0)
    with pytest.raises(ValueError):
        BlockMatrix(2, 2, 1, ((Fraction(1),),))


def test_block_matrix_matmul_dims():
    a = BlockMatrix.identity(2, 1)
    b = BlockMatrix.zeros(3, 2, 1)
    with pytest.raises(ValueError):
        a @ b


def test_block_from_rejects_nonsquare():
    with pytest.raises(ValueError):
        block_from([[1, 2], [3, 4], [5, 6]], 3)
    with pytest.raises(ValueError):
        block_from([[1, 2]], d=2)


def test_pattern_validation():
    with pytest.raises(ValueError):
        WeightPattern.create(3, 1, [(1, 2), (2, 1)], [1])  # duplicate after normalizing
    with pytest.raises(ValueError):
        WeightPattern.create(3, 1, [(1, 1)], [1])
    with pytest.raises(ValueError):
        WeightPattern.create(3, 1, [(1, 2)], [1],
                             constraints=[__import__("ssckit").EqualConstraint("a", "b")])


def test_pattern_refuses_conflicting_signs():
    names = {(1, 2): "a", (2, 3): "b"}

    def pattern(*signs):
        return WeightPattern.create(3, 1, [(1, 2), (2, 3)], [1], variable_names=names,
                                    constraints=[SignConstraint(v, s) for v, s in signs])

    with pytest.raises(ValueError, match="conflicting sign constraints on a"):
        pattern(("a", "+"), ("a", "-"), ("b", "+"))
    with pytest.raises(ValueError, match="conflicting sign constraints on b"):
        pattern(("b", "-"), ("a", "+"), ("b", "+"))
    # an identical repeat is accepted and reads as one sign
    p = pattern(("a", "-"), ("a", "-"), ("b", "+"))
    assert p.signs == ("-", "+")
    assert p.sign_of("a") == "-" and p.sign_of("b") == "+" and p.sign_of("c") is None
    assert pattern(("b", "+")).signs == (None, "+")


def test_pattern_entry_column_round_trip():
    p = WeightPattern.create(3, 2, [(1, 2), (2, 3)], [1], symmetry="transpose")
    # A_21 entry (p,q) aliases the (q,p) entry of the (1,2) variable
    assert p.entry_column(2, 1, 0, 1) == p.entry_column(1, 2, 1, 0)
    assert p.entry_column(1, 3, 0, 0) is None
    d = WeightPattern.create(3, 1, [(1, 2)], [1], directed=True)
    assert d.entry_column(2, 1, 0, 0) is None


def test_pattern_materialize(diamond_pattern, diamond):
    one = ((Fraction(1),),)
    assignment = {name: one for name in diamond_pattern.variable_names}
    g = diamond_pattern.materialize(assignment)
    assert g.adjacency == diamond.adjacency
    with pytest.raises(ValueError):
        diamond_pattern.materialize({"a12": one})
