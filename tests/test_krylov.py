import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    hstack,
    materialized_ctrb,
    negated,
    random_ep_lift,
    random_graph,
    shifted,
    spans_equal,
    sympy_domain_rank,
    sympy_pivots,
    sympy_rank,
)
from ssckit import linalg
from ssckit.graphs import (
    BlockMatrix,
    build_input_matrix,
    build_laplacian,
)
from ssckit.krylov import (
    MODULUS,
    controllable_dim,
    controllable_subspace,
    dual_pair,
    integer_pair,
    is_controllable,
    observability_matrix,
    support_bound,
)


def pair_for(g):
    return build_laplacian(g), build_input_matrix(g.leaders, g.n, g.d)


def test_path3_fully_controllable(path3):
    L, M = pair_for(path3)
    cs = controllable_subspace(L, M)
    assert cs.dim == 3
    assert is_controllable(L, M)


def test_full_rank_input_is_everything():
    rng = random.Random(2)
    g = random_graph(rng, 4, d=1, leaders=[1, 2, 3, 4])
    L, M = pair_for(g)
    assert controllable_subspace(L, M).dim == 4


def test_star4_invariant_plane(star4):
    L, M = pair_for(star4)
    cs = controllable_subspace(L, M)
    assert cs.dim == 2
    assert not is_controllable(L, M)


def test_edgeless_graph_not_controllable():
    from ssckit.graphs import MatrixWeightedGraph

    g = MatrixWeightedGraph.create(3, 1, {}, [1])
    L, M = pair_for(g)
    cs = controllable_subspace(L, M)
    assert cs.dim == 1
    assert not is_controllable(L, M)


def test_dimension_mismatch_errors():
    L = BlockMatrix.identity(3, 1)
    M = build_input_matrix([1], 4, 1)
    with pytest.raises(ValueError):
        controllable_subspace(L, M)
    with pytest.raises(ValueError):
        dual_pair(BlockMatrix.zeros(2, 3, 1), M)


def test_basis_is_invariant_and_contains_inputs():
    rng = random.Random(9)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 5), d=rng.choice([1, 2]),
                         directed=rng.random() < 0.5)
        L, M = pair_for(g)
        cs = controllable_subspace(L, M)
        basis = [list(r) for r in cs.basis]
        assert linalg.rank(basis) == cs.dim
        lb = linalg.mat_mul(L.to_lists(), basis)
        assert linalg.rank(hstack(basis, lb)) == cs.dim
        assert linalg.rank(hstack(basis, M.to_lists())) == cs.dim


def test_basis_is_first_independent_columns_of_ctrb():
    # the kept Krylov columns are the pivot columns of the full [M LM ... L^{nd-1}M]:
    # only kept columns are multiplied, so deficient spans
    # (planted equitable partitions, nd up to 40) test that rule hardest
    rng = random.Random(47)
    cases = []
    for trial in range(24):
        d = 1 + trial % 2
        g = random_graph(rng, rng.randint(2, 12 // d), d=d, directed=trial % 4 >= 2)
        cases.append(pair_for(g))
    deficient = 0
    while deficient < 10:
        L, M = pair_for(random_ep_lift(rng, max_cells=5, max_cell_size=4)[0])
        if sympy_rank(materialized_ctrb(L, M)) < L.nrows:
            cases.append((L, M))
            deficient += 1
    for L, M in cases:
        full = materialized_ctrb(L, M)
        expected = [[row[c] for row in full] for c in sympy_pivots(full)]
        cs = controllable_subspace(L, M)
        assert [list(col) for col in zip(*cs.basis)] == expected
        assert cs.dim == len(expected)


def test_rational_blocks_match_materialized_ctrb():
    # non-unit denominators in L (and in M): the integer Krylov columns carry
    # a scale D^k that must come back out of every kept column
    rng = random.Random(53)
    rational = 0
    for trial in range(24):
        d = 1 + trial % 2
        g = random_graph(rng, rng.randint(2, 12 // d), d=d, directed=trial % 4 >= 2, max_den=7)
        L, M = pair_for(g)
        if trial % 3 == 2:
            M = BlockMatrix(M.block_rows, M.block_cols, d, tuple(
                tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 7)) for _ in row)
                for row in M.entries
            ))
        rational += any(x.denominator > 1 for row in L.entries for x in row)
        full = materialized_ctrb(L, M)
        cs = controllable_subspace(L, M)
        expected = [[row[c] for row in full] for c in sympy_pivots(full)]
        assert [list(col) for col in zip(*cs.basis)] == expected
        assert cs.dim == sympy_rank(full)
    assert rational >= 20


def test_early_stop_matches_materialized_oracle():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 5)
        g = random_graph(rng, n, d=1, directed=rng.random() < 0.5)
        L, M = pair_for(g)
        dim = controllable_subspace(L, M).dim
        full = materialized_ctrb(L, M)
        assert dim == sympy_rank(full)


def test_shift_and_sign_invariance():
    rng = random.Random(14)
    for _ in range(12):
        g = random_graph(rng, rng.randint(2, 5), d=1, directed=rng.random() < 0.5)
        L, M = pair_for(g)
        alpha = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        base = controllable_subspace(L, M).basis
        shifted_basis = controllable_subspace(shifted(L, alpha), M).basis
        negated_basis = controllable_subspace(negated(L), M).basis
        assert spans_equal(base, shifted_basis)
        assert spans_equal(base, negated_basis)


def test_dual_pair_symmetric_is_identity(diamond):
    L, M = pair_for(diamond)
    Lt, Mt = dual_pair(L, M)
    assert Lt.entries == L.entries and Mt is M


def test_dual_pair_directed_two_cycle():
    from ssckit.graphs import MatrixWeightedGraph

    g = MatrixWeightedGraph.create(2, 1, {(1, 2): [[2]], (2, 1): [[5]]}, [1],
                                   directed=True)
    L, _ = pair_for(g)
    Lt, _ = dual_pair(L, build_input_matrix([1], 2, 1))
    assert Lt.entries[0][1] == L.entries[1][0]
    assert Lt.entries[1][0] == L.entries[0][1]


def test_dual_of_dual_is_original():
    rng = random.Random(6)
    g = random_graph(rng, 4, d=2, directed=True)
    L, M = pair_for(g)
    Ldd, Mdd = dual_pair(*dual_pair(L, M))
    assert Ldd.entries == L.entries and Mdd is M


def test_observability_rank_equals_dual_controllability():
    rng = random.Random(8)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 5), d=1, directed=True)
        L, M = pair_for(g)
        obs = observability_matrix(L, M)
        dual_dim = controllable_subspace(*dual_pair(L, M)).dim
        assert linalg.rank(obs) == dual_dim
        assert sympy_rank(obs) == dual_dim


@st.composite
def krylov_pairs(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=2, max_value=24 // d))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    leaders = sorted(rng.sample(range(1, n + 1), draw(st.integers(min_value=1, max_value=2))))
    g = random_graph(
        rng, n, d, directed=draw(st.booleans()),
        density=draw(st.sampled_from([0.1, 0.25, 0.5])), leaders=leaders,
        max_den=draw(st.sampled_from([1, 4])),
    )
    return pair_for(g)


@given(krylov_pairs(), st.data())
@settings(max_examples=60, deadline=None)
def test_controllable_dim_matches_exact_and_sympy(pair, data):
    # nd up to 24, beyond the materialized oracles above
    L, M = pair
    nd = L.nrows
    L_int, M_cols, _, _ = integer_pair(L, M)
    exact = controllable_subspace(L, M).dim
    assert exact == sympy_domain_rank(materialized_ctrb(L, M))
    assert controllable_dim(L_int, M_cols, nd) == exact
    assert controllable_dim(L_int, M_cols, nd, backend="float") <= exact
    # any true upper bound: the certified branch at exact, the exact loop above it
    upper = data.draw(st.integers(min_value=exact, max_value=nd))
    assert controllable_dim(L_int, M_cols, upper) == exact
    assert controllable_dim(L_int, M_cols, exact) == exact


@st.composite
def dual_graphs(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    if draw(st.booleans()):
        # a planted equitable partition: the dual span is often deficient,
        # so controllable_dim falls back to the exact loop
        return random_ep_lift(rng)[0]
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=2, max_value=24 // d))
    leaders = sorted(rng.sample(range(1, n + 1), draw(st.integers(min_value=1, max_value=2))))
    return random_graph(
        rng, n, d, directed=draw(st.booleans()),
        density=draw(st.sampled_from([0.1, 0.25, 0.5])), leaders=leaders,
        max_den=draw(st.sampled_from([1, 4])),
    )


@given(dual_graphs())
@settings(max_examples=60, deadline=None)
def test_dual_rank_matches_sympy_observability_rank(g):
    # the CLI's reading of the observability rank, against its definition, nd up to 24
    L, M = pair_for(g)
    Lt_int, M_cols, _, _ = integer_pair(L.transpose(), M)
    rank = sympy_domain_rank(observability_matrix(L, M))
    upper = support_bound(Lt_int, M_cols)
    assert rank <= upper <= L.nrows
    assert controllable_dim(Lt_int, M_cols, L.nrows) == rank
    assert controllable_dim(Lt_int, M_cols, upper) == rank


def test_modular_rank_drop_falls_back_to_exact():
    # L e1 = p e2 vanishes mod p: the modular rank is 1, the true dimension 2
    L_int = [[], [(0, MODULUS)]]
    M_cols = [[1, 0]]
    assert controllable_dim(L_int, M_cols, 2, backend="float") == 1
    assert controllable_dim(L_int, M_cols, 2) == 2
    with pytest.raises(ValueError, match="backend"):
        controllable_dim(L_int, M_cols, 2, backend="svd")
