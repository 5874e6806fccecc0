"""Differential tests: sparse integer elimination vs. dense Fraction solve and the sympy oracle.

``ep_constraint_system`` decides feasibility by exact integer elimination and
builds the Fraction solution space only for feasible partitions. Every
candidate is compared with the dense ``solve_affine`` route in
``helpers.dense_ep_system``. The pruned cell-by-cell search of
``enumerate_feasible_eps`` is compared with the unpruned per-partition loop
``helpers.exhaustive_feasible_eps``, and its feasible set with the all-pairs
sympy oracle. The search tests only the children whose first node's edge
counts into the fixed cells allow them; its leaves are compared with
``helpers.reference_search``, which tests every child, and its
``integer_rref`` calls are counted on paths. ``_PatternRows.out``, the one
edge table the EP rows, the strict support test and the draws read, is
compared with ``WeightPattern.entry_column``.
The integer draws of ``sample_weights``, read straight off a system's reduced
rows, are compared with ``helpers.fraction_sample_weights`` over the Fraction
solution space ``linalg.solve_affine`` reads off the same rows.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from helpers import (
    dense_ep_system,
    exhaustive_feasible_eps,
    fraction_sample_weights,
    leader_singleton_partitions,
    oracle_feasible_partitions,
    pinned_sign_conflicts,
    reference_search,
    reference_support_uniform,
    without_signs,
)
from ssckit import linalg
from ssckit.graphs import EqualConstraint, FixedConstraint, SignConstraint, WeightPattern
from ssckit.partitions import Partition
from ssckit.ssc import (
    SamplingError,
    _integer_form,
    _pattern_rows,
    _search,
    _support_uniform,
    enumerate_feasible_eps,
    ep_constraint_system,
    estimate_ssc_dimension,
    resolve_mode,
    sample_weights,
)


@st.composite
def patterns(draw, max_followers=5, max_nodes=8, max_edges=9):
    n = draw(st.integers(min_value=5, max_value=max_nodes))
    d = draw(st.sampled_from([1, 2]))
    directed = draw(st.booleans())
    symmetry = None if directed else draw(st.sampled_from(["entrywise", "transpose"]))
    pairs = list(
        itertools.permutations(range(1, n + 1), 2)
        if directed
        else itertools.combinations(range(1, n + 1), 2)
    )
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=min(len(pairs), max_edges),
                           unique=True))
    followers = draw(st.integers(min_value=2, max_value=min(max_followers, n - 1)))
    leaders = draw(st.permutations(range(1, n + 1)))[: n - followers]
    bare = WeightPattern.create(n, d, chosen, leaders, directed=directed, symmetry=symmetry)
    names = st.sampled_from(bare.variable_names)
    constraints = []
    for left, right in draw(st.lists(st.tuples(names, names), max_size=3)):
        if left != right:
            constraints.append(EqualConstraint(*sorted((left, right))))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    for var, values in draw(st.lists(
        st.tuples(names, st.lists(entry, min_size=d * d, max_size=d * d)), max_size=2
    )):
        if any(values):
            block = tuple(tuple(Fraction(values[p * d + q]) for q in range(d)) for p in range(d))
            constraints.append(FixedConstraint(var, block))
    # one shared sign on every edge is what lets --mode strict take effect
    sign = draw(st.sampled_from([None, None, "+", "-"]))
    if sign is not None:
        constraints.extend(SignConstraint(name, sign) for name in bare.variable_names)
    return WeightPattern.create(
        n, d, chosen, leaders, directed=directed, symmetry=symmetry, constraints=constraints
    )


def candidates(pattern):
    yield None
    yield from leader_singleton_partitions(pattern)


def assert_same_as_dense(pattern, partition, include_same_cell):
    system = ep_constraint_system(pattern, partition, include_same_cell)
    particular, basis, feasible, forced = dense_ep_system(
        pattern, system.partition, include_same_cell
    )
    assert system.feasible == feasible
    assert system.forced_zero == forced
    assert (system.rows is None) == (particular is None)
    if system.rows is not None:
        assert linalg.solve_affine(system.rows, pattern.unknown_count) == (particular, basis)
    return system


@given(patterns(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_every_candidate_matches_dense_solve(pattern, include_same_cell):
    for partition in candidates(pattern):
        assert_same_as_dense(pattern, partition, include_same_cell)


@given(patterns(max_followers=6), st.booleans())
@settings(max_examples=25, deadline=None)
def test_feasible_set_matches_oracle(pattern, include_same_cell):
    if pinned_sign_conflicts(pattern):
        # such a pattern is refused outright; feasibility ignores signs
        pattern = without_signs(pattern)
    found = {
        s.partition.cells
        for s in enumerate_feasible_eps(pattern, include_same_cell=include_same_cell)
    }
    assert found == oracle_feasible_partitions(pattern, include_same_cell)


def summary(systems):
    return [(s.partition, linalg.solve_affine(s.rows, s.pattern.unknown_count),
             s.forced_zero, s.feasible) for s in systems]


@given(patterns(max_followers=6), st.booleans(), st.sampled_from(["cancellative", "strict"]))
@settings(max_examples=150, deadline=None)
def test_pruned_search_matches_exhaustive_reference(pattern, include_same_cell, mode):
    if pinned_sign_conflicts(pattern):
        # constraints that pin an entry against its sign admit no weight
        with pytest.raises(ValueError, match="admit no weight assignment: .* pinned"):
            enumerate_feasible_eps(pattern, mode, include_same_cell=include_same_cell)
        pattern = without_signs(pattern)
    found = enumerate_feasible_eps(pattern, mode, include_same_cell=include_same_cell)
    assert summary(found) == summary(exhaustive_feasible_eps(pattern, mode, include_same_cell))


@given(patterns(max_followers=7, max_nodes=9, max_edges=16), st.booleans())
@settings(max_examples=150, deadline=None)
def test_search_matches_reference_search(pattern, include_same_cell):
    # the same leaves with the same reduced rows, in the same order; the
    # search reads no mode (strict mode tests the leaves afterwards), and
    # ``patterns`` draws the shared sign constraints that make strict effective
    prepared = _pattern_rows(pattern)
    got = list(_search(pattern, prepared, include_same_cell))
    assert got == list(reference_search(pattern, prepared, include_same_cell))


def path_pattern(n):
    return WeightPattern.create(n, 1, [(i, i + 1) for i in range(1, n)], [1])


@pytest.fixture
def rref_calls(monkeypatch):
    # one entry per ``linalg.integer_rref`` call
    calls = []
    original = linalg.integer_rref

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(linalg, "integer_rref", counting)
    return calls


@pytest.mark.parametrize("n", [6, 8, 10, 12])
def test_path_search_reduces_one_child_per_follower(rref_calls, n):
    # led from one end, each new cell's first node has one edge into the
    # last fixed cell and every other follower none, so a single child is
    # tested per level: n - 1 reductions plus the pattern's own, against
    # 2^(n-1) - 1 children tested when every subset is tried
    pattern = path_pattern(n)
    systems = enumerate_feasible_eps(pattern, cap=n)
    assert [s.partition.k for s in systems] == [n]
    assert len(rref_calls) == n
    prepared = _pattern_rows(pattern)
    rref_calls.clear()
    assert len(list(reference_search(pattern, prepared, True))) == 1
    assert len(rref_calls) == 2 ** (n - 1) - 1


def test_eighteen_node_path_bound_takes_one_reduction_per_node(rref_calls):
    # 17 followers: 131072 reductions, about 9 s, when every child is tested;
    # the whole bound, draws and ranks included, reduces once per node
    report = estimate_ssc_dimension(path_pattern(18), cap=20)
    assert len(rref_calls) == 18
    assert report.k_min == 18 and len(report.systems) == 2


def assert_edge_table_matches_entry_column(pattern):
    d = pattern.d
    out = _pattern_rows(pattern).out
    for i in range(1, pattern.n + 1):
        cols = dict(out[i])
        assert len(cols) == len(out[i])  # one entry per neighbour
        for j in range(1, pattern.n + 1):
            for p, q in itertools.product(range(d), repeat=2):
                got = cols[j][p * d + q] if j in cols else None
                assert got == pattern.entry_column(i, j, p, q)


@given(patterns())
@settings(max_examples=100, deadline=None)
def test_edge_table_matches_entry_column(pattern):
    assert_edge_table_matches_entry_column(pattern)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", ["directed", "entrywise", "transpose"])
def test_edge_table_covers_every_kind(kind, d):
    # one drawn pattern per orientation convention and block size, so none
    # of them is left to chance
    symmetry = "none" if kind == "directed" else kind
    pattern = find(patterns(), lambda p: p.d == d and p.symmetry == symmetry and len(p.edges) >= 3)
    assert_edge_table_matches_entry_column(pattern)


@given(patterns())
@settings(max_examples=60, deadline=None)
def test_support_test_matches_edge_list_reference(pattern):
    prepared = _pattern_rows(pattern)
    for pi in leader_singleton_partitions(pattern):
        assert _support_uniform(prepared, pi) == reference_support_uniform(pattern, pi)


def sampled_systems(pattern):
    """The systems ``bound`` samples: every feasible EP system and the unconstrained one."""
    if pinned_sign_conflicts(pattern):
        pattern = without_signs(pattern)  # refused outright otherwise
    free = ep_constraint_system(pattern, None)
    return enumerate_feasible_eps(pattern) + ([free] if free.feasible else [])


def assert_draws_match_fraction_reference(pattern, seeds=range(3)):
    for system in sampled_systems(pattern):
        particular, basis = linalg.solve_affine(system.rows, system.pattern.unknown_count)
        den = math.lcm(*(x.denominator for x in particular),
                       *(x.denominator for vec in basis for x in vec))
        assert _integer_form(system)[0] == den
        for seed in seeds:
            try:
                got = sample_weights(system, seed)
            except SamplingError:
                got = None
            assert got == fraction_sample_weights(system, seed)


@given(patterns())
@settings(max_examples=60, deadline=None)
def test_draws_match_fraction_reference(pattern):
    assert_draws_match_fraction_reference(pattern)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", ["directed", "entrywise", "transpose"])
def test_draws_match_fraction_reference_for_every_kind(kind, d):
    # every orientation and block size with equal, fixed and sign constraints;
    # the fixed values over 2 and 3 put every system's denominator above 1
    third = Fraction(1, 3)
    value = tuple(tuple(Fraction(p - q + 1, 2) if p == q else third * (p - q)
                        for q in range(d)) for p in range(d))
    constraints = [EqualConstraint("w2_4", "w3_4"), FixedConstraint("w4_5", value),
                   SignConstraint("w1_2", "+")]
    if d == 1:  # two signed 2 x 2 blocks are rarely drawn within the rejection budget
        constraints.append(SignConstraint("w1_3", "-"))
    directed = kind == "directed"
    pattern = WeightPattern.create(
        5, d, [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (2, 5)], [1],
        directed=directed, symmetry=None if directed else kind, constraints=constraints,
    )
    systems = sampled_systems(pattern)
    assert len(systems) > 1 and all(_integer_form(s)[0] > 1 for s in systems)
    assert_draws_match_fraction_reference(pattern, seeds=range(10))


def test_patterns_reach_strict_mode():
    find(patterns(), lambda p: resolve_mode(p, "strict") == "strict")


def test_transpose_symmetry_ties_mirrored_entries():
    # A_32 is the (2,3) block transposed, so equal sums out of nodes 1 and 3
    # into cell {2} tie a12 to the transpose of a23
    p = WeightPattern.create(3, 2, [(1, 2), (2, 3)], [2], symmetry="transpose")
    system = assert_same_as_dense(p, Partition(((1, 3), (2,))), True)
    particular, basis = linalg.solve_affine(system.rows, p.unknown_count)
    assert system.feasible and len(basis) == 4
    for vec in [particular] + basis:
        assert vec[0:4] == [vec[4], vec[6], vec[5], vec[7]]


def test_inconsistent_pattern_rows_mark_every_edge():
    p = WeightPattern.create(
        3, 1, [(1, 2), (2, 3)], [1],
        constraints=[
            FixedConstraint("w1_2", ((Fraction(1),),)),
            FixedConstraint("w2_3", ((Fraction(2),),)),
            EqualConstraint("w1_2", "w2_3"),
        ],
    )
    system = assert_same_as_dense(p, Partition(((1,), (2,), (3,))), True)
    assert system.rows is None and system.forced_zero == p.edges


def test_integer_rref_leaves_its_seed_untouched():
    seed = linalg.integer_rref([{0: 2, 1: -2}], 3)
    assert seed == {0: {0: 1, 1: -1}}
    grown = linalg.integer_rref([{1: 3, 3: 6}], 3, seed)
    assert grown == {0: {0: 1, 3: 2}, 1: {1: 1, 3: 2}}
    assert seed == {0: {0: 1, 1: -1}}
    assert linalg.integer_rref([{0: 1, 1: -1, 3: 1}], 3, seed) is None
