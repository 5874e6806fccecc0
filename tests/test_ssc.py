import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    benchmark_workloads,
    fraction_sample_weights,
    hstack,
    oracle_feasible_partitions,
    rand_block,
    random_graph,
    reference_reversal_check,
)
from ssckit import linalg, ssc
from ssckit.corpus import load_fixture
from ssckit.graphs import (
    EqualConstraint,
    FixedConstraint,
    MatrixWeightedGraph,
    SignConstraint,
    WeightPattern,
    block_add,
    block_is_zero,
    block_transpose,
    build_input_matrix,
    build_laplacian,
    laplacian_rows,
)
from ssckit.krylov import BACKENDS, controllable_dim, controllable_subspace
from ssckit.netio import parse_network
from ssckit.partitions import (
    Partition,
    characteristic_matrix,
    quotient,
    quotient_laplacian,
    verify_equitable,
)
from ssckit.ssc import (
    EnumerationCapError,
    SamplingError,
    enumerate_feasible_eps,
    ep_constraint_system,
    estimate_ssc_dimension,
    invariant_node_report,
    min_cell_ep,
    resolve_mode,
    reversal_check,
    sample_weights,
    ssc_upper_bound,
)


def feasible_cells(pattern, mode="cancellative"):
    return {s.partition.cells for s in enumerate_feasible_eps(pattern, mode)}


# ---------------------------------------------------------------------------
# constraint systems
# ---------------------------------------------------------------------------

def test_diamond_min_cell_solution_space(diamond_pattern):
    system = ep_constraint_system(diamond_pattern, Partition(((1,), (2, 3), (4,))))
    assert system.feasible
    particular, basis = linalg.solve_affine(system.rows, diamond_pattern.unknown_count)
    # solution space is exactly {a12 = a13, a24 = a34}: 2 free directions
    assert len(basis) == 2
    col = diamond_pattern.variable_column
    for vec in [particular] + basis:
        assert vec[col("a12", 0, 0)] == vec[col("a13", 0, 0)]
        assert vec[col("a24", 0, 0)] == vec[col("a34", 0, 0)]


def test_k3_min_cell_solution_space(k3_pattern):
    system = ep_constraint_system(k3_pattern, Partition(((1,), (2, 3))))
    assert system.feasible
    _, basis = linalg.solve_affine(system.rows, k3_pattern.unknown_count)
    assert len(basis) == 2  # a12 = a13 tied, a23 free
    col = k3_pattern.variable_column
    for vec in basis:
        assert vec[col("a12", 0, 0)] == vec[col("a13", 0, 0)]


def test_path3_grouped_followers_infeasible(path3_pattern):
    system = ep_constraint_system(path3_pattern, Partition(((1,), (2, 3))))
    assert not system.feasible
    assert (1, 2) in system.forced_zero


def test_fixed_constraint_enters_system():
    p = WeightPattern.create(
        2, 1, [(1, 2)], [1],
        constraints=[__import__("ssckit").FixedConstraint("w1_2", ((Fraction(5),),))],
    )
    system = ep_constraint_system(p, None)
    assert system.feasible
    particular, basis = linalg.solve_affine(system.rows, p.unknown_count)
    assert particular[0] == 5 and basis == []


def test_inconsistent_fixed_constraints_infeasible():
    from ssckit import EqualConstraint, FixedConstraint

    p = WeightPattern.create(
        3, 1, [(1, 2), (1, 3)], [1],
        constraints=[
            FixedConstraint("w1_2", ((Fraction(1),),)),
            FixedConstraint("w1_3", ((Fraction(2),),)),
            EqualConstraint("w1_2", "w1_3"),
        ],
    )
    system = ep_constraint_system(p, None)
    assert not system.feasible and system.rows is None
    assert enumerate_feasible_eps(p) == []
    with pytest.raises(ValueError):
        min_cell_ep(p)
    with pytest.raises(ValueError):
        estimate_ssc_dimension(p, samples_per_system=1)


def test_all_leaders_pattern():
    p = WeightPattern.create(3, 1, [(1, 2), (2, 3)], [1, 2, 3])
    report = estimate_ssc_dimension(p, samples_per_system=4, seed=0)
    assert report.k_min == 3 and report.bound == report.state_dim == 3
    assert report.ssc_verdict is None  # M is square full rank; bound vacuous
    assert all(dim == 3 for _, dim in report.sampled_dims)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_diamond(diamond_pattern):
    cells = feasible_cells(diamond_pattern)
    assert cells == {
        ((1,), (2,), (3,), (4,)),
        ((1,), (2, 3), (4,)),
    }


def test_all_singleton_always_feasible():
    rng = random.Random(3)
    for _ in range(6):
        g = random_graph(rng, rng.randint(2, 5), d=1, leaders=[1], density=0.8)
        edges = {(min(i, j), max(i, j)) for (i, j) in g.adjacency}
        if not edges:
            continue
        pattern = WeightPattern.create(g.n, 1, list(edges), [1])
        singles = tuple((i,) for i in range(1, g.n + 1))
        assert singles in feasible_cells(pattern)


def test_enumerate_requires_edges():
    p = WeightPattern.create(2, 1, [], [1])
    with pytest.raises(ValueError):
        enumerate_feasible_eps(p)


def test_enumeration_cap():
    n = 16
    edges = [(i, i + 1) for i in range(1, n)]
    p = WeightPattern.create(n, 1, edges, [1])
    with pytest.raises(EnumerationCapError):
        enumerate_feasible_eps(p)
    with pytest.raises(EnumerationCapError):
        enumerate_feasible_eps(p, cap=5)


def test_strict_mode_gate(path3_pattern):
    # no sign constraints: strict silently degrades to cancellative
    assert resolve_mode(path3_pattern, "strict") == "cancellative"
    signed = WeightPattern.create(
        3, 1, [(1, 2), (2, 3)], [1],
        constraints=[SignConstraint("w1_2", "+"), SignConstraint("w2_3", "+")],
    )
    assert resolve_mode(signed, "strict") == "strict"
    mixed = WeightPattern.create(
        3, 1, [(1, 2), (2, 3)], [1],
        constraints=[SignConstraint("w1_2", "+"), SignConstraint("w2_3", "-")],
    )
    assert resolve_mode(mixed, "strict") == "cancellative"
    with pytest.raises(ValueError):
        resolve_mode(path3_pattern, "bogus")


def test_bound_prepares_its_pattern_once(monkeypatch):
    # one reduction of the pattern rows, one mode decision and no per-variable
    # sign scan per bound, however many systems it samples
    from ssckit.cli import main

    calls = {"_pattern_rows": 0, "resolve_mode": 0, "sign_of": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_pattern_rows", "resolve_mode"):
        monkeypatch.setattr(ssc, name, counted(name, getattr(ssc, name)))
    monkeypatch.setattr(WeightPattern, "sign_of", counted("sign_of", WeightPattern.sign_of))
    fixture = Path(ssc.__file__).parent / "fixtures" / "star4_pattern.json"
    for mode in ("cancellative", "strict"):
        calls.update(dict.fromkeys(calls, 0))
        assert main(["bound", "--input", str(fixture), "--mode", mode, "--samples", "2"]) == 0
        assert calls == {"_pattern_rows": 1, "resolve_mode": 1, "sign_of": 0}


def test_strict_prunes_path3_grouping():
    signed = WeightPattern.create(
        3, 1, [(1, 2), (2, 3)], [1],
        constraints=[SignConstraint("w1_2", "+"), SignConstraint("w2_3", "+")],
    )
    cells = feasible_cells(signed, mode="strict")
    assert cells == {((1,), (2,), (3,))}


def cancellation_pattern(signs=False):
    # node 2 reaches cell {4,5} twice, node 3 not at all; the grouped
    # partition {{1},{2,3},{4,5}} survives only if a24 + a25 may cancel
    edges = [(2, 1), (3, 1), (2, 4), (2, 5)]
    constraints = []
    if signs:
        constraints = [SignConstraint(f"w{i}_{j}", "+") for (i, j) in edges]
    return WeightPattern.create(5, 1, edges, [1], directed=True,
                                constraints=constraints)


def test_cancellative_keeps_cancellation_partition():
    target = ((1,), (2, 3), (4, 5))
    assert target in feasible_cells(cancellation_pattern(signs=False))
    assert target in feasible_cells(cancellation_pattern(signs=True), mode="cancellative")
    assert target not in feasible_cells(cancellation_pattern(signs=True), mode="strict")


def test_enumeration_agrees_with_symbolic_oracle(
    diamond_pattern, path3_pattern, star4_pattern, k3_pattern
):
    patterns = [diamond_pattern, path3_pattern, star4_pattern, k3_pattern,
                cancellation_pattern()]
    for pattern in patterns:
        mine = feasible_cells(pattern)
        oracle = oracle_feasible_partitions(pattern)
        assert mine == oracle


def test_enumeration_agrees_with_oracle_block_weights():
    p = WeightPattern.create(3, 2, [(1, 2), (1, 3), (2, 3)], [1])
    assert feasible_cells(p) == oracle_feasible_partitions(p)
    t = WeightPattern.create(3, 2, [(1, 2), (1, 3), (2, 3)], [1], symmetry="transpose")
    assert feasible_cells(t) == oracle_feasible_partitions(t)


# ---------------------------------------------------------------------------
# min cell, bound
# ---------------------------------------------------------------------------

def test_min_cell_examples(diamond_pattern, star4_pattern, k3_pattern):
    assert min_cell_ep(diamond_pattern).partition.cells == ((1,), (2, 3), (4,))
    assert min_cell_ep(star4_pattern).partition.cells == ((1,), (2, 3, 4))
    assert min_cell_ep(k3_pattern).partition.cells == ((1,), (2, 3))


def test_bounds(diamond_pattern, star4_pattern, path3_pattern):
    assert ssc_upper_bound(diamond_pattern) == 3
    assert ssc_upper_bound(star4_pattern) == 2
    assert ssc_upper_bound(path3_pattern) == 3  # vacuous: equals n*d


def test_bound_scales_with_block_dimension():
    p = WeightPattern.create(4, 2, [(1, 2), (1, 3), (2, 4), (3, 4)], [1])
    assert min_cell_ep(p).partition.k == 3
    assert ssc_upper_bound(p) == 6


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_respects_solution_space(diamond_pattern):
    system = min_cell_ep(diamond_pattern)
    for seed in range(10):
        g = sample_weights(system, seed)
        assert g.adjacency[(1, 2)] == g.adjacency[(1, 3)]
        assert g.adjacency[(2, 4)] == g.adjacency[(3, 4)]
        assert verify_equitable(g, system.partition).verdict


def test_sample_deterministic(diamond_pattern):
    system = min_cell_ep(diamond_pattern)
    assert sample_weights(system, 5) == sample_weights(system, 5)
    assert sample_weights(diamond_pattern, 5) == sample_weights(diamond_pattern, 5)


def test_sample_fixed_value_held():
    from ssckit import FixedConstraint

    p = WeightPattern.create(
        3, 1, [(1, 2), (2, 3)], [1],
        constraints=[FixedConstraint("w1_2", ((Fraction(5),),))],
    )
    for seed in range(8):
        g = sample_weights(p, seed)
        assert g.adjacency[(1, 2)] == ((Fraction(5),),)


def test_sample_sign_constraint_held():
    p = WeightPattern.create(
        3, 1, [(1, 2), (2, 3)], [1],
        constraints=[SignConstraint("w1_2", "+"), SignConstraint("w2_3", "-")],
    )
    for seed in range(8):
        g = sample_weights(p, seed)
        assert g.adjacency[(1, 2)][0][0] > 0
        assert g.adjacency[(2, 3)][0][0] < 0


def test_sample_fractional_constraints_match_fraction_reference():
    # fixed values over 2, 3, 7 and a tie e = g that the EP rows turn into
    # 2g = f + h, so particular and basis both carry non-unit denominators;
    # without the fixed values only the basis does
    from ssckit import EqualConstraint, FixedConstraint

    half, third, seventh = Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)
    zero = Fraction(0)
    tie = EqualConstraint("e", "g")
    fixed = [
        FixedConstraint("a", ((half, zero), (-2 * third, 3 * seventh))),
        FixedConstraint("f", ((third, zero), (zero, -5 * seventh))),
        SignConstraint("r", "+"),
    ]
    edges = [(1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 1), (5, 1)]
    names = dict(zip(edges, "abegfhrs"))
    patterns = [
        WeightPattern.create(5, 2, edges, [1], directed=True, variable_names=names,
                             constraints=[tie] + fixed),
        WeightPattern.create(5, 2, edges, [1], directed=True, variable_names=names,
                             constraints=[tie]),
        WeightPattern.create(3, 2, [(1, 2), (2, 3)], [1], directed=True, constraints=[
            SignConstraint("w1_2", "-"),
            FixedConstraint("w2_3", ((half, zero), (zero, -seventh))),
        ]),
    ]
    for p in patterns[:2]:
        systems = enumerate_feasible_eps(p) + [ep_constraint_system(p, None)]
        assert any(x.denominator > 1 for s in systems
                   for v in linalg.solve_affine(s.rows, p.unknown_count)[1] for x in v)
    for p in patterns:
        for system in enumerate_feasible_eps(p) + [ep_constraint_system(p, None)]:
            for seed in range(50):
                assert sample_weights(system, seed) == fraction_sample_weights(system, seed)


def test_sample_infeasible_system_errors(path3_pattern):
    system = ep_constraint_system(path3_pattern, Partition(((1,), (2, 3))))
    with pytest.raises(SamplingError):
        sample_weights(system, 0)


def test_sample_rejection_budget_exhausts():
    # + and - required on the same cancellation pair: every draw is rejected
    p = cancellation_pattern(signs=True)
    system = ep_constraint_system(p, Partition(((1,), (2, 3), (4, 5))))
    assert system.feasible  # linear part is fine; signs make it unsamplable
    with pytest.raises(SamplingError):
        sample_weights(system, 0)


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

def test_diamond_report(diamond_pattern):
    report = estimate_ssc_dimension(diamond_pattern, samples_per_system=16, seed=0)
    assert report.k_min == 3 and report.bound == 3 and report.state_dim == 4
    assert report.ssc_verdict is False
    assert report.ssc_estimate == 3
    assert report.witness_partition.cells == ((1,), (2, 3), (4,))
    # witness weights satisfy the defining equalities
    w = dict(report.witness_weights)
    assert w[(1, 2)] == w[(1, 3)] and w[(2, 4)] == w[(3, 4)]
    ep_dims = [dim for s in report.systems if s.k == 3 for _, dim in s.samples]
    assert ep_dims and all(dim == 3 for dim in ep_dims)
    unconstrained = [s for s in report.systems if s.partition is None]
    assert len(unconstrained) == 1


def test_star_report_invariant_core(star4_pattern):
    report = estimate_ssc_dimension(star4_pattern, samples_per_system=16, seed=0)
    assert report.bound == 2 and report.ssc_estimate == 2
    assert report.ssc_verdict is False
    summary = invariant_node_report(report)
    assert summary["invariant_controllable_core"] is True
    assert summary["strongly_structurally_controllable"] is False


def test_path3_report_unknown(path3_pattern):
    report = estimate_ssc_dimension(path3_pattern, samples_per_system=16, seed=0)
    assert report.bound == report.state_dim == 3
    assert report.ssc_verdict is None
    assert all(dim == 3 for _, dim in report.sampled_dims)
    summary = invariant_node_report(report)
    assert summary["strongly_structurally_controllable"] == "unknown"
    assert summary["invariant_controllable_core"] is False


def test_report_bound_consistency(diamond_pattern, star4_pattern, k3_pattern):
    for pattern in (diamond_pattern, star4_pattern, k3_pattern):
        report = estimate_ssc_dimension(pattern, samples_per_system=12, seed=3)
        for s in report.systems:
            if s.k is not None:
                assert all(dim <= pattern.d * s.k for _, dim in s.samples)
        assert report.ssc_estimate <= report.bound


def test_report_subspace_containment(diamond_pattern, star4_pattern, k3_pattern):
    for pattern in (diamond_pattern, star4_pattern, k3_pattern):
        for system in enumerate_feasible_eps(pattern):
            P = characteristic_matrix(system.partition, pattern.n, pattern.d)
            p_rows = P.to_lists()
            p_rank = linalg.rank(p_rows)
            for seed in range(6):
                g = sample_weights(system, seed)
                cs = controllable_subspace(
                    build_laplacian(g), build_input_matrix(g.leaders, g.n, g.d)
                )
                stacked = hstack(p_rows, [list(r) for r in cs.basis])
                assert linalg.rank(stacked) == p_rank


def test_report_deterministic(diamond_pattern):
    a = estimate_ssc_dimension(diamond_pattern, samples_per_system=8, seed=11)
    b = estimate_ssc_dimension(diamond_pattern, samples_per_system=8, seed=11)
    assert a == b and a.to_dict() == b.to_dict()


def mixed_pattern(kind, d):
    """Five nodes, leader 1, with equal, fixed (over 2 and 3) and, for d < 3, sign constraints.

    ``kind`` is "directed", "entrywise" or "transpose"; the fixed block is not
    symmetric, so the transpose convention shows in the mirrored entries.
    """
    edges = [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (2, 3)]
    if kind == "directed":
        edges += [(4, 1), (5, 2), (3, 2)]
    names = {e: f"x{i}" for i, e in enumerate(edges)}
    fixed = tuple(
        tuple(Fraction(p + 1, 2) if p == q else Fraction(q - p, 3) for q in range(d))
        for p in range(d)
    )
    constraints = [EqualConstraint("x1", "x2"), FixedConstraint("x0", fixed)]
    if d < 3:  # nine entries of one sign are rarely drawn within the rejection budget
        constraints.append(SignConstraint("x4", "+"))
    if d == 1:
        constraints.append(SignConstraint("x5", "-"))
    directed = kind == "directed"
    return WeightPattern.create(
        5, d, edges, [1], directed=directed, symmetry=None if directed else kind,
        variable_names=names, constraints=constraints,
    )


@pytest.mark.parametrize("kind", ["directed", "entrywise", "transpose"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_laplacian_rows_match_build_laplacian(kind, d):
    pattern = mixed_pattern(kind, d)
    prepared = ssc._pattern_rows(pattern)
    systems = enumerate_feasible_eps(pattern) + [ep_constraint_system(pattern, None)]
    assert len(systems) > 1
    for system in systems:
        form = ssc._integer_form(system)
        den = form[0]
        for seed in range(3):
            vec = ssc._draw(pattern, system.key(), form, seed)
            rows = laplacian_rows(pattern.n, pattern.d, prepared.out, vec)
            L = build_laplacian(sample_weights(system, seed))
            assert len(rows) == L.nrows
            for row, expect in zip(rows, L.entries):
                assert all(x != 0 for _, x in row)
                dense = dict(row)
                assert [dense.get(c, 0) for c in range(L.ncols)] == [den * x for x in expect]
    assert any(ssc._integer_form(s)[0] > 1 for s in systems)


def draws(pattern, systems, samples, seed=0):
    """(system, derived seed, den, drawn unknowns) for every draw ``bound`` makes of ``systems``."""
    for system in systems:
        form = ssc._integer_form(system)
        for i in range(samples):
            sseed = ssc._derive_seed(seed, system.key(), i)
            yield system, sseed, form[0], ssc._draw(pattern, system.key(), form, sseed)


def quotient_cells(system):
    # the cells bound ranks a draw on: singletons for the unconstrained system
    if system.partition is None:
        return tuple((v,) for v in range(1, system.pattern.n + 1))
    return system.partition.cells


@pytest.mark.parametrize("kind", ["directed", "entrywise", "transpose"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_quotient_rows_match_quotient_laplacian(kind, d):
    # one representative node per cell, its neighbours read through the cell
    # map: the rows over den are the Laplacian of partitions.quotient of the
    # drawn graph (the all-singleton quotient of a free draw is L itself)
    pattern = mixed_pattern(kind, d)
    prepared = ssc._pattern_rows(pattern)
    systems = enumerate_feasible_eps(pattern) + [ep_constraint_system(pattern, None)]
    assert any(s.k is not None and s.k < pattern.n for s in systems)
    for system, sseed, den, vec in draws(pattern, systems, 3):
        cells = quotient_cells(system)
        out, inputs = ssc._quotient_pair(pattern, prepared, cells)
        rows = laplacian_rows(len(cells), d, out, vec)
        Lq = quotient_laplacian(quotient(sample_weights(system, sseed), Partition(cells)))
        for row, expect in zip(rows, Lq.entries, strict=True):
            dense = dict(row)
            assert [Fraction(dense.get(c, 0), den) for c in range(Lq.ncols)] == list(expect)
        M = build_input_matrix(pattern.leaders, pattern.n, d)
        P = characteristic_matrix(Partition(cells), pattern.n, d)
        assert [list(col) for col in zip(*M.entries)] == [
            [sum(P.entries[r][c] * x for c, x in enumerate(col)) for r in range(P.nrows)]
            for col in inputs]


def bound_deck_patterns(seeds):
    workloads = benchmark_workloads()
    for seed in seeds:
        for workload in ("bound_enum", "bound_sample"):
            for job in workloads.build_deck(workload, seed):
                samples = int(job.extra[job.extra.index("--samples") + 1])
                yield job.key, parse_network(json.dumps(job.network.doc)), samples


def test_quotient_dims_match_full_rows_on_bound_decks():
    # every draw bound makes on the bound_* decks of seeds 0-3: the reported
    # dimension, ranked on the quotient, equals the rank of the full rows
    # with n*d as the only bound, exactly and mod p
    count = 0
    for key, pattern, samples in bound_deck_patterns(range(4)):
        prepared = ssc._pattern_rows(pattern)
        systems = enumerate_feasible_eps(pattern) + [ep_constraint_system(pattern, None)]
        nd = pattern.n * pattern.d
        full_inputs = [[int(x) for x in col] for col in
                       zip(*build_input_matrix(pattern.leaders, pattern.n, pattern.d).entries)]
        for backend in BACKENDS:
            report = estimate_ssc_dimension(pattern, samples_per_system=samples, backend=backend)
            reported = dict(report.sampled_dims)
            for system, sseed, _, vec in draws(pattern, systems, samples):
                L_int = laplacian_rows(pattern.n, pattern.d, prepared.out, vec)
                full = controllable_dim(L_int, full_inputs, nd, backend)
                assert reported[sseed] == full, (key, backend, system.key(), sseed)
                count += 1
    assert count > 2000


@st.composite
def planted_patterns(draw):
    """A pattern built around a leader-protected partition that its equal-weight draws make equitable.

    Between two cells: nothing, every edge, or a matching when they have the
    same size; inside a cell: nothing or every edge. With one weight per
    kind of edge the planted cells are equitable, so they are feasible for
    directed and entrywise patterns; ``transpose`` ones are drawn too.
    """
    d = draw(st.sampled_from([1, 2]))
    directed = draw(st.booleans())
    symmetry = None if directed else draw(st.sampled_from(["entrywise", "transpose"]))
    sizes = [1] + draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = sum(sizes)
    order = draw(st.permutations(range(1, n + 1)))
    cells, at = [], 0
    for size in sizes:
        cells.append(order[at:at + size])
        at += size
    edges = set()

    def add(i, j):
        if directed or i < j:
            edges.add((i, j))
        else:
            edges.add((j, i))

    pairs = itertools.permutations(range(len(cells)), 2) if directed else \
        itertools.combinations(range(len(cells)), 2)
    for a, b in pairs:
        kinds = ["none", "all"] + (["matching"] if sizes[a] == sizes[b] else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "all":
            for i in cells[a]:
                for j in cells[b]:
                    add(i, j)
        elif kind == "matching":
            for i, j in zip(cells[a], cells[b]):
                add(i, j)
    for cell in cells:
        if len(cell) > 1 and draw(st.booleans()):
            for i, j in itertools.permutations(cell, 2):
                add(i, j)
    assume(edges)
    pattern = WeightPattern.create(n, d, sorted(edges), [cells[0][0]], directed=directed,
                                   symmetry=symmetry)
    return pattern, Partition(tuple(tuple(c) for c in cells))


@given(planted_patterns(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_quotient_dims_match_controllable_subspace_on_planted_eps(case, seed):
    pattern, planted = case
    report = estimate_ssc_dimension(pattern, samples_per_system=2, seed=seed)
    if pattern.symmetry != "transpose":
        assert report.k_min <= planted.k
    M = build_input_matrix(pattern.leaders, pattern.n, pattern.d)
    for s in report.systems:
        system = ep_constraint_system(pattern, s.partition)
        for sseed, dim in s.samples:
            g = sample_weights(system, sseed)
            assert controllable_subspace(build_laplacian(g), M).dim == dim


def test_report_samples_reproducible(diamond_pattern, star4_pattern, k3_pattern):
    # every reported dimension is the Krylov dimension of the graph
    # sample_weights draws for that seed; some fall below the system's
    # certified bound, so both the modular and the exact branch are covered
    patterns = [diamond_pattern, star4_pattern, k3_pattern,
                mixed_pattern("directed", 2), mixed_pattern("transpose", 2)]
    below = 0
    for pattern in patterns:
        report = estimate_ssc_dimension(pattern, samples_per_system=4, seed=2)
        for s in report.systems:
            system = ep_constraint_system(pattern, s.partition)
            upper = report.state_dim if s.k is None else pattern.d * s.k
            for sseed, dim in s.samples:
                g = sample_weights(system, sseed)
                redo = controllable_subspace(
                    build_laplacian(g), build_input_matrix(g.leaders, g.n, g.d)
                ).dim
                assert redo == dim <= upper
                below += dim < upper
    assert below > 0


def test_report_float_backend_labeled(diamond_pattern):
    report = estimate_ssc_dimension(
        diamond_pattern, samples_per_system=4, seed=0, backend="float"
    )
    assert not report.certified
    assert report.to_dict()["certified"] is False


PATTERN_FIXTURES = sorted(
    path.stem for path in (Path(ssc.__file__).parent / "fixtures").glob("*_pattern.json")
)


@pytest.mark.parametrize("name", PATTERN_FIXTURES)
def test_report_float_backend_matches_exact(name):
    pattern = load_fixture(name)
    exact = estimate_ssc_dimension(pattern, samples_per_system=8, seed=5)
    approx = estimate_ssc_dimension(pattern, samples_per_system=8, seed=5, backend="float")
    assert approx.sampled_dims == exact.sampled_dims
    assert exact.certified and not approx.certified


def test_report_rejects_unknown_backend(diamond_pattern):
    with pytest.raises(ValueError, match="backend"):
        estimate_ssc_dimension(diamond_pattern, samples_per_system=1, backend="mod")


# ---------------------------------------------------------------------------
# reversal and the dual view
# ---------------------------------------------------------------------------

def test_reversal_directed_path():
    g = MatrixWeightedGraph.create(
        3, 1, {(1, 2): [[1]], (2, 3): [[1]]}, [1], directed=True
    )
    result = reversal_check(g)
    assert not result.holds
    diag = {(i, j) for (i, j, _, _) in result.mismatches}
    assert diag == {(1, 1), (3, 3)}


def test_reversal_weight_balanced_cycle():
    g = MatrixWeightedGraph.create(
        3, 1, {(1, 2): [[1]], (2, 3): [[1]], (3, 1): [[1]]}, [1], directed=True
    )
    assert reversal_check(g).holds


def test_reversal_undirected_scalar(diamond):
    result = reversal_check(diamond)
    assert result.holds


def test_reversal_undirected_asymmetric_blocks():
    g = MatrixWeightedGraph.create(
        2, 2, {(1, 2): [[1, 2], [3, 4]]}, [1], symmetry="entrywise"
    )
    # reversal is the identity on the graph, but L != L^T for asymmetric blocks
    result = reversal_check(g)
    assert not result.holds


def _weight_balanced(rng, n, d, symmetric):
    # a sum of directed cycles, each with one block on all its arcs
    edges = {}
    for _ in range(rng.randint(1, 3)):
        cycle = rng.sample(range(1, n + 1), rng.randint(2, n))
        blk = rand_block(rng, d)
        if symmetric:
            blk = block_add(blk, block_transpose(blk))
        for arc in zip(cycle, cycle[1:] + cycle[:1]):
            edges[arc] = block_add(edges[arc], blk) if arc in edges else blk
    edges = {arc: blk for arc, blk in edges.items() if not block_is_zero(blk)}
    return MatrixWeightedGraph.create(n, d, edges, [1], directed=True)


@st.composite
def reversal_graphs(draw):
    kind = draw(st.sampled_from(["directed", "entrywise", "transpose", "balanced"]))
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=2, max_value=7))
    symmetric = draw(st.booleans())
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    if kind == "balanced":
        return kind, symmetric, _weight_balanced(rng, n, d, symmetric)
    g = random_graph(rng, n, d, directed=kind == "directed",
                     density=draw(st.sampled_from([0.2, 0.5, 0.9])),
                     symmetric_blocks=symmetric, max_den=draw(st.sampled_from([1, 3])))
    if kind == "transpose":
        g = MatrixWeightedGraph.create(
            n, d, {e: b for e, b in g.adjacency.items() if e[0] < e[1]}, g.leaders,
            symmetry="transpose",
        )
    return kind, symmetric, g


@given(reversal_graphs())
@settings(max_examples=150, deadline=None)
def test_reversal_check_matches_the_block_reference(case):
    kind, symmetric, g = case
    report = reversal_check(g)
    assert report == reference_reversal_check(g)
    if symmetric and kind != "directed":
        assert report.holds
