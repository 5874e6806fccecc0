"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything numeric is exact (Fraction arithmetic); runtime budgets are
asserted where stated. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import io
import itertools
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from helpers import (
    hstack,
    materialized_ctrb,
    negated,
    oracle_feasible_partitions,
    random_ep_lift,
    random_graph,
    shifted,
    spans_equal,
    sympy_rank,
)
from ssckit import linalg
from ssckit.cli import main
from ssckit.graphs import (
    MatrixWeightedGraph,
    WeightPattern,
    build_input_matrix,
    build_laplacian,
)
from ssckit.krylov import controllable_subspace, dual_pair
from ssckit.partitions import (
    Partition,
    characteristic_matrix,
    quotient,
    quotient_laplacian,
    verify_equitable,
)
from ssckit.ssc import (
    enumerate_feasible_eps,
    estimate_ssc_dimension,
    min_cell_ep,
    reversal_check,
    sample_weights,
)

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "ssckit" / "fixtures"


def finish(num, name, problems, started=None, budget=None):
    if started is not None and budget is not None:
        elapsed = time.monotonic() - started
        if elapsed >= budget:
            problems.append(f"runtime {elapsed:.2f}s exceeded {budget}s")
    status = "PASS" if not problems else "FAIL"
    print(f"[criterion {num}] {name}: {status}")
    assert not problems, f"criterion {num} ({name}): " + "; ".join(problems)


def pair_for(g):
    return build_laplacian(g), build_input_matrix(g.leaders, g.n, g.d)


def test_criterion_1_characteristic_matrix_blocks():
    started = time.monotonic()
    problems = []
    pi = Partition(((1, 2), (3, 4, 5)))
    for d in (1, 2, 3):
        P = characteristic_matrix(pi, 5, d)
        ident = tuple(
            tuple(Fraction(1 if p == q else 0) for q in range(d)) for p in range(d)
        )
        for node in range(1, 6):
            want_col = 0 if node <= 2 else 1
            for col in range(2):
                blk = P.block(node - 1, col)
                expected = ident if col == want_col else tuple(
                    tuple(Fraction(0) for _ in range(d)) for _ in range(d)
                )
                if blk != expected:
                    problems.append(f"d={d} node={node} cell={col + 1} block wrong")
    finish(1, "characteristic matrix block pattern", problems, started, 1.0)


def test_criterion_2_diamond_bound_and_samples(diamond_pattern):
    started = time.monotonic()
    problems = []

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["bound", "--input", str(FIXTURES / "diamond_pattern.json"),
                     "--samples", "8", "--format", "json"])
    doc = json.loads(buf.getvalue())
    if code != 0:
        problems.append(f"bound command exited {code}")
    if doc["k_min"] != 3 or doc["bound"] != 3:
        problems.append(f"bound reported k_min={doc['k_min']} bound={doc['bound']}")
    if doc["bound"] >= doc["state_dim"]:
        problems.append("bound is not < 4")
    if doc["verdicts"]["strongly_structurally_controllable"] is not False:
        problems.append("verdict is not not-SSC")

    system = min_cell_ep(diamond_pattern)
    for i in range(100):
        g = sample_weights(system, seed=f"acc2-ep:{i}")
        if g.adjacency[(1, 2)] != g.adjacency[(1, 3)] or g.adjacency[(2, 4)] != g.adjacency[(3, 4)]:
            problems.append(f"EP sample {i} broke the weight equalities")
            break
        dim = controllable_subspace(*pair_for(g)).dim
        if dim != 3:
            problems.append(f"EP-constrained sample {i} has dim {dim} != 3")
            break

    full = 0
    for i in range(100):
        g = sample_weights(diamond_pattern, seed=f"acc2-free:{i}")
        full += controllable_subspace(*pair_for(g)).dim == 4
    if full < 95:
        problems.append(f"only {full}/100 unconstrained samples reach dim 4")

    finish(2, "diamond bound, EP samples, unconstrained samples", problems, started, 5.0)


def test_criterion_3_lift_identity_suite():
    started = time.monotonic()
    problems = []
    rng = random.Random(2024)
    for trial in range(200):
        g, pi, _ = random_ep_lift(rng)
        L = build_laplacian(g)
        P = characteristic_matrix(pi, g.n, g.d)
        Lq = quotient_laplacian(quotient(g, pi))
        LP = L @ P
        if LP.entries != (P @ Lq).entries:
            problems.append(f"trial {trial}: L P != P Lq")
            break
        p_rows = P.to_lists()
        if linalg.rank(hstack(p_rows, LP.to_lists())) != linalg.rank(p_rows):
            problems.append(f"trial {trial}: im(P) is not L-invariant")
            break
    finish(3, "lift identity on 200 constructed EPs", problems, started, 30.0)


def test_criterion_4_subspace_containment(diamond_pattern, star4_pattern, k3_pattern):
    problems = []
    patterns = [diamond_pattern, star4_pattern, k3_pattern]
    systems = [s for p in patterns for s in enumerate_feasible_eps(p)]
    count = 0
    for i in itertools.count():
        system = systems[i % len(systems)]
        pattern = system.pattern
        P = characteristic_matrix(system.partition, pattern.n, pattern.d)
        p_rows = P.to_lists()
        p_rank = linalg.rank(p_rows)
        g = sample_weights(system, seed=f"acc4:{i}")
        if not verify_equitable(g, system.partition).verdict:
            problems.append(f"sample {i} does not satisfy its EP")
            break
        basis = [list(r) for r in controllable_subspace(*pair_for(g)).basis]
        if linalg.rank(hstack(p_rows, basis)) != p_rank:
            problems.append(f"sample {i}: Krylov basis escapes im(P)")
            break
        count += 1
        if count == 100:
            break
    finish(4, "Krylov span inside im(P) on 100 sampled assignments", problems)


def test_criterion_5_bound_consistency():
    problems = []
    star_checked = False
    for name in ("diamond_pattern", "path3_pattern", "star4_pattern", "k3_pattern"):
        text = (FIXTURES / f"{name}.json").read_text()
        from ssckit.netio import parse_network

        pattern = parse_network(text)
        report = estimate_ssc_dimension(pattern, samples_per_system=16, seed=5)
        for s in report.systems:
            if s.partition is not None and s.partition == report.witness_partition:
                bad = [dim for _, dim in s.samples if dim > report.bound]
                if bad:
                    problems.append(f"{name}: min-cell sample dim {bad[0]} > bound")
        if report.ssc_estimate > report.bound:
            problems.append(f"{name}: estimate {report.ssc_estimate} > bound {report.bound}")
        if name == "star4_pattern":
            star_checked = True
            if not (report.bound == report.ssc_estimate == 2):
                problems.append(
                    f"star4 bound/estimate {report.bound}/{report.ssc_estimate} != 2"
                )
    if not star_checked:
        problems.append("star4 fixture missing")
    finish(5, "bound consistency across the corpus", problems)


def test_criterion_6_oracle_equivalence():
    problems = []
    rng = random.Random(606)
    shapes = [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (2, 2), (3, 2), (2, 3)]
    for trial in range(200):
        n, d = shapes[trial % len(shapes)]
        g = random_graph(rng, n, d=d, directed=rng.random() < 0.5,
                         density=rng.uniform(0.3, 0.9))
        L, M = pair_for(g)
        dim = controllable_subspace(L, M).dim
        oracle = sympy_rank(materialized_ctrb(L, M))
        if dim != oracle:
            problems.append(f"trial {trial}: Krylov dim {dim} != materialized rank {oracle}")
            break

    # enumeration soundness against the all-partitions symbolic oracle
    from ssckit.netio import parse_network

    pats = [
        parse_network((FIXTURES / "diamond_pattern.json").read_text()),
        parse_network((FIXTURES / "path3_pattern.json").read_text()),
        parse_network((FIXTURES / "star4_pattern.json").read_text()),
        parse_network((FIXTURES / "k3_pattern.json").read_text()),
        WeightPattern.create(5, 1, [(2, 1), (3, 1), (2, 4), (2, 5)], [1], directed=True),
        WeightPattern.create(6, 1, [(1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 6)], [1]),
        WeightPattern.create(
            7, 1, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 7)], [1]
        ),
    ]
    for pattern in pats:
        mine = {s.partition.cells for s in enumerate_feasible_eps(pattern, "cancellative")}
        oracle = oracle_feasible_partitions(pattern)
        if mine != oracle:
            problems.append(
                f"enumeration mismatch on {pattern.n}-node pattern: "
                f"mine-only {mine - oracle}, oracle-only {oracle - mine}"
            )
    finish(6, "Krylov vs materialized oracle; enumeration vs symbolic oracle", problems)


def test_criterion_7_duality_suite(diamond, path3, star4, k3):
    problems = []
    rng = random.Random(707)
    for trial in range(100):
        g = random_graph(rng, rng.randint(2, 6), d=1, directed=True,
                         density=rng.uniform(0.3, 0.9))
        L, M = pair_for(g)
        dual_dim = controllable_subspace(*dual_pair(L, M)).dim
        # observability stack built right here, straight from its definition
        nd = L.nrows
        Lr = [list(r) for r in L.entries]
        block = [list(col) for col in zip(*M.entries)]
        stack = []
        for _ in range(nd):
            stack.extend([list(r) for r in block])
            block = linalg.mat_mul(block, Lr)
        if linalg.rank(stack) != dual_dim:
            problems.append(f"trial {trial}: duality rank mismatch")
            break

    for g in (diamond, path3, star4, k3):
        L, M = pair_for(g)
        Lt, Mt = dual_pair(L, M)
        if Lt.entries != L.entries or Mt is not M:
            problems.append("undirected fixture is not self-dual")

    path = MatrixWeightedGraph.create(
        3, 1, {(1, 2): [[1]], (2, 3): [[1]]}, [1], directed=True
    )
    if reversal_check(path).holds:
        problems.append("reversal_check true on the directed path")
    balanced = MatrixWeightedGraph.create(
        4, 1,
        {(1, 2): [[2]], (2, 3): [[2]], (3, 4): [[2]], (4, 1): [[2]], (1, 3): [[1]], (3, 1): [[1]]},
        [1], directed=True,
    )
    if not reversal_check(balanced).holds:
        problems.append("reversal_check false on a weight-balanced digraph")
    finish(7, "duality suite", problems)


def test_criterion_8_shift_and_sign_invariance():
    problems = []
    rng = random.Random(808)
    for trial in range(50):
        g = random_graph(rng, rng.randint(2, 5), d=rng.choice([1, 2]),
                         directed=rng.random() < 0.5)
        L, M = pair_for(g)
        alpha = Fraction(
            (1 if rng.random() < 0.5 else -1) * rng.randint(1, 9), rng.randint(1, 4)
        )
        base = controllable_subspace(L, M).basis
        shift = controllable_subspace(shifted(L, alpha), M).basis
        sign = controllable_subspace(negated(L), M).basis
        if not spans_equal(base, shift):
            problems.append(f"trial {trial}: shift by {alpha} changed the span")
            break
        if not spans_equal(base, sign):
            problems.append(f"trial {trial}: negation changed the span")
            break
    finish(8, "shift/sign invariance of the controllable subspace", problems)
