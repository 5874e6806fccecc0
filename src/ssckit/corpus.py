"""Self-checks over the bundled example networks.

Each check replays one anchored expectation (coarsest partitions, bounds,
lift certificates, duality behavior) against the shipped fixtures and
reports pass/fail. The CLI `corpus` command drives this.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .graphs import build_input_matrix, build_laplacian
from .krylov import controllable_subspace, dual_pair
from .netio import parse_network
from .partitions import (
    Partition,
    characteristic_matrix,
    coarsest_ep,
    quotient,
    quotient_laplacian,
    verify_lift,
)
from .ssc import DEFAULT_SAMPLES, estimate_ssc_dimension, invariant_node_report, reversal_check

FIXTURES = (
    "diamond", "diamond_pattern", "path3", "path3_pattern",
    "star4", "star4_pattern", "k3", "k3_pattern",
    "directed_path3", "cycle3_balanced", "two_cell_partition",
)


@dataclass(frozen=True)
class CorpusResult:
    name: str
    passed: bool
    detail: str


def fixture_text(name: str) -> str:
    return resources.files("ssckit.fixtures").joinpath(f"{name}.json").read_text()


def load_fixture(name: str):
    return parse_network(fixture_text(name))


def _check_characteristic_blocks():
    doc = json.loads(fixture_text("two_cell_partition"))
    pi = Partition(tuple(tuple(c) for c in doc["partition"]))
    for d in (1, 2, 3):
        P = characteristic_matrix(pi, doc["n"], d)
        for node in range(1, doc["n"] + 1):
            expect_col = 0 if node <= 2 else 1
            for col in range(P.block_cols):
                blk = P.block(node - 1, col)
                want = tuple(
                    tuple(Fraction(1 if (p == q and col == expect_col) else 0)
                          for q in range(d))
                    for p in range(d)
                )
                if blk != want:
                    return False, f"wrong block at node {node}, cell {col + 1}, d={d}"
    return True, "identity blocks exactly at (node, its cell) for d=1,2,3"


def _check_coarsest(name, protected, expected_cells):
    g = load_fixture(name)
    pi = coarsest_ep(g, protected)
    want = Partition(tuple(tuple(c) for c in expected_cells))
    ok = pi == want
    return ok, f"coarsest EP {pi.to_lists()}" + ("" if ok else f", expected {want.to_lists()}")


def _check_lift(name, protected):
    g = load_fixture(name)
    pi = coarsest_ep(g, protected)
    L = build_laplacian(g)
    P = characteristic_matrix(pi, g.n, g.d)
    Lq = quotient_laplacian(quotient(g, pi))
    ok = verify_lift(L, P, Lq)
    return ok, f"L P = P Lq and im(P) L-invariant for {pi.to_lists()}"


def _check_bound(name, samples, seed, backend, k_min, bound, verdict, estimate=None):
    pattern = load_fixture(name)
    report = estimate_ssc_dimension(
        pattern, samples_per_system=samples, seed=seed, backend=backend
    )
    problems = []
    if report.k_min != k_min:
        problems.append(f"k_min {report.k_min} != {k_min}")
    if report.bound != bound:
        problems.append(f"bound {report.bound} != {bound}")
    if report.ssc_verdict != verdict:
        problems.append(f"verdict {report.ssc_verdict} != {verdict}")
    if estimate is not None and report.ssc_estimate != estimate:
        problems.append(f"estimate {report.ssc_estimate} != {estimate}")
    if problems:
        return False, "; ".join(problems)
    return True, (
        f"k_min={report.k_min} bound={report.bound} "
        f"estimate={report.ssc_estimate} verdict={report.ssc_verdict}"
    )


def _check_star_invariant(samples, seed, backend):
    report = estimate_ssc_dimension(
        load_fixture("star4_pattern"), samples_per_system=samples, seed=seed, backend=backend
    )
    summary = invariant_node_report(report)
    ok = summary["invariant_controllable_core"] and report.bound == report.ssc_estimate == 2
    return ok, "controllable core of dimension 2 persists across sampled weights"


def _check_unconstrained_diamond(seed):
    from .ssc import sample_weights

    pattern = load_fixture("diamond_pattern")
    full = 0
    for i in range(100):
        g = sample_weights(pattern, seed=f"corpus:{seed}:{i}")
        dim = controllable_subspace(
            build_laplacian(g), build_input_matrix(g.leaders, g.n, g.d)
        ).dim
        full += dim == 4
    ok = full >= 95
    return ok, f"{full}/100 unconstrained draws reach full dimension 4"


def _check_reversal(name, expected):
    g = load_fixture(name)
    result = reversal_check(g)
    ok = result.holds == expected
    return ok, f"edge reversal realizes L^T: {result.holds}"


def _check_self_dual(name):
    g = load_fixture(name)
    L = build_laplacian(g)
    Ld, Md = dual_pair(L, build_input_matrix(g.leaders, g.n, g.d))
    ok = Ld.entries == L.entries
    return ok, "dual pair equals the original for the undirected scalar fixture"


def run_corpus(samples: int = DEFAULT_SAMPLES, seed: int = 0,
               backend: str = "exact") -> list[CorpusResult]:
    checks = [
        ("characteristic-matrix-blocks", _check_characteristic_blocks),
        ("diamond-coarsest-ep", lambda: _check_coarsest("diamond", [1], [[1], [2, 3], [4]])),
        ("path3-coarsest-ep", lambda: _check_coarsest("path3", [1], [[1], [2], [3]])),
        ("star4-coarsest-ep", lambda: _check_coarsest("star4", [1], [[1], [2, 3, 4]])),
        ("k3-coarsest-ep", lambda: _check_coarsest("k3", [1], [[1], [2, 3]])),
        ("diamond-lift-certificate", lambda: _check_lift("diamond", [1])),
        ("star4-lift-certificate", lambda: _check_lift("star4", [1])),
        ("k3-lift-certificate", lambda: _check_lift("k3", [1])),
        ("diamond-bound", lambda: _check_bound(
            "diamond_pattern", samples, seed, backend, k_min=3, bound=3, verdict=False, estimate=3)),
        ("path3-bound", lambda: _check_bound(
            "path3_pattern", samples, seed, backend, k_min=3, bound=3, verdict=None)),
        ("star4-bound", lambda: _check_bound(
            "star4_pattern", samples, seed, backend, k_min=2, bound=2, verdict=False, estimate=2)),
        ("k3-bound", lambda: _check_bound(
            "k3_pattern", samples, seed, backend, k_min=2, bound=2, verdict=False, estimate=2)),
        ("star4-invariant-core", lambda: _check_star_invariant(samples, seed, backend)),
        ("diamond-unconstrained-dims", lambda: _check_unconstrained_diamond(seed)),
        ("directed-path3-reversal", lambda: _check_reversal("directed_path3", False)),
        ("balanced-cycle-reversal", lambda: _check_reversal("cycle3_balanced", True)),
        ("diamond-self-dual", lambda: _check_self_dual("diamond")),
    ]
    results = []
    for name, fn in checks:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashing check is a failing check
            passed, detail = False, f"error: {exc}"
        results.append(CorpusResult(name, passed, detail))
    return results
