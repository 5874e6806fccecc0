"""Command-line surface: ssckit <command> [options].

Every option is accepted by every command, before or after the command
name. Exit codes: 0 ok, 2 parse error, 3 bad argument, 4 enumeration cap
exceeded, 5 internal. Identical configuration (seed included) produces
byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .corpus import run_corpus
from .graphs import (
    MatrixWeightedGraph,
    WeightPattern,
    build_input_matrix,
    build_laplacian,
    integer_edges,
    laplacian_rows,
)
from .krylov import BACKENDS, controllable_dim, support_bound
from .krylov import controllable_subspace  # noqa: F401  (kept importable from this module)
from .netio import ParseError, parse_network
from .partitions import (
    InvalidPartitionError,
    Partition,
    coarsest_ep,
    partition_of,
    quotient,
    quotient_laplacian,
    verify_equitable,
)
from .render import (
    block_to_json,
    dumps,
    ep_report_to_dict,
    format_block,
    format_block_matrix,
    partition_to_text,
    quotient_to_dict,
)
from .ssc import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_SAMPLES,
    MODES,
    EnumerationCapError,
    estimate_ssc_dimension,
    invariant_node_report,
    reversal_check,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BAD_ARGUMENT = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5


class WrongInputKind(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; that slot belongs to parse errors here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_ARGUMENT, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    """One parser: a command named in ``COMMANDS`` and every option, each added once."""
    listing = "\n".join(f"  {name:<10} {fn.__doc__}" for name, fn in COMMANDS.items())
    parser = _Parser(prog="ssckit", description=__doc__, epilog="commands:\n" + listing,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--input", help="path to a network document")
    parser.add_argument("--partition", help="JSON list of cells, e.g. '[[1],[2,3],[4]]'")
    parser.add_argument("--mode", choices=MODES, default="cancellative")
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", choices=BACKENDS, default="exact")
    parser.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")
    parser.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    return parser


def _load_graph(cfg: argparse.Namespace) -> MatrixWeightedGraph:
    obj = _load_any(cfg)
    if not isinstance(obj, MatrixWeightedGraph):
        raise WrongInputKind("this command needs a concrete graph, not a weight pattern")
    return obj


def _load_pattern(cfg: argparse.Namespace) -> WeightPattern:
    obj = _load_any(cfg)
    if not isinstance(obj, WeightPattern):
        raise WrongInputKind(
            "this command needs a weight pattern "
            "(declare variables[] or omit edge weights)"
        )
    return obj


def _load_any(cfg: argparse.Namespace):
    if not cfg.input:
        raise WrongInputKind("--input is required for this command")
    try:
        text = Path(cfg.input).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {cfg.input}: {exc.strerror}") from None
    return parse_network(text)


def _parse_partition_flag(cfg: argparse.Namespace, n: int) -> Partition:
    try:
        cells = json.loads(cfg.partition)
    except json.JSONDecodeError as exc:
        raise InvalidPartitionError(f"--partition is not valid JSON: {exc}") from None
    if not isinstance(cells, list) or not all(isinstance(c, list) for c in cells):
        raise InvalidPartitionError("--partition must be a list of lists of node indices")
    for cell in cells:
        for v in cell:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidPartitionError(f"--partition entries must be integers, got {v!r}")
    return partition_of(cells, n)


def cmd_laplacian(cfg: argparse.Namespace) -> int:
    """Print L and M for a concrete graph."""
    g = _load_graph(cfg)
    L = build_laplacian(g)
    M = build_input_matrix(g.leaders, g.n, g.d)
    if cfg.fmt == "json":
        sys.stdout.write(dumps({
            "n": g.n, "d": g.d, "directed": g.directed, "leaders": list(g.leaders),
            "laplacian": block_to_json(L.entries),
            "input_matrix": block_to_json(M.entries),
        }))
    else:
        print(f"Laplacian L ({L.nrows}x{L.ncols}):")
        print(format_block_matrix(L))
        print(f"\nInput matrix M ({M.nrows}x{M.ncols}):")
        print(format_block_matrix(M))
    return EXIT_OK


def cmd_ep(cfg: argparse.Namespace) -> int:
    """Verify a partition, or find the coarsest leader-protected EP."""
    g = _load_graph(cfg)
    if cfg.partition:
        pi = _parse_partition_flag(cfg, g.n)
        report = verify_equitable(g, pi)
        if cfg.fmt == "json":
            payload = {"partition": pi.to_lists()}
            payload.update(ep_report_to_dict(report))
            sys.stdout.write(dumps(payload))
        else:
            print(f"partition {partition_to_text(pi)}")
            print(f"equitable: {report.verdict}")
            for v in report.violations:
                print(
                    f"  cell {v.cell}: nodes {v.r} and {v.s} disagree into cell "
                    f"{v.target_cell}: {format_block(v.sum_r)} vs {format_block(v.sum_s)}"
                )
        return EXIT_OK
    pi = coarsest_ep(g, g.leaders)
    if cfg.fmt == "json":
        sys.stdout.write(dumps({"coarsest_ep": pi.to_lists(), "cells": pi.k}))
    else:
        print(f"coarsest leader-protected EP: {partition_to_text(pi)} ({pi.k} cells)")
    return EXIT_OK


def cmd_quotient(cfg: argparse.Namespace) -> int:
    """Quotient graph and its Laplacian."""
    g = _load_graph(cfg)
    pi = _parse_partition_flag(cfg, g.n) if cfg.partition else coarsest_ep(g, g.leaders)
    q = quotient(g, pi)
    Lq = quotient_laplacian(q)
    if cfg.fmt == "json":
        payload = {"partition": pi.to_lists()}
        payload.update(quotient_to_dict(q))
        payload["quotient_laplacian"] = block_to_json(Lq.entries)
        sys.stdout.write(dumps(payload))
    else:
        print(f"partition {partition_to_text(pi)}")
        for (i, j), blk in sorted(q.adjacency.items()):
            print(f"  d(V{i}, V{j}) = {format_block(blk)}")
        print(f"quotient Laplacian ({Lq.nrows}x{Lq.ncols}):")
        print(format_block_matrix(Lq))
    return EXIT_OK


def cmd_bound(cfg: argparse.Namespace) -> int:
    """SSC upper bound and sampled dimensions."""
    pattern = _load_pattern(cfg)
    report = estimate_ssc_dimension(
        pattern,
        mode=cfg.mode,
        samples_per_system=cfg.samples,
        seed=cfg.seed,
        cap=cfg.cap,
        backend=cfg.backend,
    )
    summary = invariant_node_report(report)
    if cfg.fmt == "json":
        payload = report.to_dict()
        payload["interpretation"] = summary
        sys.stdout.write(dumps(payload))
    else:
        print(f"k_min = {report.k_min}, bound = {report.bound} of {report.state_dim}")
        print(f"witness partition: {partition_to_text(report.witness_partition)}")
        print(f"sampled minimum dimension: {report.ssc_estimate}")
        verdict = "unknown" if report.ssc_verdict is None else report.ssc_verdict
        print(f"strongly structurally controllable: {verdict}")
        for line in summary["summary"]:
            print(f"  {line}")
        if not report.certified:
            print("  (float backend: ranks are not certified)")
    return EXIT_OK


def cmd_dual(cfg: argparse.Namespace) -> int:
    """Dual pair, observability rank, edge reversal."""
    g = _load_graph(cfg)
    nd = g.n * g.d
    # den * L as sparse integer rows, read from the edges; L^T by a sparse transpose
    _, out, values = integer_edges(g.n, g.d, g.adjacency)
    L_int = laplacian_rows(g.n, g.d, out, values)
    Lt_int = [[] for _ in range(nd)]
    for r, row in enumerate(L_int):
        for c, x in row:
            Lt_int[c].append((r, x))
    self_dual = [sorted(row) for row in L_int] == Lt_int
    M = build_input_matrix(g.leaders, g.n, g.d)
    M_cols = [[int(x) for x in col] for col in zip(*M.entries)]
    # the observability matrix of (L, M) is the transpose of the Krylov matrix of (L^T, M)
    dim = controllable_dim(Lt_int, M_cols, support_bound(Lt_int, M_cols), cfg.backend)
    rev = reversal_check(g)
    if cfg.fmt == "json":
        sys.stdout.write(dumps({
            "self_dual": self_dual,
            "observability_rank": dim,
            "dual_controllable_dim": dim,
            "state_dim": nd,
            "reversal": {
                "holds": rev.holds,
                "mismatches": [
                    {"block_row": i, "block_col": j,
                     "reversed": block_to_json(a), "transposed": block_to_json(b)}
                    for (i, j, a, b) in rev.mismatches
                ],
            },
        }))
    else:
        print("self-dual (L = L^T): " + ("yes" if self_dual else "no"))
        print(f"observability rank of (L, M): {dim} of {nd}")
        print(f"controllable dimension of the dual pair (L^T, M): {dim}")
        print(f"edge reversal realizes L^T: {rev.holds}")
        for (i, j, a, b) in rev.mismatches:
            print(f"  block ({i},{j}): reversed {format_block(a)} vs transposed {format_block(b)}")
    return EXIT_OK


def cmd_corpus(cfg: argparse.Namespace) -> int:
    """Run the bundled fixture checks."""
    results = run_corpus(samples=cfg.samples, seed=cfg.seed, backend=cfg.backend)
    if cfg.fmt == "json":
        sys.stdout.write(dumps({
            "results": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "passed": all(r.passed for r in results),
        }))
    else:
        for r in results:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_INTERNAL


COMMANDS = {
    "laplacian": cmd_laplacian,
    "ep": cmd_ep,
    "quotient": cmd_quotient,
    "bound": cmd_bound,
    "dual": cmd_dual,
    "corpus": cmd_corpus,
}


def main(argv=None) -> int:
    cfg = build_parser().parse_args(argv)
    try:
        if cfg.samples < 1:
            raise ValueError("--samples must be >= 1")
        if cfg.cap < 1:
            raise ValueError("--cap must be >= 1")
        return COMMANDS[cfg.command](cfg)
    except ParseError as exc:
        print(f"ssckit: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EnumerationCapError as exc:
        print(f"ssckit: {exc}; raise --cap to enumerate more followers", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"ssckit: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGUMENT
    except Exception as exc:  # anything else is an internal failure
        print(f"ssckit: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
