"""Regenerate benchmark/reference.json: oracle values for the default seed.

    python3 benchmark/make_reference.py

Needs sympy (a test dependency of ssckit). The values come from the
independent oracles in ``tests/helpers.py``, never from ssckit's algorithms:

- ``k_min`` of each ``bound`` pattern is the fewest cells among the partitions
  that ``oracle_feasible_partitions`` (sympy ``linsolve`` over every partition)
  finds feasible. The oracle takes ssckit's ``WeightPattern`` data class,
  built here straight from the generated edge list.
- the observability rank of each concrete network is
  ``sympy_rank(materialized_ctrb(L^T, M))``, with ``L`` built here from the
  document. Networks with nd above ``RANK_ORACLE_MAX_ND`` are skipped: the
  sympy rank of their nd x nd*m Krylov matrix takes many minutes. The
  benchmark still checks their rank against the dual controllable dimension.

Each entry records the digest of the document it was computed for; the
benchmark reports a stale entry as a failure.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import workloads  # noqa: E402
from helpers import materialized_ctrb, oracle_feasible_partitions, sympy_rank  # noqa: E402
from ssckit.graphs import WeightPattern  # noqa: E402

RANK_ORACLE_MAX_ND = 24


class _Rows:
    """The two attributes ``materialized_ctrb`` reads from a matrix."""

    def __init__(self, rows):
        self.entries = rows
        self.nrows = len(rows)


def k_min(doc: dict) -> int:
    pattern = WeightPattern.create(
        doc["n"], doc["d"], [(e["i"], e["j"]) for e in doc["edges"]], doc["leaders"])
    return min(len(cells) for cells in oracle_feasible_partitions(pattern))


def observability_rank(doc: dict) -> int:
    n, d = doc["n"], doc["d"]
    L = checks.laplacian(checks.adjacency(doc), n, d)
    Lt = [list(col) for col in zip(*L)]
    M = [[Fraction(0)] * (len(doc["leaders"]) * d) for _ in range(n * d)]
    for col, leader in enumerate(doc["leaders"]):
        for p in range(d):
            M[(leader - 1) * d + p][col * d + p] = Fraction(1)
    return sympy_rank(materialized_ctrb(_Rows(Lt), _Rows(M)))


def main() -> int:
    seed = workloads.DEFAULT_SEED
    out = {"seed": seed}
    for workload in workloads.WORKLOADS:
        entries = {}
        for job in workloads.build_deck(workload, seed):
            net = job.network
            if net.name in entries:
                continue
            doc = net.doc
            t0 = time.perf_counter()
            if job.command == "bound":
                entry = {"k_min": k_min(doc)}
            elif doc["n"] * doc["d"] <= RANK_ORACLE_MAX_ND:
                entry = {"rank": observability_rank(doc)}
            else:
                continue
            entry["input"] = workloads.doc_digest(doc)
            entries[net.name] = entry
            print(f"{workload} {net.name} {entry} {time.perf_counter() - t0:.1f}s", flush=True)
        out[workload] = entries
    path = HERE / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
