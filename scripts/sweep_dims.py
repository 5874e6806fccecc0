#!/usr/bin/env python3
"""Histogram of sampled controllable dimensions for a weight pattern.

Draws unconstrained weight assignments and, for each feasible equitable
partition, constrained ones, then tabulates the Krylov dimensions. Useful for
eyeballing how far a topology sits from full controllability and how sharp
the d*k_min bound is.

  python3 scripts/sweep_dims.py src/ssckit/fixtures/diamond_pattern.json --draws 200
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ssckit.graphs import build_input_matrix, build_laplacian
from ssckit.krylov import controllable_subspace
from ssckit.netio import parse_network
from ssckit.ssc import enumerate_feasible_eps, sample_weights, ssc_upper_bound


def dims_for(system_or_pattern, ns: argparse.Namespace, label: str) -> Counter:
    counts = Counter()
    for i in range(ns.draws):
        g = sample_weights(system_or_pattern, seed=f"sweep:{ns.seed}:{label}:{i}")
        L = build_laplacian(g)
        M = build_input_matrix(g.leaders, g.n, g.d)
        counts[controllable_subspace(L, M).dim] += 1
    return counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("pattern", help="path to a weight-pattern document")
    ap.add_argument("--draws", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cap", type=int, default=12)
    ns = ap.parse_args()

    pattern = parse_network(Path(ns.pattern).read_text())
    nd = pattern.n * pattern.d
    bound = ssc_upper_bound(pattern, cap=ns.cap)
    print(f"state dimension {nd}, certified upper bound {bound}")

    def show(label, counts):
        total = sum(counts.values())
        print(f"\n{label} ({total} draws):")
        for dim in sorted(counts):
            bar = "#" * round(40 * counts[dim] / total)
            print(f"  dim {dim:>3}: {counts[dim]:>5}  {bar}")

    show("unconstrained", dims_for(pattern, ns, "free"))
    for system in enumerate_feasible_eps(pattern, cap=ns.cap):
        if system.partition.k == pattern.n:
            continue  # all-singleton duplicates the unconstrained draw
        label = str(system.partition.to_lists())
        show(f"EP-constrained {label}", dims_for(system, ns, label))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
