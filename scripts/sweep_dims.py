#!/usr/bin/env python3
"""Histogram of sampled controllable dimensions for a weight pattern.

Draws unconstrained weight assignments and, for each feasible equitable
partition, constrained ones, then tabulates the Krylov dimensions. The draws
are the samples of ``estimate_ssc_dimension`` (what ``bound`` reports), one
histogram per system. Useful for eyeballing how far a topology sits from full
controllability and how sharp the d*k_min bound is.

  python3 scripts/sweep_dims.py src/ssckit/fixtures/diamond_pattern.json --draws 200
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ssckit.netio import parse_network
from ssckit.ssc import DEFAULT_ENUMERATION_CAP, estimate_ssc_dimension


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("pattern", help="path to a weight-pattern document")
    ap.add_argument("--draws", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    ns = ap.parse_args()

    pattern = parse_network(Path(ns.pattern).read_text())
    report = estimate_ssc_dimension(pattern, samples_per_system=ns.draws, seed=ns.seed,
                                    cap=ns.cap)
    print(f"state dimension {report.state_dim}, certified upper bound {report.bound}")

    def show(label, system):
        counts = Counter(dim for _, dim in system.samples)
        total = sum(counts.values())
        print(f"\n{label} ({total} draws):")
        for dim in sorted(counts):
            bar = "#" * round(40 * counts[dim] / total)
            print(f"  dim {dim:>3}: {counts[dim]:>5}  {bar}")

    # the unconstrained system first
    for system in sorted(report.systems, key=lambda s: s.partition is not None):
        if system.partition is None:
            show("unconstrained", system)
        elif system.k < pattern.n:  # all-singleton duplicates the unconstrained draw
            show(f"EP-constrained {system.partition.to_lists()}", system)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
