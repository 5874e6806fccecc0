#!/usr/bin/env python3
"""Sweep single-leader placements over a topology and compare bounds.

For each node taken as the sole leader, reports the minimum feasible
equitable-partition cell count, the resulting d*k upper bound, and whether
the bound already rules out strong structural controllability. Symmetric
positions (the star center vs a leaf, say) show up immediately.

  python3 scripts/leader_sweep.py src/ssckit/fixtures/star4_pattern.json
"""

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ssckit.netio import parse_network
from ssckit.ssc import DEFAULT_ENUMERATION_CAP, min_cell_ep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("pattern", help="path to a weight-pattern document")
    ap.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    ns = ap.parse_args()

    base = parse_network(Path(ns.pattern).read_text())
    nd = base.n * base.d
    print(f"{'leader':>6} {'k_min':>6} {'bound':>6} {'of':>4}  verdict")
    for leader in range(1, base.n + 1):
        # __post_init__ checks the new leader like any other
        pattern = dataclasses.replace(base, leaders=(leader,))
        system = min_cell_ep(pattern, cap=ns.cap)
        k = system.partition.k
        bound = base.d * k
        verdict = "not SSC" if bound < nd else "undecided"
        print(f"{leader:>6} {k:>6} {bound:>6} {nd:>4}  {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
