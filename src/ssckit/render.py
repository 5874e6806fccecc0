"""Text and JSON rendering of matrices, partitions, and reports."""

from __future__ import annotations

import json

from .graphs import Block, BlockMatrix
from .partitions import EPReport, Partition, QuotientGraph


def block_to_json(rows: Block):
    """Rows of Fractions (a block or a matrix's entries) as JSON ints, or "p/q" strings."""
    return [[x.numerator if x.denominator == 1 else str(x) for x in row] for row in rows]


def format_block_matrix(bm: BlockMatrix) -> str:
    """Grid of p/q entries with '|' between block columns and rules between block rows."""
    cells = [[str(x) for x in row] for row in bm.entries]
    width = max((len(c) for row in cells for c in row), default=1)
    d = bm.d
    lines = []
    for r, row in enumerate(cells):
        parts = []
        for bc in range(bm.block_cols):
            parts.append(" ".join(c.rjust(width) for c in row[bc * d:(bc + 1) * d]))
        lines.append("[ " + " | ".join(parts) + " ]")
        if d > 1 and r % d == d - 1 and r != len(cells) - 1:
            lines.append("")
    return "\n".join(lines)


def format_block(blk: Block) -> str:
    if len(blk) == 1 and len(blk[0]) == 1:
        return str(blk[0][0])
    return "[" + "; ".join(" ".join(str(x) for x in row) for row in blk) + "]"


def partition_to_text(pi: Partition) -> str:
    return "{" + ", ".join("{" + ", ".join(str(v) for v in cell) + "}" for cell in pi.cells) + "}"


def ep_report_to_dict(report: EPReport) -> dict:
    return {
        "verdict": report.verdict,
        "violations": [
            {
                "cell": v.cell,
                "r": v.r,
                "s": v.s,
                "target_cell": v.target_cell,
                "sum_r": block_to_json(v.sum_r),
                "sum_s": block_to_json(v.sum_s),
            }
            for v in report.violations
        ],
    }


def quotient_to_dict(q: QuotientGraph) -> dict:
    return {
        "cells": [list(c) for c in q.cells],
        "d": q.d,
        "edges": [
            {"i": i, "j": j, "weight": block_to_json(blk)}
            for (i, j), blk in sorted(q.adjacency.items())
        ],
    }


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"
