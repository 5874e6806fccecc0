"""Text and JSON rendering of matrices, partitions, and reports."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

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
    """``json.dumps(obj, indent=2)`` plus a newline, written in one pass."""
    out: list[str] = []
    _write(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


# the scalars written here; every other scalar goes to json.dumps
_SCALARS = {int: repr, str: encode_basestring_ascii}


def _write(x, nl: str, emit) -> None:
    # ``nl`` is a newline plus the indent of the line x starts on; json.dumps
    # output of a value not written here is re-indented to that depth
    t = type(x)
    scalar = _SCALARS.get(t)
    if scalar is not None:
        emit(scalar(x))
    elif t is list or t is tuple:
        if not x:
            emit("[]")
            return
        inner = nl + "  "
        if all([type(v) in _SCALARS for v in x]):
            items = ("," + inner).join([_SCALARS[type(v)](v) for v in x])
            emit("[" + inner + items + nl + "]")
            return
        sep = "[" + inner
        for v in x:
            emit(sep)
            _write(v, inner, emit)
            sep = "," + inner
        emit(nl + "]")
    elif t is dict and all([type(k) is str for k in x]):
        if not x:
            emit("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in x.items():
            scalar = _SCALARS.get(type(v))
            if scalar is not None:
                emit(sep + encode_basestring_ascii(k) + ": " + scalar(v))
            else:
                emit(sep + encode_basestring_ascii(k) + ": ")
                _write(v, inner, emit)
            sep = "," + inner
        emit(nl + "}")
    else:
        emit(json.dumps(x, indent=2).replace("\n", nl))
