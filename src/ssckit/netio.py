"""Parsing and canonical serialization of network documents.

A document is a JSON object with fields ``n``, ``d``, ``directed``,
``leaders`` and ``edges``. Concrete graphs give every edge a ``weight``
(d x d array of integers or "p/q" strings); a document that leaves an edge
without one, or declares ``variables`` or ``constraints``, is a pattern,
whose inline weights are ``fixed`` constraints. Undirected edges are listed
once; the parser materializes the mirror under the ``symmetry`` convention
(default "entrywise"). parse -> serialize -> parse is the identity on
canonical form.
"""

from __future__ import annotations

import json

from .graphs import (
    Block,
    EqualConstraint,
    FixedConstraint,
    MatrixWeightedGraph,
    SignConstraint,
    WeightPattern,
    _mirrored,
    block_from,
    block_transpose,
    default_variable_name,
)
from .render import block_to_json, dumps

# Largest state dimension n*d a document may declare. `laplacian` builds dense
# nd x nd Fraction matrices (`quotient` a kd x kd one; `dual` only sparse integer
# rows; `ep` none, at O(edges + n) per refinement round), so a larger document is
# refused as a bad argument (exit 3) before anything is built.
MAX_STATE_DIM = 1024


class ParseError(ValueError):
    """Malformed or inconsistent network document; carries a location hint."""

    def __init__(self, message: str, location: str = "document"):
        super().__init__(f"{location}: {message}")
        self.location = location


def _require(doc: dict, key: str, types, location: str):
    if key not in doc:
        raise ParseError(f"missing field {key!r}", location)
    value = doc[key]
    if not isinstance(value, types):
        raise ParseError(f"field {key!r} has the wrong type", location)
    return value


def _is_int(x) -> bool:
    """A JSON integer: bool is an int subclass in Python but not one in JSON."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_block(raw, d: int, location: str) -> Block:
    try:
        return block_from(raw, d)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc), location) from None


def parse_network(text: str):
    """Parse a document into a MatrixWeightedGraph or WeightPattern.

    Raises ParseError for a malformed document, and ValueError when its
    ``n * d`` exceeds ``MAX_STATE_DIM``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")

    n = _require(doc, "n", int, "n")
    d = _require(doc, "d", int, "d")
    if isinstance(n, bool) or isinstance(d, bool) or n < 1 or d < 1:
        raise ParseError("n and d must be positive integers", "n")
    if n * d > MAX_STATE_DIM:
        raise ValueError(f"n*d = {n * d} exceeds the state-dimension limit {MAX_STATE_DIM}")
    directed = doc.get("directed", False)
    if not isinstance(directed, bool):
        raise ParseError("field 'directed' must be a boolean", "directed")
    leaders = _require(doc, "leaders", list, "leaders")
    if not all(map(_is_int, leaders)):
        raise ParseError("leaders must be integers", "leaders")
    symmetry = doc.get("symmetry", "none" if directed else "entrywise")
    edges_raw = _require(doc, "edges", list, "edges")

    edges: list[tuple[int, int]] = []
    first: dict[tuple[int, int], int] = {}  # edge -> index of its entry
    weights: dict[tuple[int, int], Block] = {}
    for idx, e in enumerate(edges_raw):
        loc = f"edges[{idx}]"
        if not isinstance(e, dict):
            raise ParseError("edge must be an object", loc)
        i, j = e.get("i"), e.get("j")
        if not (_is_int(i) and _is_int(j)):
            raise ParseError("edge needs integer fields 'i' and 'j'", loc)
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"edge ({i},{j}) out of range 1..{n}", loc)
        if i == j:
            raise ParseError(f"self-loop at node {i}", loc)
        # an undirected (j, i) after (i, j) is the explicit mirror, checked
        # against the symmetry convention when the graph is built
        if (i, j) in first:
            raise ParseError(f"duplicate edge ({i},{j}); see edges[{first[(i, j)]}]", loc)
        first[(i, j)] = idx
        edges.append((i, j))
        if "weight" in e:
            # each weight is normalised here, once, where its location is known
            weights[(i, j)] = _parse_block(e["weight"], d, f"{loc}.weight")

    is_pattern = "variables" in doc or "constraints" in doc or len(weights) < len(edges)
    if not is_pattern:
        try:
            return MatrixWeightedGraph(n, d, directed, _mirrored(weights, directed, symmetry),
                                       tuple(leaders), symmetry)
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    # pattern: named variables and constraints
    for key in ("variables", "constraints"):
        if not isinstance(doc.get(key, []), list):
            raise ParseError(f"field {key!r} must be a list", key)
    var_names: dict[tuple[int, int], str] = {}
    declared = set(edges) if directed else {(min(a, b), max(a, b)) for a, b in edges}
    for idx, v in enumerate(doc.get("variables", [])):
        loc = f"variables[{idx}]"
        if not isinstance(v, dict) or "edge" not in v or "name" not in v:
            raise ParseError("variable needs fields 'edge' and 'name'", loc)
        edge = v["edge"]
        if not (isinstance(edge, list) and len(edge) == 2 and all(map(_is_int, edge))):
            raise ParseError("variable edge must be a pair of integers", loc)
        i, j = edge
        if not directed:
            i, j = min(i, j), max(i, j)
        if (i, j) not in declared:
            raise ParseError(f"variable names undeclared edge ({i},{j})", loc)
        if not isinstance(v["name"], str):
            raise ParseError("variable name must be a string", loc)
        if (i, j) in var_names:
            raise ParseError(f"edge ({i},{j}) is already named {var_names[(i, j)]!r}", loc)
        var_names[(i, j)] = v["name"]

    constraints = []
    for idx, c in enumerate(doc.get("constraints", [])):
        loc = f"constraints[{idx}]"
        if not isinstance(c, dict) or "kind" not in c or "args" not in c:
            raise ParseError("constraint needs fields 'kind' and 'args'", loc)
        kind, args = c["kind"], c["args"]
        if kind == "equal":
            if not (isinstance(args, list) and len(args) == 2
                    and all(isinstance(a, str) for a in args)):
                raise ParseError("equal constraint takes [left, right] variable names", loc)
            left, right = sorted(args)
            constraints.append(EqualConstraint(left, right))
        elif kind == "fixed":
            if not (isinstance(args, list) and len(args) == 2 and isinstance(args[0], str)):
                raise ParseError("fixed constraint takes [var, value] with a variable name", loc)
            constraints.append(FixedConstraint(args[0], _parse_block(args[1], d, loc)))
        elif kind == "sign":
            if not (isinstance(args, list) and len(args) == 2 and isinstance(args[0], str)):
                raise ParseError("sign constraint takes [var, '+'|'-'] with a variable name", loc)
            constraints.append(SignConstraint(args[0], str(args[1])))
        else:
            raise ParseError(f"unknown constraint kind {kind!r}", loc)

    # an inline weight on a pattern edge is shorthand for a fixed constraint on
    # the block of the stored orientation: A_ij with i < j when undirected, so a
    # weight listed on (j, i) is transposed under the 'transpose' convention
    for (i, j), blk in weights.items():
        if not directed and i > j:
            i, j = j, i
            if symmetry == "transpose":
                blk = block_transpose(blk)
        name = var_names.get((i, j), default_variable_name(i, j))
        constraints.append(FixedConstraint(name, blk))

    try:
        return WeightPattern.create(
            n, d, edges, leaders,
            directed=directed, symmetry=symmetry,
            variable_names=var_names, constraints=constraints,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_network(obj) -> str:
    """Canonical JSON text for a graph or pattern (trailing newline included)."""
    if not isinstance(obj, (MatrixWeightedGraph, WeightPattern)):
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    doc = {"n": obj.n, "d": obj.d, "directed": obj.directed}
    if not obj.directed:
        doc["symmetry"] = obj.symmetry
    doc["leaders"] = list(obj.leaders)
    if isinstance(obj, MatrixWeightedGraph):
        if obj.directed:
            keys = sorted(obj.adjacency)
        else:
            keys = sorted({(min(i, j), max(i, j)) for (i, j) in obj.adjacency})
        doc["edges"] = [
            {"i": i, "j": j, "weight": block_to_json(obj.adjacency[(i, j)])}
            for (i, j) in keys
        ]
        return dumps(doc)
    doc["edges"] = [{"i": i, "j": j} for (i, j) in obj.edges]
    doc["variables"] = [
        {"edge": [i, j], "name": name}
        for (i, j), name in zip(obj.edges, obj.variable_names)
    ]
    cons = []
    for c in obj.constraints:
        if isinstance(c, EqualConstraint):
            cons.append({"kind": "equal", "args": [c.left, c.right]})
        elif isinstance(c, FixedConstraint):
            cons.append({"kind": "fixed", "args": [c.var, block_to_json(c.value)]})
        else:
            cons.append({"kind": "sign", "args": [c.var, c.sign]})
    doc["constraints"] = cons
    return dumps(doc)
