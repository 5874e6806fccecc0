"""Output checks that do not use the code under test.

Each check reads the network document the benchmark generated and the JSON
payload ssckit printed, recomputes what it needs with plain ``Fraction``
sums, and returns a list of problems (empty when the output is accepted).
Only the documented JSON payload is read.
"""

from __future__ import annotations

from fractions import Fraction

Block = tuple[tuple[Fraction, ...], ...]


def _block(raw, d: int) -> Block:
    if not isinstance(raw, list):
        raw = [[raw]]
    blk = tuple(tuple(Fraction(x) for x in row) for row in raw)
    if len(blk) != d or any(len(row) != d for row in blk):
        raise ValueError(f"block is not {d}x{d}")
    return blk


def _zero(d: int) -> Block:
    return tuple((Fraction(0),) * d for _ in range(d))


def _add(a: Block, b: Block) -> Block:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _is_zero(a: Block) -> bool:
    return all(x == 0 for row in a for x in row)


def adjacency(doc: dict, weights=None) -> dict[tuple[int, int], Block]:
    """Directed arcs (i, j) -> block; undirected edges mirrored entrywise."""
    d = doc["d"]
    items = weights if weights is not None else doc["edges"]
    adj = {}
    for e in items:
        blk = _block(e["weight"], d)
        adj[(e["i"], e["j"])] = blk
        if not doc["directed"]:
            adj[(e["j"], e["i"])] = blk
    return adj


def cell_sum(adj, d: int, v: int, cell) -> Block:
    total = _zero(d)
    for t in cell:
        blk = adj.get((v, t))
        if blk is not None:
            total = _add(total, blk)
    return total


def equitable_violations(adj, d: int, cells) -> list[str]:
    """Pairs of same-cell nodes whose weight sums into some cell differ."""
    bad = []
    for cell in cells:
        for r in cell[1:]:
            for target in cells:
                if cell_sum(adj, d, r, target) != cell_sum(adj, d, cell[0], target):
                    bad.append(f"nodes {cell[0]},{r} differ into cell {list(target)}")
    return bad


def _partition_problems(cells, n: int, leaders) -> list[str]:
    flat = [v for c in cells for v in c]
    problems = []
    if sorted(flat) != list(range(1, n + 1)):
        problems.append(f"cells {cells} do not partition 1..{n}")
    for l in leaders:
        if [l] not in [list(c) for c in cells]:
            problems.append(f"leader {l} is not a singleton cell")
    return problems


def refines(fine, coarse) -> bool:
    coarse_sets = [set(c) for c in coarse]
    return all(any(set(c) <= s for s in coarse_sets) for c in fine)


def laplacian(adj, n: int, d: int) -> list[list[Fraction]]:
    """L = D - A as a dense nd x nd list of rows."""
    rows = [[Fraction(0)] * (n * d) for _ in range(n * d)]
    for (i, j), blk in adj.items():
        for p in range(d):
            for q in range(d):
                rows[(i - 1) * d + p][(j - 1) * d + q] -= blk[p][q]
                rows[(i - 1) * d + p][(i - 1) * d + q] += blk[p][q]
    return rows


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def check_bound(doc: dict, out: dict, ref: dict | None) -> list[str]:
    n, d, leaders = doc["n"], doc["d"], doc["leaders"]
    k_min, bound, est = out["k_min"], out["bound"], out["ssc_estimate"]
    problems = []
    if out["state_dim"] != n * d:
        problems.append(f"state_dim {out['state_dim']} != n*d {n * d}")
    if not (est <= bound == d * k_min <= n * d):
        problems.append(f"not ssc_estimate {est} <= bound {bound} = d*k_min {d * k_min} <= n*d")
    witness = out["witness"]["partition"]
    problems += _partition_problems(witness, n, leaders)
    if len(witness) != k_min:
        problems.append(f"witness has {len(witness)} cells, k_min is {k_min}")
    weights = out["witness"]["weights"]
    pattern_edges = sorted((e["i"], e["j"]) for e in doc["edges"])
    if sorted((w["i"], w["j"]) for w in weights) != pattern_edges:
        problems.append("witness weights do not cover exactly the pattern edges")
    adj = adjacency(doc, weights)
    if any(_is_zero(blk) for blk in adj.values()):
        problems.append("a witness weight is the zero block")
    problems += equitable_violations(adj, d, witness)
    # a leader-singleton EP with k cells confines <L|M> to im(P): dim <= d*k,
    # and im(M) alone gives dim >= d * #leaders
    dims = []
    for system in out["systems"]:
        cap = n * d if system["partition"] is None else d * len(system["partition"])
        for _, dim in system["sampled_dims"]:
            dims.append(dim)
            if not d * len(leaders) <= dim <= cap:
                problems.append(f"sampled dim {dim} outside [{d * len(leaders)}, {cap}]")
    if not dims or est != min(dims):
        problems.append("ssc_estimate is not the least sampled dimension")
    if ref is not None and ref.get("k_min") != k_min:
        problems.append(f"k_min {k_min} != reference {ref.get('k_min')}")
    return problems


def check_ep(doc: dict, out: dict, planted) -> list[str]:
    n, d = doc["n"], doc["d"]
    cells = out["coarsest_ep"]
    problems = _partition_problems(cells, n, doc["leaders"])
    if out["cells"] != len(cells):
        problems.append("cell count does not match the partition")
    problems += equitable_violations(adjacency(doc), d, cells)
    if planted is not None and not refines(planted, cells):
        problems.append("planted partition does not refine the coarsest EP")
    return problems


def check_quotient(doc: dict, out: dict, planted) -> list[str]:
    n, d = doc["n"], doc["d"]
    cells = out["partition"]
    problems = _partition_problems(cells, n, doc["leaders"])
    if out["cells"] != cells:
        problems.append("quotient cells differ from its partition")
    adj = adjacency(doc)
    problems += equitable_violations(adj, d, cells)
    if planted is not None and not refines(planted, cells):
        problems.append("planted partition does not refine the quotient partition")
    expected = {}
    for a, ca in enumerate(cells, start=1):
        for b, cb in enumerate(cells, start=1):
            w = cell_sum(adj, d, ca[0], cb)
            if a != b and not _is_zero(w):
                expected[(a, b)] = w
    got = {(e["i"], e["j"]): _block(e["weight"], d) for e in out["edges"]}
    if got != expected:
        problems.append("quotient edge weights differ from the cell sums")
    k = len(cells)
    lq = laplacian(expected, k, d)
    if [[Fraction(x) for x in row] for row in out["quotient_laplacian"]] != lq:
        problems.append("quotient Laplacian differs from D - A of the quotient")
    return problems


def check_dual(doc: dict, out: dict, ref: dict | None) -> list[str]:
    n, d = doc["n"], doc["d"]
    nd = n * d
    obs, dual_dim = out["observability_rank"], out["dual_controllable_dim"]
    problems = []
    if out["state_dim"] != nd:
        problems.append(f"state_dim {out['state_dim']} != {nd}")
    if obs != dual_dim:
        problems.append(f"observability rank {obs} != dual controllable dim {dual_dim}")
    if not d * len(doc["leaders"]) <= obs <= nd:
        problems.append(f"rank {obs} outside [{d * len(doc['leaders'])}, {nd}]")
    adj = adjacency(doc)
    L = laplacian(adj, n, d)
    Lt = [list(col) for col in zip(*L)]
    if out["self_dual"] != (L == Lt):
        problems.append("self_dual flag disagrees with L == L^T")
    L_rev = laplacian({(j, i): blk for (i, j), blk in adj.items()}, n, d)
    mismatched = 0
    for bi in range(n):
        for bj in range(n):
            rows = range(bi * d, bi * d + d)
            cols = range(bj * d, bj * d + d)
            if any(L_rev[r][c] != Lt[r][c] for r in rows for c in cols):
                mismatched += 1
    rev = out["reversal"]
    if rev["holds"] != (mismatched == 0) or len(rev["mismatches"]) != mismatched:
        problems.append(f"reversal report disagrees: {mismatched} mismatched blocks expected")
    if ref is not None and ref.get("rank") is not None and ref["rank"] != obs:
        problems.append(f"observability rank {obs} != reference {ref['rank']}")
    return problems


def check(command: str, doc: dict, out: dict, planted, ref: dict | None) -> list[str]:
    """Dispatch to the command's check; a payload missing a field is a problem too."""
    try:
        if command == "bound":
            return check_bound(doc, out, ref)
        if command == "ep":
            return check_ep(doc, out, planted)
        if command == "quotient":
            return check_quotient(doc, out, planted)
        if command == "dual":
            return check_dual(doc, out, ref)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed payload: {type(exc).__name__}: {exc}"]
    return [f"no check for command {command!r}"]
