"""Seeded network generators and the job deck of each benchmark workload.

A workload is a fixed list of job *classes* (family, size, d, ...). The seed
picks everything inside a class: leader position, node labels, weights and
planted cells. Every seed therefore gives different networks with the same
cost composition, which keeps run-to-run figures comparable across seeds.
The deck is ordered so that cheap and expensive classes alternate, so any
prefix of a pass has roughly the mix of a whole pass.

Nothing here imports ssckit: the program only ever sees the JSON files.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

# bound_enum: sparse patterns with 1-3 feasible EPs, so the Bell-number
# partition enumeration is most of the job. d=2 stops at 6 followers and
# wheels at 6 (d=2) because one more follower costs 5-10x (seconds per job).
# Two copies each of the heaviest classes (wheel8d1, cycle7d2) keep the tail
# percentile among them, and two of ladder6d2 keep the median between alike
# jobs, even when a slow machine completes only three passes.
BOUND_ENUM_CLASSES = (
    ("cycle", 6, 1), ("path", 7, 2), ("wheel", 7, 1), ("ladder", 8, 1),
    ("path", 6, 1), ("cycle", 7, 2), ("ladder", 6, 1), ("wheel", 8, 1),
    ("cycle", 7, 1), ("wheel", 6, 2), ("path", 7, 1), ("cycle", 8, 1),
    ("wheel", 6, 1), ("wheel", 8, 1), ("ladder", 6, 2), ("path", 8, 1),
    ("cycle", 6, 2), ("cycle", 7, 2), ("path", 6, 2), ("ladder", 6, 2),
)
BOUND_ENUM_SAMPLES = 4

# bound_sample: patterns with 15-50 feasible EPs, so per-system sampling
# (sample_weights, build_laplacian, thousands of small Krylov runs) dominates.
# A K2,m leader sits on a hub or on the m side; the two differ 2x in cost, so
# the role is part of the class and only the node is seeded.
BOUND_SAMPLE_CLASSES = (
    ("star", 6, 1), ("star", 7, 1), ("star", 5, 2), ("k2m-side", 6, 2),
    ("k2m-side", 7, 1), ("k2m-hub", 7, 1), ("k2m-side", 6, 1), ("star", 6, 2),
    ("k2m-side", 5, 2),
)
BOUND_SAMPLE_SAMPLES = 8

# concrete: (n, d, kind, directed, leaders); nd runs from 24 to 48, random
# signed graphs and graphs with a planted leader-protected EP, directed and
# undirected. Five heavy classes (dual 0.4-1.5 s, four of them alike) are
# the top sixth of jobs, so the tail percentile falls among similar jobs even
# when a slow machine completes only three passes. The median falls among the
# ep/quotient jobs. The leader count is fixed per class because the
# observability matrix grows with it.
CONCRETE_CLASSES = (
    (24, 1, "random", False, 2), (24, 2, "random", False, 1),
    (12, 2, "planted", True, 1), (36, 1, "planted", True, 1),
    (32, 1, "planted", False, 2), (16, 2, "random", True, 1),
    (18, 2, "random", False, 1), (24, 1, "planted", True, 1),
    (20, 2, "planted", False, 1), (36, 1, "random", True, 1),
)
CONCRETE_COMMANDS = ("ep", "quotient", "dual")
RANDOM_DENSITY = 0.2    # share of node pairs joined in a random graph
PLANTED_DENSITY = 0.35  # share of cell pairs joined in a planted graph

WORKLOADS = ("bound_enum", "bound_sample", "concrete")


@dataclass(frozen=True)
class Network:
    name: str
    doc: dict
    planted: tuple[tuple[int, ...], ...] | None = None  # planted EP cells


@dataclass(frozen=True)
class Job:
    key: str            # stable id within a workload, e.g. "c05-random16d2dir.dual"
    network: Network
    command: str
    extra: tuple[str, ...]

    def argv(self, path: Path) -> list[str]:
        return [self.command, "--input", str(path), "--format", "json", *self.extra]


# ---------------------------------------------------------------------------
# pattern families (undirected edge lists on nodes 1..n)
# ---------------------------------------------------------------------------

def _cycle(n):
    return [(i, i % n + 1) for i in range(1, n + 1)], range(1, n + 1)


def _path(n):
    return [(i, i + 1) for i in range(1, n)], range(1, n + 1)


def _ladder(n):
    # rails 1..k and k+1..2k; a corner leader, since the leader's rung
    # position changes the number of feasible EPs and with it the cost
    k = n // 2
    edges = [(i, i + 1) for i in range(1, k)] + [(k + i, k + i + 1) for i in range(1, k)]
    edges += [(i, k + i) for i in range(1, k + 1)]
    return edges, (1, k, k + 1, n)


def _wheel(n):
    # hub 1; a rim leader keeps the feasible EPs at 1-3 (a hub leader has 7-13)
    rim = list(range(2, n + 1))
    edges = [(1, r) for r in rim] + [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return edges, rim


def _star(n):
    # centre 1, leaf leader
    return [(1, i) for i in range(2, n + 1)], range(2, n + 1)


def _k2m_hub(n):
    return [(h, i) for h in (1, 2) for i in range(3, n + 1)], (1, 2)


def _k2m_side(n):
    return _k2m_hub(n)[0], range(3, n + 1)


FAMILIES = {
    "cycle": _cycle, "path": _path, "ladder": _ladder, "wheel": _wheel,
    "star": _star, "k2m-hub": _k2m_hub, "k2m-side": _k2m_side,
}


def _relabel(rng: random.Random, n: int) -> dict[int, int]:
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return dict(zip(range(1, n + 1), labels))


def pattern_network(name: str, family: str, n: int, d: int, rng: random.Random) -> Network:
    edges, leader_choices = FAMILIES[family](n)
    leader = rng.choice(list(leader_choices))
    perm = _relabel(rng, n)
    edges = sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges)
    doc = {
        "n": n, "d": d, "directed": False, "leaders": [perm[leader]],
        "edges": [{"i": i, "j": j} for i, j in edges],
    }
    return Network(name, doc)


# ---------------------------------------------------------------------------
# concrete graphs
# ---------------------------------------------------------------------------

def _rand_block(rng: random.Random, d: int) -> list[list[int]]:
    while True:
        blk = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        if any(x for row in blk for x in row):
            return blk


def _add_block(adj: dict, key, blk):
    old = adj.get(key)
    adj[key] = blk if old is None else [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(old, blk)]


def _edges_doc(n, d, directed, leaders, adj) -> dict:
    edges = [
        {"i": i, "j": j, "weight": blk}
        for (i, j), blk in sorted(adj.items())
        if any(x for row in blk for x in row)
    ]
    return {"n": n, "d": d, "directed": directed, "leaders": sorted(leaders), "edges": edges}


def random_network(name: str, n: int, d: int, directed: bool, leaders: int,
                   rng: random.Random) -> Network:
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
             if i != j and (directed or i < j)]
    # a fixed edge count (not a coin per pair) keeps the cost steady across seeds
    adj = {pair: _rand_block(rng, d) for pair in rng.sample(pairs, round(RANDOM_DENSITY * len(pairs)))}
    # a leader without out-edges observes nothing; draw leaders among the rest
    senders = sorted({i for i, _ in adj} | ({j for _, j in adj} if not directed else set()))
    return Network(name, _edges_doc(n, d, directed, rng.sample(senders, leaders), adj))


def _planted_cells(rng: random.Random, n: int, leaders: int) -> tuple[list[int], list[list[int]]]:
    """Leader singletons plus follower cells of three (the last one two to four)."""
    nodes = list(range(1, n + 1))
    rng.shuffle(nodes)
    lead, rest = nodes[:leaders], nodes[leaders:]
    sizes = [3] * (len(rest) // 3)
    if len(rest) % 3:
        sizes[-1] += len(rest) % 3
        if sizes[-1] == 5:
            sizes[-1:] = [3, 2]
    cells, pos = [], 0
    for size in sizes:
        cells.append(rest[pos:pos + size])
        pos += size
    return lead, [[l] for l in lead] + cells


def planted_network(name: str, n: int, d: int, directed: bool, leaders: int,
                    rng: random.Random) -> Network:
    """Graph for which the planted leader-protected partition is equitable.

    Directed: each node of cell I splits a random block q_IJ over the nodes
    of cell J, so every node of I has out-sum q_IJ into J. Undirected: cell
    pairs are joined by a complete bipartite graph with one block (row sums
    |J| W, column sums |I| W), and each cell carries a cycle with one block.
    """
    leaders, cells = _planted_cells(rng, n, leaders)
    adj: dict = {}
    k = len(cells)
    if directed:
        pairs = [(a, b) for a in range(k) for b in range(k)]
        for a, b in sorted(rng.sample(pairs, round(PLANTED_DENSITY * len(pairs)))):
            q = _rand_block(rng, d)
            for v in cells[a]:
                targets = [t for t in cells[b] if t != v]
                if not targets:
                    continue
                remaining = q
                for idx, t in enumerate(targets):
                    if idx == len(targets) - 1:
                        blk = remaining
                    else:
                        blk = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
                        remaining = [[x - y for x, y in zip(rr, rb)] for rr, rb in zip(remaining, blk)]
                    _add_block(adj, (v, t), blk)
    else:
        for cell in cells:
            if len(cell) > 2:
                w = _rand_block(rng, d)
                for idx, v in enumerate(cell):
                    u = cell[(idx + 1) % len(cell)]
                    _add_block(adj, (min(u, v), max(u, v)), w)
        pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
        for a, b in sorted(rng.sample(pairs, round(PLANTED_DENSITY * len(pairs)))):
            w = _rand_block(rng, d)
            for u in cells[a]:
                for v in cells[b]:
                    _add_block(adj, (min(u, v), max(u, v)), w)
    planted = tuple(sorted(tuple(sorted(c)) for c in cells))
    return Network(name, _edges_doc(n, d, directed, leaders, adj), planted)


# ---------------------------------------------------------------------------
# decks
# ---------------------------------------------------------------------------

def _rng(workload: str, seed: int, index: int) -> random.Random:
    # one stream per deck slot, so a slot's network does not depend on the
    # deck length or on the slots before it
    return random.Random(f"{workload}|{seed}|{index}")


def build_deck(workload: str, seed: int) -> list[Job]:
    """The workload's jobs for one seed, in execution order."""
    jobs = []
    if workload in ("bound_enum", "bound_sample"):
        classes, samples = (
            (BOUND_ENUM_CLASSES, BOUND_ENUM_SAMPLES) if workload == "bound_enum"
            else (BOUND_SAMPLE_CLASSES, BOUND_SAMPLE_SAMPLES)
        )
        for idx, (family, n, d) in enumerate(classes):
            name = f"p{idx:02d}-{family}{n}d{d}"
            net = pattern_network(name, family, n, d, _rng(workload, seed, idx))
            jobs.append(Job(f"{name}.bound", net, "bound", ("--samples", str(samples))))
    elif workload == "concrete":
        for idx, (n, d, kind, directed, leaders) in enumerate(CONCRETE_CLASSES):
            name = f"c{idx:02d}-{kind}{n}d{d}{'dir' if directed else 'und'}"
            make = planted_network if kind == "planted" else random_network
            net = make(name, n, d, directed, leaders, _rng(workload, seed, idx))
            jobs.extend(Job(f"{name}.{cmd}", net, cmd, ()) for cmd in CONCRETE_COMMANDS)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return jobs


def doc_digest(doc: dict) -> str:
    """Short digest of a network document, to tie stored values to their input."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def write_networks(jobs: list[Job], directory: Path) -> dict[str, Path]:
    """Write each distinct network document once; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in jobs:
        net = job.network
        if net.name not in paths:
            path = directory / f"{net.name}.json"
            path.write_text(json.dumps(net.doc, indent=1) + "\n", encoding="utf-8")
            paths[net.name] = path
    return paths
