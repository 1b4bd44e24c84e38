"""Built-in community detectors and the dispatch interface.

Three representatives are implemented: asynchronous label propagation,
Louvain (two-phase modularity optimization with a resolution knob), and
greedy agglomerative modularity maximization (CNM). Everything else enters
the pipeline as an externally computed partition file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from .graph import Graph
from .partition import Partition, load_partition

# each detector's parameters and the type its value is converted to
DETECTOR_PARAMS: dict[str, dict[str, type]] = {
    "label_propagation": {"seed": int, "max_sweeps": int},
    "louvain": {"seed": int, "resolution": float},
    "cnm": {},
    "external": {"path": str},
}
DETECTOR_NAMES = tuple(DETECTOR_PARAMS)


@dataclass(frozen=True)
class DetectorSpec:
    name: str
    params: dict = field(default_factory=dict)  # kept as given; converted when run

    def __post_init__(self):
        if self.name not in DETECTOR_NAMES:
            raise ValueError(f"unknown detector {self.name!r}")
        if not isinstance(self.params, dict):
            raise ValueError(f"detector {self.name!r}: parameters must be key=value pairs")
        types = DETECTOR_PARAMS[self.name]
        for key, value in self.params.items():
            if key not in types:
                accepted = ", ".join(types) or "none"
                raise ValueError(
                    f"detector {self.name!r} has no parameter {key!r} (given {value!r}); "
                    f"it accepts: {accepted}"
                )
            try:
                types[key](value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"detector {self.name!r}: parameter {key!r} must be "
                    f"{types[key].__name__}, got {value!r}"
                ) from None

    def label(self) -> str:
        if self.name == "external":
            return f"external:{Path(str(self.params.get('path', ''))).stem}"
        return self.name


def _require_edges(g: Graph) -> None:
    if g.num_edges == 0:
        raise ValueError("detector requires a graph with at least one edge")


def label_propagation(g: Graph, seed: int = 0, max_sweeps: int = 100) -> Partition:
    """Asynchronous label propagation with seeded order and tie-breaking."""
    _require_edges(g)
    rng = random.Random(seed)
    adj = g.neighbor_lists()
    labels = list(range(g.n))
    order = list(range(g.n))
    for _ in range(max_sweeps):
        rng.shuffle(order)
        changed = False
        for u in order:
            if not adj[u]:
                continue
            counts: dict[int, int] = {}
            for v in adj[u]:
                counts[labels[v]] = counts.get(labels[v], 0) + 1
            top = max(counts.values())
            winners = [lab for lab, c in counts.items() if c == top]
            new = winners[0] if len(winners) == 1 else rng.choice(winners)
            if new != labels[u]:
                labels[u] = new
                changed = True
        if not changed:
            break
    return Partition.from_labels(labels)


class _LouvainLevel:
    """Weighted graph used by aggregation levels; node self-weights allowed."""

    def __init__(self, n: int, adj: list[dict[int, float]], self_w: list[float]):
        self.n = n
        self.adj = adj  # neighbor -> edge weight (no self entries)
        self.self_w = self_w  # self-loop weight, counted twice in node strength
        self.strength = [sum(a.values()) + 2 * w for a, w in zip(adj, self_w)]
        self.total_weight = (sum(sum(a.values()) for a in adj) / 2.0) + sum(self_w)

    @classmethod
    def from_graph(cls, g: Graph) -> "_LouvainLevel":
        adj = [{v: 1.0 for v in nbrs} for nbrs in g.neighbor_lists()]
        return cls(g.n, adj, [0.0] * g.n)


def _louvain_local_move(level: _LouvainLevel, rng: random.Random, resolution: float) -> list[int]:
    comm = list(range(level.n))
    comm_tot = level.strength[:]  # total strength per community
    two_m = 2.0 * level.total_weight
    order = list(range(level.n))
    improved = True
    while improved:
        improved = False
        rng.shuffle(order)
        for u in order:
            cu = comm[u]
            ki = level.strength[u]
            # edge weight from u to each neighboring community
            links: dict[int, float] = {cu: 0.0}
            for v, w in level.adj[u].items():
                links[comm[v]] = links.get(comm[v], 0.0) + w
            comm_tot[cu] -= ki
            base = links.get(cu, 0.0) - resolution * ki * comm_tot[cu] / two_m
            best_c, best_gain = cu, 0.0
            for c, w_uc in links.items():
                if c == cu:
                    continue
                gain = (w_uc - resolution * ki * comm_tot[c] / two_m) - base
                if gain > best_gain + 1e-12 or (
                    abs(gain - best_gain) <= 1e-12 and best_gain > 0 and c < best_c
                ):
                    best_c, best_gain = c, gain
            comm_tot[best_c] += ki
            if best_c != cu:
                comm[u] = best_c
                improved = True
    return comm


def louvain(g: Graph, seed: int = 0, resolution: float = 1.0) -> Partition:
    """Two-phase Louvain; node order and tie handling are seeded."""
    _require_edges(g)
    rng = random.Random(seed)
    level = _LouvainLevel.from_graph(g)
    membership = list(range(g.n))  # original node -> current-level node
    while True:
        comm = _louvain_local_move(level, rng, resolution)
        remap: dict[int, int] = {}
        for c in comm:
            if c not in remap:
                remap[c] = len(remap)
        dense = [remap[c] for c in comm]
        k = len(remap)
        if k == level.n:  # no merge happened anywhere
            break
        membership = [dense[membership[i]] for i in range(g.n)]
        # aggregate: communities become nodes
        new_adj: list[dict[int, float]] = [dict() for _ in range(k)]
        new_self = [0.0] * k
        for u in range(level.n):
            cu = dense[u]
            new_self[cu] += level.self_w[u]
            for v, w in level.adj[u].items():
                cv = dense[v]
                if cu == cv:
                    if u < v:
                        new_self[cu] += w
                else:
                    new_adj[cu][cv] = new_adj[cu].get(cv, 0.0) + w
        level = _LouvainLevel(k, new_adj, new_self)
    return Partition.from_labels(membership)


def greedy_agglomerative(g: Graph) -> Partition:
    """CNM-style greedy merging; fully deterministic (ties -> smallest pair)."""
    _require_edges(g)
    m = g.num_edges
    comm = list(range(g.n))
    deg = {c: float(d) for c, d in enumerate(g.degrees.tolist())}
    # inter-community edge weight, keyed by sorted community pair
    links: dict[tuple[int, int], float] = {}
    for u, v in g.edges():
        links[(u, v)] = links.get((u, v), 0.0) + 1.0
    alive = set(range(g.n))
    neighbors: dict[int, set[int]] = {c: set() for c in alive}
    for a, b in links:
        neighbors[a].add(b)
        neighbors[b].add(a)
    two_m_sq = (2.0 * m) ** 2
    while len(alive) > 1:
        best_pair = None
        best_gain = 0.0
        for (a, b), w in links.items():
            gain = w / m - 2.0 * deg[a] * deg[b] / two_m_sq
            if gain > best_gain + 1e-12 or (
                abs(gain - best_gain) <= 1e-12
                and best_gain > 0.0
                and best_pair is not None
                and (a, b) < best_pair
            ):
                best_gain = gain
                best_pair = (a, b)
        if best_pair is None or best_gain <= 0.0:
            break
        a, b = best_pair  # merge b into a
        deg[a] += deg.pop(b)
        for c in list(neighbors[b]):
            w = links.pop((min(b, c), max(b, c)))
            neighbors[c].discard(b)
            if c != a:
                key = (min(a, c), max(a, c))
                links[key] = links.get(key, 0.0) + w
                neighbors[a].add(c)
                neighbors[c].add(a)
        neighbors.pop(b)
        neighbors[a].discard(b)
        alive.discard(b)
        for i in range(len(comm)):
            if comm[i] == b:
                comm[i] = a
    return Partition.from_labels(comm)


def _external_partition(g: Graph, path: str = "") -> Partition:
    """Load a partition of `g`'s nodes computed outside this package."""
    if not path:
        raise ValueError("external detector requires a 'path' parameter")
    with open(path, "r", encoding="utf-8") as fh:
        return load_partition(fh, g.n)


DETECTORS = {
    "label_propagation": label_propagation,
    "louvain": louvain,
    "cnm": greedy_agglomerative,
    "external": _external_partition,
}


def run_detector(spec: DetectorSpec, g: Graph) -> Partition:
    """Run the named detector with the spec's parameters, converted to their types."""
    types = DETECTOR_PARAMS[spec.name]
    return DETECTORS[spec.name](g, **{key: types[key](v) for key, v in spec.params.items()})
