"""Built-in community detectors and the dispatch interface.

Three representatives are implemented: asynchronous label propagation,
Louvain (two-phase modularity optimization with a resolution knob), and
greedy agglomerative modularity maximization (CNM). Everything else enters
the pipeline as an externally computed partition file.
"""

from __future__ import annotations

import heapq
import logging
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from .graph import Graph
from .partition import Partition, load_partition

log = logging.getLogger(__name__)

# each detector's parameters and the type its value is converted to
DETECTOR_PARAMS: dict[str, dict[str, type]] = {
    "label_propagation": {"seed": int, "max_sweeps": int},
    "louvain": {"seed": int, "resolution": float},
    "cnm": {},
    "external": {"path": str},
}
DETECTOR_NAMES = tuple(DETECTOR_PARAMS)
# parameters whose converted value must also lie in a range: (check, what it must be)
_PARAM_RANGES = {
    "max_sweeps": (lambda v: v >= 1, "at least 1"),
    "resolution": (math.isfinite, "finite"),
}


def _check_param(detector: str, key: str, value, given=None) -> None:
    """Raise ValueError when `value` lies outside the range of parameter `key`.

    The message names the detector and shows `given`, the value as the caller
    wrote it, when there is one.
    """
    in_range, must_be = _PARAM_RANGES.get(key, (None, ""))
    if in_range is not None and not in_range(value):
        shown = value if given is None else given
        raise ValueError(
            f"detector {detector!r}: parameter {key!r} must be {must_be}, got {shown!r}"
        )


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
                converted = types[key](value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"detector {self.name!r}: parameter {key!r} must be "
                    f"{types[key].__name__}, got {value!r}"
                ) from None
            _check_param(self.name, key, converted, given=value)

    def label(self) -> str:
        if self.name == "external":
            return f"external:{Path(str(self.params.get('path', ''))).stem}"
        return self.name


def _require_edges(g: Graph) -> None:
    if g.num_edges == 0:
        raise ValueError("detector requires a graph with at least one edge")


def label_propagation(g: Graph, seed: int = 0, max_sweeps: int = 100) -> Partition:
    """Asynchronous label propagation with seeded order and tie-breaking.

    Stops when a sweep changes no label, or after `max_sweeps` sweeps, which
    is logged as a warning.

    A node whose last visit found a single most frequent neighbour label is
    settled until a neighbour's label changes. Its neighbourhood is then as
    it was, so a visit would pick the same label and draw nothing from the
    random stream; settled nodes are skipped without counting.
    """
    _check_param("label_propagation", "max_sweeps", max_sweeps)
    _require_edges(g)
    rng = random.Random(seed)
    adj = g.neighbor_lists()
    labels = list(range(g.n))
    order = list(range(g.n))
    settled = [not nbrs for nbrs in adj]  # an isolated node never changes
    for _ in range(max_sweeps):
        rng.shuffle(order)
        changed = False
        for u in order:
            if settled[u]:
                continue
            nbrs = adj[u]
            counts: dict[int, int] = {}
            for v in nbrs:
                counts[labels[v]] = counts.get(labels[v], 0) + 1
            top = max(counts.values())
            winners = [lab for lab, c in counts.items() if c == top]
            if len(winners) == 1:
                new = winners[0]
                settled[u] = True
            else:
                new = rng.choice(winners)
            if new != labels[u]:
                labels[u] = new
                changed = True
                for v in nbrs:
                    settled[v] = False
        if not changed:
            break
    else:
        log.warning("label propagation stopped after %d sweep(s) without converging", max_sweeps)
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
    _check_param("louvain", "resolution", resolution)
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
    """Greedy modularity merging (Clauset, Newman & Moore 2004), deterministic.

    Each step merges the linked pair of communities (a, b), a < b, with the
    largest modularity gain; b joins a, so a community keeps the smallest id
    of its nodes. The gain is compared as the exact integer
    ΔQ·2m² = 2m·w_ab − d_a·d_b (w_ab the edges between a and b, d the degree
    sums), ties going to the smallest (a, b); merging stops when no pair has
    a positive gain. For m < 707,106 distinct gains differ by more than
    1e-12, so this is the pair a float comparison with a 1e-12 tie tolerance
    picks; on larger graphs such a comparison would tie distinct gains, and
    the integer order is the defined one.

    Pairs wait in a lazy min-heap of packed ints (−gain·n² + a·n + b). The
    invariant is that every linked pair has an entry no larger than its true
    one. Merging b into a grows d_a, which strictly lowers the gain of each
    pair (a, c) whose c was a neighbour of only one of them, so their old
    entries stay below; for a common neighbour c the joined pair may gain,
    and its new entry is pushed. The top entry is mapped to its current
    communities and replaced by the true entry when stale, so a top entry
    that is current is the best pair. Each push joins two pairs into one, so
    the heap never holds more than 2m entries.
    """
    _require_edges(g)
    n, two_m = g.n, 2 * g.num_edges
    nn = n * n
    deg = g.degrees.tolist()
    links = [dict.fromkeys(row, 1) for row in g.neighbor_lists()]  # community -> {neighbour: w}
    heap = [(deg[a] * deg[b] - two_m) * nn + a * n + b for a, b in g.edges()]
    heapq.heapify(heap)
    root = list(range(n))  # union-find towards the smaller id, so root[i] <= i

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    while heap and heap[0] < 0:
        a, b = divmod(heap[0] % nn, n)
        a, b = find(a), find(b)
        if a == b:
            heapq.heappop(heap)
            continue
        if a > b:
            a, b = b, a
        row_a = links[a]
        entry = (deg[a] * deg[b] - two_m * row_a[b]) * nn + a * n + b
        if entry != heap[0]:
            heapq.heapreplace(heap, entry)
            continue
        heapq.heappop(heap)
        root[b] = a
        deg[a] += deg[b]
        row_b, links[b] = links[b], {}
        del row_a[b], row_b[a]
        for c, w in row_b.items():
            row_c = links[c]
            del row_c[b]
            if c in row_a:
                w += row_a[c]
                lo, hi = (a, c) if a < c else (c, a)
                heapq.heappush(heap, (deg[a] * deg[c] - two_m * w) * nn + lo * n + hi)
            row_a[c] = row_c[a] = w
    for i in range(n):  # ascending, so root[root[i]] is already final
        root[i] = root[root[i]]
    return Partition.from_labels(root)


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
