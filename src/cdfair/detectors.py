"""Built-in community detectors and the dispatch interface.

Three representatives are implemented: asynchronous label propagation,
Louvain (two-phase modularity optimization), and
greedy agglomerative modularity maximization (CNM). Everything else enters
the pipeline as an externally computed partition file.
"""

from __future__ import annotations

import heapq
import logging
import random

from .graph import Graph
from .partition import Partition, load_partition
from .textio import load_file

log = logging.getLogger(__name__)

def _check_seed(name: str, seed: int) -> None:
    """Raise ValueError if detector `name`'s `seed` is negative, since
    random.Random(-s) would repeat seed s."""
    if seed < 0:
        raise ValueError(
            f"detector {name!r}: parameter 'seed' must be non-negative, got {seed!r}"
        )


def _require_edges(g: Graph) -> None:
    if g.num_edges == 0:
        raise ValueError("detector requires a graph with at least one edge")


MAX_SWEEPS = 100  # label propagation's sweep cap


def label_propagation(g: Graph, seed: int = 0) -> Partition:
    """Asynchronous label propagation with seeded order and tie-breaking.

    Stops when a sweep changes no label, or after `MAX_SWEEPS` sweeps, which
    is logged as a warning.

    A node whose last visit found a single most frequent neighbour label is
    settled until a neighbour's label changes. Its neighbourhood is then as
    it was, so a visit would pick the same label and draw nothing from the
    random stream; settled nodes are skipped without counting.
    """
    _check_seed("label_propagation", seed)
    _require_edges(g)
    rng = random.Random(seed)
    adj = g.neighbor_lists()
    labels = list(range(g.n))
    order = list(range(g.n))
    settled = [not nbrs for nbrs in adj]  # an isolated node never changes
    for _ in range(MAX_SWEEPS):
        _shuffle(rng, order)
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
        log.warning("label propagation stopped after %d sweep(s) without converging", MAX_SWEEPS)
    return Partition.from_labels(labels)


def _shuffle(rng: random.Random, x: list) -> None:
    """Shuffle `x` in place exactly as ``rng.shuffle(x)`` does, drawing the
    same ``getrandbits`` calls with the same rejections, without the
    per-item ``_randbelow`` call. The swaps go in runs of i of equal bit
    width k = (i + 1).bit_length(), so k is computed once per run."""
    getrandbits = rng.getrandbits
    top = len(x) - 1
    while top > 0:
        k = (top + 1).bit_length()
        low = (1 << (k - 1)) - 1  # the smallest i of width k; k >= 2, so low >= 1
        for i in range(top, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        top = low - 1


def _louvain_local_move(adj: list[dict[int, int]], strength: list[int],
                        rng: random.Random) -> list[int]:
    n = len(adj)
    comm = list(range(n))
    comm_tot = strength[:]  # total strength per community
    two_m = sum(strength)
    floor = -two_m * two_m - 1  # below every gain 2m·w − k·tot
    # edge weight from each node into each neighbouring community; every node
    # starts alone, so this is adj. An entry goes when its weight reaches 0:
    # kept at 0, it would compete as a community u has no link to
    links = [row.copy() for row in adj]
    # a visit to u is skipped while moved <= until[u] (see `louvain`); a node
    # of strength 0 has no edge and never moves
    moved = 0  # total strength of the moves made on this level
    until = [-1 if k else float("inf") for k in strength]
    order = list(range(n))
    improved = True
    while improved:
        improved = False
        _shuffle(rng, order)
        for u in order:
            if moved <= until[u]:
                continue
            cu = comm[u]
            ku = strength[u]
            row = links[u]
            w_own = row.pop(cu, 0)  # scan only the other communities
            stay = two_m * w_own - ku * (comm_tot[cu] - ku)
            best_c, best = cu, floor
            for c, w_uc in row.items():
                gain = two_m * w_uc - ku * comm_tot[c]
                if gain > best or (gain == best and c < best_c):
                    best_c, best = c, gain
            if w_own:
                row[cu] = w_own
            if best <= stay:  # ties keep u where it is
                until[u] = moved + (stay - best) // (2 * ku)
                continue
            comm[u] = best_c
            comm_tot[cu] -= ku
            comm_tot[best_c] += ku
            moved += ku
            improved = True
            for v, w in adj[u].items():
                until[v] = -1
                kept = links[v]
                left = kept[cu] - w
                if left:
                    kept[cu] = left
                else:
                    del kept[cu]
                kept[best_c] = kept.get(best_c, 0) + w
    return comm


def louvain(g: Graph, seed: int = 0) -> Partition:
    """Two-phase Louvain (Blondel et al. 2008); node order is seeded.

    Each pass visits the nodes of a level in a freshly shuffled order and
    moves each to the neighbouring community with the largest modularity
    gain; passes repeat until one moves nothing, and the communities then
    become the weighted nodes of the next level. The gain of moving u
    (strength k_u, taken out of its community) into c is compared as the
    exact integer 2m·w_uc − k_u·tot_c (w_uc the edge weight from u to c,
    tot_c the strength of c); weights stay integers on every level. u stays
    in its own community unless another gains strictly more, and ties among
    the others go to the smallest community id. Distinct gains differ by at
    least 1/2m, so a float comparison with a 1e-12 tie tolerance keeps them
    apart for 2m < 10^12. But it rounds k_u·tot_c/2m, and with strengths
    near 10^5 the rounding can exceed 1e-12 and split gains that are equal;
    the float rule may then pick a larger id, and the integer order is the
    defined one. No generated graph in the tests reaches such a level; a
    hand-built one with edge weights 24,809 and 70,399 does.

    Each node keeps its edge weight into each neighbouring community, built
    once per level and updated at each neighbour's move, so a visit reads
    only the communities next to it instead of recounting its neighbours.
    The rule above picks the same community whatever the order in which the
    kept weights are read. Each pass's order is shuffled by `_shuffle`,
    which draws what ``random.Random.shuffle`` draws.

    A visit that provably keeps u in place is skipped. `moved` is the total
    strength of the moves made on the level so far. A visit that keeps u
    records until_u = moved + (stay − best) // (2·k_u), with stay =
    2m·w_u,cu − k_u·(tot_cu − k_u) and best the largest gain over the other
    communities (below every gain if there is none); later visits are
    skipped while moved <= until_u, and a move resets until to −1 for the
    mover's neighbours. Proof: with no neighbour moved, u's weights and
    community are as they were, and moves of total strength d since the
    visit raise any other gain by at most k_u·d and lower stay by at most
    k_u·d, so while 2·k_u·d <= stay − best no other community gains more
    than staying. A visit draws no random number, so skipping it changes
    neither the partition nor the random stream.
    """
    _check_seed("louvain", seed)
    _require_edges(g)
    rng = random.Random(seed)
    # one level: neighbour -> edge weight per node (no self entries), and each
    # node's strength, which counts its internal edges twice
    adj = [dict.fromkeys(nbrs, 1) for nbrs in g.neighbor_lists()]
    strength = g.degrees.tolist()
    membership = list(range(g.n))  # original node -> current-level node
    while True:
        remap: dict[int, int] = {}
        dense = [remap.setdefault(c, len(remap))
                 for c in _louvain_local_move(adj, strength, rng)]
        k = len(remap)
        if k == len(adj):  # no merge happened anywhere
            break
        membership = [dense[u] for u in membership]
        # aggregate: communities become nodes
        new_adj: list[dict[int, int]] = [{} for _ in range(k)]
        new_strength = [0] * k
        for u, row in enumerate(adj):
            cu = dense[u]
            new_strength[cu] += strength[u]
            links = new_adj[cu]
            for v, w in row.items():
                cv = dense[v]
                if cv != cu:
                    links[cv] = links.get(cv, 0) + w
        adj, strength = new_adj, new_strength
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
    heap = [(deg[a] * deg[b] - two_m) * nn + a * n + b for a, b in g.edge_array.tolist()]
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


DETECTORS = {
    "label_propagation": label_propagation,
    "louvain": louvain,
    "cnm": lambda g, seed: greedy_agglomerative(g),  # deterministic: no seed
}


def run_detector(name: str, path: str | None, g: Graph, seed: int) -> Partition:
    """Run detector `name` on `g`: `external` reads the partition file at
    `path`, and every built-in is called as ``DETECTORS[name](g, seed)``."""
    if name == "external":
        return load_file(path, "external partition", lambda data: load_partition(data, g.n))
    return DETECTORS[name](g, seed)
