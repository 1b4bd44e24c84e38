"""Pure-Python reference implementations of the vectorised library code.

These are the per-node and per-line loops the package used before its
arrays-first rewrite (CSR graph, one contingency table per pair), the
CNM loop that rescans every link per merge, which the heap replaced, label
propagation that recounts every node's neighbourhood on every visit, and the
ABCD generator that re-shuffles stub pools which can no longer pair and
draws each community size with its own ``choice`` call. They are slow but
obviously correct, and the property tests in ``test_oracles.py`` compare the
package against them.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np

from cdfair.graph import EdgeListError, Graph
from cdfair.partition import Partition, PartitionError
from cdfair.synthgen import AbcdParams, GenerationError, _sample_degrees


def from_labels(raw_labels) -> tuple[list[int], tuple]:
    """Dense ids in first-seen order and the original label of each id."""
    remap: dict = {}
    dense = []
    for lab in raw_labels:
        if lab not in remap:
            remap[lab] = len(remap)
        dense.append(remap[lab])
    return dense, tuple(remap)


def contingency(gt: Partition, pred: Partition) -> dict[tuple[int, int], int]:
    """Non-empty cells as {(gt id, pred id): overlap}."""
    return dict(Counter(zip(gt.labels.tolist(), pred.labels.tolist())))


def nf1(gt: Partition, pred: Partition) -> float:
    overlap = contingency(gt, pred)
    best: dict[int, tuple[int, int]] = {}  # pred id -> (overlap, gt id)
    for (a, b), o in overlap.items():
        cur = best.get(b)
        if cur is None or o > cur[0] or (o == cur[0] and a < cur[1]):
            best[b] = (o, a)
    f1_sum = 0.0
    matched_gt: set[int] = set()
    for b, (o, a) in best.items():
        precision = o / int(pred.sizes[b])
        recall = o / int(gt.sizes[a])
        f1_sum += 2 * precision * recall / (precision + recall)
        matched_gt.add(a)
    return (f1_sum / pred.k) * (len(matched_gt) / gt.k) / (pred.k / len(matched_gt))


def community_stats(g: Graph, p: Partition) -> dict[str, list]:
    """Size, conductance and density per community, one list per property."""
    adjacency = g.neighbor_lists()
    labels = p.labels.tolist()
    intra = [0] * p.k
    cut = [0] * p.k
    vol = [0] * p.k
    for u in range(g.n):
        cu = labels[u]
        vol[cu] += len(adjacency[u])
        for v in adjacency[u]:
            if labels[v] == cu:
                if u < v:
                    intra[cu] += 1
            else:
                cut[cu] += 1
    total_vol = sum(vol)
    out: dict[str, list] = {"size": [], "conductance": [], "density": []}
    for c in range(p.k):
        s = int(p.sizes[c])
        density = 1.0 if s == 1 else 2.0 * intra[c] / (s * (s - 1))
        denom = min(vol[c], total_vol - vol[c])
        conductance = 0.0 if denom == 0 else cut[c] / denom
        out["size"].append(s)
        out["conductance"].append(conductance)
        out["density"].append(density)
    return out


def community_scores(g: Graph, gt: Partition, pred: Partition) -> dict[str, list]:
    """FCCN, F1 and FCCE per ground-truth community, one list per score."""
    best: dict[int, tuple[int, int]] = {}  # gt id -> (overlap, pred id)
    for (a, b), o in contingency(gt, pred).items():
        cur = best.get(a)
        if cur is None or o > cur[0] or (o == cur[0] and b < cur[1]):
            best[a] = (o, b)
    adjacency = g.neighbor_lists()
    labels_gt = gt.labels.tolist()
    labels_pred = pred.labels.tolist()
    intra_edges = [0] * gt.k
    kept_edges = [0] * gt.k
    for u in range(g.n):
        a = labels_gt[u]
        target = best[a][1]
        for v in adjacency[u]:
            if u < v and labels_gt[v] == a:
                intra_edges[a] += 1
                if labels_pred[u] == target and labels_pred[v] == target:
                    kept_edges[a] += 1
    out: dict[str, list] = {"fccn": [], "f1": [], "fcce": []}
    for a in range(gt.k):
        o, b = best[a]
        s = int(gt.sizes[a])
        sp = int(pred.sizes[b])
        precision = o / sp
        recall = o / s
        f1 = 2 * precision * recall / (precision + recall)
        fcce = 1.0 if intra_edges[a] == 0 else kept_edges[a] / intra_edges[a]
        out["fccn"].append(o / s)
        out["f1"].append(f1)
        out["fcce"].append(fcce)
    return out


def ols_slope(x, y) -> float:
    n = len(x)
    if n != len(y) or n < 2:
        raise ValueError("need at least two paired points")
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((xi - mx) ** 2 for xi in x)
    if sxx == 0.0:
        raise ValueError("slope undefined: all x values equal")
    sxy = sum((xi - mx) * (yi - my) for xi, yi in zip(x, y))
    return sxy / sxx


def _minmax(values) -> list[float] | None:
    lo, hi = min(values), max(values)
    if lo == hi:
        return None
    return [(v - lo) / (hi - lo) for v in values]


def phi(g: Graph, gt: Partition, pred: Partition) -> dict[str, dict[str, float | None]]:
    """phi[property][score]: OLS slope of the score on the min-max normalised
    property, None when the property is the same for every community."""
    stats = community_stats(g, gt)
    scores = community_scores(g, gt, pred)
    result: dict[str, dict[str, float | None]] = {}
    for prop in ("size", "conductance", "density"):
        norm = _minmax(stats[prop])
        result[prop] = {}
        for score in ("fccn", "f1", "fcce"):
            if norm is None:
                result[prop][score] = None
            else:
                result[prop][score] = ols_slope(norm, scores[score])
    return result


def greedy_agglomerative(g: Graph) -> Partition:
    """CNM greedy merging that rescans every inter-community link per merge
    and relabels every node after it; ties within 1e-12 go to the smallest pair."""
    if g.num_edges == 0:
        raise ValueError("detector requires a graph with at least one edge")
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


def label_propagation(g: Graph, seed: int = 0, max_sweeps: int = 100) -> tuple[Partition, bool]:
    """Asynchronous label propagation that counts every visited node's
    neighbourhood; returns the partition and whether a sweep changed no label."""
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
            return Partition.from_labels(labels), True
    return Partition.from_labels(labels), False


def load_edge_list(lines, id_mode: str) -> tuple[int, set[tuple[int, int]], int, int]:
    """(n, edge set, duplicates dropped, self-loops dropped), line by line."""
    id_map: dict[str, int] = {}
    pairs = []
    max_raw = -1
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise EdgeListError(f"line {lineno}: expected two tokens, got {len(tokens)}")
        ids = []
        for tok in tokens:
            if id_mode == "raw":
                try:
                    i = int(tok)
                except ValueError:
                    raise EdgeListError(f"line {lineno}: non-integer node id {tok!r} in raw mode")
                if i < 0:
                    raise EdgeListError(f"line {lineno}: negative node id {i}")
                max_raw = max(max_raw, i)
            else:
                i = id_map.setdefault(tok, len(id_map))
            ids.append(i)
        pairs.append(tuple(ids))
    if not pairs:
        raise EdgeListError("empty edge-list input")
    seen: set[tuple[int, int]] = set()
    dup = loops = 0
    for u, v in pairs:
        if u == v:
            loops += 1
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            dup += 1
        seen.add(key)
    n = max_raw + 1 if id_mode == "raw" else len(id_map)
    return n, seen, dup, loops


def load_partition(lines, n: int) -> Partition:
    assigned: dict[int, str] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise PartitionError(f"line {lineno}: expected two tokens, got {len(tokens)}")
        try:
            node = int(tokens[0])
        except ValueError:
            raise PartitionError(f"line {lineno}: non-integer node id {tokens[0]!r}")
        if not 0 <= node < n:
            raise PartitionError(f"line {lineno}: node {node} outside [0, {n})")
        if node in assigned:
            raise PartitionError(f"line {lineno}: node {node} assigned twice")
        assigned[node] = tokens[1]
    missing = [i for i in range(n) if i not in assigned]
    if missing:
        raise PartitionError(f"node {missing[0]} unassigned")
    return Partition.from_labels([assigned[i] for i in range(n)])


def pair_stubs(
    rng: np.random.Generator,
    stubs: np.ndarray,
    edges: set[tuple[int, int]],
    max_rounds: int = 50,
    labels: np.ndarray | None = None,
) -> int:
    """Configuration-model pairing with rejection of self-loops/multi-edges.

    When `labels` is given, pairs falling inside one community are rejected
    too, so the background pass yields inter-community edges only and the
    realized mixing fraction tracks xi instead of undershooting it by the
    same-community collision rate.

    Adds accepted edges to `edges` in place; returns the number of stubs
    dropped as irreparable.
    """
    pool = stubs.copy()
    for _ in range(max_rounds):
        if len(pool) < 2:
            break
        rng.shuffle(pool)
        if len(pool) % 2 == 1:
            leftover = pool[-1:]
            pool = pool[:-1]
        else:
            leftover = pool[:0]
        bad: list[int] = list(leftover)
        for i in range(0, len(pool), 2):
            u, v = int(pool[i]), int(pool[i + 1])
            if u == v or (labels is not None and labels[u] == labels[v]):
                bad.extend((u, v))
                continue
            key = (u, v) if u < v else (v, u)
            if key in edges:
                bad.extend((u, v))
                continue
            edges.add(key)
        if not bad:
            return 0
        pool = np.array(bad, dtype=np.int64)
    return len(pool)


def sample_community_sizes(rng: np.random.Generator, p: AbcdParams) -> list[int]:
    """One ``Generator.choice`` draw per community until the sizes cover n."""
    values = np.arange(p.c_min, p.c_max + 1, dtype=np.float64)
    weights = values ** (-p.beta)
    weights /= weights.sum()
    for _ in range(p.c_max_iter):
        sizes: list[int] = []
        total = 0
        while total < p.n:
            s = int(rng.choice(np.arange(p.c_min, p.c_max + 1), size=1, p=weights)[0])
            sizes.append(s)
            total += s
        overshoot = total - p.n
        if sizes[-1] - overshoot >= 1:
            sizes[-1] -= overshoot
            return sizes
    raise GenerationError("community-size sampling failed after c_max_iter attempts")


def generate_abcd_lite(p: AbcdParams) -> tuple[Graph, Partition, dict]:
    """Generate a planted-partition graph; returns (graph, partition, info).

    The info dict records realized quantities (dropped stubs, realized mixing)
    for the provenance sidecar.
    """
    p.validate()
    rng = np.random.default_rng(p.seed)

    sizes = sample_community_sizes(rng, p)
    degrees = _sample_degrees(rng, p)

    # assign shuffled nodes to communities sequentially
    order = rng.permutation(p.n)
    labels = np.empty(p.n, dtype=np.int64)
    pos = 0
    for c, s in enumerate(sizes):
        labels[order[pos : pos + s]] = c
        pos += s
    community_size = np.array(sizes, dtype=np.int64)

    # split each node's stubs between its community and the background
    intra_target = np.empty(p.n, dtype=np.int64)
    frac = (1.0 - p.xi) * degrees
    base = np.floor(frac).astype(np.int64)
    extra = (rng.random(p.n) < (frac - base)).astype(np.int64)
    intra_target = base + extra
    # a community of size s can host at most s-1 distinct neighbors
    cap = community_size[labels] - 1
    overflow = np.maximum(intra_target - cap, 0)
    intra_target -= overflow
    background = degrees - intra_target
    dropped = 0
    if p.xi == 0.0:
        # keep the graph purely intra-community: drop the excess stubs
        dropped += int(background.sum())
        background = np.zeros_like(background)

    edges: set[tuple[int, int]] = set()
    for c in range(len(sizes)):
        members = np.flatnonzero(labels == c)
        counts = intra_target[members]
        if counts.sum() % 2 == 1:
            if p.xi == 0.0:
                # drop one stub from the highest-count member
                j = int(np.argmax(counts))
                counts[j] -= 1
                dropped += 1
            else:
                # divert one stub to the background pass
                j = int(np.argmax(counts))
                counts[j] -= 1
                background[members[j]] += 1
        stubs = np.repeat(members, counts)
        dropped += pair_stubs(rng, stubs, edges)

    if background.sum() > 0:
        if background.sum() % 2 == 1:
            j = int(np.argmax(background))
            background[j] -= 1
            dropped += 1
        stubs = np.repeat(np.arange(p.n), background)
        # with a single community no inter-community pair exists; fall back
        # to unconstrained pairing instead of dropping every stub
        bg_labels = labels if len(sizes) > 1 else None
        dropped += pair_stubs(rng, stubs, edges, labels=bg_labels)

    graph = Graph.from_edges(p.n, edges)
    partition = Partition.from_labels(labels)
    inter = sum(1 for u, v in edges if labels[u] != labels[v])
    info = {
        "dropped_stubs": int(dropped),
        "num_edges": len(edges),
        "num_communities": len(sizes),
        "realized_inter_fraction": inter / len(edges) if edges else 0.0,
        "mean_degree": 2 * len(edges) / p.n,
    }
    return graph, partition, info
