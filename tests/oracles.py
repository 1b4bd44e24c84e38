"""Pure-Python reference implementations of the vectorised library code.

These are the per-node and per-line loops the package used before its
arrays-first rewrite (CSR graph, one contingency table per pair), and the
CNM loop that rescans every link per merge, which the heap replaced. They
are slow but obviously correct, and the property tests in
``test_oracles.py`` compare the package against them.
"""

from __future__ import annotations

from collections import Counter

from cdfair.graph import EdgeListError, Graph
from cdfair.partition import Partition, PartitionError


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
