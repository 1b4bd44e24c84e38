"""Pure-Python reference implementations of the vectorised library code.

These are the per-node and per-line loops the package used before its
arrays-first rewrite (CSR graph, one contingency table per pair), the
CNM loop that rescans every link per merge, which the heap replaced, Louvain
on float weights with a 1e-12 tie tolerance, which integer gains replaced,
Louvain's integer local move and label propagation as they were before they
kept state between visits, recounting every node's neighbourhood on every
visit, the
edge-list and partition writers that format each line on its own, the bias
CSV writer that joins all n rows into one string, and the ABCD generator
that re-shuffles stub pools which can no longer pair and draws its degrees
and each community size with ``Generator.choice``. They are slow but
obviously correct, and the property tests in ``test_oracles.py`` compare the
package against them.

The bias itself has two references here: ``ib_all_naive`` materializes each
node's co-occurrence rows (``cc_row``) and takes their cosine distance, as
the measure is defined, and the ``perturb_*`` functions build the random
perturbations whose focal bias the closed-form sweep must reproduce.

``generate_two_community`` is no reference: it draws the two-block
minority/majority graphs that tests use as inputs, and
``two_block_partition`` gives their planted labels. Nor is
``graph_from_edges``, which builds a test's graph from its edge pairs.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from cdfair.bias import BiasReport
from cdfair.graph import MAX_NODES, EdgeListError, Graph, _distinct
from cdfair.partition import Partition, PartitionError
from cdfair.perturb import minority_size, round_half_away
from cdfair.synthgen import AbcdParams
from cdfair.textio import first_true

NAIVE_NODE_CAP = 5000


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from edges (pairs or an (m, 2) array); duplicates are merged."""
    if n > MAX_NODES:
        raise ValueError(f"n={n} above the largest node count {MAX_NODES}")
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    out_of_range = ((pairs < 0) | (pairs >= n)).any(axis=1)
    loop = pairs[:, 0] == pairs[:, 1]
    bad = first_true(out_of_range | loop)
    if bad is not None:
        u, v = pairs[bad].tolist()
        if out_of_range[bad]:
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        raise ValueError(f"self-loop at node {u}")
    return Graph.from_keys(n, _distinct(pairs.min(axis=1) * n + pairs.max(axis=1)))


def cc_row(p: Partition, i: int) -> np.ndarray:
    """Materialized co-occurrence row: v[j] = 1 iff c_j = c_i."""
    if not 0 <= i < p.n:
        raise IndexError(f"node index {i} out of range for n={p.n}")
    return (p.labels == p.labels[i]).astype(np.float64)


def cosine_distance(u: Sequence[float], v: Sequence[float]) -> float:
    """1 - cos(u, v). For non-negative inputs the result lies in [0, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("vector length mismatch")
    nu = math.sqrt(float(u @ u))
    nv = math.sqrt(float(v @ v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine distance undefined for zero-norm vector")
    return 1.0 - float(u @ v) / (nu * nv)


def ib_all_naive(gt: Partition, pred: Partition, cap: int = NAIVE_NODE_CAP) -> BiasReport:
    """Row-materializing O(n^2) bias. Refuses to run above `cap` nodes."""
    if gt.n != pred.n:
        raise PartitionError(f"partition sizes differ: {gt.n} vs {pred.n}")
    if gt.n > cap:
        raise ValueError(
            f"naive path capped at {cap} nodes (got {gt.n}); use ib_all_fast"
        )
    ib = np.empty(gt.n, dtype=np.float64)
    for i in range(gt.n):
        ib[i] = cosine_distance(cc_row(gt, i), cc_row(pred, i))
    return BiasReport.from_values(ib, np.arange(gt.n))


def write_bias_csv(report: BiasReport, sink) -> None:
    """``BiasReport.write_csv`` as one string of all n rows, one ``repr`` per node."""
    sink.write("node_id,ib\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(report.ib.tolist())))


def perturb_expand(gt: Partition, focal: int, ratio: float, seed: int = 0) -> Partition:
    """Relabel round(ratio * |outside|) random outsiders into the focal community."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    focal_c = int(gt.labels[focal])
    outside = np.flatnonzero(gt.labels != focal_c)
    k = round_half_away(ratio * len(outside))
    labels = gt.labels.copy()
    if k > 0:
        joiners = rng.choice(outside, size=k, replace=False)
        labels[joiners] = focal_c
    return Partition.from_labels(labels)


def perturb_shrink(gt: Partition, focal: int, ratio: float, seed: int = 0) -> Partition:
    """Move round(ratio * s) random members (never the focal node) to a fresh community.

    The count is based on the full community size s and capped at s - 1 so
    the focal node always stays: interior grid ratios then remove the same
    fraction regardless of s (size-invariant curves), while ratio 1 still
    leaves the singleton {focal} with bias 1 - 1/sqrt(s).
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    focal_c = int(gt.labels[focal])
    members = np.flatnonzero(gt.labels == focal_c)
    members = members[members != focal]
    k = min(round_half_away(ratio * (len(members) + 1)), len(members))
    labels = gt.labels.copy()
    if k > 0:
        leavers = rng.choice(members, size=k, replace=False)
        labels[leavers] = gt.k  # a label no community has yet
    return Partition.from_labels(labels)


def perturb_change(gt: Partition, focal: int, ratio: float, seed: int = 0) -> Partition:
    """Proportional swap: members leave and outsiders join, both at `ratio`."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    focal_c = int(gt.labels[focal])
    members = np.flatnonzero(gt.labels == focal_c)
    members = members[members != focal]
    outside = np.flatnonzero(gt.labels != focal_c)
    k_out = min(round_half_away(ratio * (len(members) + 1)), len(members))
    k_in = round_half_away(ratio * len(outside))
    labels = gt.labels.copy()
    if k_out > 0:
        leavers = rng.choice(members, size=k_out, replace=False)
        labels[leavers] = gt.k  # a label no community has yet
    if k_in > 0:
        joiners = rng.choice(outside, size=k_in, replace=False)
        labels[joiners] = focal_c
    return Partition.from_labels(labels)


def from_labels(raw_labels) -> list[int]:
    """Dense ids in first-seen order; labels are compared by Python equality."""
    remap: dict = {}
    dense = []
    for lab in raw_labels:
        if lab not in remap:
            remap[lab] = len(remap)
        dense.append(remap[lab])
    return dense


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
    # each sum is a plain loop: the built-in sum() of floats compensates its
    # rounding from CPython 3.12 on
    n = len(x)
    if n != len(y) or n < 2:
        raise ValueError("need at least two paired points")
    mx = my = 0.0
    for xi, yi in zip(x, y):
        mx += xi
        my += yi
    mx, my = mx / n, my / n
    sxx = sxy = 0.0
    for xi, yi in zip(x, y):
        sxx += (xi - mx) ** 2
        sxy += (xi - mx) * (yi - my)
    if sxx == 0.0:
        raise ValueError("slope undefined: all x values equal")
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
    for u, v in g.edge_array.tolist():
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


def louvain_local_move_recount(adj: list[dict[int, int]], strength: list[int],
                               rng: random.Random) -> list[int]:
    """Louvain's integer-gain local move on one level, counting every visited
    node's edge weight into each neighbouring community afresh."""
    comm = list(range(len(adj)))
    comm_tot = strength[:]  # total strength per community
    two_m = sum(strength)
    order = list(range(len(adj)))
    improved = True
    while improved:
        improved = False
        rng.shuffle(order)
        for u in order:
            cu = comm[u]
            ku = strength[u]
            # edge weight from u to each neighbouring community, its own first
            links = {cu: 0}
            for v, w in adj[u].items():
                c = comm[v]
                links[c] = links.get(c, 0) + w
            comm_tot[cu] -= ku
            best_c = cu
            best = two_m * links[cu] - ku * comm_tot[cu]
            for c, w_uc in links.items():
                gain = two_m * w_uc - ku * comm_tot[c]
                if gain > best or (gain == best and best_c != cu and c < best_c):
                    best_c, best = c, gain
            comm_tot[best_c] += ku
            if best_c != cu:
                comm[u] = best_c
                improved = True
    return comm


def louvain(g: Graph, seed: int = 0, resolution: float = 1.0) -> Partition:
    """Two-phase Louvain on float weights: a gain must exceed the best by more
    than 1e-12 to win, and gains within 1e-12 of a positive best go to the
    smallest community id."""
    if g.num_edges == 0:
        raise ValueError("detector requires a graph with at least one edge")
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


def node_id(token: str) -> int:
    """The value of a node-id token: ASCII digits after an optional '-'."""
    if re.fullmatch(r"-?[0-9]+", token) is None:
        raise ValueError(f"not a node id: {token!r}")
    return int(token)


def split_tokens(line: str) -> list[str]:
    """The tokens of a line: its text between ASCII whitespace, as bytes split."""
    return [tok.decode() for tok in line.encode().split()]


def load_edge_list(lines) -> tuple[int, set[tuple[int, int]], int, int]:
    """(n, edge set, duplicates dropped, self-loops dropped), line by line."""
    pairs = []
    max_raw = -1
    for lineno, line in enumerate(lines, start=1):
        tokens = split_tokens(line)
        if not tokens or tokens[0].startswith(("#", "%")):
            continue
        if len(tokens) != 2:
            note = " (edge weights are not read: the detectors and IB are unweighted)"
            raise EdgeListError(f"line {lineno}: expected two tokens, got {len(tokens)}"
                                + (note if len(tokens) == 3 else ""))
        ids = []
        for tok in tokens:
            try:
                i = node_id(tok)
            except ValueError:
                raise EdgeListError(f"line {lineno}: non-integer node id {tok!r}")
            if i < 0:
                raise EdgeListError(f"line {lineno}: negative node id {i}")
            if i >= MAX_NODES:
                raise EdgeListError(
                    f"line {lineno}: node id {i} above the largest node id {MAX_NODES - 1}"
                )
            max_raw = max(max_raw, i)
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
    return max_raw + 1, seen, dup, loops


def load_partition(lines, n: int | None = None) -> Partition:
    """Without `n`, every node appears once, so n is the number of data rows;
    a line without two tokens leaves n unknown and bounds ids only below."""
    rows = [split_tokens(line) for line in lines]
    rows = [tokens for tokens in rows if tokens and not tokens[0].startswith(("#", "%"))]
    if n is None and all(len(tokens) == 2 for tokens in rows):
        n = len(rows)
    assigned: dict[int, str] = {}
    for lineno, line in enumerate(lines, start=1):
        tokens = split_tokens(line)
        if not tokens or tokens[0].startswith(("#", "%")):
            continue
        if len(tokens) != 2:
            raise PartitionError(f"line {lineno}: expected two tokens, got {len(tokens)}")
        try:
            node = node_id(tokens[0])
        except ValueError:
            raise PartitionError(f"line {lineno}: non-integer node id {tokens[0]!r}")
        if n is None and node < 0:
            raise PartitionError(f"line {lineno}: negative node id {node}")
        if n is not None and not 0 <= node < n:
            raise PartitionError(f"line {lineno}: node {node} outside [0, {n})")
        if node in assigned:
            raise PartitionError(f"line {lineno}: node {node} assigned twice")
        assigned[node] = tokens[1]
    missing = [i for i in range(n) if i not in assigned]
    if missing:
        raise PartitionError(f"node {missing[0]} unassigned")
    if n == 0:
        raise PartitionError("empty label sequence")
    dense = np.array(from_labels(assigned[i] for i in range(n)), dtype=np.int64)
    sizes = np.bincount(dense)
    return Partition(labels=dense, sizes=sizes, k=len(sizes))


def write_edge_list(g: Graph, sink) -> None:
    """One 'u v' line per edge, each formatted on its own."""
    u, v = g.edge_array.T.tolist()
    sink.write("".join(map("{} {}\n".format, u, v)))


def write_partition(p: Partition, sink) -> None:
    """One 'node_id community_id' line per node, each formatted on its own."""
    sink.write("".join(f"{i} {lab}\n" for i, lab in enumerate(p.labels.tolist())))


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


def truncated_power_law(rng: np.random.Generator, exponent: float, lo: int, hi: int, size: int) -> np.ndarray:
    """Sample integers in [lo, hi] with P(v) proportional to v^-exponent."""
    weights = np.arange(lo, hi + 1, dtype=np.float64) ** (-exponent)
    return rng.choice(np.arange(lo, hi + 1), size=size, p=weights / weights.sum())


def sample_community_sizes(rng: np.random.Generator, p: AbcdParams) -> list[int]:
    """One ``Generator.choice`` draw per community until the sizes cover n."""
    sizes: list[int] = []
    total = 0
    while total < p.n:
        s = int(truncated_power_law(rng, p.beta, p.c_min, p.c_max, 1)[0])
        sizes.append(s)
        total += s
    # the sizes before the last sum to less than n, so the trimmed one is >= 1
    sizes[-1] -= total - p.n
    return sizes


def sample_degrees(rng: np.random.Generator, p: AbcdParams) -> np.ndarray:
    """``Generator.choice`` degrees; an odd sum moves one random node's degree
    by 1, up when it is below d_max and down otherwise."""
    degrees = truncated_power_law(rng, p.gamma, p.d_min, p.d_max, p.n).astype(np.int64)
    if degrees.sum() % 2:
        idx = int(rng.integers(p.n))
        degrees[idx] += 1 if degrees[idx] < p.d_max else -1
    return degrees


def generate_abcd_lite(p: AbcdParams) -> tuple[Graph, Partition, dict]:
    """Generate a planted-partition graph; returns (graph, partition, info).

    The info dict records realized quantities (dropped stubs, realized mixing)
    for the provenance sidecar.
    """
    p.validate()
    rng = np.random.default_rng(p.seed)

    sizes = sample_community_sizes(rng, p)
    degrees = sample_degrees(rng, p)

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

    graph = graph_from_edges(p.n, edges)
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


def two_block_partition(n: int, minority_frac: float) -> Partition:
    """Planted labels only: community 0 = minority block, community 1 = rest."""
    size_m = minority_size(n, minority_frac)
    return Partition.from_labels([0] * size_m + [1] * (n - size_m))


def _sample_block_edges(rng: np.random.Generator, total: int, prob: float, edges: list[tuple[int, int]], pair_at) -> None:
    """Bernoulli-sample pairs via geometric skipping; O(expected edges)."""
    if prob <= 0.0:
        return
    if prob >= 1.0:
        edges.extend(pair_at(i) for i in range(total))
        return
    log_q = math.log1p(-prob)
    i = -1
    while True:
        r = rng.random()
        i += 1 + int(math.floor(math.log(1.0 - r) / log_q))
        if i >= total:
            break
        edges.append(pair_at(i))


def generate_two_community(
    n: int,
    minority_frac: float = 0.2,
    intra_p: float = 0.3,
    inter_p: float = 0.05,
    seed: int = 0,
) -> tuple[Graph, Partition]:
    """Two-block planted graph: Bernoulli(intra_p) within, Bernoulli(inter_p) across."""
    if not (0.0 <= intra_p <= 1.0 and 0.0 <= inter_p <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    partition = two_block_partition(n, minority_frac)
    size_m = int(partition.sizes[0])
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []

    def block_pairs(offset: int, size: int):
        def at(idx: int) -> tuple[int, int]:
            # row-major indexing over the strict upper triangle
            u = size - 2 - int(math.floor(math.sqrt(-8 * idx + 4 * size * (size - 1) - 7) / 2.0 - 0.5))
            v = idx + u + 1 - size * (size - 1) // 2 + (size - u) * ((size - u) - 1) // 2
            return (offset + u, offset + v)

        return at

    size_big = n - size_m
    _sample_block_edges(rng, size_m * (size_m - 1) // 2, intra_p, edges, block_pairs(0, size_m))
    _sample_block_edges(rng, size_big * (size_big - 1) // 2, intra_p, edges, block_pairs(size_m, size_big))

    def cross_at(idx: int) -> tuple[int, int]:
        return (idx // size_big, size_m + idx % size_big)

    _sample_block_edges(rng, size_m * size_big, inter_p, edges, cross_at)
    return graph_from_edges(n, edges), partition
