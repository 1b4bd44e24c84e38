"""Synthetic benchmarks with planted communities.

Two generators: a simplified ABCD-style model (power-law degrees and
community sizes, with a mixing fraction xi of edge stubs routed through a
community-agnostic background configuration model) and a two-block
minority/majority model used by the perturbation lab.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .partition import Partition


class GenerationError(RuntimeError):
    """Sampling failure after exhausting a retry cap."""


@dataclass(frozen=True)
class AbcdParams:
    n: int
    gamma: float = 2.5  # degree power-law exponent
    d_min: int = 5
    d_max: int = 50
    beta: float = 1.5  # community-size power-law exponent
    c_min: int = 100
    c_max: int = 1000
    xi: float = 0.2  # fraction of stubs routed to the background graph
    d_max_iter: int = 1000
    c_max_iter: int = 1000
    seed: int = 0

    def validate(self) -> None:
        if self.d_min < 1 or self.d_min > self.d_max or self.d_max >= self.n:
            raise ValueError("need 1 <= d_min <= d_max < n")
        if not (1 <= self.c_min <= self.c_max <= self.n):
            raise ValueError("need 1 <= c_min <= c_max <= n")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError("xi must lie in [0, 1]")
        if not (math.isfinite(self.gamma) and math.isfinite(self.beta)):
            raise ValueError("gamma and beta must be finite")
        if self.d_max_iter < 1 or self.c_max_iter < 1:
            raise ValueError("need d_max_iter >= 1 and c_max_iter >= 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _power_law_weights(exponent: float, lo: int, hi: int) -> np.ndarray:
    """P(v) proportional to v^-exponent for the integers v in [lo, hi]."""
    weights = np.arange(lo, hi + 1, dtype=np.float64) ** (-exponent)
    return weights / weights.sum()


def truncated_power_law(rng: np.random.Generator, exponent: float, lo: int, hi: int, size: int) -> np.ndarray:
    """Sample integers in [lo, hi] with P(v) proportional to v^-exponent."""
    return rng.choice(np.arange(lo, hi + 1), size=size, p=_power_law_weights(exponent, lo, hi))


def _sample_community_sizes(rng: np.random.Generator, p: AbcdParams) -> list[int]:
    """Power-law sizes in [c_min, c_max] until they cover n; the last is trimmed.

    The sizes are the ones that one ``truncated_power_law(rng, beta, c_min,
    c_max, 1)`` call per community gives, and `rng` ends in the same state:
    ``Generator.choice`` maps one ``random()`` per sample through ``cdf``,
    built here once by the same arithmetic. A batch of
    ceil((n − total) / c_max) draws cannot reach n before its last draw, so
    the per-community loop would have consumed all of it. The trimmed size
    is at least 1, because the sizes before it sum to less than n.
    """
    cdf = _power_law_weights(p.beta, p.c_min, p.c_max).cumsum()
    cdf /= cdf[-1]
    sizes: list[int] = []
    total = 0
    while total < p.n:
        draws = rng.random(-(-(p.n - total) // p.c_max))
        batch = (cdf.searchsorted(draws, side="right") + p.c_min).tolist()
        sizes += batch
        total += sum(batch)
    sizes[-1] -= total - p.n
    return sizes


def _sample_degrees(rng: np.random.Generator, p: AbcdParams) -> np.ndarray:
    for _ in range(p.d_max_iter):
        degrees = truncated_power_law(rng, p.gamma, p.d_min, p.d_max, p.n).astype(np.int64)
        if degrees.sum() % 2 == 0:
            return degrees
        # flip one node's degree by 1 to fix parity when possible
        idx = int(rng.integers(p.n))
        if degrees[idx] < p.d_max:
            degrees[idx] += 1
            return degrees
    raise GenerationError("degree sampling failed after d_max_iter attempts")


def _can_pair(stubs: list[int], edges: set[tuple[int, int]], labels: list[int] | None) -> bool:
    """Whether two distinct nodes among `stubs` may still be joined by an edge."""
    nodes = sorted(set(stubs))
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if (u, v) not in edges and (labels is None or labels[u] != labels[v]):
                return True
    return False


def _pair_stubs(
    rng: np.random.Generator,
    stubs: np.ndarray,
    edges: set[tuple[int, int]],
    max_rounds: int = 50,
    labels: np.ndarray | None = None,
) -> int:
    """Configuration-model pairing with rejection of self-loops/multi-edges.

    Each round shuffles the pool and pairs it off in order; rejected pairs
    go back to the pool, behind the odd stub out. When `labels` is given,
    pairs falling inside one community are rejected too, so the background
    pass yields inter-community edges only and the realized mixing fraction
    tracks xi instead of undershooting it by the same-community collision
    rate.

    After a round that adds no edge, the pool may hold no pair that can ever
    be joined; every later round would only shuffle it. Those shuffles are
    drawn in one ``permuted`` call, which takes the same numbers from `rng`
    (Fisher-Yates draws depend on the pool's length only), so the stream
    that later pairings read is the same as if every round had run.

    Adds accepted edges to `edges` in place; returns the number of stubs
    dropped as irreparable.
    """
    community_of = labels.tolist() if labels is not None else None
    pool = stubs.copy()
    for done in range(1, max_rounds + 1):
        if len(pool) < 2:
            break
        rng.shuffle(pool)
        items = pool.tolist()
        bad = items[-1:] if len(items) % 2 else []
        for i in range(0, len(items) - 1, 2):
            u, v = items[i], items[i + 1]
            key = (u, v) if u < v else (v, u)
            if (u == v or key in edges
                    or (community_of is not None and community_of[u] == community_of[v])):
                bad += (u, v)
            else:
                edges.add(key)
        if not bad:
            return 0
        if len(bad) == len(items) and not _can_pair(bad, edges, community_of):
            if done < max_rounds:
                rng.permuted(np.zeros((max_rounds - done, len(bad)), np.int64), axis=1)
            return len(bad)
        pool = np.array(bad, dtype=np.int64)
    return len(pool)


def generate_abcd_lite(p: AbcdParams) -> tuple[Graph, Partition, dict]:
    """Generate a planted-partition graph; returns (graph, partition, info).

    The info dict records realized quantities (dropped stubs, realized mixing)
    for the provenance sidecar.
    """
    p.validate()
    rng = np.random.default_rng(p.seed)

    sizes = _sample_community_sizes(rng, p)
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

    # each community's members in ascending node order; the intra edges of
    # disjoint communities cannot collide, so each gets its own edge set
    by_community = np.argsort(labels, kind="stable")
    bounds = np.cumsum([0, *sizes]).tolist()
    edge_sets: list[set[tuple[int, int]]] = []
    for c in range(len(sizes)):
        members = by_community[bounds[c] : bounds[c + 1]]
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
        edge_sets.append(set())
        dropped += _pair_stubs(rng, stubs, edge_sets[-1])

    if background.sum() > 0:
        if background.sum() % 2 == 1:
            j = int(np.argmax(background))
            background[j] -= 1
            dropped += 1
        stubs = np.repeat(np.arange(p.n), background)
        if len(sizes) > 1:
            # inter-community edges only, so none collides with an intra edge
            edge_sets.append(set())
            dropped += _pair_stubs(rng, stubs, edge_sets[-1], labels=labels)
        else:
            # no inter-community pair exists; pair unconstrained instead of
            # dropping every stub, sharing the one community's edge set
            dropped += _pair_stubs(rng, stubs, edge_sets[0])

    edges = np.array([e for s in edge_sets for e in s], dtype=np.int64).reshape(-1, 2)
    graph = Graph.from_edges(p.n, edges)
    partition = Partition.from_labels(labels)
    m = len(edges)
    inter = int(np.count_nonzero(labels[edges[:, 0]] != labels[edges[:, 1]]))
    info = {
        "dropped_stubs": int(dropped),
        "num_edges": m,
        "num_communities": len(sizes),
        "realized_inter_fraction": inter / m if m else 0.0,
        "mean_degree": 2 * m / p.n,
    }
    return graph, partition, info


def two_block_partition(n: int, minority_frac: float) -> Partition:
    """Planted labels only: community 0 = minority block, community 1 = rest."""
    if not 0.0 < minority_frac < 1.0:
        raise ValueError("minority_frac must lie in (0, 1)")
    size_m = int(math.floor(minority_frac * n + 0.5))
    if size_m < 1 or size_m >= n:
        raise ValueError("degenerate block sizes")
    labels = [0] * size_m + [1] * (n - size_m)
    return Partition.from_labels(labels)


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
    return Graph.from_edges(n, edges), partition
