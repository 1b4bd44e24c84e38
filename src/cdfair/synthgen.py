"""Synthetic benchmarks with planted communities.

A simplified ABCD-style model: power-law degrees and community sizes, with
a mixing fraction xi of edge stubs routed through a community-agnostic
background configuration model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .partition import Partition

MAX_ROUNDS = 50  # shuffle-and-pair rounds of a stub pool before its rejects are dropped


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
    seed: int = 0

    def validate(self) -> None:
        if self.d_min < 1 or self.d_min > self.d_max or self.d_max >= self.n:
            raise ValueError("need 1 <= d_min <= d_max < n")
        if self.d_min == self.d_max and self.n * self.d_min % 2:
            raise ValueError(f"d_min = d_max = {self.d_min} and n = {self.n} give an odd degree sum")
        if not (1 <= self.c_min <= self.c_max <= self.n):
            raise ValueError("need 1 <= c_min <= c_max <= n")
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError("xi must lie in [0, 1]")
        if not (math.isfinite(self.gamma) and math.isfinite(self.beta)):
            raise ValueError("gamma and beta must be finite")
        # `_power_law` divides the weights v^-exponent by their float64 sum
        for name, exponent, lo, hi in (("gamma", self.gamma, self.d_min, self.d_max),
                                       ("beta", self.beta, self.c_min, self.c_max)):
            with np.errstate(over="ignore", under="ignore"):
                total = (np.arange(lo, hi + 1, dtype=np.float64) ** -exponent).sum()
            if not 0.0 < total < math.inf:
                raise ValueError(f"{name} = {exponent}: the weights v^-{name} over "
                                 f"[{lo}, {hi}] sum to 0 or overflow float64")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _power_law(exponent: float, lo: int, hi: int):
    """A sampler ``draw(rng, size)`` of `size` integers in [lo, hi] with P(v)
    proportional to v^-exponent.

    ``draw`` gives the integers that ``rng.choice(np.arange(lo, hi + 1), size,
    p=weights / weights.sum())`` gives, and leaves `rng` in the same state:
    ``Generator.choice`` maps one ``random()`` per sample through ``cdf``,
    built here once by the same arithmetic. Community sizes come in batches
    of as little as one draw, so the O(hi − lo) table is not rebuilt per call.
    """
    weights = np.arange(lo, hi + 1, dtype=np.float64) ** -exponent
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return lambda rng, size: cdf.searchsorted(rng.random(size), side="right") + lo


def _sample_community_sizes(rng: np.random.Generator, p: AbcdParams) -> list[int]:
    """Power-law sizes in [c_min, c_max] until they cover n; the last is trimmed.

    The sizes and the state `rng` ends in are those of one ``draw(rng, 1)``
    call per community: a batch of ceil((n − total) / c_max) draws cannot
    reach n before its last draw, so the per-community loop would have
    consumed all of it. The trimmed size is at least 1, because the sizes
    before it sum to less than n.
    """
    draw = _power_law(p.beta, p.c_min, p.c_max)
    sizes: list[int] = []
    total = 0
    while total < p.n:
        batch = draw(rng, -(-(p.n - total) // p.c_max)).tolist()
        sizes += batch
        total += sum(batch)
    sizes[-1] -= total - p.n
    return sizes


def _sample_degrees(rng: np.random.Generator, p: AbcdParams) -> np.ndarray:
    """Power-law degrees in [d_min, d_max] with an even sum.

    An odd sum is made even by moving one random node's degree by 1: up when
    it is below d_max, down otherwise. ``validate`` rejects d_min = d_max at
    an odd sum, the one case where neither move stays in range.
    """
    degrees = _power_law(p.gamma, p.d_min, p.d_max)(rng, p.n)
    if degrees.sum() % 2:
        idx = int(rng.integers(p.n))
        degrees[idx] += 1 if degrees[idx] < p.d_max else -1
    return degrees


def _can_pair(stubs: list[int], edges: set[int], n: int, labels: list[int] | None) -> bool:
    """Whether two distinct nodes among `stubs` may still be joined by an edge."""
    nodes = sorted(set(stubs))
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if u * n + v not in edges and (labels is None or labels[u] != labels[v]):
                return True
    return False


def _pair_stubs(
    rng: np.random.Generator,
    pool: list[int],
    edges: set[int],
    n: int,
    labels: np.ndarray | None = None,
) -> int:
    """Configuration-model pairing with rejection of self-loops/multi-edges.

    Each round shuffles the pool and pairs it off in order; rejected pairs
    go back to the pool, behind the odd stub out. When `labels` is given,
    pairs falling inside one community are rejected too, so the background
    pass yields inter-community edges only and the realized mixing fraction
    tracks xi instead of undershooting it by the same-community collision
    rate.

    The pool is a list of node ids, shuffled in place: ``Generator.shuffle``
    takes the same draws for a list as for a 1-D array of its length, so a
    list pool pairs exactly as an array pool would, without converting every
    round. An edge {u, v} with u < v is held in `edges` as the int key
    ``u * n + v``.

    After a round that adds no edge, the pool may hold no pair that can ever
    be joined; every later round would only shuffle it. Those shuffles are
    drawn in one ``permuted`` call, which takes the same numbers from `rng`
    (Fisher-Yates draws depend on the pool's length only), so the stream
    that later pairings read is the same as if every round had run.

    Adds accepted edges to `edges` in place; returns the number of stubs
    dropped as irreparable.
    """
    community_of = labels.tolist() if labels is not None else None
    for done in range(1, MAX_ROUNDS + 1):
        if len(pool) < 2:
            break
        rng.shuffle(pool)
        bad = pool[-1:] if len(pool) % 2 else []
        it = iter(pool)
        for u, v in zip(it, it):
            key = u * n + v if u < v else v * n + u
            if (u == v or key in edges
                    or (community_of is not None and community_of[u] == community_of[v])):
                bad += (u, v)
            else:
                edges.add(key)
        if not bad:
            return 0
        if len(bad) == len(pool) and not _can_pair(bad, edges, n, community_of):
            if done < MAX_ROUNDS:
                rng.permuted(np.zeros((MAX_ROUNDS - done, len(bad)), np.int64), axis=1)
            return len(bad)
        pool = bad
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

    # the nodes of a random permutation fill the communities in order
    labels = np.empty(p.n, dtype=np.int64)
    labels[rng.permutation(p.n)] = np.repeat(np.arange(len(sizes)), sizes)

    # split each node's stubs between its community and the background
    frac = (1.0 - p.xi) * degrees
    base = np.floor(frac).astype(np.int64)
    extra = (rng.random(p.n) < (frac - base)).astype(np.int64)
    # a community of size s can host at most s-1 distinct neighbors
    intra_target = np.minimum(base + extra, np.array(sizes, dtype=np.int64)[labels] - 1)
    background = degrees - intra_target

    # each community's members in ascending node order, and their intra stubs
    by_community = np.argsort(labels, kind="stable")
    counts = intra_target[by_community]
    starts = np.cumsum([0, *sizes[:-1]])
    # a community with an odd stub count takes one stub from its first member
    # with the most stubs, and sends it to the background
    most = np.flatnonzero(counts == np.repeat(np.maximum.reduceat(counts, starts), sizes))
    first_most = most[np.r_[True, np.diff(labels[by_community[most]]) != 0]]
    odd = first_most[np.add.reduceat(counts, starts) % 2 == 1]
    counts[odd] -= 1
    background[by_community[odd]] += 1
    dropped = 0
    if p.xi == 0.0:
        # keep the graph purely intra-community: drop every background stub
        dropped = int(background.sum())
        background[:] = 0
    stubs = np.repeat(by_community, counts).tolist()
    # one set holds every edge key: the pools of disjoint communities cannot
    # collide, and the background pass adds inter-community edges only
    edges: set[int] = set()
    start = 0
    for end in np.cumsum(np.add.reduceat(counts, starts)).tolist():
        dropped += _pair_stubs(rng, stubs[start:end], edges, p.n)
        start = end

    if background.sum() > 0:
        if background.sum() % 2 == 1:
            j = int(np.argmax(background))
            background[j] -= 1
            dropped += 1
        stubs = np.repeat(np.arange(p.n), background).tolist()
        # with one community no inter-community pair exists, so its
        # background stubs pair unconstrained instead of all being dropped
        dropped += _pair_stubs(rng, stubs, edges, p.n, labels=labels if len(sizes) > 1 else None)

    m = len(edges)
    keys = np.fromiter(edges, np.int64, m)
    keys.sort()
    graph = Graph.from_keys(p.n, keys)
    partition = Partition.from_labels(labels)
    ends = graph.edge_array
    inter = int(np.count_nonzero(labels[ends[:, 0]] != labels[ends[:, 1]]))
    info = {
        "dropped_stubs": int(dropped),
        "num_edges": m,
        "num_communities": len(sizes),
        "realized_inter_fraction": inter / m if m else 0.0,
        "mean_degree": 2 * m / p.n,
    }
    return graph, partition, info

