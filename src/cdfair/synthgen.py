"""Synthetic benchmarks with planted communities.

A simplified ABCD-style model: power-law degrees and community sizes, with
a mixing fraction xi of edge stubs routed through a background configuration
model that joins nodes of different communities only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

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


def _can_pair(stubs: list[int], is_edge, n: int, labels=None) -> bool:
    """Whether two distinct nodes u < v among `stubs`, of two communities when
    `labels` is given, may still be joined: ``is_edge(u * n + v)`` is false."""
    return any(not is_edge(u * n + v) for u, v in combinations(sorted(set(stubs)), 2)
               if labels is None or labels[u] != labels[v])


def _replay(rng: np.random.Generator, done: int, length: int) -> int:
    """Draw, in one ``permuted`` call, the shuffles that the rounds after
    round `done` would make of a pool of `length` stubs that can no longer
    pair (Fisher-Yates draws depend on the length only), so the stream that
    later pairings read is as if every round had run; returns `length`."""
    if done < MAX_ROUNDS:
        rng.permuted(np.zeros((MAX_ROUNDS - done, length), np.int64), axis=1)
    return length


def _pair_stubs(rng: np.random.Generator, pool: list[int], edges: set[int], n: int) -> int:
    """Configuration-model pairing with rejection of self-loops/multi-edges.

    Each round shuffles the pool and pairs it off in order; rejected pairs
    go back to the pool, behind the odd stub out.

    The pool is a list of node ids, shuffled in place: ``Generator.shuffle``
    takes the same draws for a list as for a 1-D array of its length, so a
    list pool pairs exactly as an array pool would, without converting every
    round. An edge {u, v} with u < v is held in `edges` as the int key
    ``u * n + v``.

    After a round that adds no edge, the pool may hold no pair that can ever
    be joined; then `_replay` draws the shuffles of the rounds left. Until an
    edge is added, `_can_pair` is not asked again once it found a pair.

    Adds accepted edges to `edges` in place; returns the number of stubs
    dropped as irreparable.
    """
    joinable = False  # _can_pair found a pair and no edge was added since
    for done in range(1, MAX_ROUNDS + 1):
        if len(pool) < 2:
            break
        rng.shuffle(pool)
        bad = pool[-1:] if len(pool) % 2 else []
        it = iter(pool)
        for u, v in zip(it, it):
            key = u * n + v if u < v else v * n + u
            if u == v or key in edges:
                bad += (u, v)
            else:
                edges.add(key)
        if len(bad) < len(pool):
            joinable = False
        elif not (joinable or (joinable := _can_pair(bad, edges.__contains__, n))):
            return _replay(rng, done, len(bad))
        pool = bad
    return len(pool)


def _pair_background(rng: np.random.Generator, pool: np.ndarray, labels: np.ndarray,
                     n: int) -> tuple[np.ndarray, int]:
    """`_pair_stubs` for the background of two or more communities, also
    rejecting pairs inside one community so that the mixing tracks xi;
    returns the sorted edge keys and the number of stubs dropped.

    Each round is one numpy pass over the int64 pool. A pair is rejected
    when its ends share a community (so also when u == v), when an earlier
    round placed its key, or when it repeats a key earlier in its round
    (``np.unique(..., return_index=True)`` gives first occurrences). The next
    pool is the odd stub, then the rejected pairs in the order drawn, as in
    `_pair_stubs`'s loop, so the rounds draw and add what that loop would.
    """
    keys = np.array([n * n], dtype=np.int64)  # sorted, ending in a sentinel above every key
    joinable = False
    for done in range(1, MAX_ROUNDS + 1):
        if len(pool) < 2:
            break
        rng.shuffle(pool)
        pairs = pool[: len(pool) // 2 * 2].reshape(-1, 2)
        u, v = pairs.T
        unique, first = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_index=True)
        at = keys.searchsorted(unique)
        fresh = (labels[u[first]] != labels[v[first]]) & (keys[at] != unique)
        keys = np.insert(keys, at[fresh], unique[fresh])
        pool = np.concatenate((pool[pairs.size :], np.delete(pairs, first[fresh], axis=0).ravel()))
        if fresh.any():
            joinable = False
        elif not (joinable or (joinable := _can_pair(
                pool.tolist(), lambda key: keys[keys.searchsorted(key)] == key, n, labels))):
            return keys[:-1], _replay(rng, done, len(pool))
    return keys[:-1], len(pool)


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
    # each community's pool pairs into its own small key set: the pools of
    # disjoint communities never share a key
    intra: list[int] = []
    start = 0
    for end in np.cumsum(np.add.reduceat(counts, starts)).tolist():
        edges: set[int] = set()
        dropped += _pair_stubs(rng, stubs[start:end], edges, p.n)
        intra += edges
        start = end

    inter = np.empty(0, dtype=np.int64)  # the background's keys, each joining two communities
    if background.sum() > 0:
        if background.sum() % 2 == 1:
            j = int(np.argmax(background))
            background[j] -= 1
            dropped += 1
        stubs = np.repeat(np.arange(p.n, dtype=np.int64), background)
        if len(sizes) > 1:
            inter, rest = _pair_background(rng, stubs, labels, p.n)
            dropped += rest
        else:
            # with one community no inter-community pair exists, so its
            # background stubs pair unconstrained, into its key set, instead
            # of all being dropped
            dropped += _pair_stubs(rng, stubs.tolist(), edges, p.n)
            intra = list(edges)

    keys = np.concatenate((np.array(intra, dtype=np.int64), inter))
    keys.sort()
    m = len(keys)
    graph = Graph.from_keys(p.n, keys)
    partition = Partition.from_labels(labels)
    info = {
        "dropped_stubs": int(dropped),
        "num_edges": m,
        "num_communities": len(sizes),
        "realized_inter_fraction": len(inter) / m if m else 0.0,
        "mean_degree": 2 * m / p.n,
    }
    return graph, partition, info

