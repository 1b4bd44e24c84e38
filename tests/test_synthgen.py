import copy
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cdfair import synthgen
from cdfair.synthgen import (
    AbcdParams,
    _can_pair,
    _pair_background,
    _pair_stubs,
    _power_law,
    _sample_community_sizes,
    _sample_degrees,
    generate_abcd_lite,
)
from oracles import truncated_power_law

SMALL = dict(n=500, c_min=50, c_max=150, d_min=5, d_max=30)


def test_power_law_respects_bounds_and_shape():
    rng = np.random.default_rng(1)
    vals = _power_law(2.5, 5, 50)(rng, 10000)
    assert vals.min() >= 5
    assert vals.max() <= 50
    # heavier mass at the low end
    assert (vals == 5).sum() > (vals == 50).sum() * 5


@pytest.mark.parametrize("exponent, lo, hi", [
    (2.5, 5, 50), (1.5, 100, 1000), (-2.0, 1, 4), (0.0, 3, 3), (300.0, 5, 50), (-150.0, 10, 50),
])
def test_power_law_replays_generator_choice(exponent, lo, hi):
    """A ``_power_law`` sampler gives the integers of ``Generator.choice``
    and leaves the stream where it does, also where some weights underflow
    to 0."""
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    draw = _power_law(exponent, lo, hi)
    for size in (1, 7, 1000):
        assert draw(rng, size).tolist() == truncated_power_law(ref, exponent, lo, hi, size).tolist()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_param_validation():
    with pytest.raises(ValueError):
        AbcdParams(n=100, d_min=0).validate()
    with pytest.raises(ValueError):
        AbcdParams(n=100, xi=1.5).validate()
    with pytest.raises(ValueError):
        AbcdParams(n=100, c_min=200, c_max=300).validate()
    for bad in ({"gamma": float("nan")}, {"beta": float("inf")}, {"gamma": float("-inf")}):
        with pytest.raises(ValueError):
            AbcdParams(n=100, c_min=10, c_max=50, **bad).validate()
    # all degrees equal at an odd n*d: no single move of one degree stays in range
    with pytest.raises(ValueError, match="d_min = d_max = 5 and n = 101 give an odd degree sum"):
        AbcdParams(n=101, d_min=5, d_max=5, c_min=10, c_max=50).validate()
    AbcdParams(n=100, d_min=5, d_max=5, c_min=10, c_max=50).validate()
    # weights v^-exponent whose sum is 0 in float64 (all underflow) or
    # overflows it; Generator.choice would divide by that sum
    for name, value in (("gamma", 1000.0), ("gamma", -1000.0), ("beta", 1000.0), ("beta", -200.0)):
        lo, hi = (5, 50) if name == "gamma" else (10, 50)
        message = (f"{name} = {value}: the weights v^-{name} over [{lo}, {hi}] "
                   "sum to 0 or overflow float64")
        with pytest.raises(ValueError, match=re.escape(message)):
            AbcdParams(n=100, c_min=10, c_max=50, **{name: value}).validate()
    # a negative exponent is a valid, increasing power law
    AbcdParams(n=100, c_min=10, c_max=50, gamma=-2.0).validate()


@st.composite
def degree_params(draw):
    """d_min < d_max, with few degree values and exponents down to -2, so the
    node picked to fix an odd sum is often at d_max."""
    n = draw(st.integers(3, 60))
    d_min = draw(st.integers(1, min(5, n - 2)))
    d_max = draw(st.integers(d_min + 1, min(d_min + 3, n - 1)))
    return AbcdParams(n=n, d_min=d_min, d_max=d_max, gamma=draw(st.floats(-2.0, 3.5)),
                      c_min=1, c_max=n, seed=draw(st.integers(0, 2**32 - 1)))


@given(degree_params())
@example(AbcdParams(n=7, d_min=1, d_max=2, c_min=1, c_max=7, seed=0))  # an even sum
@example(AbcdParams(n=7, d_min=1, d_max=2, c_min=1, c_max=7, seed=1))  # odd, picked node at d_max
@example(AbcdParams(n=7, d_min=1, d_max=2, c_min=1, c_max=7, seed=2))  # odd, below d_max
@settings(max_examples=300, deadline=None)
def test_degree_parity_moves_one_degree_by_one(p):
    degrees = _sample_degrees(np.random.default_rng(p.seed), p)
    assert degrees.sum() % 2 == 0
    assert p.d_min <= degrees.min() and degrees.max() <= p.d_max
    rng = np.random.default_rng(p.seed)
    drawn = truncated_power_law(rng, p.gamma, p.d_min, p.d_max, p.n)
    moved = np.flatnonzero(degrees != drawn).tolist()
    if drawn.sum() % 2 == 0:
        assert moved == []
    else:
        idx = int(rng.integers(p.n))
        assert moved == [idx]
        assert degrees[idx] - drawn[idx] == (1 if drawn[idx] < p.d_max else -1)


def test_seed_17812_lowers_a_degree_at_d_max():
    """Evaluate-detect's seed 178, graph 12: the drawn degree sum is odd and
    the node picked to fix it is at d_max. The generator once drew every
    degree again here; now that node's degree goes down by 1."""
    p = AbcdParams(n=1000, c_min=20, c_max=100, xi=0.3, seed=17812)
    rng = np.random.default_rng(p.seed)
    _sample_community_sizes(rng, p)  # as generate_abcd_lite draws before the degrees
    drawn = truncated_power_law(copy.deepcopy(rng), p.gamma, p.d_min, p.d_max, p.n)
    degrees = _sample_degrees(rng, p)
    assert drawn.sum() % 2 == 1
    (idx,) = np.flatnonzero(degrees != drawn).tolist()
    assert (drawn[idx], degrees[idx]) == (p.d_max, p.d_max - 1)
    g, part, _ = generate_abcd_lite(p)
    assert (g.n, part.n) == (1000, 1000)


def test_permuted_replays_shuffle_draws():
    """The generator skips the rounds of a stub pool that cannot pair by
    drawing them with one ``permuted`` call; that must leave the generator
    exactly where as many ``shuffle`` calls on a pool of that length would."""
    for length in range(2, 41):
        for rounds in range(1, 50):
            shuffled = np.random.default_rng([length, rounds])
            replayed = np.random.default_rng([length, rounds])
            # an odd number of 32-bit draws leaves half a 64-bit word buffered
            shuffled.integers(0, 7, dtype=np.uint32)
            replayed.integers(0, 7, dtype=np.uint32)
            pool = np.arange(length, dtype=np.int64)
            for _ in range(rounds):
                shuffled.shuffle(pool)
            replayed.permuted(np.zeros((rounds, length), np.int64), axis=1)
            assert replayed.bit_generator.state == shuffled.bit_generator.state, (length, rounds)
            after = shuffled.integers(0, 1 << 40, 4).tolist()
            assert replayed.integers(0, 1 << 40, 4).tolist() == after


def test_list_shuffle_takes_array_shuffle_draws():
    """The generator shuffles community pools as lists and the background
    pool as an array, and the oracle shuffles arrays everywhere; a list must
    be permuted as an array of the same values is, and leave the generator in
    the same state. 193,767 is an odd length of the size of a background pool
    at n=50k."""
    for length in [*range(41), 5000, 193_767]:
        as_list = np.random.default_rng([length, 1])
        as_array = np.random.default_rng([length, 1])
        pool = list(range(length))
        array = np.arange(length, dtype=np.int64)
        for _ in range(3):
            as_list.shuffle(pool)
            as_array.shuffle(array)
            assert pool == array.tolist(), length
        assert as_list.bit_generator.state == as_array.bit_generator.state, length
        assert as_list.integers(0, 1 << 40, 4).tolist() == as_array.integers(0, 1 << 40, 4).tolist()


@st.composite
def background_pools(draw):
    """(pool, labels, seed) with few nodes and communities, so rounds often
    draw one pair twice and pools often stall or get stuck."""
    n = draw(st.integers(2, 9))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    pool = draw(st.lists(st.integers(0, n - 1), max_size=40))
    return pool, labels, draw(st.integers(0, 2**32 - 1))


def _background_against_oracle(pool, labels, seed):
    """Pair `pool` with `_pair_background` and with the oracle's labelled
    loop; returns the background's keys after checking that both add the same
    edges, drop the same stubs and leave the generator in the same state."""
    n = len(labels)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    keys, dropped = _pair_background(rng, np.array(pool, dtype=np.int64),
                                     np.array(labels, dtype=np.int64), n)
    edges: set[tuple[int, int]] = set()
    expected = oracles.pair_stubs(ref, np.array(pool, dtype=np.int64), edges,
                                  labels=np.array(labels, dtype=np.int64))
    assert keys.tolist() == sorted(u * n + v for u, v in edges)
    assert dropped == expected
    assert rng.bit_generator.state == ref.bit_generator.state
    return keys.tolist()


@given(background_pools())
@example(([], [0, 1], 0))  # no stub
@example(([1], [0, 1], 0))  # one stub
@example(([0, 1, 2, 0, 1], [0, 1, 2], 3))  # an odd pool
@example(([0, 0, 2, 2, 0, 2], [0, 1, 0], 1))  # only same-community pairs: stuck, replayed
@settings(max_examples=300, deadline=None)
def test_background_rounds_equal_labelled_loop(case):
    _background_against_oracle(*case)


def test_background_round_keeps_the_first_of_a_repeated_pair():
    """Two stubs of each of nodes 0-3, each node its own community: at seed 1
    round 1 draws (2, 0), (0, 2), (1, 3), (1, 3). The first pair of each key
    becomes the edge, and round 2 shuffles the later ones, [0, 2, 1, 3];
    keeping the later pairs instead would shuffle [2, 0, 1, 3], and round 2
    would add other edges."""
    pool = [0, 0, 1, 1, 2, 2, 3, 3]
    drawn = np.array(pool, dtype=np.int64)
    np.random.default_rng(1).shuffle(drawn)
    assert drawn.tolist() == [2, 0, 0, 2, 1, 3, 1, 3]
    # {0, 2} and {1, 3} in round 1, then {0, 3} and {1, 2}
    assert _background_against_oracle(pool, [0, 1, 2, 3], 1) == [2, 3, 6, 7]


def _joinable_pair_exists(stubs, edges, n, labels):
    """`_can_pair` by brute force: every ordered pair of stubs."""
    return any(u != v and min(u, v) * n + max(u, v) not in edges
               and (labels is None or labels[u] != labels[v])
               for u in stubs for v in stubs)


@st.composite
def stuck_candidates(draw):
    """(stubs, edge keys, n, labels or None) on a few nodes, so that every
    pair is often an edge already or inside one community."""
    n = draw(st.integers(1, 6))
    stubs = draw(st.lists(st.integers(0, n - 1), max_size=10))
    pairs = [u * n + v for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    labels = draw(st.none() | st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return stubs, edges, n, labels


@given(stuck_candidates())
@example(([2, 2, 2], set(), 4, None))  # one distinct node
@example(([0, 1, 2, 1], {1, 2, 6}, 4, None))  # every pair already an edge
@example(([0, 1, 3], {3, 7}, 4, [0, 0, 1, 1]))  # only same-community pairs left
@example(([0, 1, 3], {3}, 4, [0, 0, 1, 1]))  # {1, 3} can still be joined
@settings(max_examples=300, deadline=None)
def test_can_pair_equals_all_pairs_check(case):
    stubs, edges, n, labels = case
    assert _can_pair(stubs, edges.__contains__, n, labels) == _joinable_pair_exists(*case)


class _EdgeCountingRng:
    """A generator that records how many keys `edges` holds at each shuffle."""

    def __init__(self, seed, edges):
        self.rng, self.edges, self.counts = np.random.default_rng(seed), edges, []

    def shuffle(self, pool):
        self.counts.append(len(self.edges))
        self.rng.shuffle(pool)

    def permuted(self, *args, **kwargs):
        return self.rng.permuted(*args, **kwargs)


def test_stalled_pool_asks_can_pair_once(monkeypatch):
    """Four stubs of node 0, whose pairs with 1 and 2 are edges, and one each
    of 1 and 2: at seed 6 rounds 1-6 draw no {1, 2}, round 7 does, and round
    8 finds only 0-0 pairs. `_can_pair` is asked after round 1 and after
    round 8; no edge was added in between, so rounds 2-6 do not ask again."""
    answers = []
    monkeypatch.setattr(synthgen, "_can_pair",
                        lambda *args: answers.append(_can_pair(*args)) or answers[-1])
    edges = {1, 2}
    rng, ref = _EdgeCountingRng(6, edges), np.random.default_rng(6)
    assert _pair_stubs(rng, [0, 0, 0, 0, 1, 2], edges, 3) == 4
    assert rng.counts == [2] * 7 + [3]
    assert answers == [True, False]
    ref_edges = {(0, 1), (0, 2)}
    assert oracles.pair_stubs(ref, np.array([0, 0, 0, 0, 1, 2]), ref_edges) == 4
    assert edges == {u * 3 + v for u, v in ref_edges} == {1, 2, 5}
    assert rng.rng.bit_generator.state == ref.bit_generator.state


def test_xi_zero_all_intra():
    g, p, info = generate_abcd_lite(AbcdParams(**SMALL, xi=0.0, seed=2))
    for u, v in g.edge_array.tolist():
        assert p.labels[u] == p.labels[v]
    assert info["realized_inter_fraction"] == 0.0


def test_xi_one_no_community_signal():
    from cdfair.detectors import louvain
    from cdfair.partition import contingency
    from cdfair.quality import nmi

    g, p, _ = generate_abcd_lite(AbcdParams(**SMALL, xi=1.0, seed=3))
    pred = louvain(g, seed=0)
    assert nmi(contingency(p, pred)) <= 0.2


def test_graph_invariants_and_partition_validity():
    g, p, _ = generate_abcd_lite(AbcdParams(**SMALL, xi=0.3, seed=4))
    assert g.n == 500
    assert p.n == 500
    assert p.sizes.sum() == 500
    assert p.sizes.min() >= 1
    adjacency = g.neighbor_lists()
    for u in range(g.n):
        assert u not in adjacency[u]
        for v in adjacency[u]:
            assert u in adjacency[v]


def test_determinism_under_seed():
    a = generate_abcd_lite(AbcdParams(**SMALL, xi=0.2, seed=5))
    b = generate_abcd_lite(AbcdParams(**SMALL, xi=0.2, seed=5))
    assert a[0].edge_array.tolist() == b[0].edge_array.tolist()
    assert a[1] == b[1]
    c = generate_abcd_lite(AbcdParams(**SMALL, xi=0.2, seed=6))
    assert a[0].edge_array.tolist() != c[0].edge_array.tolist()


def test_benchmark_scale_parameters():
    params = AbcdParams(n=2000, c_min=50, c_max=400, xi=0.2, seed=7)
    g, p, info = generate_abcd_lite(params)
    mean_deg = 2 * g.num_edges / g.n
    assert 5 <= mean_deg <= 50
    assert 5 <= p.k <= 40
    assert abs(info["realized_inter_fraction"] - 0.2) <= 0.05


def test_mixing_converges_at_scale():
    params = AbcdParams(n=5000, c_min=100, c_max=1000, xi=0.4, seed=8)
    _, _, info = generate_abcd_lite(params)
    assert abs(info["realized_inter_fraction"] - 0.4) <= 0.05

