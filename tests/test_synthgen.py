import copy
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdfair.synthgen import (
    AbcdParams,
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
    """The generator shuffles its stub pools as lists; that must permute them
    as a shuffle of the same values in an array does and leave the generator
    in the same state."""
    for length in [*range(41), 5000]:
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

