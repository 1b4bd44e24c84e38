"""The vectorised library code against the pure-Python loops in ``oracles``.

Integer results (tables, counts, dense ids) must match exactly, floating-point
ones to 1e-12; error messages from the loaders must match word for word,
including which of several problems is reported.
"""

from __future__ import annotations

import io
import logging
import random
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from cdfair import detectors, textio
from cdfair.detectors import (_louvain_local_move, _shuffle, greedy_agglomerative,
                              label_propagation, louvain)
from cdfair.graph import MAX_NODES, EdgeListError, load_edge_list, write_edge_list
from cdfair.groupfair import _centred, _scores, _slopes, _stats, phi
from cdfair.partition import Partition, PartitionError, contingency, load_partition, write_partition
from cdfair.quality import community_edges, nf1
from cdfair.synthgen import AbcdParams, _sample_community_sizes, generate_abcd_lite
from cdfair.textio import format_rows, read_rows

TOL = 1e-12


def labels_pair(max_n=50):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        )
    )


@st.composite
def graph_and_pair(draw, max_n=30):
    n = draw(st.integers(min_value=2, max_value=max_n))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=3 * n))
    gt = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    pred = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    return oracles.graph_from_edges(n, edges), Partition.from_labels(gt), Partition.from_labels(pred)


@st.composite
def tied_pair(draw):
    """Every ground-truth community splits into `parts` equal predicted pieces,
    and every predicted community of a merge covers `parts` equal gt pieces."""
    k = draw(st.integers(1, 4))
    parts = draw(st.integers(2, 3))
    size = draw(st.integers(1, 3))
    n = k * parts * size
    gt = [i // (parts * size) for i in range(n)]
    pred = [c * parts + (i % parts) for i, c in enumerate(gt)]
    order = draw(st.permutations(range(n)))
    gt = [gt[i] for i in order]
    pred = [pred[i] for i in order]
    return Partition.from_labels(gt), Partition.from_labels(pred)


# ---------------------------------------------------------------- partitions


I64 = st.integers(-(2**63), 2**63 - 1)


# labels repeat: a few small ones, and a few within 3 of -2**63 and of 2**63 - 1
@given(st.lists(st.one_of(st.integers(-3, 3), st.integers(-(2**63), -(2**63) + 3),
                          st.integers(2**63 - 4, 2**63 - 1), I64), min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_from_labels_first_seen_order(raw):
    dense = oracles.from_labels(raw)
    for labels in (raw, np.array(raw, dtype=np.int64)):
        p = Partition.from_labels(labels)
        assert p.labels.dtype == np.int64
        assert p.labels.tolist() == dense
        assert p.k == len(set(raw))
        assert p.sizes.tolist() == np.bincount(dense).tolist()


@pytest.mark.parametrize("labels", [["1", "a"], [1.0, 2.0], [True, False], [[0, 1], [1, 0]], [],
                                    [1, 2**63], [2**64]])
def test_from_labels_rejects_non_integer_labels(labels):
    with pytest.raises(PartitionError):
        Partition.from_labels(labels)


@given(labels_pair())
@settings(max_examples=100, deadline=None)
def test_contingency_matches_counter(pair):
    gt, pred = Partition.from_labels(pair[0]), Partition.from_labels(pair[1])
    ct = contingency(gt, pred)
    cells = dict(zip(zip(ct.rows.tolist(), ct.cols.tolist()), ct.overlap.tolist()))
    assert cells == oracles.contingency(gt, pred)
    assert len(ct.overlap) == len(cells)
    keys = (ct.rows * pred.k + ct.cols).tolist()
    assert keys == sorted(set(keys))
    # every node points at its own cell
    assert ct.rows[ct.node_cell].tolist() == gt.labels.tolist()
    assert ct.cols[ct.node_cell].tolist() == pred.labels.tolist()


# ---------------------------------------------------------------- metrics


@given(labels_pair())
@settings(max_examples=100, deadline=None)
def test_nf1_matches_oracle(pair):
    gt, pred = Partition.from_labels(pair[0]), Partition.from_labels(pair[1])
    assert nf1(contingency(gt, pred)) == pytest.approx(oracles.nf1(gt, pred), abs=TOL)


def _assert_stats_equal(got, want):
    assert got["size"].tolist() == want["size"]
    for key in ("density", "conductance"):
        assert got[key].tolist() == pytest.approx(want[key], abs=TOL)


def _assert_scores_equal(got, want):
    for key in ("fccn", "f1", "fcce"):
        assert got[key].tolist() == pytest.approx(want[key], abs=TOL)


@given(graph_and_pair())
@settings(max_examples=100, deadline=None)
def test_community_stats_and_scores_match_oracle(case):
    g, gt, pred = case
    for p in (gt, pred):
        _assert_stats_equal(_stats(g, p, *community_edges(g, p)), oracles.community_stats(g, p))
    intra = community_edges(g, gt)[0]
    _assert_scores_equal(_scores(g, contingency(gt, pred), intra), oracles.community_scores(g, gt, pred))


@given(tied_pair(), st.data())
@settings(max_examples=60, deadline=None)
def test_max_overlap_ties_go_to_smaller_id(pair, data):
    split_gt, split_pred = pair
    n = split_gt.n
    node = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=2 * n))
    g = oracles.graph_from_edges(n, edges)
    # gt -> pred ties (a split) and pred -> gt ties (the same pair reversed, a merge)
    for gt, pred in ((split_gt, split_pred), (split_pred, split_gt)):
        ct = contingency(gt, pred)
        assert nf1(ct) == pytest.approx(oracles.nf1(gt, pred), abs=TOL)
        intra = community_edges(g, gt)[0]
        _assert_scores_equal(_scores(g, ct, intra), oracles.community_scores(g, gt, pred))
    ct = contingency(split_gt, split_pred)
    best = ct.best_cells()
    for a in range(split_gt.k):
        in_row = ct.cols[ct.rows == a]
        assert ct.cols[best[a]] == in_row.min()
    best_gt = contingency(split_pred, split_gt).best_cells(by_gt=False)
    assert best_gt.tolist() == sorted(best_gt.tolist())


@st.composite
def phi_case(draw):
    """Few small communities: singletons, communities without internal edges,
    and predictions whose best overlaps tie (a split, or a merge read backwards)."""
    if draw(st.booleans()):
        return draw(graph_and_pair(max_n=20))
    split_gt, split_pred = draw(tied_pair())
    n = split_gt.n
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=2 * n))
    gt, pred = (split_gt, split_pred) if draw(st.booleans()) else (split_pred, split_gt)
    return oracles.graph_from_edges(n, edges), gt, pred


@given(phi_case())
@settings(max_examples=200, deadline=None)
def test_phi_equals_oracle_exactly(case):
    g, gt, pred = case
    assume(gt.k >= 2)
    assert phi(g, contingency(gt, pred)) == oracles.phi(g, gt, pred)


def test_ols_slope_squares_like_the_loop():
    # with x = (0, 2d) the slope is d / (2 d^2), so it shows how d^2 was
    # rounded: C pow() (Python's **) and d * d differ in about 1 of 1000 draws
    rng = np.random.default_rng(0)
    for d in rng.random(5000).tolist():
        x, y = [0.0, 2 * d], [0.0, 1.0]
        assert _slopes(x, {"y": _centred(y)})["y"] == oracles.ols_slope(x, y)


# ---------------------------------------------------------------- detectors


@st.composite
def cnm_graph(draw):
    """Random graphs, and families whose merge gains tie everywhere: rings,
    stars, paths, grids and cliques joined by single edges."""
    kind = draw(st.sampled_from(["random", "ring", "star", "path", "grid", "cliques"]))
    if kind == "random":
        n = draw(st.integers(2, 40))
        node = st.integers(0, n - 1)
        pair = st.tuples(node, node).filter(lambda e: e[0] != e[1])
        edges = draw(st.lists(pair, min_size=1, max_size=3 * n))
    elif kind == "grid":
        rows, cols = draw(st.integers(1, 8)), draw(st.integers(2, 8))
        n = rows * cols
        edges = [(i, i + 1) for i in range(n) if (i + 1) % cols]
        edges += [(i, i + cols) for i in range(n - cols)]
    elif kind == "cliques":
        k, size = draw(st.integers(2, 6)), draw(st.integers(2, 6))
        n = k * size
        edges = [(c * size + i, c * size + j)
                 for c in range(k) for i in range(size) for j in range(i + 1, size)]
        edges += [(c * size, (c + 1) * size) for c in range(k - 1)]
    else:
        n = draw(st.integers(3, 64))
        edges = {
            "ring": [(i, (i + 1) % n) for i in range(n)],
            "star": [(0, i) for i in range(1, n)],
            "path": [(i, i + 1) for i in range(n - 1)],
        }[kind]
    if draw(st.booleans()):  # renumber the nodes, so ties fall on other pairs
        order = draw(st.permutations(range(n)))
        edges = [(order[u], order[v]) for u, v in edges]
    return oracles.graph_from_edges(n, edges)


@given(cnm_graph())
@settings(max_examples=400, deadline=None)
def test_cnm_heap_equals_scan_oracle(g):
    got, want = greedy_agglomerative(g), oracles.greedy_agglomerative(g)
    assert got == want
    assert got.k == want.k


@pytest.mark.parametrize("seed", [0, 1])
def test_cnm_heap_equals_scan_oracle_on_abcd(seed):
    g, _, _ = generate_abcd_lite(AbcdParams(n=600, c_min=20, c_max=100, xi=0.3, seed=seed))
    got, want = greedy_agglomerative(g), oracles.greedy_agglomerative(g)
    assert got == want
    assert got.k == want.k


def _louvain_against_oracle(g, seed):
    got, want = louvain(g, seed=seed), oracles.louvain(g, seed=seed)
    assert got == want
    assert got.k == want.k


@given(cnm_graph(), st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_louvain_integer_gains_equal_float_oracle(g, seed):
    _louvain_against_oracle(g, seed)


def _ring(n):
    return [(i, (i + 1) % n) for i in range(n)]


# graphs whose moves tie everywhere: rings, two 5-cliques joined by one edge,
# a star, K3,3 and disjoint triangles
TIED_GRAPHS = {
    **{f"ring{n}": (n, _ring(n)) for n in (4, 5, 6, 31)},
    "two_5_cliques": (10, [(c + i, c + j) for c in (0, 5) for i in range(5)
                           for j in range(i + 1, 5)] + [(4, 5)]),
    "star": (9, [(0, i) for i in range(1, 9)]),
    "k33": (6, [(i, j) for i in range(3) for j in range(3, 6)]),
    "triangles": (9, [(c + i, c + (i + 1) % 3) for c in (0, 3, 6) for i in range(3)]),
}


@pytest.mark.parametrize("name", TIED_GRAPHS)
def test_louvain_integer_gains_equal_float_oracle_on_ties(name):
    n, edges = TIED_GRAPHS[name]
    g = oracles.graph_from_edges(n, edges)
    for seed in range(20):
        _louvain_against_oracle(g, seed)


@pytest.mark.parametrize("xi, seed", [(xi, s) for xi in (0.2, 0.6) for s in range(5)])
def test_louvain_integer_gains_equal_float_oracle_on_criterion_10(xi, seed):
    # criterion 10's graphs and seeds (tests/test_acceptance.py)
    g, _, _ = generate_abcd_lite(AbcdParams(n=2000, gamma=2.5, d_min=5, d_max=50, beta=1.5,
                                            c_min=50, c_max=400, xi=xi, seed=200 + seed))
    _louvain_against_oracle(g, seed)


@pytest.mark.parametrize("run_seed", [0, 1])
def test_louvain_integer_gains_equal_float_oracle_on_evaluate_shape(run_seed):
    # graphs of the benchmark's evaluate-detect shape: graph i of a run with
    # seed b is generated with seed 100·b + i, and Louvain's cell gets b + i
    for i in range(4):
        g, _, _ = generate_abcd_lite(AbcdParams(n=1000, c_min=20, c_max=100, xi=0.3,
                                                seed=100 * run_seed + i))
        _louvain_against_oracle(g, run_seed + i)


def test_louvain_float_rule_splits_equal_gains_at_large_strengths():
    """A level where node 0 gains exactly as much in community 1 as in 2:
    2m·w − k·tot is 1,642,071,512 for both. Rounding k·tot/2m leaves the
    float gains 7.3e-12 apart, beyond the 1e-12 tolerance, so the float rule
    takes 2 where the integer rule takes the smaller id, 1."""
    adj, self_w = [{1: 24809, 2: 70399}, {0: 24809}, {0: 70399}], [86741, 2878, 13782]
    strength = [sum(row.values()) + 2 * w for row, w in zip(adj, self_w)]
    level = oracles._LouvainLevel(3, [{v: float(w) for v, w in row.items()} for row in adj],
                                  [float(w) for w in self_w])
    # seed 0 visits node 0 first
    assert _louvain_local_move(adj, strength, random.Random(0)) == [1, 1, 2]
    assert oracles._louvain_local_move(level, random.Random(0), 1.0) == [2, 1, 2]


# the level of test_louvain_float_rule_splits_equal_gains_at_large_strengths
LARGE_STRENGTHS = ([{1: 24809, 2: 70399}, {0: 24809}, {0: 70399}],
                   [24809 + 70399 + 2 * 86741, 24809 + 2 * 2878, 70399 + 2 * 13782])


# a level where a bound of (stay − best) // k_u, half as strict as Louvain's
# skip rule, skips node 4's last visit: the recount moves it to 1, the loose
# bound keeps it in 4
LOOSE_BOUND = ([{2: 4, 4: 3, 3: 2, 1: 2}, {2: 8, 3: 3, 0: 2}, {1: 8, 4: 4, 0: 4},
                {0: 2, 1: 3}, {2: 4, 0: 3}], [17, 13, 20, 11, 9])


@st.composite
def weighted_level(draw, max_n=30, weight=st.integers(1, 3) | st.integers(1, 10**5),
                   pairs_per_node=3):
    """A Louvain level as aggregation builds it: integer edge weights, each
    node's self-weight counted twice in its strength, and nodes without
    edges. By default up to 30 nodes and 3n pairs, with weights up to 10^5
    and small ones often so that gains tie."""
    n = draw(st.integers(2, max_n))
    node = st.integers(0, n - 1)
    pair = st.tuples(node, node).filter(lambda e: e[0] != e[1]).map(lambda e: (min(e), max(e)))
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for (u, v), w in draw(st.dictionaries(pair, weight, max_size=pairs_per_node * n)).items():
        adj[u][v] = adj[v][u] = w
    self_w = draw(st.lists(st.just(0) | weight, min_size=n, max_size=n))
    return adj, [sum(row.values()) + 2 * w for row, w in zip(adj, self_w)]


@given(weighted_level()
       # small levels, up to every pair (4n >= n(n − 1)/2 for n <= 9), where
       # the skip rule's margin is often just enough
       | weighted_level(max_n=9, weight=st.integers(1, 4), pairs_per_node=4),
       st.integers(0, 2**32 - 1))
@example(LARGE_STRENGTHS, 0)
@example(LOOSE_BOUND, 517537)
@settings(max_examples=600, deadline=None)
def test_louvain_kept_weights_equal_recount_on_weighted_levels(level, seed):
    adj, strength = level
    rows = [dict(row) for row in adj]
    rng, ref = random.Random(seed), random.Random(seed)
    assert _louvain_local_move(adj, strength, rng) == oracles.louvain_local_move_recount(
        adj, strength, ref)
    assert rng.getstate() == ref.getstate()
    assert adj == rows  # the level itself is left as it was for aggregation


def _shuffle_as_random(length, seed):
    got, want = list(range(length)), list(range(length))
    rng, ref = random.Random(seed), random.Random(seed)
    _shuffle(rng, got)
    ref.shuffle(want)
    assert got == want
    assert rng.getstate() == ref.getstate()


@given(st.integers(0, 2100), st.integers(0, 2**64 - 1))
@settings(max_examples=200, deadline=None)
def test_shuffle_draws_what_random_shuffle_draws(length, seed):
    _shuffle_as_random(length, seed)


# 2^k − 1, 2^k and 2^k + 1 for k <= 16, with 2 twice (for 2^0 + 1 and 2^1)
# as in the shorter list this one extends, so that test ids are kept
@pytest.mark.parametrize("length", [m for k in range(17) for m in (2**k, 2**k + 1)]
                         + [2**k - 1 for k in (0, *range(3, 17))])
def test_shuffle_draws_what_random_shuffle_draws_at_powers_of_two(length):
    # _shuffle changes bit width between the swaps at 2^k − 2 and 2^k − 1, and
    # the first swap of a list of 2^k + 1 draws k + 1 bits and rejects about
    # half its draws
    for seed in range(3):
        _shuffle_as_random(length, seed)


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _lpa_against_oracle(g, seed, max_sweeps):
    """Labels equal to the oracle's with `max_sweeps` as the sweep cap, and
    the cap's warning exactly when the oracle did not converge."""
    handler = _Messages()
    logger = logging.getLogger("cdfair.detectors")
    logger.addHandler(handler)
    try:
        with mock.patch.object(detectors, "MAX_SWEEPS", max_sweeps):
            got = label_propagation(g, seed=seed)
    finally:
        logger.removeHandler(handler)
    want, converged = oracles.label_propagation(g, seed=seed, max_sweeps=max_sweeps)
    assert got == want
    assert got.k == want.k
    assert bool(handler.messages) == (not converged)


@given(cnm_graph(), st.sampled_from([1, 2, 5, 100]), st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_lpa_skipping_settled_nodes_equals_oracle(g, max_sweeps, seed):
    _lpa_against_oracle(g, seed, max_sweeps)


@pytest.mark.parametrize("xi, seed", [(0.3, 0), (0.3, 1), (0.6, 2)])
def test_lpa_skipping_settled_nodes_equals_oracle_on_abcd(xi, seed):
    # these runs converge within 100 sweeps, so 1 and 5 stop at the cap
    g, _, _ = generate_abcd_lite(AbcdParams(n=1000, c_min=20, c_max=100, xi=xi, seed=seed))
    for max_sweeps in (1, 5, 100):
        _lpa_against_oracle(g, seed, max_sweeps)


# ---------------------------------------------------------------- generator


@st.composite
def size_params(draw):
    n = draw(st.integers(1, 3000))
    c_min = draw(st.integers(1, n))
    return AbcdParams(n=n, c_min=c_min, c_max=draw(st.integers(c_min, n)),
                      beta=draw(st.floats(0.5, 3.5)), seed=draw(st.integers(0, 2**32 - 1)))


@given(size_params())
@settings(max_examples=300, deadline=None)
def test_community_sizes_equal_per_community_choice(p):
    rng, ref = np.random.default_rng(p.seed), np.random.default_rng(p.seed)
    assert _sample_community_sizes(rng, p) == oracles.sample_community_sizes(ref, p)
    assert rng.random() == ref.random()  # the stream is left where the loop leaves it


@st.composite
def abcd_params(draw):
    """Small ABCD settings: tiny communities (whose pools get stuck), a single
    community (whose background pass shares its edge set) and xi at 0, 1 or
    in between."""
    n = draw(st.integers(2, 400))
    d_min = draw(st.integers(1, min(5, n - 1)))
    d_max = draw(st.integers(d_min, min(40, n - 1)))
    if draw(st.booleans()):
        c_min = c_max = n
    else:
        c_min = draw(st.integers(1, min(3, n)))
        c_max = draw(st.integers(c_min, min(c_min + 8, n)))
    xi = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    return AbcdParams(
        n=n, d_min=d_min, d_max=d_max, c_min=c_min, c_max=c_max, xi=xi,
        gamma=draw(st.floats(1.5, 3.5)), beta=draw(st.floats(1.0, 2.5)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _generated(generate, p):
    """(edges, labels, info) of one generator run, or its error."""
    try:
        g, part, info = generate(p)
    except ValueError as exc:
        return str(exc)
    return g.n, g.edge_array.tolist(), part.labels.tolist(), part.k, info


@given(abcd_params())
@settings(max_examples=300, deadline=None)
def test_abcd_generator_equals_oracle(p):
    assert _generated(generate_abcd_lite, p) == _generated(oracles.generate_abcd_lite, p)


def test_abcd_generator_equals_oracle_at_scale():
    p = AbcdParams(n=10_000, c_min=5, c_max=30, xi=0.3, seed=77)
    got = _generated(generate_abcd_lite, p)
    assert got == _generated(oracles.generate_abcd_lite, p)
    assert got[4]["dropped_stubs"] > 0


# ---------------------------------------------------------------- loaders

# the values where the digit count changes, up to the largest canonical token
CANONICAL_VALUES = sorted({0, 10**18 - 1} | {v for k in range(1, 18) for v in (10**k - 1, 10**k)})
# each makes a file of canonical lines non-canonical wherever it is inserted
NON_CANONICAL_LINES = [
    "# c\n", "\n", "-1 2\n", "+1 2\n", "1\t2\n", "1 2\r\n", "\ufeff1 2\n", "1\n", "1 2 3\n",
    "007 1\n", "1 00\n", "1000000000000000000 1\n", "1  2\n", " 1 2\n", "1 2 \n", "1_0 2\n",
    "\u0661 2\n", "\xe9 1\n", "% c\n", "1\xa02\n", "1 2\r", "3 4\r\n", "\ufeff0 1\n",
    "# Undirected graph: snap.txt\n", "3\t\t4\n", "9" * 5000 + " 1\n",
]


# block sizes: the default, and ones that put a few lines in a block (the
# lines above are 2 to 38 bytes long), so a file spans many blocks
block_sizes = st.just(textio._BLOCK) | st.integers(16, 64)


def _file_sources(lines):
    """The bytes of files holding the lines with and without a newline
    after each, and joined by one."""
    for text in ("\n".join(lines), "".join(line + "\n" for line in lines), "".join(lines)):
        yield text.encode()


def _read_as_text(source):
    """The lines of a file as Python reads a UTF-8 text file: universal
    newlines, without a byte order mark that opens the file."""
    return list(io.TextIOWrapper(io.BytesIO(source), encoding="utf-8-sig"))


def _assert_edge_list_matches_oracle(source):
    try:
        n, edges, dup, loops = oracles.load_edge_list(_read_as_text(source))
    except EdgeListError as exc:
        with pytest.raises(EdgeListError) as got:
            load_edge_list(source)
        assert str(got.value) == str(exc)
        return
    res = load_edge_list(source)
    assert res.graph.n == n
    assert res.graph.edge_array.tolist() == sorted(map(list, edges))
    assert (res.duplicates_dropped, res.self_loops_dropped) == (dup, loops)
    adjacency = [sorted({v for e in edges for v in e if u in e and v != u}) for u in range(n)]
    assert res.graph.neighbor_lists() == adjacency


def _assert_partition_matches_oracle(source, n):
    try:
        want = oracles.load_partition(_read_as_text(source), n)
    except PartitionError as exc:
        with pytest.raises(PartitionError) as got:
            load_partition(source, n)
        assert str(got.value) == str(exc)
        return
    p = load_partition(source, n)
    assert p.labels.tolist() == want.labels.tolist()
    assert p.k == want.k


# node-id tokens: canonical values, with or without a sign and leading zeros,
# up to 19 digits and past int64
id_tokens = st.builds(
    "{}{}{}".format, st.sampled_from(["", "", "-"]), st.sampled_from(["", "", "0", "00"]),
    st.one_of(st.sampled_from(CANONICAL_VALUES + [10**18, 10**19 - 1, 2**64]),
              st.integers(0, 10**18 - 1)),
)
# (line end, token separator) of the dialects: canonical, Windows, old Mac, SNAP
DIALECTS = [("\n", " "), ("\r\n", " "), ("\r", " "), ("\n", "\t"), ("\r\n", " \t ")]


@given(st.lists(st.tuples(id_tokens, id_tokens), max_size=20), st.sampled_from(DIALECTS),
       block_sizes)
@settings(max_examples=300, deadline=None)
def test_read_rows_reads_the_value_of_every_token(rows, dialect, block):
    end, sep = dialect
    data = "".join(f"{u}{sep}{v}{end}" for u, v in rows).encode()
    with mock.patch.object(textio, "_BLOCK", block):
        values, error, canonical = read_rows(data)
        for col in (0, 1):
            lines, tokens = textio.column(data, col)
            assert (lines.tolist(), tokens) == (list(range(1, len(rows) + 1)),
                                                [row[col].encode() for row in rows])
    # values are clipped to ±(2**63 - 1), so 18 significant digits are exact
    assert values.tolist() == [[max(1 - 2**63, min(int(t), 2**63 - 1)) for t in row] for row in rows]
    assert error is None
    want = [all(t == str(abs(int(t))) and len(t) <= 18 for t in col) for col in zip(*rows)]
    assert canonical.tolist() == (want or [True, True])


@given(st.permutations(range(40)), st.sampled_from(NON_CANONICAL_LINES), st.integers(0, 40),
       st.sampled_from(DIALECTS), st.booleans(), block_sizes)
@settings(max_examples=300, deadline=None)
def test_loaders_read_any_line_in_any_dialect_and_block(nodes, line, at, dialect, bom, block):
    # files over many blocks in each dialect, with any line in any block, with
    # or without a byte order mark and a last line end: the loaders report
    # what the line loops do
    end, sep = dialect
    edges = [f"{u}{sep}{u * 7 % 40}{end}" for u in nodes]
    labels = [f"{u}{sep}{u % 7}{end}" for u in nodes]
    with mock.patch.object(textio, "_BLOCK", block):
        for lines, assert_matches_oracle in ((edges, _assert_edge_list_matches_oracle),
                                             (labels, lambda s: _assert_partition_matches_oracle(s, 40))):
            head = "\ufeff" * bom
            for text in (head + "".join(lines[:at] + [line] + lines[at:]),
                         head + "".join(lines)[: -len(end)]):
                assert_matches_oracle(text.encode())


def test_blocks_keep_crlf_pairs_whole():
    # blocks of 16 to 64 bytes over a CRLF file of 5-byte lines start their
    # search for a line end on every byte of a line, the CR of a pair included
    data = b"".join(f"{u} {u % 7}\r\n".encode() for u in range(10)) * 10
    want = load_edge_list(data.replace(b"\r\n", b"\n")).graph.edge_array.tolist()
    crs = 0
    for block in range(16, 65):
        with mock.patch.object(textio, "_BLOCK", block):
            bounds = list(textio._blocks(data))
            assert load_edge_list(data).graph.edge_array.tolist() == want
        assert [start for start, _ in bounds] == [0] + [stop for _, stop in bounds[:-1]]
        assert bounds[-1][1] == len(data) and all(data[stop - 2 : stop] == b"\r\n" for _, stop in bounds)
        crs += data[block - 1 : block] == b"\r"  # the first block's search starts on a CR
    assert crs > 0


@pytest.mark.parametrize("load", [load_edge_list, load_partition])
@pytest.mark.parametrize("data, position", [
    (b"0 1\n" * 5000 + b"\xff 2\n", "position 20000:"),
    (b"\xef\xbb\xbf" + b"0 1\r\n" * 3000 + b"1 \xe2\x82\n", "position 15005-15006:"),
])
def test_decode_errors_name_the_byte_offset(load, data, position):
    # Python's text reader decodes in chunks of 8 KiB and names an offset
    # within the chunk; the loaders name the offset in the file, as
    # bytes.decode does, a leading byte order mark counted
    with pytest.raises(UnicodeDecodeError) as want:
        data.decode("utf-8")
    assert position in str(want.value)
    with pytest.raises(UnicodeDecodeError, match=re.escape(str(want.value))):
        load(data)


# canonical lines first: half the examples draw only those, so files of them
# take the byte reader
EDGE_LINES = ["0 1", "2 0", "1 0", "2 2", "7 5", "1 2\n", " 3\t4 ", "# note", "", "   ",
              "a b", "1", "1 2 3", "-1 2", "+3 1", "b a", "01 2", "1_0 2", "\u0663 1", "2 -0",
              "% note", " %1 2", "1\xa02", "1\u2003 2", "\x1c1 0", "1 2\x1f", "1 2\r", "3 4\r\n",
              "\ufeff0 1", "# Nodes: 8 Edges: 3", "0\t1", "7\t\t5", "9" * 5000 + " 1",
              "0 " + "0" * 5000 + "2"]


@given(st.lists(st.sampled_from(EDGE_LINES[:5]), max_size=12)
       | st.lists(st.sampled_from(EDGE_LINES), max_size=12))
@settings(max_examples=300, deadline=None)
def test_load_edge_list_matches_line_loop(lines):
    for source in _file_sources(lines):
        _assert_edge_list_matches_oracle(source)


PARTITION_LINES = ["0 7", "1 7", "2 10", "3 0", "2 0", "0 a", "1 a\n", "2 b", "1 b", "3 x",
                   "-1 a", "x a", "0", "0 a b", "# c", "", " 2\t07 ", "+1 7", "1 07", "1_0 a",
                   "\u0663 a", "% c", "0 a\xa0b", "1\u2003a", "3\x1c a", "1 7\r", "3 0\r\n",
                   "\ufeff0 7", "# Nodes: 4", "2\t10", "0\t\ta", "9" * 5000 + " a",
                   "0" * 5000 + "1 a", "9000000000000000000 b"]


@given(st.lists(st.sampled_from(PARTITION_LINES[:5]), max_size=8)
       | st.lists(st.sampled_from(PARTITION_LINES), max_size=8), st.none() | st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_load_partition_matches_line_loop(lines, n):
    for source in _file_sources(lines):
        _assert_partition_matches_oracle(source, n)


@pytest.mark.parametrize("token", ["1_0", "+3", "\u0663", "-", "1-2", "--1"])
def test_node_ids_are_ascii_digits(token):
    # int() reads the first three as 10, 3 and 3; a negative id such as
    # "-1" stays a number, which EDGE_LINES and PARTITION_LINES check
    message = re.escape(f"line 2: non-integer node id {token!r}")
    with pytest.raises(EdgeListError, match=message):
        load_edge_list(f"0 1\n{token} 2\n".encode())
    with pytest.raises(PartitionError, match=message):
        load_partition(f"0 a\n{token} a\n".encode())


@pytest.mark.parametrize("digits", [19, 4300, 4301, 5000])
@pytest.mark.parametrize("zeros", [0, 2])
def test_long_node_ids_fail_as_the_line_loops_say(digits, zeros):
    # int() reads at most 4300 digits, leading zeros counted, so a longer
    # token is no node id to the loaders, as to the line loops; a shorter
    # one is a number out of range
    token = "0" * zeros + "9" * digits
    for n in (None, 3):
        edges = f"0 1\n1 {token}\n".encode()
        if n is None:
            _assert_edge_list_matches_oracle(edges)
        with pytest.raises(EdgeListError, match=r"^line 2: (non-integer )?node id "):
            load_edge_list(edges, n=n)
    labels = f"0 a\n{token} a\n1 b\n".encode()
    _assert_partition_matches_oracle(labels, 2)
    with pytest.raises(PartitionError):  # not a ValueError of int()
        load_partition(labels)


def test_a_third_column_names_why_it_is_rejected():
    # ignoring an edge weight would drop data without notice; other token
    # counts, and a partition's third column, keep the plain message
    with pytest.raises(EdgeListError) as got:
        load_edge_list(b"0 1\n1 2 0.5\n")
    assert str(got.value) == ("line 2: expected two tokens, got 3 (edge weights are not read: "
                              "the detectors and IB are unweighted)")
    for load, body in ((load_edge_list, b"0 1\n1 2 3 4\n"), (load_partition, b"0 a\n1 a b\n")):
        with pytest.raises(ValueError) as got:
            load(body)
        assert str(got.value) == f"line 2: expected two tokens, got {len(body.split()) - 2}"


# every character that str.split() splits on and bytes.split() does not
OTHER_SPACES = [c for c in map(chr, range(sys.maxunicode + 1))
                if c.isspace() and not c.encode().isspace()]


@pytest.mark.parametrize("space", OTHER_SPACES)
def test_other_unicode_spaces_stay_inside_tokens(space):
    # str.split() splits on each of them; tokens are separated only by the
    # ASCII whitespace that bytes.split() splits on
    token = f"1{space}2"
    for body, message in ((token, "line 2: expected two tokens, got 1"),
                          (f"{token} 3", f"line 2: non-integer node id {token!r}")):
        with pytest.raises(EdgeListError, match=re.escape(message)):
            load_edge_list(f"0 1\n{body}\n".encode())
        with pytest.raises(PartitionError, match=re.escape(message)):
            load_partition(f"0 a\n{body}\n".encode())
    # a community id keeps the character, so a{space}b is not a
    p = load_partition(f"0 a{space}b\n1 a\n".encode())
    assert (p.labels.tolist(), p.k) == ([0, 1], 2)


@pytest.mark.parametrize("load, error, body", [
    (load_edge_list, EdgeListError, b"0 1\n1 x\n"),
    (load_edge_list, EdgeListError, b"0 1\n1 2 3\n"),
    (load_partition, PartitionError, b"0 a\n0 b\n"),
    (load_partition, PartitionError, b"0 a\n  \tx a\n"),
])
def test_percent_lines_are_comments(load, error, body):
    # KONECT files open with '%' lines; they count in the line numbers of
    # later errors as '#' lines do
    for head in (b"% sym unweighted\n", b" \t%\n"):
        with pytest.raises(error) as got:
            load(head + body)
        assert str(got.value).startswith("line 3: ")
        with pytest.raises(error, match=re.escape(str(got.value))):
            load(b"# c\n" + body)


def test_konect_header_reads_as_comments():
    g = load_edge_list(b"% sym unweighted\n% 3 2 2\n1\t2\n0\t2\n").graph
    assert g.edge_array.tolist() == [[0, 2], [1, 2]]
    p = load_partition(b"% konect\n0\t7\n%\n1\t8\n")
    assert (p.labels.tolist(), p.k) == ([0, 1], 2)


def test_canonical_partition_labels_stay_text():
    p = load_partition(b"0 10\n1 7\n2 10\n")
    assert (p.labels.tolist(), p.k) == ([0, 1, 0], 2)
    # a leading zero is not canonical: 07 is coded by its bytes, apart from 7
    p = load_partition(b"0 7\n1 07\n2 7\n")
    assert (p.labels.tolist(), p.k) == ([0, 1, 0], 2)


# ---------------------------------------------------------------- writers

# the values where the digit count changes, and the largest int64
EDGE_VALUES = sorted({0, 2**63 - 1} | {v for k in range(1, 19) for v in (10**k - 1, 10**k)})


@given(st.lists(st.one_of(st.sampled_from(EDGE_VALUES), st.integers(0, 2**63 - 1)), max_size=30),
       st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_format_rows_matches_str(values, width):
    columns = [np.array(values[i::width][: len(values) // width], dtype=np.int64)
               for i in range(width)]
    want = "".join(" ".join(map(str, row)) + "\n" for row in zip(*(c.tolist() for c in columns)))
    assert format_rows(*columns) == want


def test_format_rows_of_edge_values():
    column = np.array(EDGE_VALUES, dtype=np.int64)
    want = "".join(f"{v} {w}\n" for v, w in zip(EDGE_VALUES, reversed(EDGE_VALUES)))
    assert format_rows(column, column[::-1]) == want
    assert format_rows(column[:0], column[:0]) == ""


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_writers_match_line_oracles(data):
    n = data.draw(st.integers(1, 40))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60))
    g = oracles.graph_from_edges(n, [(u, v) for u, v in pairs if u != v])
    p = Partition.from_labels(data.draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)))
    for write, oracle, obj in ((write_edge_list, oracles.write_edge_list, g),
                               (write_partition, oracles.write_partition, p)):
        got, want = io.StringIO(), io.StringIO()
        write(obj, got)
        oracle(obj, want)
        assert got.getvalue().encode() == want.getvalue().encode()


def test_load_partition_infers_n_from_largest_id():
    # every node appears once, so n is the row count, which here is also the
    # largest id plus one
    p = load_partition(b"1 x\n0 y\n2 x\n")
    assert p.n == 3
    assert p.labels.tolist() == [0, 1, 1]
    assert p.k == 2
    with pytest.raises(PartitionError, match=re.escape("line 2: node 2 outside [0, 2)")):
        load_partition(b"0 a\n2 a\n")


@pytest.mark.parametrize("source, message", [
    (b"0 a\n1 a\n9000000000000000000 b\n", "line 3: node 9000000000000000000 outside [0, 3)"),
    (b"0 a\n99999999999999999999 b\n", "line 2: node 99999999999999999999 outside [0, 2)"),
    # the rows stop at line 3, so they bound n only from below
    (b"0 a\n99999999999999999999 b\n1 a b\n", "line 3: expected two tokens, got 3"),
    (b"-1 a\n1 a b\n", "line 1: negative node id -1"),
])
def test_load_partition_without_n_bounds_ids_by_the_row_count(source, message):
    with pytest.raises(PartitionError) as got:
        load_partition(source)
    assert str(got.value) == message
    _assert_partition_matches_oracle(source, None)


def test_load_edge_list_with_node_count():
    res = load_edge_list(b"0 1\n1 2\n", n=5)
    assert res.graph.n == 5
    assert res.graph.degrees[4] == 0
    for source in (b"0 1\r\n1 5\r\n", b"0 1\n1 5\n"):  # the text and the canonical reader
        with pytest.raises(EdgeListError, match=r"line 2: node id 5 outside \[0, 5\)"):
            load_edge_list(source, n=5)


def test_from_edges_rejects_a_node_count_above_max_nodes():
    message = f"n={MAX_NODES + 1} above the largest node count {MAX_NODES}"
    with pytest.raises(ValueError, match=message):
        oracles.graph_from_edges(MAX_NODES + 1, [(0, 1)])


def test_from_edges_errors_name_the_first_bad_edge():
    with pytest.raises(ValueError, match=r"edge \(0, 3\) out of range for n=3"):
        oracles.graph_from_edges(3, [(0, 1), (0, 3), (2, 2)])
    with pytest.raises(ValueError, match="self-loop at node 2"):
        oracles.graph_from_edges(3, [(0, 1), (2, 2), (0, 3)])
