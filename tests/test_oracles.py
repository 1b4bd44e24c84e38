"""The vectorised library code against the pure-Python loops in ``oracles``.

Integer results (tables, counts, dense ids) must match exactly, floating-point
ones to 1e-12; error messages from the loaders must match word for word,
including which of several problems is reported.
"""

from __future__ import annotations

import io
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from cdfair.detectors import greedy_agglomerative, label_propagation
from cdfair.graph import EdgeListError, Graph, load_edge_list
from cdfair.groupfair import community_scores, community_stats, ols_slope, phi
from cdfair.partition import Partition, PartitionError, contingency, load_partition
from cdfair.quality import nf1
from cdfair.synthgen import AbcdParams, GenerationError, _sample_community_sizes, generate_abcd_lite

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
    return Graph.from_edges(n, edges), Partition.from_labels(gt), Partition.from_labels(pred)


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


@given(st.one_of(
    st.lists(st.integers(-3, 3), min_size=1, max_size=40),
    st.lists(st.text(max_size=3), min_size=1, max_size=40),
    st.lists(st.one_of(st.integers(0, 2), st.sampled_from(["0", "1", "a"])), min_size=1, max_size=40),
))
@settings(max_examples=150, deadline=None)
def test_from_labels_first_seen_order(raw):
    dense, original = oracles.from_labels(raw)
    for labels in (raw, np.array(raw) if all(type(x) is int for x in raw) else raw):
        p = Partition.from_labels(labels)
        assert p.labels.tolist() == dense
        assert p.original_ids == original
        assert p.k == len(original)
        assert p.sizes.tolist() == np.bincount(dense).tolist()


def test_from_labels_keeps_string_and_int_labels_apart():
    p = Partition.from_labels(["1", 1, "a\x00", "a", 1])
    assert p.labels.tolist() == [0, 1, 2, 3, 1]
    assert p.original_ids == ("1", 1, "a\x00", "a")


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
    _assert_stats_equal(community_stats(g, gt), oracles.community_stats(g, gt))
    _assert_stats_equal(community_stats(g, pred), oracles.community_stats(g, pred))
    _assert_scores_equal(community_scores(g, contingency(gt, pred)), oracles.community_scores(g, gt, pred))


@given(tied_pair(), st.data())
@settings(max_examples=60, deadline=None)
def test_max_overlap_ties_go_to_smaller_id(pair, data):
    split_gt, split_pred = pair
    n = split_gt.n
    node = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=2 * n))
    g = Graph.from_edges(n, edges)
    # gt -> pred ties (a split) and pred -> gt ties (the same pair reversed, a merge)
    for gt, pred in ((split_gt, split_pred), (split_pred, split_gt)):
        ct = contingency(gt, pred)
        assert nf1(ct) == pytest.approx(oracles.nf1(gt, pred), abs=TOL)
        _assert_scores_equal(community_scores(g, ct), oracles.community_scores(g, gt, pred))
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
    return Graph.from_edges(n, edges), gt, pred


@given(phi_case())
@settings(max_examples=200, deadline=None)
def test_phi_equals_oracle_exactly(case):
    g, gt, pred = case
    assume(gt.k >= 2)
    assert phi(g, contingency(gt, pred)).phi == oracles.phi(g, gt, pred)


def test_ols_slope_squares_like_the_loop():
    # with x = (0, 2d) the slope is d / (2 d^2), so it shows how d^2 was
    # rounded: C pow() (Python's **) and d * d differ in about 1 of 1000 draws
    rng = np.random.default_rng(0)
    for d in rng.random(5000).tolist():
        x, y = [0.0, 2 * d], [0.0, 1.0]
        assert ols_slope(x, y) == oracles.ols_slope(x, y)


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
    return Graph.from_edges(n, edges)


@given(cnm_graph())
@settings(max_examples=400, deadline=None)
def test_cnm_heap_equals_scan_oracle(g):
    got, want = greedy_agglomerative(g), oracles.greedy_agglomerative(g)
    assert got == want
    assert got.original_ids == want.original_ids


@pytest.mark.parametrize("seed", [0, 1])
def test_cnm_heap_equals_scan_oracle_on_abcd(seed):
    g, _, _ = generate_abcd_lite(AbcdParams(n=600, c_min=20, c_max=100, xi=0.3, seed=seed))
    got, want = greedy_agglomerative(g), oracles.greedy_agglomerative(g)
    assert got == want
    assert got.original_ids == want.original_ids


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _lpa_against_oracle(g, seed, max_sweeps):
    """Labels equal to the oracle's, and the max_sweeps warning exactly when
    the oracle did not converge."""
    handler = _Messages()
    logger = logging.getLogger("cdfair.detectors")
    logger.addHandler(handler)
    try:
        got = label_propagation(g, seed=seed, max_sweeps=max_sweeps)
    finally:
        logger.removeHandler(handler)
    want, converged = oracles.label_propagation(g, seed=seed, max_sweeps=max_sweeps)
    assert got == want
    assert got.original_ids == want.original_ids
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
        d_max_iter=draw(st.integers(1, 5)), seed=draw(st.integers(0, 2**32 - 1)),
    )


def _generated(generate, p):
    """(edges, labels, info) of one generator run, or its error."""
    try:
        g, part, info = generate(p)
    except GenerationError as exc:
        return str(exc)
    return g.n, g.edge_array.tolist(), part.labels.tolist(), part.original_ids, info


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

EDGE_LINES = ["0 1", "1 2\n", " 3\t4 ", "2 0", "1 0", "2 2", "# note", "", "   ",
              "a b", "1", "1 2 3", "-1 2", "+3 1", "7 5", "b a"]


@given(st.lists(st.sampled_from(EDGE_LINES), max_size=12), st.sampled_from(["raw", "remap"]))
@settings(max_examples=300, deadline=None)
def test_load_edge_list_matches_line_loop(lines, id_mode):
    try:
        n, edges, dup, loops = oracles.load_edge_list(lines, id_mode)
    except EdgeListError as exc:
        with pytest.raises(EdgeListError) as got:
            load_edge_list(lines, id_mode=id_mode)
        assert str(got.value) == str(exc)
        return
    res = load_edge_list(lines, id_mode=id_mode)
    assert res.graph.n == n
    assert set(res.graph.edges()) == edges
    assert list(res.graph.edges()) == sorted(edges)
    assert (res.duplicates_dropped, res.self_loops_dropped) == (dup, loops)
    adjacency = [sorted({v for e in edges for v in e if u in e and v != u}) for u in range(n)]
    assert res.graph.neighbor_lists() == adjacency


PARTITION_LINES = ["0 a", "1 a\n", "2 b", "1 b", "3 x", "-1 a", "x a", "0", "0 a b",
                   "# c", "", " 2\t07 ", "+1 7"]


@given(st.lists(st.sampled_from(PARTITION_LINES), max_size=8), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_load_partition_matches_line_loop(lines, n):
    try:
        want = oracles.load_partition(lines, n)
    except PartitionError as exc:
        with pytest.raises(PartitionError) as got:
            load_partition(lines, n)
        assert str(got.value) == str(exc)
        return
    p = load_partition(lines, n)
    assert p.labels.tolist() == want.labels.tolist()
    assert p.original_ids == want.original_ids


def test_load_partition_infers_n_from_largest_id():
    p = load_partition(io.StringIO("1 x\n0 y\n2 x\n"))
    assert p.n == 3
    assert p.labels.tolist() == [0, 1, 1]
    assert p.original_ids == ("y", "x")
    with pytest.raises(PartitionError, match="node 1 unassigned"):
        load_partition(io.StringIO("0 a\n2 a\n"))


def test_load_edge_list_with_node_count():
    res = load_edge_list(io.StringIO("0 1\n1 2\n"), id_mode="raw", n=5)
    assert res.graph.n == 5
    assert res.graph.degree(4) == 0
    with pytest.raises(EdgeListError, match=r"line 2: node id 5 outside \[0, 5\)"):
        load_edge_list(io.StringIO("0 1\n1 5\n"), id_mode="raw", n=5)
    with pytest.raises(ValueError):
        load_edge_list(io.StringIO("a b\n"), id_mode="remap", n=2)


def test_from_edges_errors_name_the_first_bad_edge():
    with pytest.raises(ValueError, match=r"edge \(0, 3\) out of range for n=3"):
        Graph.from_edges(3, [(0, 1), (0, 3), (2, 2)])
    with pytest.raises(ValueError, match="self-loop at node 2"):
        Graph.from_edges(3, [(0, 1), (2, 2), (0, 3)])
