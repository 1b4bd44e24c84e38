import dataclasses
import io
import tracemalloc

import numpy as np
import pytest

from cdfair.graph import MAX_NODES, EdgeListError, load_edge_list, write_edge_list
from oracles import graph_from_edges


def test_path_graph():
    res = load_edge_list(b"0 1\n1 2\n")
    g = res.graph
    assert g.n == 3
    assert g.num_edges == 2
    assert g.degrees.tolist() == [1, 2, 1]


def test_raw_dedup_and_self_loop():
    res = load_edge_list(b"0 1\n1 0\n0 0\n")
    assert res.graph.n == 2
    assert res.graph.num_edges == 1
    assert res.duplicates_dropped == 1
    assert res.self_loops_dropped == 1


def test_comments_and_blank_lines():
    res = load_edge_list(b"# header\n\n0 1\n")
    assert res.graph.num_edges == 1


def test_leading_byte_order_mark_is_dropped():
    res = load_edge_list("\ufeff0 1\n1 2\n".encode())
    assert res.graph.edge_array.tolist() == [[0, 1], [1, 2]]


def test_malformed_line_reports_number():
    with pytest.raises(EdgeListError, match="line 2"):
        load_edge_list(b"0 1\n0 1 2\n")


def test_empty_input_rejected():
    with pytest.raises(EdgeListError, match="empty"):
        load_edge_list(b"# only comments\n")


def test_raw_mode_rejects_tokens():
    with pytest.raises(EdgeListError, match="non-integer"):
        load_edge_list(b"a b\n")


def test_star_degrees():
    g = graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert g.degrees.tolist() == [4, 1, 1, 1, 1]


def test_isolated_node_degree_zero():
    g = graph_from_edges(3, [(0, 1)])
    assert g.degrees[2] == 0


def test_graph_holds_only_a_read_only_edge_array():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert [f.name for f in dataclasses.fields(g)] == ["n", "edge_array"]
    with pytest.raises(ValueError, match="read-only"):
        g.edge_array[0, 0] = 2


@pytest.mark.parametrize("g, degrees, adjacency", [
    (load_edge_list(b"0 1\n", n=4).graph, [1, 1, 0, 0], [[1], [0], [], []]),
    (graph_from_edges(3, []), [0, 0, 0], [[], [], []]),
])
def test_degrees_and_adjacency_cover_nodes_without_edges(g, degrees, adjacency):
    assert g.degrees.tolist() == degrees
    assert g.neighbor_lists() == adjacency


def test_adjacency_symmetric_and_edge_count():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    adjacency = g.neighbor_lists()
    for u in range(4):
        for v in adjacency[u]:
            assert u in adjacency[v]
    assert g.degrees.sum() == 2 * g.num_edges


def test_round_trip_serialization():
    src = "3 1\n0 1\n1 2\n1 0\n"
    g = load_edge_list(src.encode()).graph
    buf = io.StringIO()
    write_edge_list(g, buf)
    g2 = load_edge_list(buf.getvalue().encode()).graph
    assert g.edge_array.tolist() == g2.edge_array.tolist()


def test_max_nodes_is_the_largest_count_whose_edge_keys_fit_int64():
    assert MAX_NODES**2 - 1 <= 2**63 - 1 < (MAX_NODES + 1) ** 2 - 1


ABOVE = "above the largest node id 3037000498"


@pytest.mark.parametrize("source, n, message", [
    ("0 9223372036854775807\n", None, f"line 1: node id 9223372036854775807 {ABOVE}"),
    ("# ids\n0 4611686018427387904\n", None, f"line 2: node id 4611686018427387904 {ABOVE}"),
    (b"0 1\n1 123456789012345678\n", None, f"line 2: node id 123456789012345678 {ABOVE}"),
    (b"0 1\n1 3037000499\n", None, f"line 2: node id 3037000499 {ABOVE}"),
    ("0 1\n", 4_000_000_000, "n=4000000000 above the largest node count 3037000499"),
])
def test_node_count_above_max_nodes_is_rejected_without_allocating(source, n, message):
    source = source if isinstance(source, bytes) else source.encode()
    tracemalloc.start()
    try:
        with pytest.raises(EdgeListError) as exc:
            load_edge_list(source, n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    assert peak < 2**20  # numpy reports its buffers to tracemalloc


def test_load_edge_list_peak_memory_per_edge():
    # a canonical file of about 200k edges, in random line order with one
    # duplicate and one self-loop per hundred lines, and its CRLF and SNAP
    # (three '#' lines, tabs) copies; their bytes exist before tracing
    # starts, so the peak counts what the load adds to its input
    rng = np.random.default_rng(11)
    pairs = rng.integers(0, 50_000, size=(200_000, 2))
    pairs[::100, 1] = pairs[::100, 0]
    pairs[1::100] = pairs[2::100]
    data = "".join(f"{u} {v}\n" for u, v in pairs.tolist()).encode()
    del pairs
    snap = b"# Undirected graph\n# Nodes: 50000\n# FromNodeId\tToNodeId\n"
    for copy in (data, data.replace(b"\n", b"\r\n"), snap + data.replace(b" ", b"\t")):
        tracemalloc.start()
        try:
            res = load_edge_list(copy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.self_loops_dropped >= 2000 and res.duplicates_dropped >= 2000
        # measured about 35 bytes per kept edge: the parsed ids (16), the
        # edge keys (8) and their copy without self-loops, with the result's edge
        # array (16) made after the ids are freed; parsing the whole file at
        # once, and keeping the ids to the end, took about 100, and decoding
        # a CRLF or SNAP copy to text about 224
        assert peak / res.graph.num_edges < 64
