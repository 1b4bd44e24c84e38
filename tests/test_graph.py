import io

import pytest

from cdfair.graph import EdgeListError, Graph, load_edge_list, write_edge_list


def test_path_graph():
    res = load_edge_list(io.StringIO("0 1\n1 2\n"))
    g = res.graph
    assert g.n == 3
    assert g.num_edges == 2
    assert g.degrees.tolist() == [1, 2, 1]


def test_raw_dedup_and_self_loop():
    res = load_edge_list(io.StringIO("0 1\n1 0\n0 0\n"))
    assert res.graph.n == 2
    assert res.graph.num_edges == 1
    assert res.duplicates_dropped == 1
    assert res.self_loops_dropped == 1


def test_comments_and_blank_lines():
    res = load_edge_list(io.StringIO("# header\n\n0 1\n"))
    assert res.graph.num_edges == 1


def test_leading_byte_order_mark_is_dropped():
    res = load_edge_list(io.StringIO("\ufeff0 1\n1 2\n"))
    assert res.graph.edge_array.tolist() == [[0, 1], [1, 2]]


def test_malformed_line_reports_number():
    with pytest.raises(EdgeListError, match="line 2"):
        load_edge_list(io.StringIO("0 1\n0 1 2\n"))


def test_empty_input_rejected():
    with pytest.raises(EdgeListError, match="empty"):
        load_edge_list(io.StringIO("# only comments\n"))


def test_raw_mode_rejects_tokens():
    with pytest.raises(EdgeListError, match="non-integer"):
        load_edge_list(io.StringIO("a b\n"))


def test_star_degrees():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert g.degrees.tolist() == [4, 1, 1, 1, 1]


def test_isolated_node_degree_zero():
    g = Graph.from_edges(3, [(0, 1)])
    assert g.degrees[2] == 0


def test_adjacency_symmetric_and_edge_count():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    adjacency = g.neighbor_lists()
    for u in range(4):
        for v in adjacency[u]:
            assert u in adjacency[v]
    assert g.degrees.sum() == 2 * g.num_edges


def test_round_trip_serialization():
    src = "3 1\n0 1\n1 2\n1 0\n"
    g = load_edge_list(io.StringIO(src)).graph
    buf = io.StringIO()
    write_edge_list(g, buf)
    g2 = load_edge_list(io.StringIO(buf.getvalue())).graph
    assert set(g.edges()) == set(g2.edges())
