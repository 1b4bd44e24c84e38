import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdfair.partition import (
    Partition,
    PartitionError,
    contingency,
    load_partition,
    write_partition,
)
from oracles import cc_row


def labels_pair(max_n=60):
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
        )
    )


def overlap_of(ct, a, b) -> int:
    """Nodes in ground-truth community a and predicted community b, read from the cell arrays."""
    return int(ct.overlap[(ct.rows == a) & (ct.cols == b)].sum())


def test_load_partition_dense_relabel():
    p = load_partition(b"0 7\n1 7\n2 9\n", n=3)
    assert p.labels.tolist() == [0, 0, 1]
    assert p.k == 2
    # dense ids follow first appearance by node id, not the tokens' order
    p = load_partition(b"2 7\n0 9\n1 7\n", n=3)
    assert p.labels.tolist() == [0, 1, 1]


def test_load_partition_drops_leading_byte_order_mark():
    p = load_partition("\ufeff0 7\n1 7\n2 9\n".encode(), n=3)
    assert p.labels.tolist() == [0, 0, 1]
    assert p.k == 2


@pytest.mark.parametrize("text", ["0 a\x00\n1 a\n", "0 07\n1 7\n", "0 1\n1 1.0\n", "0 a\n1 A\n"])
def test_load_partition_compares_community_tokens_as_text(text):
    p = load_partition(text.encode())
    assert (p.labels.tolist(), p.k) == ([0, 1], 2)


def test_load_partition_missing_node():
    with pytest.raises(PartitionError, match="node 2 unassigned"):
        load_partition(b"0 0\n1 0\n", n=3)


def test_load_partition_duplicate_node():
    with pytest.raises(PartitionError, match="assigned twice"):
        load_partition(b"0 0\n0 1\n1 0\n", n=2)


def test_load_partition_unknown_node():
    with pytest.raises(PartitionError, match="outside"):
        load_partition(b"0 0\n5 0\n", n=2)


def test_singleton_partition_k_equals_n():
    src = "".join(f"{i} {i}\n" for i in range(6))
    p = load_partition(src.encode(), n=6)
    assert p.k == 6
    assert p.sizes.tolist() == [1] * 6


def test_partition_roundtrip():
    p = Partition.from_labels([2, 2, 0, 1])
    buf = io.StringIO()
    write_partition(p, buf)
    p2 = load_partition(buf.getvalue().encode(), n=4)
    assert p2 == p


def test_contingency_identity():
    p = Partition.from_labels([0, 0, 1, 1, 1])
    ct = contingency(p, p)
    assert overlap_of(ct, 0, 0) == 2
    assert overlap_of(ct, 1, 1) == 3
    assert overlap_of(ct, 0, 1) == 0


def test_contingency_full_merge():
    gt = Partition.from_labels([0, 0, 1, 1])
    pred = Partition.from_labels([0, 0, 0, 0])
    ct = contingency(gt, pred)
    assert overlap_of(ct, 0, 0) == 2
    assert overlap_of(ct, 1, 0) == 2


def test_contingency_mismatched_n():
    with pytest.raises(PartitionError):
        contingency(Partition.from_labels([0, 0]), Partition.from_labels([0, 0, 0]))


def test_contingency_matches_pairwise_brute_force():
    rng = np.random.default_rng(7)
    gt = Partition.from_labels(rng.integers(0, 6, size=50).tolist())
    pred = Partition.from_labels(rng.integers(0, 8, size=50).tolist())
    ct = contingency(gt, pred)
    for a in range(gt.k):
        for b in range(pred.k):
            count = sum(
                1
                for i in range(50)
                if gt.labels[i] == a and pred.labels[i] == b
            )
            assert overlap_of(ct, a, b) == count


def test_cc_row_basic():
    p = Partition.from_labels([0, 0, 1])
    assert cc_row(p, 0).tolist() == [1, 1, 0]
    assert cc_row(p, 2).tolist() == [0, 0, 1]


def test_cc_row_singletons_and_one_community():
    singles = Partition.from_labels(list(range(4)))
    for i in range(4):
        expected = np.eye(4)[i]
        assert np.array_equal(cc_row(singles, i), expected)
    ones = Partition.from_labels([0] * 4)
    assert cc_row(ones, 2).tolist() == [1] * 4


def test_cc_row_out_of_range():
    with pytest.raises(IndexError):
        cc_row(Partition.from_labels([0, 0]), 2)


@given(labels_pair())
@settings(max_examples=60, deadline=None)
def test_overlap_identity_against_materialized_rows(pair):
    l1, l2 = pair
    gt = Partition.from_labels(l1)
    pred = Partition.from_labels(l2)
    ct = contingency(gt, pred)
    for i in range(gt.n):
        dot = float(cc_row(gt, i) @ cc_row(pred, i))
        assert dot == overlap_of(ct, int(gt.labels[i]), int(pred.labels[i]))
        assert float(cc_row(gt, i) @ cc_row(gt, i)) == gt.sizes[gt.labels[i]]


@given(labels_pair())
@settings(max_examples=40, deadline=None)
def test_contingency_marginals(pair):
    l1, l2 = pair
    gt = Partition.from_labels(l1)
    pred = Partition.from_labels(l2)
    ct = contingency(gt, pred)
    cells = list(zip(ct.rows.tolist(), ct.cols.tolist(), ct.overlap.tolist()))
    assert sum(o for _, _, o in cells) == gt.n
    for a in range(gt.k):
        assert sum(o for x, _, o in cells if x == a) == gt.sizes[a]
    for b in range(pred.k):
        assert sum(o for _, y, o in cells if y == b) == pred.sizes[b]
