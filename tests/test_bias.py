import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdfair import bias
from cdfair.bias import BiasReport, ib_all_fast
from cdfair.partition import Partition, contingency
from oracles import cosine_distance, ib_all_naive, node_ib, write_bias_csv


def random_pair(rng, n):
    gt = Partition.from_labels(rng.integers(0, rng.integers(1, n + 1), size=n).tolist())
    pred = Partition.from_labels(rng.integers(0, rng.integers(1, n + 1), size=n).tolist())
    return gt, pred


# ---------------------------------------------------------------- cosine


def test_cosine_identical_direction():
    assert cosine_distance([1, 1, 0], [1, 1, 0]) == pytest.approx(0.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine_distance([1, 0], [0, 1]) == pytest.approx(1.0)


def test_cosine_partial_overlap():
    got = cosine_distance([1, 1, 0, 0], [1, 1, 1, 1])
    assert got == pytest.approx(1 - 2 / (math.sqrt(2) * 2), abs=1e-12)


def test_cosine_zero_norm_rejected():
    with pytest.raises(ValueError):
        cosine_distance([0, 0], [1, 0])


def test_cosine_length_mismatch():
    with pytest.raises(ValueError):
        cosine_distance([1], [1, 0])


# ---------------------------------------------------------------- fast node


def test_ib_node_identical_communities():
    p = Partition.from_labels([0] * 20)
    ct = contingency(p, p)
    assert node_ib(ib_all_fast(ct))[0] == 0.0


def test_ib_node_minority_expansion_ceiling():
    # community of 20 expanded to 100: 1 - sqrt(20/100)
    gt = Partition.from_labels([0] * 20 + [1] * 80)
    pred = Partition.from_labels([0] * 100)
    ct = contingency(gt, pred)
    ib = node_ib(ib_all_fast(ct))
    assert ib[0] == pytest.approx(1 - math.sqrt(0.2), abs=1e-12)  # a node of gt 0
    assert ib[20] == pytest.approx(1 - math.sqrt(0.8), abs=1e-12)  # a node of gt 1


def test_ib_node_shrink_to_singleton():
    s = 2000
    gt = Partition.from_labels([0] * s)
    pred = Partition.from_labels([0] + [1] * (s - 1))
    ct = contingency(gt, pred)
    assert node_ib(ib_all_fast(ct))[0] == pytest.approx(1 - 1 / math.sqrt(s), abs=1e-12)


# ---------------------------------------------------------------- all nodes


def test_perfect_prediction_zero():
    p = Partition.from_labels([0, 1, 0, 2, 1])
    rep = ib_all_fast(contingency(p, p))
    assert np.all(node_ib(rep) == 0.0)
    assert rep.ib_g == 0.0
    assert rep.mean_ib == 0.0


def test_merge_two_level_values():
    gt = Partition.from_labels([0] * 20 + [1] * 80)
    pred = Partition.from_labels([0] * 100)
    rep = ib_all_fast(contingency(gt, pred))
    lo, hi = 1 - math.sqrt(0.8), 1 - math.sqrt(0.2)
    assert node_ib(rep)[:20] == pytest.approx(hi, abs=1e-12)
    assert node_ib(rep)[20:] == pytest.approx(lo, abs=1e-12)
    expected_std = math.sqrt(0.2 * 0.8) * (hi - lo)
    assert rep.ib_g == pytest.approx(expected_std, abs=1e-12)


def test_hand_example_three_nodes():
    gt = Partition.from_labels([0, 0, 1])
    pred = Partition.from_labels([0, 1, 1])
    rep = ib_all_naive(gt, pred)
    assert node_ib(rep)[0] == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-12)


def test_identical_three_nodes_naive():
    p = Partition.from_labels([0, 1, 1])
    assert node_ib(ib_all_naive(p, p)) == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
    # the fast path is exactly zero for identical partitions
    assert node_ib(ib_all_fast(contingency(p, p))).tolist() == [0.0, 0.0, 0.0]


def test_naive_cap():
    p = Partition.from_labels([0] * 10)
    with pytest.raises(ValueError, match="fast"):
        ib_all_naive(p, p, cap=5)


def test_fast_equals_naive_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        gt, pred = random_pair(rng, 100)
        fast = ib_all_fast(contingency(gt, pred))
        naive = ib_all_naive(gt, pred)
        np.testing.assert_allclose(node_ib(fast), node_ib(naive), rtol=0, atol=1e-12)
        assert fast.ib_g == pytest.approx(naive.ib_g, abs=1e-12)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_range_and_permutation_invariance(data):
    n = data.draw(st.integers(4, 80))
    l1 = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    l2 = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    gt = Partition.from_labels(l1)
    pred = Partition.from_labels(l2)
    rep = ib_all_fast(contingency(gt, pred))
    assert np.all(node_ib(rep) >= 0.0)
    assert np.all(node_ib(rep) < 1.0)
    assert 0.0 <= rep.ib_g <= 0.5
    # relabeling either side leaves every value unchanged
    shift1 = [(x + 3) % 17 for x in l1]
    shift2 = [(x * 7 + 5) % 23 for x in l2]
    rep2 = ib_all_fast(contingency(Partition.from_labels(shift1), Partition.from_labels(shift2)))
    np.testing.assert_array_equal(node_ib(rep), node_ib(rep2))


@pytest.mark.parametrize("s", [10, 40, 90])
def test_expansion_shrink_asymmetry(s):
    for k in range(1, s):
        expand = 1 - math.sqrt(s / (s + k))
        shrink = 1 - math.sqrt((s - k) / s)
        assert shrink > expand


def test_expansion_monotone_concave_down():
    s = 30
    vals = [1 - math.sqrt(s / (s + k)) for k in range(0, 60)]
    d1 = np.diff(vals)
    d2 = np.diff(d1)
    assert np.all(d1 > 0)
    assert np.all(d2 < 0)


def test_shrink_monotone_concave_up():
    s = 30
    vals = [1 - math.sqrt((s - k) / s) for k in range(0, s)]
    d1 = np.diff(vals)
    d2 = np.diff(d1)
    assert np.all(d1 > 0)
    assert np.all(d2 > 0)


# ---------------------------------------------------------------- report I/O


def test_report_serialization():
    gt = Partition.from_labels([0, 0, 1, 1])
    pred = Partition.from_labels([0, 1, 1, 1])
    rep = ib_all_fast(contingency(gt, pred))
    buf = io.StringIO()
    rep.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "node_id,ib"
    assert len(lines) == 5


class _Writes:
    """A text sink that keeps the number of rows of each write, and their
    text when asked to."""

    def __init__(self, keep_text: bool):
        self.rows: list[int] = []
        self.text: list[str] | None = [] if keep_text else None

    def write(self, text: str) -> None:
        self.rows.append(text.count("\n"))
        if self.text is not None:
            self.text.append(text)


BLOCK = 4  # rows per block in the tests below, so a few nodes span blocks
# values that nodes share, and the two zeros, which compare equal but print apart
SHARED_IB = [0.0, -0.0, 0.5, 1 / 3, 0.1 + 0.2]


@given(st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]).flatmap(
    lambda n: st.lists(st.sampled_from(SHARED_IB) | st.floats(0.0, 1.0, exclude_max=True),
                       min_size=n, max_size=n)))
@example([0.0, -0.0, 0.5, -0.0, 0.0])  # both zeros in one report, across blocks
@settings(max_examples=200, deadline=None)
def test_write_csv_in_blocks_matches_one_shot_writer(ib):
    n = len(ib)
    rep = BiasReport.from_values(np.array(ib), np.arange(n))
    sink = _Writes(keep_text=True)
    with mock.patch.object(bias, "_BLOCK", BLOCK):
        rep.write_csv(sink)
    want = io.StringIO()
    write_bias_csv(rep, want)
    assert "".join(sink.text) == want.getvalue()
    # the header, then full blocks and what is left
    assert sink.rows == [1] + [BLOCK] * (n // BLOCK) + [n % BLOCK] * (n % BLOCK > 0)


def test_write_csv_peak_memory_per_node():
    # 200k nodes sharing 5000 values, about as many as a contingency table
    # of a graph that size has cells
    rng = np.random.default_rng(5)
    n = 200_000
    rep = BiasReport.from_values(rng.random(5000), rng.integers(0, 5000, n))
    sink = _Writes(keep_text=False)
    tracemalloc.start()
    try:
        rep.write_csv(sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sink.rows) == n + 1
    # measured about 8.6 bytes per node, one block's byte matrices and the
    # table of distinct values; one string of all n rows took about 104
    assert peak / n < 64, peak / n
