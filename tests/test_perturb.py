import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdfair.bias import ib_all_fast
from cdfair.partition import contingency
from cdfair.perturb import (
    SCENARIOS,
    TARGETS,
    SweepConfig,
    round_half_away,
    run_sweep,
)
from oracles import perturb_change, perturb_expand, perturb_shrink, two_block_partition


def focal_ib(gt, pred, focal):
    return float(ib_all_fast(contingency(gt, pred)).ib[focal])


def test_sweep_config_rejects_an_unknown_target():
    with pytest.raises(ValueError, match="unknown target 'middle'"):
        SweepConfig(scenario="expand", target="middle")


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(1.5) == 2
    assert round_half_away(2.4) == 2
    assert round_half_away(0.0) == 0


# ------------------------------------------------------- expand


def test_expand_ratio_zero_identity():
    gt = two_block_partition(100, 0.2)
    pred = perturb_expand(gt, 0, 0.0, seed=1)
    assert focal_ib(gt, pred, 0) == 0.0


def test_expand_full_minority_and_majority():
    gt = two_block_partition(100, 0.2)
    pred_m = perturb_expand(gt, 0, 1.0, seed=1)
    assert focal_ib(gt, pred_m, 0) == pytest.approx(1 - math.sqrt(0.2), abs=1e-12)
    pred_big = perturb_expand(gt, 20, 1.0, seed=1)
    assert focal_ib(gt, pred_big, 20) == pytest.approx(1 - math.sqrt(0.8), abs=1e-12)


def test_expand_count():
    gt = two_block_partition(100, 0.2)
    pred = perturb_expand(gt, 0, 0.25, seed=3)
    # 20 members + round(0.25 * 80) joiners
    assert pred.sizes[pred.labels[0]] == 40


# ------------------------------------------------------- shrink


def test_shrink_ratio_zero_identity():
    gt = two_block_partition(100, 0.2)
    assert focal_ib(gt, perturb_shrink(gt, 0, 0.0, seed=1), 0) == 0.0


@pytest.mark.parametrize("s", [20, 80])
def test_shrink_to_singleton(s):
    gt = two_block_partition(100, s / 100)
    focal = 0
    pred = perturb_shrink(gt, focal, 1.0, seed=2)
    assert pred.sizes[pred.labels[focal]] == 1
    assert focal_ib(gt, pred, focal) == pytest.approx(1 - 1 / math.sqrt(s), abs=1e-12)


def test_focal_never_leaves():
    gt = two_block_partition(50, 0.4)
    for ratio in (0.2, 0.7, 1.0):
        for fn in (perturb_expand, perturb_shrink, perturb_change):
            pred = fn(gt, 3, ratio, seed=11)
            # every original co-member that stayed shares the focal's new label,
            # and the focal has not been relabeled away from its own community
            o = int(
                np.sum(
                    (gt.labels == gt.labels[3]) & (pred.labels == pred.labels[3])
                )
            )
            assert o >= 1  # the overlap cell always contains the focal node


# ------------------------------------------------------- change


def test_change_full_ratio_complement():
    gt = two_block_partition(100, 0.2)
    pred = perturb_change(gt, 0, 1.0, seed=4)
    # predicted focal community = focal + all 80 outsiders; overlap 1
    assert pred.sizes[pred.labels[0]] == 81
    assert focal_ib(gt, pred, 0) == pytest.approx(1 - 1 / math.sqrt(20 * 81), abs=1e-12)


def test_change_ratio_zero_identity():
    gt = two_block_partition(100, 0.2)
    assert focal_ib(gt, perturb_change(gt, 0, 0.0, seed=1), 0) == 0.0


# ------------------------------------------------------- sweeps


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(scenario="explode", target="minority")
    with pytest.raises(ValueError):
        SweepConfig(scenario="expand", target="minority", ratios=(0.5, 0.1))


def test_sweep_zero_ratio_only():
    cfg = SweepConfig(scenario="change", target="majority", ratios=(0.0,), n=100)
    res = run_sweep(cfg)
    assert res.mean_ib == (0.0,)


def test_sweep_expand_minority_concave_down_increasing():
    cfg = SweepConfig(
        scenario="expand", target="minority",
        ratios=tuple(r / 10 for r in range(11)), n=100,
    )
    res = run_sweep(cfg)
    d1 = np.diff(res.mean_ib)
    d2 = np.diff(d1)
    assert np.all(d1 >= -1e-12)
    assert np.all(d2 <= 1e-9)


def test_sweep_shrink_concave_up_increasing():
    # n=1000 keeps count-rounding noise far below the true curvature; at
    # n=100 (community size 20) the rounded move counts step unevenly and
    # the sampled second differences wobble around the closed-form curve
    for target in ("minority", "majority"):
        cfg = SweepConfig(
            scenario="shrink", target=target,
            ratios=tuple(r / 10 for r in range(11)), n=1000,
        )
        res = run_sweep(cfg)
        d1 = np.diff(res.mean_ib)
        d2 = np.diff(d1)
        assert np.all(d1 >= -1e-12)
        assert np.all(d2 >= -1e-4)


PERTURBATIONS = {"expand": perturb_expand, "shrink": perturb_shrink, "change": perturb_change}
GRID = [r / 10 for r in range(11)]


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("scenario", SCENARIOS)
@settings(max_examples=40, deadline=None)
@given(
    size_m=st.integers(1, 30),
    size_rest=st.integers(1, 30),
    ratios=st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(GRID)), max_size=4),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
)
@example(size_m=1, size_rest=7, ratios=GRID, seeds=[0, 1])
@example(size_m=7, size_rest=1, ratios=GRID, seeds=[0, 1])
@example(size_m=1, size_rest=1, ratios=[0.5], seeds=[3])
def test_sweep_equals_sampled_perturbations(scenario, target, size_m, size_rest, ratios, seeds):
    # the closed form must reproduce every random perturbation bit for bit
    n = size_m + size_rest
    ratios = tuple(sorted({0.0, 1.0, *ratios}))
    cfg = SweepConfig(scenario=scenario, target=target, ratios=ratios, n=n,
                      minority_frac=size_m / n)
    res = run_sweep(cfg)
    gt = two_block_partition(n, size_m / n)
    assert gt.sizes.tolist() == [size_m, size_rest]
    focal = 0 if target == "minority" else size_m
    for ratio, value in zip(ratios, res.mean_ib):
        for seed in seeds:
            pred = PERTURBATIONS[scenario](gt, focal, ratio, seed=seed)
            assert value == focal_ib(gt, pred, focal), (ratio, seed)


def test_sweep_counts_make_std_zero():
    # focal bias depends only on counts, which the ratio fixes -> zero spread
    cfg = SweepConfig(
        scenario="change", target="minority", ratios=(0.3, 0.6), n=200,
    )
    buf = io.StringIO()
    run_sweep(cfg).write_csv(buf)
    rows = buf.getvalue().splitlines()
    assert [row.rsplit(",", 1)[1] for row in rows] == ["std_ib", "0.0", "0.0"]


@pytest.mark.parametrize("n, frac, message", [
    (3, 0.01, "degenerate block sizes"),
    (3, 0.9, "degenerate block sizes"),
    (100, 0.0, r"minority_frac must lie in \(0, 1\)"),
    (100, 1.0, r"minority_frac must lie in \(0, 1\)"),
])
def test_sweep_rejects_the_block_sizes_that_two_block_partition_rejects(n, frac, message):
    with pytest.raises(ValueError, match=message):
        two_block_partition(n, frac)
    with pytest.raises(ValueError, match=message):
        run_sweep(SweepConfig(scenario="expand", target="minority", n=n, minority_frac=frac))


def test_sweep_graph_size_invariance():
    ratios = tuple(r / 10 for r in range(11))
    small = run_sweep(SweepConfig(scenario="expand", target="minority", ratios=ratios, n=100))
    large = run_sweep(SweepConfig(scenario="expand", target="minority", ratios=ratios, n=10000))
    assert np.max(np.abs(np.array(small.mean_ib) - np.array(large.mean_ib))) <= 0.02


def test_sweep_csv_output():
    cfg = SweepConfig(scenario="expand", target="minority", ratios=(0.0, 0.5), n=100)
    res = run_sweep(cfg)
    buf = io.StringIO()
    res.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "scenario,target,n,ratio,mean_ib,std_ib"
    assert len(lines) == 3
