"""Controlled perturbations of a planted partition and the ratio sweeps.

Three scenarios act on the focal node's community: expansion (outsiders are
pulled in), shrinkage (members other than the focal node are pushed out) and
change (both at once; at ratio 1 the predicted community is the complement
plus the focal node). The focal node never leaves its own community, so its
overlap cell stays positive by construction.

The focal node's bias 1 - o/sqrt(s*s') depends only on how many nodes move,
not on which, so `run_sweep` computes it in closed form from the move counts.
The random `perturb_*` functions build one such perturbed partition; they are
the reference the closed form is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .partition import Partition
from .synthgen import two_block_partition

SCENARIOS = ("expand", "shrink", "change")
TARGETS = ("minority", "majority")


def round_half_away(x: float) -> int:
    """round() with halves away from zero, fixing the count discretization."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass(frozen=True)
class SweepConfig:
    scenario: str
    target: str
    ratios: tuple[float, ...] = tuple(r / 10 for r in range(11))
    runs: int = 100  # rows per ratio in the per-run CSV
    n: int = 1000
    minority_frac: float = 0.2

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if list(self.ratios) != sorted(self.ratios):
            raise ValueError("ratios must be sorted ascending")
        if any(not 0.0 <= r <= 1.0 for r in self.ratios):
            raise ValueError("ratios must lie in [0, 1]")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    mean_ib: tuple[float, ...]  # one entry per ratio: the exact focal bias
    std_ib: tuple[float, ...]  # always 0.0: every run moves the same counts

    def write_csv(self, sink: TextIO) -> None:
        sink.write("scenario,target,n,ratio,mean_ib,std_ib\n")
        c = self.config
        for ratio, m, s in zip(c.ratios, self.mean_ib, self.std_ib):
            sink.write(f"{c.scenario},{c.target},{c.n},{ratio!r},{m!r},{s!r}\n")

    def write_runs_csv(self, sink: TextIO) -> None:
        sink.write("scenario,target,n,ratio,run,ib\n")
        c = self.config
        for ratio, v in zip(c.ratios, self.mean_ib):
            for r in range(c.runs):
                sink.write(f"{c.scenario},{c.target},{c.n},{ratio!r},{r},{v!r}\n")


def _fresh_label(p: Partition) -> int:
    return p.k


def perturb_expand(gt: Partition, focal: int, ratio: float, seed: int = 0) -> Partition:
    """Relabel round(ratio * |outside|) random outsiders into the focal community."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    focal_c = int(gt.labels[focal])
    outside = np.flatnonzero(gt.labels != focal_c)
    k = round_half_away(ratio * len(outside))
    labels = gt.labels.copy()
    if k > 0:
        joiners = rng.choice(outside, size=k, replace=False)
        labels[joiners] = focal_c
    return Partition.from_labels(labels)


def perturb_shrink(gt: Partition, focal: int, ratio: float, seed: int = 0) -> Partition:
    """Move round(ratio * s) random members (never the focal node) to a fresh community.

    The count is based on the full community size s and capped at s - 1 so
    the focal node always stays: interior grid ratios then remove the same
    fraction regardless of s (size-invariant curves), while ratio 1 still
    leaves the singleton {focal} with bias 1 - 1/sqrt(s).
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    focal_c = int(gt.labels[focal])
    members = np.flatnonzero(gt.labels == focal_c)
    members = members[members != focal]
    k = min(round_half_away(ratio * (len(members) + 1)), len(members))
    labels = gt.labels.copy()
    if k > 0:
        leavers = rng.choice(members, size=k, replace=False)
        labels[leavers] = _fresh_label(gt)
    return Partition.from_labels(labels)


def perturb_change(gt: Partition, focal: int, ratio: float, seed: int = 0) -> Partition:
    """Proportional swap: members leave and outsiders join, both at `ratio`."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    focal_c = int(gt.labels[focal])
    members = np.flatnonzero(gt.labels == focal_c)
    members = members[members != focal]
    outside = np.flatnonzero(gt.labels != focal_c)
    k_out = min(round_half_away(ratio * (len(members) + 1)), len(members))
    k_in = round_half_away(ratio * len(outside))
    labels = gt.labels.copy()
    if k_out > 0:
        leavers = rng.choice(members, size=k_out, replace=False)
        labels[leavers] = _fresh_label(gt)
    if k_in > 0:
        joiners = rng.choice(outside, size=k_in, replace=False)
        labels[joiners] = focal_c
    return Partition.from_labels(labels)


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """The focal node's bias per ratio, in closed form from the move counts.

    The counts are the ones the `perturb_*` functions round: k_out members
    leave (capped at s - 1 so the focal node stays) and k_in outsiders join.
    Bias depends only on the planted labels, so no graph is built here; the
    two-block partition supplies the minority/majority structure.
    """
    gt = two_block_partition(cfg.n, cfg.minority_frac)
    s = int(gt.sizes[0 if cfg.target == "minority" else 1])
    means: list[float] = []
    for ratio in cfg.ratios:
        k_out = min(round_half_away(ratio * s), s - 1) if cfg.scenario != "expand" else 0
        k_in = round_half_away(ratio * (cfg.n - s)) if cfg.scenario != "shrink" else 0
        o = s - k_out
        means.append(1.0 - o / math.sqrt(float(s) * float(s - k_out + k_in)))
    return SweepResult(config=cfg, mean_ib=tuple(means), std_ib=(0.0,) * len(means))
