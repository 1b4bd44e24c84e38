"""Controlled perturbations of a planted partition and the ratio sweeps.

Three scenarios act on the focal node's community: expansion (outsiders are
pulled in), shrinkage (members other than the focal node are pushed out) and
change (both at once; at ratio 1 the predicted community is the complement
plus the focal node). The focal node never leaves its own community, so its
overlap cell stays positive by construction.

The focal node's bias 1 - o/sqrt(s*s') depends only on how many nodes move,
not on which, so `run_sweep` computes it in closed form from the move counts.
The tests check it against random perturbations that move those counts.
"""

from __future__ import annotations

import math
from collections import namedtuple
from io import TextIOBase

SCENARIOS = ("expand", "shrink", "change")
TARGETS = ("minority", "majority")


def minority_size(n: int, minority_frac: float) -> int:
    """Size of the minority block of a two-block planted partition of `n` nodes:
    ``minority_frac * n`` rounded half up, leaving both blocks non-empty."""
    if not 0.0 < minority_frac < 1.0:
        raise ValueError("minority_frac must lie in (0, 1)")
    size_m = int(math.floor(minority_frac * n + 0.5))
    if size_m < 1 or size_m >= n:
        raise ValueError(f"degenerate block sizes: n={n} and minority_frac={minority_frac} "
                         f"give blocks of {size_m} and {n - size_m} nodes")
    return size_m


def round_half_away(x: float) -> int:
    """round() with halves away from zero, fixing the count discretization."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


# namedtuples: importing dataclasses (and inspect) would be most of a sweep's start-up
class SweepConfig(namedtuple("SweepConfig", "scenario target ratios n minority_frac",
                             defaults=(tuple(r / 10 for r in range(11)), 1000, 0.2))):
    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if list(self.ratios) != sorted(self.ratios):
            raise ValueError("ratios must be sorted ascending")
        if any(not 0.0 <= r <= 1.0 for r in self.ratios):
            raise ValueError("ratios must lie in [0, 1]")
        return self


class SweepResult(namedtuple("SweepResult", "config mean_ib")):
    """`mean_ib` holds one entry per ratio of `config`: the exact focal bias."""

    def write_csv(self, sink: TextIOBase) -> None:
        # the spread over runs is always 0.0: every run moves the same counts
        sink.write("scenario,target,n,ratio,mean_ib,std_ib\n")
        c = self.config
        for ratio, m in zip(c.ratios, self.mean_ib):
            sink.write(f"{c.scenario},{c.target},{c.n},{ratio!r},{m!r},0.0\n")


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """The focal node's bias per ratio, in closed form from the move counts.

    k_out members leave (capped at s - 1 so the focal node stays) and k_in
    outsiders join, each count rounded with halves away from zero.
    Bias depends only on the planted block sizes, so neither a graph nor a
    partition is built here.
    """
    size_m = minority_size(cfg.n, cfg.minority_frac)
    s = size_m if cfg.target == "minority" else cfg.n - size_m
    means: list[float] = []
    for ratio in cfg.ratios:
        k_out = min(round_half_away(ratio * s), s - 1) if cfg.scenario != "expand" else 0
        k_in = round_half_away(ratio * (cfg.n - s)) if cfg.scenario != "shrink" else 0
        o = s - k_out
        means.append(1.0 - o / math.sqrt(float(s) * float(s - k_out + k_in)))
    return SweepResult(config=cfg, mean_ib=tuple(means))
