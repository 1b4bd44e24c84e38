"""Individual and group fairness measures for community detection."""

__version__ = "0.1.0"

from .bias import BiasReport, ib_all_fast
from .graph import Graph, load_edge_list
from .partition import ContingencyTable, Partition, contingency, load_partition
from .quality import ari, modularity, nf1, nmi
from .groupfair import GroupFairnessResult, community_scores, community_stats, ols_slope, phi
from .detectors import DetectorSpec, greedy_agglomerative, label_propagation, louvain, run_detector
from .synthgen import AbcdParams, generate_abcd_lite, generate_two_community, two_block_partition
from .perturb import SweepConfig, SweepResult, run_sweep

__all__ = [
    "AbcdParams",
    "BiasReport",
    "DetectorSpec",
    "ContingencyTable",
    "Graph",
    "GroupFairnessResult",
    "Partition",
    "SweepConfig",
    "SweepResult",
    "ari",
    "community_scores",
    "community_stats",
    "contingency",
    "generate_abcd_lite",
    "generate_two_community",
    "greedy_agglomerative",
    "ib_all_fast",
    "label_propagation",
    "load_edge_list",
    "load_partition",
    "louvain",
    "modularity",
    "nf1",
    "nmi",
    "ols_slope",
    "phi",
    "run_detector",
    "run_sweep",
    "two_block_partition",
]
