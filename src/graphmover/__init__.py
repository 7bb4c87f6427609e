"""Distances between ordered geometric graphs.

The fast distance solves a transportation problem over vertex-to-vertex
ground costs; the exact distance enumerates inexact matchings and is only
feasible for small graphs, where it doubles as an oracle.
"""

from .geometry import CostParams, GeometricGraph, perturb, translate
from .ggd import InexactMatching, InstanceTooLargeError, ggd_exact
from .gmd import Flow, GmdResult, GroundCostMatrix, gmd, ground_cost_matrix

__all__ = [
    "CostParams",
    "Flow",
    "GeometricGraph",
    "GmdResult",
    "GroundCostMatrix",
    "InexactMatching",
    "InstanceTooLargeError",
    "ggd_exact",
    "gmd",
    "ground_cost_matrix",
    "perturb",
    "translate",
]

__version__ = "0.1.0"
