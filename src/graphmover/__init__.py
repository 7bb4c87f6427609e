"""Distances between ordered geometric graphs.

The fast distance solves a transportation problem over vertex-to-vertex
ground costs; the exact distance enumerates inexact matchings and is only
feasible for small graphs, where it doubles as an oracle.
"""

from .geometry import CostParams, GeometricGraph, perturb, translate
from .ggd import (InexactMatching, InstanceTooLargeError, enumerate_matchings,
                  ggd_exact, matching_cost)
from .gmd import GmdResult, GroundCostMatrix, gmd, ground_cost_matrix
from .transport import (Flow, InfeasibleInstanceError, TransportInstance,
                        check_flow, solve_transport)

__all__ = [
    "CostParams",
    "Flow",
    "GeometricGraph",
    "GmdResult",
    "GroundCostMatrix",
    "InexactMatching",
    "InfeasibleInstanceError",
    "InstanceTooLargeError",
    "TransportInstance",
    "check_flow",
    "enumerate_matchings",
    "ggd_exact",
    "gmd",
    "ground_cost_matrix",
    "matching_cost",
    "perturb",
    "solve_transport",
    "translate",
]

__version__ = "0.1.0"
