"""Approximate maximization of group-harmonic and group-closeness centrality.

Greedy and swap-based local-search solvers with pruned shortest-path
evaluation, plus exhaustive and random baselines that make every quality
claim checkable on small instances. Kernels and bounds stay importable
from their own modules.
"""

from .centrality import (DisconnectedFarnessError, ObjectiveValue,
                         group_farness_raw, group_harmonic, harmonic_sum)
from .closeness import (DisconnectedGraphError, greedy_closeness,
                        local_search_closeness)
from .graph import (EdgeListFormatError, Graph, GraphError,
                    IsolatedVertexError, UNREACHABLE, is_connected,
                    largest_component, load_edge_list, multi_source_sssp, sssp)
from .harmonic import greedy_harmonic, local_search_harmonic
from .oracles import BudgetExceededError, best_random, exhaustive_best
from .reporting import AlgoConfig, RunReport

__all__ = [
    "AlgoConfig", "BudgetExceededError", "DisconnectedFarnessError",
    "DisconnectedGraphError", "EdgeListFormatError", "Graph", "GraphError",
    "IsolatedVertexError", "ObjectiveValue", "RunReport", "UNREACHABLE",
    "best_random", "exhaustive_best", "greedy_closeness", "greedy_harmonic",
    "group_farness_raw", "group_harmonic", "harmonic_sum", "is_connected",
    "largest_component", "load_edge_list", "local_search_closeness",
    "local_search_harmonic", "multi_source_sssp", "sssp",
]
