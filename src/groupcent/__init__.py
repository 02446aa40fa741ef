"""Approximate maximization of group-harmonic and group-closeness centrality.

Greedy and swap-based local-search solvers with pruned shortest-path
evaluation, plus exhaustive and random baselines that make every quality
claim checkable on small instances.
"""

from .centrality import (DisconnectedFarnessError, DisconnectedRemovalError,
                         GroupDistanceState, ObjectiveValue, group_farness_raw,
                         group_harmonic, harmonic_sum, patched_distances,
                         removal_cost, state_init)
from .closeness import (DisconnectedGraphError, LevelBuckets, SwapCandidate,
                        add_estimate, farness_decrease, greedy_closeness,
                        local_search_closeness)
from .graph import (EdgeListFormatError, Graph, GraphError,
                    IsolatedVertexError, UNREACHABLE, is_connected,
                    largest_component, load_edge_list, multi_source_sssp,
                    reachable_counts, sssp)
from .harmonic import (greedy_harmonic, harmonic_centralities,
                       local_search_harmonic, pruned_marginal_gain,
                       top_harmonic_vertex)
from .oracles import (BudgetExceededError, IlpModel, InfeasibleAssignmentError,
                      best_random, build_harmonic_model, evaluate_assignment,
                      exhaustive_best, export_ilp_harmonic, write_lp)
from .reporting import AlgoConfig, RunReport

__all__ = [
    "AlgoConfig", "BudgetExceededError",
    "DisconnectedFarnessError", "DisconnectedGraphError",
    "DisconnectedRemovalError", "EdgeListFormatError", "Graph", "GraphError",
    "GroupDistanceState", "IlpModel", "InfeasibleAssignmentError",
    "IsolatedVertexError", "LevelBuckets", "ObjectiveValue",
    "RunReport", "SwapCandidate", "UNREACHABLE",
    "add_estimate", "best_random", "build_harmonic_model",
    "evaluate_assignment", "exhaustive_best", "export_ilp_harmonic",
    "farness_decrease", "greedy_closeness", "greedy_harmonic",
    "group_farness_raw", "group_harmonic", "harmonic_centralities",
    "harmonic_sum", "is_connected", "largest_component", "load_edge_list",
    "local_search_closeness", "local_search_harmonic", "multi_source_sssp",
    "patched_distances", "pruned_marginal_gain",
    "reachable_counts", "removal_cost", "sssp", "state_init",
    "top_harmonic_vertex", "write_lp",
]
