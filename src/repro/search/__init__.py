"""Online search algorithms (Section 5).

``candidates``
    Helpers that turn an I-layer subgraph into concrete :class:`TargetGraph`
    candidates (join order, join-attribute choices, projection choices).
``mcmc``
    Step 2 of the online phase — the MCMC / Metropolis search over the
    AS-layer of a minimal-weight I-graph (Algorithm 1 of the paper).
``brute_force``
    The LP (local optimal, over samples) and GP (global optimal, over the full
    marketplace data) exhaustive baselines used in the evaluation.
``acquisition``
    The combined two-step heuristic: Step 1 (minimal-weight I-graph) followed
    by Step 2 (MCMC on the AS-layer).
``chains``
    The parallel multi-chain extension of Step 2: several independently
    seeded walks (serial or process executor) sharing the evaluation memo,
    aggregated into the best feasible result across chains.
``plan``
    :class:`~repro.search.plan.ExecutionPlan`, the executor and chain count
    of a search in one value, and the width rule of its process pools.
"""

from repro.search.candidates import (
    build_initial_target_graph,
    candidate_paths,
    enumerate_target_graphs,
)
from repro.search.chains import ChainScheduler, MultiChainResult, chain_seed
from repro.search.mcmc import MCMCConfig, MCMCResult, mcmc_search
from repro.search.brute_force import BruteForceResult, global_optimal, local_optimal
from repro.search.acquisition import HeuristicResult, heuristic_acquisition
from repro.search.topk import RankedOption, ScoreWeights, top_k_acquisition

__all__ = [
    "RankedOption",
    "ScoreWeights",
    "top_k_acquisition",
    "candidate_paths",
    "build_initial_target_graph",
    "enumerate_target_graphs",
    "MCMCConfig",
    "MCMCResult",
    "mcmc_search",
    "ChainScheduler",
    "MultiChainResult",
    "chain_seed",
    "BruteForceResult",
    "local_optimal",
    "global_optimal",
    "HeuristicResult",
    "heuristic_acquisition",
]
