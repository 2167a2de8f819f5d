"""Ablation: number of landmarks in Step 1.

DESIGN.md calls out the landmark count as a design choice: more landmarks give
Step 1 more chances to find a light I-graph at the cost of more pre-computed
Dijkstra runs.  This bench sweeps the landmark count and checks that the
resulting I-graph weight never gets worse as landmarks are added (and that the
search still succeeds with a single landmark).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import print_rows
from repro.experiments.common import prepare_setup
from repro.graph.steiner import minimal_weight_igraph
from repro.search.candidates import terminal_instances

LANDMARK_COUNTS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def setup():
    return prepare_setup("tpch", "Q3", scale=0.1, mcmc_iterations=20)


@pytest.fixture(scope="module")
def ablation_rows(setup):
    sources, targets = terminal_instances(
        setup.join_graph, setup.query.source_attributes, setup.query.target_attributes
    )
    terminals = list(dict.fromkeys(sources + targets))
    rows = []
    for count in LANDMARK_COUNTS:
        igraph = minimal_weight_igraph(
            setup.join_graph, terminals, num_landmarks=count, landmark_seed=0
        )
        rows.append(
            {
                "num_landmarks": count,
                "igraph_size": igraph.size,
                "igraph_weight": igraph.total_weight,
            }
        )
    return rows


def test_ablation_landmarks(benchmark, ablation_rows):
    benchmark.pedantic(lambda: ablation_rows, rounds=1, iterations=1)
    print_rows("Ablation: landmark count vs I-graph weight", ablation_rows,
               ("num_landmarks", "igraph_size", "igraph_weight"))
    assert len(ablation_rows) == len(LANDMARK_COUNTS)


def test_more_landmarks_never_hurt(ablation_rows):
    weights = [row["igraph_weight"] for row in ablation_rows]
    # Terminals are always considered as hubs, so the result is already good
    # with one landmark; adding landmarks can only keep or reduce the weight.
    assert all(later <= earlier + 1e-9 for earlier, later in zip(weights, weights[1:]))


def test_single_landmark_still_connects(ablation_rows):
    assert ablation_rows[0]["igraph_size"] >= 1
