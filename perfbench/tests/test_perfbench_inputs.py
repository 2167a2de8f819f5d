"""The workload inputs are a function of the seed, and only of the seed."""

import itertools
from collections import Counter

from perfbench import workloads
from perfbench.workloads import SCENARIOS, Scenario

TINY_TPCH = Scenario("fresh-tpch", "tpch", scale=0.2, generation_seed=0)


def _rows(tables):
    return {name: list(table.iter_rows()) for name, table in tables.items()}


def test_tables_repeat_per_seed_and_permute_across_seeds():
    first, first_variants = workloads.generate_tables(TINY_TPCH, 3)
    again, again_variants = workloads.generate_tables(TINY_TPCH, 3)
    other, _ = workloads.generate_tables(TINY_TPCH, 4)
    assert _rows(first) == _rows(again)
    clean = {name: pair[0] for name, pair in first_variants.items()}
    assert _rows(clean) == _rows({name: pair[0] for name, pair in again_variants.items()})
    assert _rows(first) != _rows(other)
    for name in first:
        assert Counter(first[name].iter_rows()) == Counter(other[name].iter_rows())


def test_operations_repeat_per_seed():
    for scenario in SCENARIOS.values():
        instances = ["a", "b", "c"]

        def take(seed, scenario=scenario):
            return list(itertools.islice(workloads.operations(scenario, seed, instances), 80))

        assert take(5) == take(5)
        assert take(5) != take(6) or scenario.kind == "fresh"


def test_fresh_blocks_serve_the_same_pairs_for_every_seed():
    scenario = SCENARIOS["fresh-tpch"]

    def pairs(seed):
        ops = itertools.islice(workloads.operations(scenario, seed, []), 30)
        return sorted((op.query, op.seed) for op in ops)

    assert pairs(1) == pairs(2)
    orders = {
        tuple(op.query for op in itertools.islice(workloads.operations(scenario, s, []), 30))
        for s in range(4)
    }
    assert len(orders) > 1
    seeds = [op.seed for op in itertools.islice(workloads.operations(scenario, 1, []), 300)]
    assert len(set(seeds)) == len(seeds)  # every read a seed never used before


def test_churn_writes_every_tenth_read_in_a_seeded_order():
    scenario = SCENARIOS["churn-tpce"]
    instances = sorted(workloads.generate_tables(
        Scenario("churn-tpce", "tpce", scale=0.15, generation_seed=1), 0)[1])
    ops = list(itertools.islice(workloads.operations(scenario, 7, instances), 11 * 12))
    writes = [op for op in ops if op.kind == "write"]
    assert [op.index for op in writes] == [11 * block + 10 for block in range(12)]
    for cycle in range(2):
        chunk = writes[cycle * len(instances):(cycle + 1) * len(instances)]
        assert sorted(op.instance for op in chunk) == instances
    assert all(op.block_end == (op.kind == "write") for op in ops)


def test_pool_order_derives_from_the_seed():
    scenario = SCENARIOS["hot-tpce"]
    assert workloads.read_pool(scenario, 1) == workloads.read_pool(scenario, 1)
    assert workloads.read_pool(scenario, 1) != workloads.read_pool(scenario, 2)
    assert sorted(workloads.read_pool(scenario, 1)) == sorted(workloads.read_pool(scenario, 2))
    assert Counter(query for query, _ in workloads.read_pool(scenario, 1)) == {
        "Q1": 4, "Q2": 4, "Q3": 4,
    }


def test_churn_tallies_only_reads_in_order_independent_states():
    scenario = SCENARIOS["churn-tpce"]
    instances = ["a", "b", "c"]

    def tallied(seed):
        ops = itertools.islice(workloads.operations(scenario, seed, instances), 11 * 9)
        return [(op.index, op.query, op.seed) for op in ops if op.kind == "read" and op.tally]

    # Blocks 0, 3 and 6: before any write and after each full cycle of swaps.
    assert [index // 11 for index, _, _ in tallied(1)] == [0] * 10 + [3] * 10 + [6] * 10
    assert tallied(1) == tallied(2)


def test_every_workload_serves_enough_reads_for_its_p95():
    from perfbench import stats

    for scenario in SCENARIOS.values():
        assert stats.beyond(0.95, scenario.min_reads) >= stats.MIN_BEYOND



def test_phase_reads_is_whole_blocks_of_at_least_min_reads():
    fresh, hot, churn = (SCENARIOS[name] for name in ("fresh-tpch", "hot-tpce", "churn-tpce"))
    instances = ["a", "b", "c", "d", "e", "f"]
    assert workloads.phase_reads(fresh, 20, []) == 300
    assert workloads.phase_reads(fresh, 1, []) == 201  # min_reads, up to a whole block
    assert workloads.phase_reads(hot, 20, []) == 3000
    assert workloads.phase_reads(churn, 20, instances) == 300
    assert workloads.phase_reads(churn, 24, instances) == 360
