"""Property tests: the columnar kernels are value-identical to reference code.

The dictionary-encoded join / entropy / join-informativeness kernels replaced
straightforward row-at-a-time implementations.  These tests keep simplified
copies of the original row-based algorithms as executable references and check
the columnar versions against them on randomized tables — including ``None``
join keys, colliding column names between the two sides, and empty tables.

The g3 error, AFD discovery and the quality measure's correct-record sets
likewise work on dictionary codes; their reference is the raw-tuple
partition code they replaced, which groups the original values (``None``,
``1 == 1.0 == True`` mixes, shared and distinct NaN objects) with python's
own equality.

A re-sampled target-graph evaluation replays its sampler's draws down a join
lineage instead of joining sampled intermediates; its reference joins every
level with :func:`inner_join` and re-samples each intermediate table.  It
then measures the kept rows from the lineage's distinct-row summary; the
reference gathers them and runs the per-row correlation and quality kernels.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infotheory.correlation import attribute_set_correlation, correlation
from repro.infotheory.entropy import (
    entropy_of_codes,
    joint_entropy,
    joint_entropy_of_codes,
    shannon_entropy,
)
from repro.infotheory.join_informativeness import (
    join_informativeness,
    join_informativeness_from_pairs,
)
from repro.exceptions import MeasureError
from repro.graph.target import TargetGraph, _LineageSummary
from repro.pricing.models import FlatAttributePricingModel
from repro.quality.discovery import discover_afds
from repro.quality.fd import FunctionalDependency
from repro.quality.measure import correct_records, join_quality
from repro.relational.joins import (
    _build_hash_index,
    _joined_schema,
    _resolve_join_attributes,
    full_outer_join,
    inner_join,
)
from repro.relational.partitions import (
    correct_row_count,
    correct_row_indices,
    partition,
    partition_error,
)
from repro.relational.schema import Attribute, AttributeType, Schema
from repro.relational.table import Table
from repro.sampling.resampling import ResamplingPolicy
from repro.workloads.tpce import tpce_workload
from repro.workloads.tpch import tpch_workload


# ---------------------------------------------------------------------- data
key_values = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
payload_values = st.one_of(st.none(), st.sampled_from(["p", "q", "r", "s"]))


@st.composite
def joinable_tables(draw):
    """Two tables sharing join columns, a colliding payload name, and maybe no rows."""
    num_join_attrs = draw(st.integers(min_value=1, max_value=2))
    join_names = ["j0", "j1"][:num_join_attrs]
    n_left = draw(st.integers(min_value=0, max_value=25))
    n_right = draw(st.integers(min_value=0, max_value=25))

    def build(name, rows, extra_name):
        columns = {
            join_name: draw(
                st.lists(key_values, min_size=rows, max_size=rows)
            )
            for join_name in join_names
        }
        # "payload" exists on BOTH sides, so the join must rename the right copy
        columns["payload"] = draw(
            st.lists(payload_values, min_size=rows, max_size=rows)
        )
        columns[extra_name] = draw(
            st.lists(payload_values, min_size=rows, max_size=rows)
        )
        schema = Schema(list(columns))
        return Table(name, schema, columns)

    left = build("left", n_left, "left_only")
    right = build("right", n_right, "right_only")
    return left, right, join_names


# ------------------------------------------------------ reference algorithms
def reference_inner_join(left: Table, right: Table, on) -> Table:
    """The original row-at-a-time hash join."""
    join_attrs = _resolve_join_attributes(left, right, on)
    schema, right_extra = _joined_schema(left, right, join_attrs)
    right_index = _build_hash_index(right, join_attrs)
    left_cols = [left.column(a) for a in left.schema.names]
    right_cols = [right.column(a) for a in right_extra]
    rows = []
    for i, key in enumerate(left.key_tuples(join_attrs)):
        if any(v is None for v in key):
            continue
        matches = right_index.get(key)
        if not matches:
            continue
        left_values = tuple(col[i] for col in left_cols)
        for j in matches:
            rows.append(left_values + tuple(col[j] for col in right_cols))
    return Table.from_rows("ref", schema, rows)


def reference_full_outer_join(left: Table, right: Table, on) -> Table:
    """The original row-at-a-time full outer join."""
    join_attrs = _resolve_join_attributes(left, right, on)
    right_extra = [n for n in right.schema.names if n not in join_attrs]
    right_copy_attrs = [right.schema[a].renamed(f"{right.name}.{a}") for a in join_attrs]
    extra_attrs = []
    for n in right_extra:
        attribute = right.schema[n]
        if n in left.schema:
            attribute = attribute.renamed(f"{right.name}.{n}")
        extra_attrs.append(attribute)
    schema = Schema(list(left.schema.attributes) + right_copy_attrs + extra_attrs)
    right_index = _build_hash_index(right, join_attrs)
    matched = set()
    left_cols = [left.column(a) for a in left.schema.names]
    right_join_cols = [right.column(a) for a in join_attrs]
    right_extra_cols = [right.column(a) for a in right_extra]
    rows = []
    for i, key in enumerate(left.key_tuples(join_attrs)):
        left_values = tuple(col[i] for col in left_cols)
        matches = right_index.get(key) if not any(v is None for v in key) else None
        if matches:
            for j in matches:
                matched.add(j)
                rows.append(
                    left_values
                    + tuple(col[j] for col in right_join_cols)
                    + tuple(col[j] for col in right_extra_cols)
                )
        else:
            rows.append(left_values + (None,) * (len(join_attrs) + len(right_extra)))
    pad = (None,) * len(left.schema.names)
    for j in range(len(right)):
        if j in matched:
            continue
        rows.append(
            pad
            + tuple(col[j] for col in right_join_cols)
            + tuple(col[j] for col in right_extra_cols)
        )
    return Table.from_rows("ref", schema, rows)


# ------------------------------------------------------------------- joins
class TestColumnarJoins:
    @settings(max_examples=60, deadline=None)
    @given(joinable_tables())
    def test_inner_join_matches_reference(self, tables):
        left, right, join_names = tables
        result = inner_join(left, right, join_names)
        reference = reference_inner_join(left, right, join_names)
        assert result.schema == reference.schema
        assert list(result.iter_rows()) == list(reference.iter_rows())

    @settings(max_examples=60, deadline=None)
    @given(joinable_tables())
    def test_full_outer_join_matches_reference(self, tables):
        left, right, join_names = tables
        result = full_outer_join(left, right, join_names)
        reference = reference_full_outer_join(left, right, join_names)
        assert result.schema == reference.schema
        assert list(result.iter_rows()) == list(reference.iter_rows())

    def test_empty_both_sides(self):
        left = Table.empty("left", ["k", "a"])
        right = Table.empty("right", ["k", "b"])
        assert len(inner_join(left, right, ["k"])) == 0
        assert len(full_outer_join(left, right, ["k"])) == 0


# ----------------------------------------------------------------- entropy
class TestEncodedEntropy:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(payload_values, max_size=40))
    def test_entropy_of_codes_matches_shannon(self, values):
        table = Table("t", Schema(["x"]), {"x": values})
        encoding = table.encoded("x")
        assert entropy_of_codes(encoding.codes, encoding.num_codes) == pytest.approx(
            shannon_entropy(values)
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=30).flatmap(
        lambda n: st.tuples(
            st.lists(key_values, min_size=n, max_size=n),
            st.lists(payload_values, min_size=n, max_size=n),
        )
    ))
    def test_joint_entropy_of_codes_matches_reference(self, pair):
        x, y = pair
        table = Table("t", Schema(["x", "y"]), {"x": x, "y": y})
        x_enc, y_enc = table.encoded("x"), table.encoded("y")
        assert joint_entropy_of_codes(
            x_enc.codes, y_enc.codes, y_enc.num_codes
        ) == pytest.approx(joint_entropy(x, y))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=30).flatmap(
        lambda n: st.tuples(
            st.lists(key_values, min_size=n, max_size=n),
            st.lists(payload_values, min_size=n, max_size=n),
        )
    ))
    def test_key_statistics_match_reference(self, pair):
        x, y = pair
        table = Table("t", Schema(["x", "y"]), {"x": x, "y": y})
        keys = table.key_tuples(["x", "y"])
        assert table.value_counts(["x", "y"]) == dict(Counter(keys))
        assert table.distinct_count(["x", "y"]) == len(set(keys))
        assert table.key_entropy(["x", "y"]) == pytest.approx(shannon_entropy(keys))


# ------------------------------------------------------------- correlation
@st.composite
def correlation_table(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    numeric = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    categorical = draw(st.lists(payload_values, min_size=n, max_size=n))
    t0 = draw(st.lists(key_values, min_size=n, max_size=n))
    t1 = draw(st.lists(payload_values, min_size=n, max_size=n))
    schema = Schema(
        [
            Attribute("num", AttributeType.NUMERICAL),
            Attribute("cat", AttributeType.CATEGORICAL),
            Attribute("t0", AttributeType.CATEGORICAL),
            Attribute("t1", AttributeType.CATEGORICAL),
        ]
    )
    return Table(
        "t", schema, {"num": numeric, "cat": categorical, "t0": t0, "t1": t1}
    )


class TestColumnarCorrelation:
    @settings(max_examples=60, deadline=None)
    @given(correlation_table())
    def test_attribute_set_correlation_matches_reference(self, table):
        sources = ["num", "cat"]
        targets = ["t0", "t1"]
        target_keys = table.key_tuples(targets)
        reference = sum(
            correlation(
                table.column(attribute),
                target_keys,
                x_type=table.schema.type_of(attribute),
            )
            for attribute in sources
        )
        assert attribute_set_correlation(table, sources, targets) == pytest.approx(
            reference
        )

    def test_empty_table_is_zero(self):
        table = Table.empty("t", ["a", "b"])
        assert attribute_set_correlation(table, ["a"], ["b"]) == 0.0


# ------------------------------------------------- join informativeness (JI)
class TestHistogramJoinInformativeness:
    @settings(max_examples=60, deadline=None)
    @given(joinable_tables())
    def test_histogram_ji_matches_outer_join_pairs(self, tables):
        left, right, join_names = tables
        outer = reference_full_outer_join(left, right, join_names)
        left_keys = outer.key_tuples(join_names)
        right_keys = outer.key_tuples([f"{right.name}.{a}" for a in join_names])
        reference = join_informativeness_from_pairs(left_keys, right_keys)
        assert join_informativeness(left, right, join_names) == pytest.approx(
            reference
        )

    def test_empty_tables_yield_one(self):
        left = Table.empty("left", ["k"])
        right = Table.empty("right", ["k"])
        assert join_informativeness(left, right, ["k"]) == 1.0


# ------------------------------------------------- g3 error / AFD discovery
SHARED_NAN = float("nan")

fd_value_kinds = [
    st.integers(min_value=0, max_value=3),  # all-int
    st.sampled_from([0.0, -0.0, 1.5, 2.5]),  # NaN-free floats
    st.one_of(  # mixed types, equal values of different types, NaNs
        st.none(),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([1, 1.0, True, "u", "v", SHARED_NAN]),
        st.builds(float, st.just("nan")),  # a distinct NaN object per draw
    ),
]


@st.composite
def fd_tables(draw):
    """0-40 rows over 1-4 columns, each column drawn from one value kind."""
    rows = draw(st.integers(min_value=0, max_value=40))
    names = [f"c{i}" for i in range(draw(st.integers(min_value=1, max_value=4)))]
    columns = {}
    for name in names:
        values = draw(st.sampled_from(fd_value_kinds))
        columns[name] = draw(st.lists(values, min_size=rows, max_size=rows))
    return Table("t", Schema(names), columns)


def reference_correct_count(table: Table, lhs, rhs) -> int:
    """The raw-tuple g3 count: partitions on ``lhs`` and on ``lhs ∪ rhs``."""
    lhs_partition = partition(table, lhs)
    both_partition = partition(table, list(lhs) + [a for a in rhs if a not in lhs])
    largest: dict[tuple, int] = {}
    for key, rows in both_partition.items():
        lhs_key = key[: len(lhs)]
        if len(rows) > largest.get(lhs_key, 0):
            largest[lhs_key] = len(rows)
    return sum(largest[key] for key in lhs_partition)


def reference_discover_afds(table: Table, *, max_violation, max_lhs_size, attributes=None):
    """The level-wise loop with one reference count per (LHS, RHS) pair."""
    names = list(attributes) if attributes is not None else list(table.schema.names)
    rows = len(table)
    if rows == 0:
        return []
    discovered = []
    minimal_lhs: dict[str, list[frozenset]] = {name: [] for name in names}
    for lhs_size in range(1, max_lhs_size + 1):
        for lhs in combinations(names, lhs_size):
            lhs_set = frozenset(lhs)
            for rhs in names:
                if rhs in lhs_set or any(found <= lhs_set for found in minimal_lhs[rhs]):
                    continue
                violations = rows - reference_correct_count(table, lhs, (rhs,))
                if violations / rows <= max_violation:
                    discovered.append(FunctionalDependency(lhs, rhs))
                    minimal_lhs[rhs].append(lhs_set)
    discovered.sort(key=lambda fd: (fd.rhs, len(fd.lhs), fd.lhs))
    return discovered


class TestCodeKernelG3:
    @settings(max_examples=60, deadline=None)
    @given(fd_tables())
    def test_correct_counts_and_errors_match_reference(self, table):
        names = list(table.schema.names)
        rows = len(table)
        for size in range(len(names) + 1):  # the empty LHS is one class
            for lhs in combinations(names, size):
                for rhs in [(name,) for name in names] + [tuple(names)]:
                    expected = reference_correct_count(table, lhs, rhs)
                    assert correct_row_count(table, lhs, rhs) == expected
                    error = partition_error(table, lhs, rhs)
                    assert error == (1.0 - expected / rows if rows else 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        fd_tables(),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([0.0, 0.1, 0.25, 0.3]),
        st.data(),
    )
    def test_discovered_afds_match_reference(self, table, max_lhs_size, max_violation, data):
        names = list(table.schema.names)
        attributes = data.draw(
            st.none() | st.lists(st.sampled_from(names), min_size=1, unique=True)
        )
        options = dict(
            max_violation=max_violation, max_lhs_size=max_lhs_size, attributes=attributes
        )
        assert discover_afds(table, **options) == reference_discover_afds(table, **options)

    def test_workload_tables_match_reference(self):
        workloads = [tpch_workload(scale=0.2), tpce_workload(scale=0.15)]
        tables = [
            table
            for workload in workloads
            for name in workload.tables
            for table in (workload.tables[name], workload.dirty_or_clean(name))
        ]
        for table in tables:
            options = dict(max_violation=0.1, max_lhs_size=2)
            assert discover_afds(table, **options) == reference_discover_afds(
                table, **options
            ), table.name


# ----------------------------------------------- correct records / join quality
def reference_correct_rows(table: Table, lhs, rhs) -> set[int]:
    """The raw-tuple correct-record set ``C(D, lhs -> rhs)``.

    Rows are grouped on tuples of their raw values; in each ``pi_lhs`` class
    the largest ``pi_{lhs ∪ rhs}`` class wins, the earliest-seen one on a tie.
    """
    names = list(lhs) + [a for a in rhs if a not in lhs]
    if len(names) == len(lhs):
        return set(range(len(table)))
    columns = [table.column(a) for a in names]
    groups: dict[tuple, list[int]] = {}
    for row, key in enumerate(zip(*columns)):
        groups.setdefault(key, []).append(row)
    best: dict[tuple, list[int]] = {}
    for key, rows in groups.items():
        current = best.get(key[: len(lhs)])
        if current is None or len(rows) > len(current):
            best[key[: len(lhs)]] = rows
    return {row for rows in best.values() for row in rows}


def reference_join_quality(table: Table, fds) -> float:
    """The intersection of the raw-tuple correct sets, over the rows."""
    applicable = [fd for fd in fds if all(a in table.schema for a in fd.attributes)]
    if len(table) == 0 or not applicable:
        return 1.0
    correct = set(range(len(table)))
    for fd in applicable:
        correct &= reference_correct_rows(table, fd.lhs, (fd.rhs,))
    return len(correct) / len(table)


class TestCodeKernelCorrectRecords:
    @settings(max_examples=60, deadline=None)
    @given(fd_tables())
    def test_correct_rows_match_reference(self, table):
        names = list(table.schema.names)
        for size in range(len(names) + 1):
            for lhs in combinations(names, size):
                for rhs in [(name,) for name in names] + [tuple(names)]:
                    expected = reference_correct_rows(table, lhs, rhs)
                    assert correct_row_indices(table, lhs, rhs) == expected
                    if lhs and len(rhs) == 1 and rhs[0] not in lhs:
                        fd = FunctionalDependency(lhs, rhs[0])
                        assert correct_records(table, fd) == expected

    @settings(max_examples=60, deadline=None)
    @given(fd_tables(), st.data())
    def test_join_quality_matches_reference(self, table, data):
        names = list(table.schema.names)
        candidates = [
            FunctionalDependency(lhs, rhs)
            for size in (1, 2)
            for lhs in combinations(names, size)
            for rhs in names
            if rhs not in lhs
        ] + [FunctionalDependency("absent", names[0])]
        fds = data.draw(st.lists(st.sampled_from(candidates), max_size=4))
        assert join_quality(table, fds) == reference_join_quality(table, fds)

    def test_ties_go_to_the_first_seen_sub_class(self):
        # a=1 splits into b="x" (rows 1, 2) and b="y" (rows 0, 3): a tie that
        # "y" wins by appearing first; a=2 has one b, so both its rows stay.
        table = Table.from_rows(
            "t", ["a", "b"], [(1, "y"), (1, "x"), (1, "x"), (1, "y"), (2, "z"), (2, "z")]
        )
        assert correct_row_indices(table, ["a"], ["b"]) == {0, 3, 4, 5}
        assert join_quality(table, [FunctionalDependency("a", "b")]) == 4 / 6


# ------------------------------------------------------- re-sampled join chains
chain_keys = st.sampled_from([0, 1, 2, None])


@st.composite
def join_chains(draw):
    """A tree of 2-4 small tables joined on per-edge keys, with payload columns.

    Node ``i > 0`` joins its parent on ``k<i>``; every node carries a payload
    ``v<i>`` (``v0`` numeric), so the joins grow and re-sampling can fire at
    any level.
    """
    size = draw(st.integers(min_value=2, max_value=4))
    parents = [draw(st.integers(min_value=0, max_value=i)) for i in range(size - 1)]
    tables = {}
    for node in range(size):
        rows = draw(st.integers(min_value=0, max_value=9))
        names = [f"k{node}"] if node else []
        names += [f"k{child + 1}" for child, parent in enumerate(parents) if parent == node]
        columns = {
            name: draw(st.lists(chain_keys, min_size=rows, max_size=rows)) for name in names
        }
        payload = (
            st.one_of(st.none(), st.integers(min_value=0, max_value=5))
            if node == 0
            else st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))
        )
        columns[f"v{node}"] = draw(st.lists(payload, min_size=rows, max_size=rows))
        numeric = {"v0"}
        attributes = [
            Attribute(
                name,
                AttributeType.NUMERICAL if name in numeric else AttributeType.CATEGORICAL,
            )
            for name in columns
        ]
        tables[f"t{node}"] = Table(f"t{node}", Schema(attributes), columns)
    graph = TargetGraph(
        nodes=list(tables),
        edges=[frozenset({f"k{child}"}) for child in range(1, size)],
        parents=parents,
        projections={name: frozenset(table.schema.names) for name, table in tables.items()},
    )
    return graph, tables


def reference_sampled_join(graph: TargetGraph, tables, policy) -> Table:
    """Join level by level with :func:`inner_join`; re-sample each intermediate."""
    joined = tables[graph.nodes[0]]
    for edge_index, name in enumerate(graph.nodes[1:]):
        right = tables[name]
        edge = graph.edges[edge_index]
        on = sorted(a for a in edge if a in joined.schema and a in right.schema)
        joined = policy(inner_join(joined, right, on))
    return joined


def policy_state(policy: ResamplingPolicy) -> tuple:
    return policy._rng.getstate(), policy.cumulative_scale


class TestJoinLineage:
    @settings(max_examples=100, deadline=None)
    @given(
        join_chains(),
        st.integers(min_value=0, max_value=2) | st.integers(min_value=0, max_value=60),
        st.sampled_from([0.3, 0.5, 0.9]),
        st.integers(min_value=0, max_value=20),
    )
    def test_lineage_replays_match_join_then_resample(self, chain, threshold, rate, seed):
        graph, tables = chain
        fds = [FunctionalDependency("k1", "v0")]
        source, target = ["v0"], [f"v{len(graph.nodes) - 1}"]
        pricing = FlatAttributePricingModel()
        policy = ResamplingPolicy(threshold=threshold, rate=rate, seed=seed)
        reference_policy = ResamplingPolicy(threshold=threshold, rate=rate, seed=seed)
        lineages: dict = {}
        # The first evaluation builds the lineage (when the policy fires), the
        # later ones replay it; the reference joins afresh every time.
        for _ in range(3):
            evaluation = graph.evaluate(
                tables,
                source,
                target,
                fds,
                pricing,
                intermediate_hook=policy,
                lineages=lineages,
            )
            reference = reference_sampled_join(graph, tables, reference_policy)
            assert evaluation.join_rows == len(reference)
            correlation = attribute_set_correlation(reference, source, target)
            assert evaluation.correlation == correlation
            assert evaluation.quality == join_quality(reference, fds)
            assert policy_state(policy) == policy_state(reference_policy)
        replayed = graph.joined_table(tables, intermediate_hook=policy)
        reference = reference_sampled_join(graph, tables, reference_policy)
        assert replayed.schema == reference.schema
        assert list(replayed.iter_rows()) == list(reference.iter_rows())
        assert policy_state(policy) == policy_state(reference_policy)

    @pytest.mark.parametrize("threshold, firings", [(10_000, 0), (20, 1), (0, 3)])
    def test_policy_fires_at_no_one_or_several_levels(self, threshold, firings):
        keys = [0, 0, 1, 1, 2, 2]
        tables = {
            "t0": Table.from_rows("t0", ["k1", "v0"], [(k, i) for i, k in enumerate(keys)]),
            "t1": Table.from_rows(
                "t1", ["k1", "k2", "v1"], [(k, k, c) for k, c in zip(keys, "abcabc")]
            ),
            "t2": Table.from_rows(
                "t2", ["k2", "k3", "v2"], [(k, k, c) for k, c in zip(keys, "bcabca")]
            ),
            "t3": Table.from_rows("t3", ["k3", "v3"], [(k, c) for k, c in zip(keys, "cab")]),
        }
        # Unsampled level sizes: 12, 24 and 24 rows (t3 holds key 0 twice, key 1 once).
        graph = TargetGraph(
            nodes=list(tables),
            edges=[frozenset({"k1"}), frozenset({"k2"}), frozenset({"k3"})],
            projections={name: frozenset(t.schema.names) for name, t in tables.items()},
        )
        drawn: list[int] = []
        reference_policy = ResamplingPolicy(threshold=threshold, rate=0.5, seed=4)

        def counting(intermediate):
            out = reference_policy(intermediate)
            if out is not intermediate:
                drawn.append(len(intermediate))
            return out

        policy = ResamplingPolicy(threshold=threshold, rate=0.5, seed=4)
        lineages: dict = {}
        for _ in range(2):
            drawn.clear()
            evaluation = graph.evaluate(
                tables,
                ["v0"],
                ["v3"],
                [],
                FlatAttributePricingModel(),
                intermediate_hook=policy,
                lineages=lineages,
            )
            reference = reference_sampled_join(graph, tables, counting)
            assert len(drawn) == firings
            assert evaluation.join_rows == len(reference)
            correlation = attribute_set_correlation(reference, ["v0"], ["v3"])
            assert evaluation.correlation == correlation
            assert policy_state(policy) == policy_state(reference_policy)
        assert len(lineages) == (1 if firings else 0)

    @staticmethod
    def numeric_source_chain(v0):
        """``t0(k1, v0) ⋈ t1(k1, v1)`` on six rows a side: 12 joined rows, all
        with ``v1 == "a"``, and a numerical ``v0`` given per ``t0`` row."""
        keys = [0, 0, 1, 1, 2, 2]
        schema = Schema(
            [
                Attribute("k1", AttributeType.CATEGORICAL),
                Attribute("v0", AttributeType.NUMERICAL),
            ]
        )
        tables = {
            "t0": Table("t0", schema, {"k1": keys, "v0": v0}),
            "t1": Table.from_rows("t1", ["k1", "v1"], [(k, "a") for k in keys]),
        }
        graph = TargetGraph(
            nodes=["t0", "t1"],
            edges=[frozenset({"k1"})],
            projections={name: frozenset(t.schema.names) for name, t in tables.items()},
        )
        return graph, tables

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_a_non_finite_source_takes_the_per_row_route(self, bad):
        # Half the joined rows hold ``bad``: the per-row estimator subtracts
        # inf - inf (or sorts a NaN) and returns NaN, which the run-length
        # kernel would not reproduce.
        graph, tables = self.numeric_source_chain([bad, 1.0, bad, 2.0, bad, 3.0])
        policy = ResamplingPolicy(threshold=4, rate=0.9, seed=1)
        reference_policy = ResamplingPolicy(threshold=4, rate=0.9, seed=1)
        lineages: dict = {}
        for _ in range(3):
            evaluation = graph.evaluate(
                tables, ["v0"], ["v1"], [], FlatAttributePricingModel(),
                intermediate_hook=policy, lineages=lineages,
            )
            reference = reference_sampled_join(graph, tables, reference_policy)
            expected = attribute_set_correlation(reference, ["v0"], ["v1"])
            assert evaluation.correlation.hex() == expected.hex()
        (lineage,) = lineages.values()
        assert lineage.summary.group_of is None

    def test_each_request_gets_its_own_summary(self):
        # One lineage memo serves two requests on the same graph.  v0 is 1.0
        # under k1 = 0 and 2 and 2.0 under k1 = 0 and 1, so the requests'
        # correlations differ and v0 -> k1 is violated.
        graph, tables = self.numeric_source_chain([1.0, 2.0, 2.0, 5.0, 1.0, 7.0])
        policy = ResamplingPolicy(threshold=4, rate=0.7, seed=3)
        reference_policy = ResamplingPolicy(threshold=4, rate=0.7, seed=3)
        requests = [(["v0"], ["k1"], []), (["k1"], ["v0"], [FunctionalDependency("v0", "k1")])]
        lineages: dict = {}
        for sources, targets, fds in requests * 2:
            evaluation = graph.evaluate(
                tables, sources, targets, fds, FlatAttributePricingModel(),
                intermediate_hook=policy, lineages=lineages,
            )
            reference = reference_sampled_join(graph, tables, reference_policy)
            expected = attribute_set_correlation(reference, sources, targets)
            assert evaluation.correlation.hex() == expected.hex()
            assert evaluation.quality == join_quality(reference, fds)

    def test_an_int_beyond_float_range_fails_as_a_measure_error(self):
        graph, tables = self.numeric_source_chain([10**400] * 6)
        policy = ResamplingPolicy(threshold=4, rate=0.9, seed=1)
        lineages: dict = {}
        for _ in range(2):
            with pytest.raises(MeasureError, match="float range"):
                graph.evaluate(
                    tables, ["v0"], ["v1"], [], FlatAttributePricingModel(),
                    intermediate_hook=policy, lineages=lineages,
                )


# ------------------------------------------------ distinct-row (grouped) measures
numeric_value_kinds = [
    st.integers(min_value=0, max_value=3),
    st.sampled_from([0.0, -0.0, 1.5, 2.5]),
    st.one_of(st.none(), st.sampled_from([0, 1, 1.0, True, 2, 2.5, -0.0, 0.0])),
]


@st.composite
def summarised_joins(draw):
    """A final join, an evaluation request on it and the byte mask of the
    rows a replay keeps.

    ``num`` is a numerical source; ``cat``, the targets ``t0``/``t1`` and the
    FD columns ``f0``/``f1`` draw from the value kinds of :func:`fd_tables`
    (``None``, ``1 == 1.0 == True``, NaN objects).  Small domains make
    repeated rows, FD violations and tied sub-classes common.
    """
    rows = draw(st.integers(min_value=0, max_value=40))

    def column(kinds):
        return draw(st.lists(draw(st.sampled_from(kinds)), min_size=rows, max_size=rows))

    columns = {"num": column(numeric_value_kinds)}
    for name in ("cat", "t0", "t1", "f0", "f1"):
        columns[name] = column(fd_value_kinds)
    schema = Schema(
        [Attribute("num", AttributeType.NUMERICAL)]
        + [Attribute(name, AttributeType.CATEGORICAL) for name in list(columns)[1:]]
    )
    table = Table("joined", schema, columns)
    sources = draw(
        st.lists(
            st.sampled_from(["num", "cat", "absent"]), min_size=1, max_size=3, unique=True
        )
    )
    targets = draw(st.sampled_from([["t0"], ["t0", "t1"], ["t1", "f0"], ["absent"]]))
    names = ["f0", "f1", "t0", "cat", "num"]
    candidates = [
        FunctionalDependency(lhs, rhs)
        for size in (1, 2)
        for lhs in combinations(names, size)
        for rhs in names
        if rhs not in lhs
    ] + [FunctionalDependency("absent", "f0")]
    fds = draw(st.lists(st.sampled_from(candidates), max_size=3))
    kept = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    return table, sources, targets, fds, bytes(kept)


class TestDistinctRowMeasures:
    @settings(max_examples=200, deadline=None)
    @given(summarised_joins())
    def test_grouped_measures_match_the_per_row_kernels(self, case):
        table, sources, targets, fds, mask = case
        rows = [row for row, keep in enumerate(mask) if keep]
        request = (tuple(sources), tuple(targets), tuple(fds))
        summary = _LineageSummary(table, request, weight=0.0, price=0.0)
        assert summary.group_of is not None
        evaluation = summary.evaluate(mask)
        sample = table.take(rows)
        correlation = attribute_set_correlation(sample, sources, targets)
        assert evaluation.correlation.hex() == correlation.hex()
        assert evaluation.quality.hex() == join_quality(sample, fds).hex()
        assert evaluation.join_rows == len(rows)

    def test_ties_go_to_the_first_kept_sub_class(self):
        # Kept rows 1-3 leave a=1 with b="x" (rows 1, 2) against b="y"
        # (row 3); all six rows tie, and "y" wins by appearing first.
        table = Table.from_rows(
            "t", ["a", "b"], [(1, "y"), (1, "x"), (1, "x"), (1, "y"), (2, "z"), (2, "z")]
        )
        fds = [FunctionalDependency("a", "b")]
        summary = _LineageSummary(table, ((), (), tuple(fds)), weight=0.0, price=0.0)

        def mask(rows):
            return bytes(row in rows for row in range(len(table)))

        for rows in ([0, 1, 2, 3, 4, 5], [1, 2, 3], [0, 3, 4]):
            expected = join_quality(table.take(rows), fds)
            assert summary.evaluate(mask(rows)).quality == expected
        assert summary.evaluate(mask(range(6))).quality == 4 / 6
        assert summary.evaluate(mask([1, 2, 3])).quality == 2 / 3
