"""Property tests: the columnar kernels are value-identical to reference code.

The probe join and the dictionary-encoded entropy / join-informativeness
kernels replaced straightforward row-at-a-time implementations.  These tests
keep simplified copies of the original row-based algorithms as executable
references and check the columnar versions against them on randomized tables
— including ``None``, ``1 == 1.0 == True`` and NaN join keys, colliding column
names between the two sides, and empty tables.

The g3 error, AFD discovery and the quality measure's correct-record sets
likewise work on dictionary codes; their reference is the raw-tuple
partition code they replaced, which groups the original values (``None``,
``1 == 1.0 == True`` mixes, shared and distinct NaN objects) with python's
own equality.

A re-sampled target-graph evaluation is checked against a reference that
projects each table, joins every level with :func:`inner_join`, re-samples
each intermediate under the policy the hook derives for the graph, and runs
the per-row correlation and quality kernels on what is left.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings
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
from repro.graph.join_graph import JoinGraph
from repro.graph.target import TargetGraph
from repro.core.config import DanceConfig
from repro.core.dance import DANCE
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.pricing.models import EntropyPricingModel, FlatAttributePricingModel
from repro.quality.discovery import discover_afds
from repro.quality.fd import FunctionalDependency
from repro.quality.measure import correct_records, join_quality
from repro.relational.joins import _joined_schema, _resolve_join_attributes, inner_join
from repro.relational.partitions import (
    correct_row_count,
    correct_row_indices,
    partition,
    partition_error,
)
from repro.relational.schema import Attribute, AttributeType, Schema
from repro.relational.table import Table
from repro.sampling.resampling import ResamplingPolicy
from repro.search.mcmc import MCMCConfig, mcmc_search
from repro.workloads.tpce import tpce_workload
from repro.workloads.tpch import tpch_workload


# ---------------------------------------------------------------------- data
key_values = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
payload_values = st.one_of(st.none(), st.sampled_from(["p", "q", "r", "s"]))
SHARED_NAN = float("nan")
# Join keys under dict equality: 1, 1.0 and True are one key, strings, a NaN
# object that either side may hold (it matches only itself), and a distinct
# NaN object per draw (it matches nothing).
join_key_values = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1, 1.0, True, "u", "v", SHARED_NAN]),
    st.builds(float, st.just("nan")),
)


@st.composite
def joinable_tables(draw):
    """Two tables sharing one or two join columns (mixed-type, NaN and ``None``
    key values), a colliding payload name, and maybe no rows."""
    num_join_attrs = draw(st.integers(min_value=1, max_value=2))
    join_names = ["j0", "j1"][:num_join_attrs]
    n_left = draw(st.integers(min_value=0, max_value=25))
    n_right = draw(st.integers(min_value=0, max_value=25))

    def build(name, rows, extra_name):
        columns = {
            join_name: draw(
                st.lists(join_key_values, min_size=rows, max_size=rows)
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
def _build_hash_index(table: Table, attrs) -> dict[tuple, list[int]]:
    index: dict[tuple, list[int]] = {}
    for row_index, key in enumerate(table.key_tuples(attrs)):
        if any(value is None for value in key):
            continue
        index.setdefault(key, []).append(row_index)
    return index


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
# Pinned: 1, 1.0 and True across the sides, a NaN object on both sides next
# to distinct NaNs, and equal two-attribute keys with a None component.
DICT_EQUALITY_CASE = (
    Table.from_rows(
        "left",
        ["j0", "j1", "payload"],
        [(1, "u", "a"), (True, "u", "b"), (SHARED_NAN, "u", "c"),
         (float("nan"), "u", "d"), ("v", None, "e"), (2, "u", "f")],
    ),
    Table.from_rows(
        "right",
        ["j0", "j1", "payload"],
        [(1.0, "u", "p"), (SHARED_NAN, "u", "q"), (float("nan"), "u", "r"),
         ("v", None, "s"), (True, "u", "t")],
    ),
    ["j0", "j1"],
)


class TestColumnarJoins:
    @settings(max_examples=60, deadline=None)
    @given(joinable_tables())
    @example(DICT_EQUALITY_CASE)
    def test_inner_join_matches_reference(self, tables):
        left, right, join_names = tables
        result = inner_join(left, right, join_names)
        reference = reference_inner_join(left, right, join_names)
        assert result.schema == reference.schema
        assert list(result.iter_rows()) == list(reference.iter_rows())

    def test_empty_both_sides(self):
        left = Table.empty("left", ["k", "a"])
        right = Table.empty("right", ["k", "b"])
        assert len(inner_join(left, right, ["k"])) == 0


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
# Keys and payloads under dict equality: 1, 1.0 and True are one value, a
# NaN object the tables may share matches only itself, and a NaN built per
# draw matches nothing.
def _fresh_nan(value):
    return float("nan") if value == "new nan" else value


chain_keys = st.sampled_from([0, 1, 1.0, True, None, SHARED_NAN, "new nan"]).map(_fresh_nan)
# A two-attribute key's second component: one value under three spellings,
# or None.
second_keys = st.sampled_from([1, 1.0, True, None])
chain_payloads = st.sampled_from(
    ["a", "b", "c", None, 1, 1.0, True, SHARED_NAN, "new nan"]
).map(_fresh_nan)
# The shared ``w``, which edges may also join on: fewer values, so such
# joins match.
shared_payloads = st.sampled_from(["a", 1, 1.0, True, None, SHARED_NAN])
numeric_payloads = st.one_of(
    st.none(), st.integers(min_value=0, max_value=5), st.sampled_from([1.0, True])
)


@st.composite
def join_chains(draw):
    """A tree of 1-4 small tables, its projections, and a request on its join.

    Node ``i > 0`` joins its parent on ``k<i>``, and also on ``j<i>`` or on
    ``w`` when the edge has two attributes.  Every node carries a payload
    ``v<i>`` (``v0`` numeric) and a shared ``w``, which the join renames
    ``t<i>.w`` in every projection after the first that keeps it as a
    non-join attribute.  An edge on ``w`` reads the accumulated join's
    ``w``, which an earlier node than the parent may hold, so its key can
    span two input tables.
    A projection keeps its node's join attributes and a drawn subset of the
    rest; a one-node graph's may keep nothing, which reads the whole table.
    The request's one or two sources (numerical or categorical) and one or
    two targets, and its FDs (with one- and two-attribute LHSs, renamed
    columns among them, and one the join cannot carry), are drawn from the
    join's attributes.  Keys and payloads mix ``1``, ``1.0``, ``True``,
    ``None`` and NaN objects, so the joins grow and re-sampling can fire at
    any level.
    """
    size = draw(st.integers(min_value=1, max_value=4))
    parents = [draw(st.integers(min_value=0, max_value=i)) for i in range(size - 1)]
    keys = []
    for child in range(size):
        second = draw(st.sampled_from([None, f"j{child}", "w"]))
        keys.append([f"k{child}"] + ([second] if second else []))
    tables = {}
    for node in range(size):
        rows = draw(
            st.integers(min_value=0, max_value=9) | st.integers(min_value=4, max_value=9)
        )
        names = list(keys[node]) if node else []
        for child, parent in enumerate(parents, start=1):
            if parent == node:
                names += keys[child]
        names = [name for name in names if name != "w"]
        columns = {
            name: draw(
                st.lists(
                    chain_keys if name[0] == "k" else second_keys,
                    min_size=rows,
                    max_size=rows,
                )
            )
            for name in names
        }
        payload = numeric_payloads if node == 0 else chain_payloads
        columns[f"v{node}"] = draw(st.lists(payload, min_size=rows, max_size=rows))
        columns["w"] = draw(st.lists(shared_payloads, min_size=rows, max_size=rows))
        attributes = [
            Attribute(
                name, AttributeType.NUMERICAL if name == "v0" else AttributeType.CATEGORICAL
            )
            for name in columns
        ]
        tables[f"t{node}"] = Table(f"t{node}", Schema(attributes), columns)
    edges = [frozenset(keys[child]) for child in range(1, size)]
    required = TargetGraph(nodes=list(tables), edges=edges, parents=parents)
    projections = {
        name: required.projections[name]
        | {a for a in table.schema.names if draw(st.booleans())}
        for name, table in tables.items()
    }
    graph = TargetGraph(
        nodes=list(tables), edges=edges, parents=parents, projections=projections
    )
    names = list(reference_sampled_join(graph, tables, lambda table: table).schema.names)
    sources = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    targets = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    candidates = [
        FunctionalDependency(lhs, rhs)
        for lhs_size in (1, 2)
        for lhs in combinations(names, lhs_size)
        for rhs in names
        if rhs not in lhs
    ]
    fds = draw(st.lists(st.sampled_from(candidates), max_size=3)) if candidates else []
    fds.append(FunctionalDependency("t9.w", "v0"))
    return graph, tables, sources, targets, fds


def reference_sampled_join(graph: TargetGraph, tables, policy) -> Table:
    """Project each table by the graph's projections, join level by level
    with :func:`inner_join` on each edge's attributes, and re-sample each
    intermediate with ``policy``."""
    projected = {}
    for name in graph.nodes:
        keep = [a for a in tables[name].schema.names if a in graph.projections[name]]
        projected[name] = tables[name].project(keep) if keep else tables[name]
    joined = projected[graph.nodes[0]]
    for edge_index, name in enumerate(graph.nodes[1:]):
        right = projected[name]
        edge = graph.edges[edge_index]
        on = sorted(a for a in edge if a in joined.schema and a in right.schema)
        joined = policy(inner_join(joined, right, on))
    return joined


def reference_evaluation(graph: TargetGraph, tables, source, target, fds, policy) -> tuple:
    """The rows, correlation and quality (as ``float.hex``) of the graph's
    join re-sampled by the graph's own policy, measured by the per-row
    kernels."""
    sample = reference_sampled_join(graph, tables, policy.for_graph(graph.signature()))
    return (
        len(sample),
        attribute_set_correlation(sample, source, target).hex(),
        join_quality(sample, fds).hex(),
    )


def measured(evaluation) -> tuple:
    return evaluation.join_rows, evaluation.correlation.hex(), evaluation.quality.hex()


def _multi_table_key_case():
    """``t0 ⋈ t1 ⋈ t2``, where ``t2`` joins on ``{k2, w}``: ``k2`` is its
    parent ``t1``'s, but the join's ``w`` is ``t0``'s (``t1``'s is renamed
    ``t1.w``), so the key spans two tables.  An FD names ``t1.w``; the
    request reads a categorical source and two targets."""
    keys = [0, 1, True, 1.0, None, SHARED_NAN]
    tables = {
        "t0": Table.from_rows(
            "t0",
            ["k1", "w", "v0"],
            [(k, "a" if i % 2 else 1, i % 3) for i, k in enumerate(keys)],
        ),
        "t1": Table.from_rows(
            "t1", ["k1", "k2", "w", "v1"],
            [(k, i % 2, "a" if i % 3 else True, "bc"[i % 2]) for i, k in enumerate(keys * 2)],
        ),
        "t2": Table.from_rows(
            "t2", ["k2", "w", "v2"], [(i % 2, "a" if i % 2 else 1.0, i) for i in range(8)]
        ),
    }
    graph = TargetGraph(
        nodes=list(tables),
        edges=[frozenset({"k1"}), frozenset({"k2", "w"})],
        projections={name: frozenset(table.schema.names) for name, table in tables.items()},
    )
    fds = [FunctionalDependency("t1.w", "v1"), FunctionalDependency(("k1", "k2"), "v2")]
    return graph, tables, ["v1"], ["v2", "t1.w"], fds


def _fd_skip_case():
    """``t0 ⋈ t1 ⋈ t2`` on ``k1`` and ``k2``, with FDs that the quality
    measure may and may not skip on the row-vector join.

    * ``k1 -> v1`` holds on ``t1``, which reads the join's ``k1`` (``t0``'s)
      only through the join attribute, and ``t2`` repeats ``t1``'s rows
      whose ``k2`` is 0, so it holds under fan-out: skipped.
    * ``t1.w -> v1`` has the same RHS on ``t1`` and fails there (``w`` is
      ``"z"`` on every row), and in the join.
    * ``v1 -> w`` holds on ``t1`` through its own ``w``, but the join's
      ``w`` is ``t0``'s (``t1``'s is renamed ``t1.w``), which it fails on.

    The unsampled join keeps 4 of its 7 rows as correct, and the draw at
    threshold 0, rate 0.9 and seed 9, which fires at both levels, keeps 2
    of 5; skipping either failing FD keeps more."""
    tables = {
        "t0": Table(
            "t0",
            Schema(
                [
                    Attribute("k1", AttributeType.CATEGORICAL),
                    Attribute("w", AttributeType.CATEGORICAL),
                    Attribute("v0", AttributeType.NUMERICAL),
                ]
            ),
            {"k1": [0, 1, 2, 0], "w": ["a", "b", "a", "b"], "v0": [1.0, 2.0, 3.0, 4.0]},
        ),
        "t1": Table.from_rows(
            "t1",
            ["k1", "k2", "v1", "w"],
            [(0, 0, "x", "z"), (1, 0, "x", "z"), (2, 1, "y", "z")],
        ),
        "t2": Table.from_rows("t2", ["k2", "v2"], [(0, "p"), (0, "q"), (1, "p")]),
    }
    graph = TargetGraph(
        nodes=list(tables),
        edges=[frozenset({"k1"}), frozenset({"k2"})],
        projections={name: frozenset(table.schema.names) for name, table in tables.items()},
    )
    fds = [
        FunctionalDependency("k1", "v1"),
        FunctionalDependency("t1.w", "v1"),
        FunctionalDependency("v1", "w"),
    ]
    return graph, tables, ["v0"], ["v2"], fds


class TestJoinLineage:
    """An evaluation against the reference: join the projected tables level
    by level with the materialising :func:`inner_join` and re-sample each
    intermediate as it is joined, under the policy the hook derives for the
    graph."""

    @settings(max_examples=150, deadline=None)
    @given(
        join_chains(),
        st.integers(min_value=0, max_value=2) | st.integers(min_value=0, max_value=60),
        st.sampled_from([0.3, 0.5, 0.9]),
        st.integers(min_value=0, max_value=20),
    )
    @example(_multi_table_key_case(), 10, 0.5, 3)
    @example(_fd_skip_case(), 10_000, 0.5, 0)
    @example(_fd_skip_case(), 0, 0.9, 9)
    def test_lineage_replays_match_join_then_resample(self, chain, threshold, rate, seed):
        graph, tables, source, target, fds = chain
        pricing = FlatAttributePricingModel()
        policy = ResamplingPolicy(threshold=threshold, rate=rate, seed=seed)
        state = policy._rng.getstate()
        expected = reference_evaluation(graph, tables, source, target, fds, policy)
        # Every evaluation of the graph is the same draw.
        for _ in range(3):
            evaluation = graph.evaluate(
                tables, source, target, fds, pricing, intermediate_hook=policy
            )
            assert measured(evaluation) == expected
        for hook in (policy, None):
            joined = graph.joined_table(tables, intermediate_hook=hook)
            reference = reference_sampled_join(
                graph,
                tables,
                policy.for_graph(graph.signature()) if hook else (lambda table: table),
            )
            assert joined.schema == reference.schema
            assert joined.name == reference.name
            assert joined == reference
            assert all(type(column) is list for column in joined._columns.values())
        # The hook itself is never drawn from.
        assert policy._rng.getstate() == state

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
        policy = ResamplingPolicy(threshold=threshold, rate=0.5, seed=4)
        derived = policy.for_graph(graph.signature())
        drawn: list[int] = []

        def counting(intermediate):
            out = derived(intermediate)
            if out is not intermediate:
                drawn.append(len(intermediate))
            return out

        reference = reference_sampled_join(graph, tables, counting)
        assert len(drawn) == firings
        for _ in range(2):
            # The graph's policy is derived where the first level fires, so
            # an evaluation that never fires derives none.
            derive_policy = ResamplingPolicy.for_graph
            with mock.patch.object(
                ResamplingPolicy, "for_graph", autospec=True, side_effect=derive_policy
            ) as derive:
                evaluation = graph.evaluate(
                    tables, ["v0"], ["v3"], [], FlatAttributePricingModel(),
                    intermediate_hook=policy,
                )
            assert derive.call_count == (1 if firings else 0)
            assert evaluation.join_rows == len(reference)
            correlation = attribute_set_correlation(reference, ["v0"], ["v3"])
            assert evaluation.correlation == correlation

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
        # inf - inf (or sorts a NaN) and returns NaN, and so does the
        # evaluation, which measures with the per-row kernels.
        graph, tables = self.numeric_source_chain([bad, 1.0, bad, 2.0, bad, 3.0])
        policy = ResamplingPolicy(threshold=4, rate=0.9, seed=1)
        expected = reference_evaluation(graph, tables, ["v0"], ["v1"], [], policy)
        evaluation = graph.evaluate(
            tables, ["v0"], ["v1"], [], FlatAttributePricingModel(), intermediate_hook=policy
        )
        assert measured(evaluation) == expected

    def test_each_request_gets_its_own_summary(self):
        # Two requests on the same graph measure its one draw each with its
        # own attributes and FDs.  v0 is 1.0 under k1 = 0 and 2 and 2.0
        # under k1 = 0 and 1, so the requests' correlations differ and
        # v0 -> k1 is violated.
        graph, tables = self.numeric_source_chain([1.0, 2.0, 2.0, 5.0, 1.0, 7.0])
        policy = ResamplingPolicy(threshold=4, rate=0.7, seed=3)
        requests = [(["v0"], ["k1"], []), (["k1"], ["v0"], [FunctionalDependency("v0", "k1")])]
        for sources, targets, fds in requests * 2:
            evaluation = graph.evaluate(
                tables, sources, targets, fds, FlatAttributePricingModel(),
                intermediate_hook=policy,
            )
            expected = reference_evaluation(graph, tables, sources, targets, fds, policy)
            assert measured(evaluation) == expected

    def test_an_int_beyond_float_range_fails_as_a_measure_error(self):
        graph, tables = self.numeric_source_chain([10**400] * 6)
        policy = ResamplingPolicy(threshold=4, rate=0.9, seed=1)
        with pytest.raises(MeasureError, match="float range"):
            graph.evaluate(
                tables, ["v0"], ["v1"], [], FlatAttributePricingModel(),
                intermediate_hook=policy,
            )

    def test_two_graphs_evaluate_alike_in_either_order(self):
        """A graph's draw depends on that graph alone: evaluating another
        graph first, under the same policy object, changes nothing."""
        first, tables = self.numeric_source_chain([1.0, 2.0, 2.0, 5.0, 1.0, 7.0])
        second = first.with_projection("t1", {"k1"})
        policy = ResamplingPolicy(threshold=4, rate=0.5, seed=2)
        arguments = (tables, ["v0"], ["v1", "k1"], [], FlatAttributePricingModel())
        forwards = [g.evaluate(*arguments, intermediate_hook=policy) for g in (first, second)]
        backwards = [g.evaluate(*arguments, intermediate_hook=policy) for g in (second, first)]
        assert forwards == backwards[::-1]
        assert forwards[0] != forwards[1]

    def test_a_revisited_fired_graph_is_a_memo_hit(self):
        """A walk memoises a fired evaluation: revisiting the graph reads the
        memo, and the memoised value is the cold evaluation's."""
        graph, tables = self.numeric_source_chain([1.0, 2.0, 2.0, 5.0, 1.0, 7.0])
        policy = ResamplingPolicy(threshold=4, rate=0.5, seed=2)
        join_graph = JoinGraph(tables, pricing=FlatAttributePricingModel())
        cache: dict = {}
        result = mcmc_search(
            join_graph, graph, tables, ["v0"], ["v1"], [],
            budget=1e9, config=MCMCConfig(iterations=5, seed=0, record_trace=True),
            intermediate_hook=policy, evaluation_cache=cache,
        )
        assert (result.evaluation_cache_misses, result.evaluation_cache_hits) == (1, 0)
        assert list(cache) == [graph.signature()]
        again = mcmc_search(
            join_graph, graph, tables, ["v0"], ["v1"], [],
            budget=1e9, config=MCMCConfig(iterations=5, seed=0, record_trace=True),
            intermediate_hook=policy, evaluation_cache=cache,
        )
        assert (again.evaluation_cache_misses, again.evaluation_cache_hits) == (0, 1)
        cold = graph.evaluate(
            tables, ["v0"], ["v1"], [], FlatAttributePricingModel(), intermediate_hook=policy
        )
        assert cache[graph.signature()] == cold
        assert cold.join_rows < len(graph.joined_table(tables))


class TestFiredTpchReplays:
    """A fired evaluation at the scale a walk makes it.  The other oracles
    join small tables, whose partitions rarely hold 40 sampled rows; here
    TPC-H Q1's fired graph ``customer ⋈ orders ⋈ supplier ⋈ nation``
    (joined on custkey, h_segment and nationkey, as the golden scenario's
    walks fire on it) is joined from the unprojected samples and FDs of
    TPC-H 1.0's offline phase.  Its final join holds hundreds of distinct
    rows over the five market segments, and violates one of the discovered
    FDs.
    """

    def test_replays_match_join_then_resample(self):
        workload = tpch_workload(scale=1.0, seed=0)
        pricing = EntropyPricingModel()
        marketplace = Marketplace(default_pricing=pricing)
        for name in workload.tables:
            marketplace.host(
                MarketplaceDataset(table=workload.dirty_or_clean(name), pricing=pricing)
            )
        dance = DANCE(marketplace, DanceConfig(sampling_rate=0.5))
        dance.build_offline()
        tables, fds = dance.join_graph.instance_tables(), dance.fds
        graph = TargetGraph(
            nodes=["customer", "orders", "supplier", "nation"],
            edges=[frozenset({"custkey"}), frozenset({"h_segment"}), frozenset({"nationkey"})],
            parents=[0, 0, 2],
            projections={
                "customer": frozenset({"custkey", "h_segment", "mktsegment"}),
                "orders": frozenset({"custkey", "totalprice"}),
                "supplier": frozenset({"h_segment", "nationkey"}),
                "nation": frozenset({"nationkey"}),
            },
        )
        source, target = ["totalprice"], ["mktsegment"]
        # Unprojected, nation would meet customer's nationkey rather than its
        # parent supplier's; the reference projects as the evaluation does.
        unsampled = reference_sampled_join(graph, tables, lambda table: table)
        assert len(unsampled) == len(graph.joined_table(tables)) == 374
        assert len(set(zip(*map(unsampled.column, unsampled.schema.names)))) > 300
        assert len(set(unsampled.column("mktsegment"))) == 5
        assert join_quality(unsampled, fds) < 1.0
        # Every level fires; at rate 0.9 a draw keeps about 270 of the final
        # join's 374 rows, more than 40 of them in some market segment.
        largest_segment = 0
        for seed in range(20):
            policy = ResamplingPolicy(threshold=16, rate=0.9, seed=seed)
            evaluation = graph.evaluate(
                tables, source, target, fds, pricing, intermediate_hook=policy
            )
            expected = reference_evaluation(graph, tables, source, target, fds, policy)
            assert measured(evaluation) == expected
            sample = reference_sampled_join(graph, tables, policy.for_graph(graph.signature()))
            segments = Counter(sample.column("mktsegment"))
            largest_segment = max([largest_segment, *segments.values()])
        assert largest_segment > 40
