"""Tests for the unified :class:`~repro.search.plan.ExecutionPlan` (PR 8).

The contracts under test: the plan is the single source of truth for
executor/chains/pool configuration; the ``MCMCConfig(chains=, executor=)``
shorthand maps onto an equivalent plan without warning; and a plan produces
bit-identical results to that shorthand.
"""

from __future__ import annotations

import os
import warnings

import pytest

from repro.core.config import DanceConfig, ServiceConfig
from repro.core.dance import DANCE
from repro.exceptions import ReproError
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.pricing.models import EntropyPricingModel
from repro.relational.table import Table
from repro.search.acquisition import SearchRuntime
from repro.search.mcmc import MCMCConfig
from repro.search.plan import ExecutionPlan


class TestParse:
    def test_full_spec(self):
        plan = ExecutionPlan.parse(
            "executor=process,chains=4,workers=2,shared_store=on,pool_policy=per_call"
        )
        assert plan == ExecutionPlan(
            executor="process",
            chains=4,
            workers=2,
            shared_store=True,
            pool_policy="per_call",
        )

    def test_bare_token_is_executor(self):
        assert ExecutionPlan.parse("thread") == ExecutionPlan(executor="thread")

    def test_bool_words(self):
        assert ExecutionPlan.parse("shared_store=off").shared_store is False
        assert ExecutionPlan.parse("shared_store=1").shared_store is True
        assert ExecutionPlan.parse("shared_store=no").shared_store is False

    def test_spec_round_trips(self):
        for spec in (
            "executor=serial,chains=1",
            "executor=process,chains=4,workers=2,shared_store=on",
            "executor=thread,chains=3,pool_policy=per_call",
        ):
            plan = ExecutionPlan.parse(spec)
            assert ExecutionPlan.parse(plan.spec()) == plan

    @pytest.mark.parametrize(
        "bad",
        [
            "executor=carrier-pigeon",
            "chains=zero",
            "chains=0",
            "workers=0",
            "shared_store=maybe",
            "pool_policy=leaky",
            "frobnicate=1",
        ],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ReproError):
            ExecutionPlan.parse(bad)

    def test_normalize_accepts_plan_string_none(self):
        plan = ExecutionPlan(executor="thread", chains=2)
        assert ExecutionPlan.normalize(plan) is plan
        assert ExecutionPlan.normalize("thread,chains=2") == plan
        assert ExecutionPlan.normalize(None) is None
        with pytest.raises(ReproError):
            ExecutionPlan.normalize(42)


class TestDerivedViews:
    def test_shared_store_auto_follows_executor(self):
        assert ExecutionPlan(executor="process", chains=2).wants_shared_store
        assert not ExecutionPlan(executor="thread", chains=2).wants_shared_store
        assert not ExecutionPlan(
            executor="process", chains=2, shared_store=False
        ).wants_shared_store

    def test_resolved_workers_explicit_wins(self):
        assert ExecutionPlan(executor="thread", chains=4, workers=2).resolved_workers() == 2

    def test_resolved_workers_thread_default(self):
        assert ExecutionPlan(executor="thread", chains=3).resolved_workers() == 3
        assert ExecutionPlan(executor="thread", chains=100).resolved_workers() == 8

    def test_resolved_workers_process_capped_at_cpus(self):
        width = ExecutionPlan(executor="process", chains=100).resolved_workers()
        assert width == min(8, max(1, os.cpu_count() or 1))


def small_marketplace() -> Marketplace:
    pricing = EntropyPricingModel()
    marketplace = Marketplace(default_pricing=pricing)
    facts = Table.from_rows(
        "facts",
        ["good_key", "bad_key", "measure"],
        [(i % 10, i % 3, float(i % 8) * 10 + i % 3) for i in range(64)],
    )
    dims = Table.from_rows(
        "dims",
        ["good_key", "bad_key", "label"],
        [(i, i % 2, f"lbl{i}") for i in range(8)],
    )
    for table in (facts, dims):
        marketplace.host(MarketplaceDataset(table=table, pricing=pricing))
    return marketplace


REQUEST = AcquisitionRequest(
    source_attributes=["measure"], target_attributes=["label"], budget=1e9
)


class TestConfigIntegration:
    def test_plan_overrides_mcmc_knobs(self):
        config = DanceConfig(
            mcmc=MCMCConfig(iterations=10, chains=1, executor="serial"),
            plan="executor=thread,chains=3",
        )
        assert config.mcmc.chains == 3
        assert config.mcmc.executor == "thread"
        assert config.execution_plan.executor == "thread"

    def test_service_level_plan_applies(self):
        config = DanceConfig(service=ServiceConfig(plan="executor=thread,chains=2"))
        assert config.mcmc.chains == 2
        assert config.execution_plan.executor == "thread"

    def test_dance_plan_wins_over_service_plan(self):
        config = DanceConfig(
            plan="executor=serial,chains=1",
            service=ServiceConfig(plan="executor=thread,chains=4"),
        )
        assert config.mcmc.chains == 1
        assert config.execution_plan.executor == "serial"

    def test_legacy_knobs_fold_into_equivalent_plan(self):
        config = DanceConfig(mcmc=MCMCConfig(chains=3, executor="thread"))
        assert config.execution_plan == ExecutionPlan(executor="thread", chains=3)

    def test_plan_survives_refinement_copy(self):
        config = DanceConfig(plan="executor=thread,chains=2")
        assert config.refined().execution_plan == config.execution_plan

    def test_plan_free_config_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            DanceConfig(mcmc=MCMCConfig(chains=2, executor="thread"))


class TestAliasEquivalence:
    """The plan spelling and the legacy spelling produce identical results."""

    def test_plan_matches_legacy_knobs_bit_for_bit(self):
        legacy = DanceConfig(
            sampling_rate=1.0,
            mcmc=MCMCConfig(iterations=30, seed=0, chains=2, executor="thread"),
        )
        planned = DanceConfig(
            sampling_rate=1.0,
            mcmc=MCMCConfig(iterations=30, seed=0),
            plan="executor=thread,chains=2",
        )
        results = []
        for config in (legacy, planned):
            dance = DANCE(small_marketplace(), config)
            dance.build_offline()
            results.append(dance.acquire(REQUEST))
        assert results[0].mcmc_chain_correlations == results[1].mcmc_chain_correlations
        assert results[0].estimated_correlation == results[1].estimated_correlation
        assert results[0].sql() == results[1].sql()

    def test_runtime_plan_overrides_executor_not_results(self):
        config = DanceConfig(
            sampling_rate=1.0,
            mcmc=MCMCConfig(iterations=30, seed=0, chains=2, executor="serial"),
        )
        dance = DANCE(small_marketplace(), config)
        dance.build_offline()
        baseline = dance.acquire(REQUEST)
        rerouted = dance.acquire(
            REQUEST,
            runtime=SearchRuntime(plan=ExecutionPlan(executor="thread", chains=2)),
        )
        assert rerouted.mcmc_executor == "thread"
        assert rerouted.mcmc_chains == 2
        assert rerouted.mcmc_chain_correlations == baseline.mcmc_chain_correlations
        assert rerouted.estimated_correlation == baseline.estimated_correlation


class TestCLI:
    def test_plan_flag_parses_and_wins(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["acquire", "--query", "Q1", "--chains", "2", "--executor", "thread",
             "--plan", "executor=serial,chains=1"]
        )
        assert args.plan == "executor=serial,chains=1"
        config = DanceConfig(
            mcmc=MCMCConfig(chains=args.chains, executor=args.executor),
            plan=args.plan,
        )
        assert config.mcmc.executor == "serial"
        assert config.mcmc.chains == 1
