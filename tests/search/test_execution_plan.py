"""Tests for the :class:`~repro.search.plan.ExecutionPlan`.

The contracts under test: a plan has two fields, ``executor`` (``serial``
or ``process``) and ``chains``, and refuses every other key; the
``MCMCConfig(chains=, executor=)`` shorthand maps onto an equivalent plan
without warning; a plan produces bit-identical results to that shorthand;
and every process pool is ``pool_width`` workers wide.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.config import DanceConfig, ServiceConfig
from repro.core.dance import DANCE
from repro.exceptions import ReproError, SearchError
from repro.marketplace.dataset import MarketplaceDataset
from repro.marketplace.market import Marketplace
from repro.marketplace.shopper import AcquisitionRequest
from repro.pricing.models import EntropyPricingModel
from repro.relational.table import Table
from repro.search.acquisition import SearchRuntime
from repro.search.chains import ChainScheduler
from repro.search.mcmc import MCMCConfig
from repro.search.plan import ExecutionPlan, pool_width


class TestParse:
    def test_full_spec(self):
        plan = ExecutionPlan.parse("executor=process,chains=4")
        assert plan == ExecutionPlan(executor="process", chains=4)

    def test_bare_token_is_executor(self):
        assert ExecutionPlan.parse("process") == ExecutionPlan(executor="process")

    def test_spec_round_trips(self):
        for spec in ("executor=serial,chains=1", "executor=process,chains=4"):
            plan = ExecutionPlan.parse(spec)
            assert plan.spec() == spec
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
            # The removed knobs and the removed thread executor.
            "workers=2",
            "shared_store=on",
            "pool_policy=per_call",
            "thread",
            "executor=thread,chains=2",
        ],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ReproError):
            ExecutionPlan.parse(bad)

    def test_normalize_accepts_plan_string_none(self):
        plan = ExecutionPlan(executor="process", chains=2)
        assert ExecutionPlan.normalize(plan) is plan
        assert ExecutionPlan.normalize("process,chains=2") == plan
        assert ExecutionPlan.normalize(None) is None
        with pytest.raises(ReproError):
            ExecutionPlan.normalize(42)

    def test_mcmc_config_refuses_the_thread_executor(self):
        with pytest.raises(SearchError):
            MCMCConfig(chains=2, executor="thread")


class TestPoolWidth:
    """One width rule, ``min(chains, 8, CPUs)``, for every process pool.

    ``os.cpu_count`` is patched, and no test starts a process."""

    @pytest.mark.parametrize(
        ("chains", "cpus", "width"),
        [(1, 2, 1), (2, 2, 2), (4, 2, 2), (100, 2, 2), (3, 16, 3), (100, 16, 8), (4, None, 1)],
    )
    def test_width_is_the_least_of_chains_cap_and_cpus(self, monkeypatch, chains, cpus, width):
        monkeypatch.setattr("repro.search.plan.os.cpu_count", lambda: cpus)
        assert pool_width(chains) == width

    def test_one_shot_process_pool_is_capped_at_the_cpus(self, monkeypatch):
        """A one-shot ``executor=process,chains=4`` run on 2 CPUs starts 2
        workers, as many as the service's persistent pool for the same plan."""
        monkeypatch.setattr("repro.search.plan.os.cpu_count", lambda: 2)
        scheduler = ChainScheduler(chains=4, executor="process")
        assert scheduler._pool_size(4) == 2
        assert scheduler._pool_size(12) == 2
        assert pool_width(ExecutionPlan.parse("executor=process,chains=4").chains) == 2


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
            plan="executor=process,chains=3",
        )
        assert config.mcmc.chains == 3
        assert config.mcmc.executor == "process"
        assert config.execution_plan.executor == "process"

    def test_service_config_takes_no_plan(self):
        """``DanceConfig.plan`` is the one place a plan is set."""
        with pytest.raises(TypeError):
            ServiceConfig(plan="executor=process,chains=2")  # type: ignore[call-arg]

    def test_legacy_knobs_fold_into_equivalent_plan(self):
        config = DanceConfig(mcmc=MCMCConfig(chains=3, executor="process"))
        assert config.execution_plan == ExecutionPlan(executor="process", chains=3)

    def test_plan_survives_refinement_copy(self):
        config = DanceConfig(plan="executor=process,chains=2")
        assert config.refined().execution_plan == config.execution_plan

    def test_plan_free_config_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            DanceConfig(mcmc=MCMCConfig(chains=2, executor="process"))


class TestAliasEquivalence:
    """The plan spelling and the legacy spelling produce identical results."""

    def test_plan_matches_legacy_knobs_bit_for_bit(self):
        legacy = DanceConfig(
            sampling_rate=1.0,
            mcmc=MCMCConfig(iterations=30, seed=0, chains=2, executor="process"),
        )
        planned = DanceConfig(
            sampling_rate=1.0,
            mcmc=MCMCConfig(iterations=30, seed=0),
            plan="executor=process,chains=2",
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
            runtime=SearchRuntime(plan=ExecutionPlan(executor="process", chains=2)),
        )
        assert rerouted.mcmc_executor == "process"
        assert rerouted.mcmc_chains == 2
        assert rerouted.mcmc_chain_correlations == baseline.mcmc_chain_correlations
        assert rerouted.estimated_correlation == baseline.estimated_correlation


class TestCLI:
    def test_plan_flag_parses_and_wins(self):
        """``--plan`` is the CLI's one spelling of chains and executor."""
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["acquire", "--query", "Q1", "--plan", "executor=process,chains=2"]
        )
        assert args.plan == "executor=process,chains=2"
        config = DanceConfig(mcmc=MCMCConfig(), plan=args.plan)
        assert config.mcmc.executor == "process"
        assert config.mcmc.chains == 2
        for removed in (["--chains", "2"], ["--executor", "process"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["acquire", "--query", "Q1", *removed])
