"""The :class:`ExecutionPlan`: how a multi-chain search executes.

A plan has two fields.  ``chains`` is how many independently seeded walks
run per candidate I-graph, and ``executor`` is where they run: ``"serial"``
runs them one after the other in the calling process, and ``"process"``
runs them on a process pool fed from the shared columnar store
(:mod:`repro.search.shm`).  A process pool is :func:`pool_width` workers
wide.  One plan is accepted wherever chains are configured:

- ``DanceConfig(plan=...)`` — the plan's fields are applied onto
  ``MCMCConfig``, and a service builds its persistent chain pool from it;
- ``SearchRuntime(plan=...)`` — a per-request override of chains/executor;
- the CLI — ``--plan executor=process,chains=4`` via :meth:`ExecutionPlan.parse`.

``MCMCConfig(chains=, executor=)`` remains a shorthand for a plan with the
same two fields; ``tests/search/test_execution_plan.py`` holds the
equivalence contract.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.exceptions import ReproError
from repro.search.mcmc import EXECUTORS

#: The most worker processes one chain pool runs.
MAX_POOL_WORKERS = 8


def pool_width(chains: int) -> int:
    """Worker processes of a pool that runs ``chains`` chains.

    ``min(chains, MAX_POOL_WORKERS, CPUs)``: a worker beyond the chain count
    would only idle, and one beyond the core count only duplicates evaluation
    work, because chains sharing a worker reuse its persistent caches one
    after the other.  The service's persistent pool and a one-shot search's
    private pool both follow this rule.
    """
    return max(1, min(chains, MAX_POOL_WORKERS, os.cpu_count() or 1))


@dataclass(frozen=True)
class ExecutionPlan:
    """How a multi-chain search executes.

    Attributes
    ----------
    executor:
        ``"serial"`` or ``"process"`` — same contract as
        ``MCMCConfig.executor``; results are bit-identical for a fixed
        ``(seed, chains)`` regardless of this choice.
    chains:
        Number of independent MCMC chains per search call.
    """

    executor: str = "serial"
    chains: int = 1

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ReproError(
                f"ExecutionPlan.executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.chains < 1:
            raise ReproError(f"ExecutionPlan.chains must be >= 1, got {self.chains}")

    @classmethod
    def normalize(cls, value: "ExecutionPlan | str | None") -> "ExecutionPlan | None":
        """Accept a plan object, a ``parse()``-able spec string, or None."""
        if value is None or isinstance(value, ExecutionPlan):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        raise ReproError(
            f"expected ExecutionPlan, spec string or None, got {type(value).__name__}"
        )

    @classmethod
    def parse(cls, spec: str) -> "ExecutionPlan":
        """Parse the CLI form ``"executor=process,chains=4"``.

        Keys: ``executor`` and ``chains``; any other key is refused.  A bare
        token with no ``=`` is shorthand for ``executor=<token>``.
        """
        fields: dict[str, object] = {}
        for raw in spec.split(","):
            token = raw.strip()
            if not token:
                continue
            if "=" in token:
                key, _, value = token.partition("=")
                key = key.strip()
                value = value.strip()
            else:
                key, value = "executor", token
            if key == "executor":
                fields[key] = value
            elif key == "chains":
                try:
                    fields[key] = int(value)
                except ValueError:
                    raise ReproError(
                        f"ExecutionPlan spec {key}={value!r} is not an integer"
                    ) from None
            else:
                raise ReproError(f"unknown ExecutionPlan spec key {key!r}")
        return cls(**fields)  # type: ignore[arg-type]

    def spec(self) -> str:
        """The canonical ``parse()``-able spelling of this plan."""
        return f"executor={self.executor},chains={self.chains}"
