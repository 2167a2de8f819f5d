"""The unified :class:`ExecutionPlan` describing how searches execute.

One value object carries the executor, chain count, pool width, shared-store
switch and pool policy, and it is accepted everywhere a pool can be
configured:

- ``DanceConfig(plan=...)`` / ``ServiceConfig(plan=...)`` — the plan's
  ``executor`` and ``chains`` are applied onto ``MCMCConfig``, and its
  ``workers`` / ``shared_store`` / ``pool_policy`` drive the service's
  persistent chain pool;
- ``SearchRuntime(plan=...)`` — a per-request override of chains/executor;
- the CLI — ``--plan executor=process,chains=4`` via :meth:`ExecutionPlan.parse`.

``MCMCConfig(chains=, executor=)`` and the CLI ``--chains`` / ``--executor``
flags remain a shorthand for a plan with those two fields;
``tests/search/test_execution_plan.py`` holds the equivalence contract.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.exceptions import ReproError
from repro.search.mcmc import EXECUTORS

POOL_POLICIES = ("persistent", "per_call")

_MAX_POOL_WORKERS = 8

_BOOL_WORDS = {
    "1": True,
    "true": True,
    "on": True,
    "yes": True,
    "0": False,
    "false": False,
    "off": False,
    "no": False,
}


@dataclass(frozen=True)
class ExecutionPlan:
    """How a multi-chain search executes: topology, pooling, and data plane.

    Attributes
    ----------
    executor:
        ``"serial"``, ``"thread"`` or ``"process"`` — same contract as
        ``MCMCConfig.executor``; results are bit-identical for a fixed
        ``(seed, chains)`` regardless of this choice.
    chains:
        Number of independent MCMC chains per search call.
    workers:
        Pool width for thread/process executors.  ``None`` resolves to
        ``min(chains, 8)`` for threads and additionally caps at the CPU count
        for processes (oversubscribing process workers on a small box only
        duplicates evaluation work that co-resident chains would otherwise
        share through the per-worker caches).
    shared_store:
        Whether process pools export the encoded columnar state through
        :class:`repro.search.shm.SharedColumnStore` (zero-copy code arrays,
        versioned deltas instead of pool teardown).  ``None`` means "auto":
        on for process executors, irrelevant otherwise.
    pool_policy:
        ``"persistent"`` keeps one warm pool per service session (the
        default); ``"per_call"`` builds and tears down a pool inside every
        search call (the pre-service behaviour, kept for measurement).
    """

    executor: str = "serial"
    chains: int = 1
    workers: int | None = None
    shared_store: bool | None = None
    pool_policy: str = "persistent"

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ReproError(
                f"ExecutionPlan.executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.chains < 1:
            raise ReproError(f"ExecutionPlan.chains must be >= 1, got {self.chains}")
        if self.workers is not None and self.workers < 1:
            raise ReproError(
                f"ExecutionPlan.workers must be >= 1 or None, got {self.workers}"
            )
        if self.pool_policy not in POOL_POLICIES:
            raise ReproError(
                f"ExecutionPlan.pool_policy must be one of {POOL_POLICIES}, "
                f"got {self.pool_policy!r}"
            )

    # -- derived views -----------------------------------------------------

    @property
    def wants_shared_store(self) -> bool:
        """Effective shared-store switch (auto = on for process executors)."""
        if self.shared_store is None:
            return self.executor == "process"
        return bool(self.shared_store)

    def resolved_workers(self) -> int:
        """Concrete pool width for this plan's executor."""
        if self.workers is not None:
            return self.workers
        width = min(max(1, self.chains), _MAX_POOL_WORKERS)
        if self.executor == "process":
            # Never run more worker processes than cores: chains sharing one
            # worker reuse its persistent caches sequentially (serial-like),
            # which beats oversubscribed workers each evaluating cold.
            width = min(width, max(1, os.cpu_count() or 1))
        return width

    # -- construction helpers ----------------------------------------------

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
        """Parse the CLI form ``"executor=process,chains=4,workers=2,..."``.

        Keys: ``executor``, ``chains``, ``workers``, ``shared_store``
        (on/off/true/false/1/0/yes/no), ``pool_policy``.  A bare token with
        no ``=`` is shorthand for ``executor=<token>``.
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
            if key in ("executor", "pool_policy"):
                fields[key] = value
            elif key in ("chains", "workers"):
                try:
                    fields[key] = int(value)
                except ValueError:
                    raise ReproError(
                        f"ExecutionPlan spec {key}={value!r} is not an integer"
                    ) from None
            elif key == "shared_store":
                flag = _BOOL_WORDS.get(value.lower())
                if flag is None:
                    raise ReproError(
                        f"ExecutionPlan spec shared_store={value!r} is not a boolean"
                    )
                fields[key] = flag
            else:
                raise ReproError(f"unknown ExecutionPlan spec key {key!r}")
        return cls(**fields)  # type: ignore[arg-type]

    def with_overrides(self, **changes) -> "ExecutionPlan":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)

    def spec(self) -> str:
        """The canonical ``parse()``-able spelling of this plan."""
        parts = [f"executor={self.executor}", f"chains={self.chains}"]
        if self.workers is not None:
            parts.append(f"workers={self.workers}")
        if self.shared_store is not None:
            parts.append(f"shared_store={'on' if self.shared_store else 'off'}")
        if self.pool_policy != "persistent":
            parts.append(f"pool_policy={self.pool_policy}")
        return ",".join(parts)
