"""The repo-wide contracts the flow analyzer checks code against.

These tables are the *interface* between simflow and the code that
relies on its guarantees, the sweep fabric and scenario lowering:

* :data:`ASSUMED_PURE` -- qualname prefixes the scenario-lowering /
  vectorization pass will treat as side-effect-free and freely
  reorderable, batchable, or specializable.  Any inferred effect on a
  matching function is a contract violation (rule SF004).
* :data:`TRACE_SINKS` / :data:`SCHEDULE_SINKS` -- where trace records
  and kernel events enter the system; iteration order flowing into
  either must be deterministic (rule SF003).

A fixture package under test can swap in its own
:class:`FlowContracts`; :func:`default_contracts` describes this repo.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Qualname prefixes (``.`` suffix means "everything under") that the
#: lowering/vectorization pass will assume pure: no IO, no RNG draws, no
#: shared-state access, no ambient sim-time reads.
ASSUMED_PURE = (
    "repro.core.payback.",
    "repro.core.decision.",
    "repro.core.policy.",
    "repro.units.",
    "repro.simkernel.rng.derive_seed",
    "repro.platform.network.LinkSpec.",
    # NOTE: repro.strategies.scheduler.initial_schedule was listed here
    # until the batch-kernel rewrite surfaced that ranking hosts can
    # lazily extend load traces (an RNG draw) and ticks the kernel-event
    # tally -- it never was pure, the old call chain just hid it from
    # the interprocedural analysis.
)

#: Functions that emit trace records / metrics into the ambient session.
TRACE_SINKS = (
    "repro.obs.emit",
    "repro.obs.count",
    "repro.obs.gauge",
    "repro.obs.observe_value",
    "repro.obs.emit_decision",
    "repro.obs.emit_check",
    "repro.obs.trace.TraceRecorder.emit",
)

#: The one place kernel events enter the heap.
SCHEDULE_SINKS = (
    "repro.simkernel.engine.Simulator._schedule",
)

#: Module prefixes whose inferred signatures the ``--effects-report``
#: table covers (the purity contract the fabric and lowering PRs build
#: on).
REPORT_SCOPE = (
    "repro.simkernel.",
    "repro.strategies.",
    "repro.experiments.executor",
)


@dataclass(frozen=True)
class FlowContracts:
    """Everything rule evaluation needs to know about the package."""

    assumed_pure: "tuple[str, ...]" = ASSUMED_PURE
    trace_sinks: "tuple[str, ...]" = TRACE_SINKS
    schedule_sinks: "tuple[str, ...]" = SCHEDULE_SINKS
    report_scope: "tuple[str, ...]" = REPORT_SCOPE

    def is_assumed_pure(self, qualname: str) -> bool:
        return any(qualname == p or (p.endswith(".") and qualname.startswith(p))
                   for p in self.assumed_pure)


def default_contracts() -> FlowContracts:
    """The contracts of the ``repro`` package itself."""
    return FlowContracts()
