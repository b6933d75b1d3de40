"""Scenario definitions for every figure of the paper.

The paper's figures sweep "environment dynamism".  For the ON/OFF model
the paper labels the axis "[load probability]" but does not publish the
exact chain parametrization, so we make a documented choice
(:class:`OnOffDynamism`): as the dynamism knob ``d`` rises from 0 to 1,

* the stationary loaded fraction rises linearly (``on_fraction_scale * d``)
  -- more external load, and
* the mean ON dwell time shrinks from minutes to the chain step -- load
  changes faster and faster, becoming sub-iteration ("the load changes
  dramatically during each application iteration") at the right edge.

This reproduces all three regimes of Fig. 4: quiescent left (techniques
equal), moderately dynamic middle (persistent, escapable load: adaptive
techniques win), chaotic right (uniformly churning load: techniques
converge and adaptation can hurt).

Every scenario is an :class:`ExperimentSpec`: x values plus a builder
mapping ``(x, seed)`` to a concrete platform and a list of labeled
*variants* ``(series_label, application, strategy)``.  Within one seed,
all variants share one platform object and therefore observe identical
load traces -- the paper's reason for simulating at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.app.iterative import ApplicationSpec
from repro.app.workloads import paper_application
from repro.core.policy import friendly_policy, greedy_policy, safe_policy
from repro.errors import ExperimentError
from repro.faults.plan import FaultModel
from repro.load.hyperexp import HyperexponentialLoadModel
from repro.load.onoff import OnOffLoadModel
from repro.platform.cluster import Platform, make_platform
from repro.strategies.base import Strategy
from repro.strategies.cr import CrStrategy
from repro.strategies.dlb import DlbStrategy
from repro.strategies.nothing import NothingStrategy
from repro.strategies.swapstrat import SwapStrategy
from repro.units import GB, KB, MB, MFLOPS


@dataclass(frozen=True)
class OnOffDynamism:
    """Documented mapping: dynamism knob ``d`` -> ON/OFF chain ``(p, q)``."""

    on_fraction_scale: float = 0.75
    """Stationary loaded fraction at ``d = 1``."""
    dwell_base: float = 900.0
    """Mean ON dwell at ``d = 0`` (seconds): long, persistent load events."""
    dwell_floor: float = 10.0
    """Mean ON dwell at ``d = 1`` (seconds): one chain step, pure churn."""
    step: float = 10.0
    """Markov chain step in seconds."""

    def params(self, d: float) -> "tuple[float, float]":
        """Chain probabilities ``(p, q)`` for dynamism ``d`` in [0, 1]."""
        if not 0.0 <= d <= 1.0:
            raise ExperimentError(f"dynamism must be in [0, 1], got {d}")
        on_fraction = self.on_fraction_scale * d
        mean_dwell_on = self.dwell_base * (1.0 - d) + self.dwell_floor
        q = min(1.0, self.step / mean_dwell_on)
        if on_fraction >= 1.0:
            return 1.0, q
        p = q * on_fraction / (1.0 - on_fraction)
        if p > 1.0:
            # Keep the stationary loaded fraction exact (it drives the
            # NOTHING curve); stretch the dwell instead of capping p.
            p = 1.0
            q = (1.0 - on_fraction) / on_fraction
        return p, q

    def model(self, d: float) -> OnOffLoadModel:
        p, q = self.params(d)
        return OnOffLoadModel(p=p, q=q, step=self.step)


#: The default dynamism mapping used by all ON/OFF figures.
DYNAMISM = OnOffDynamism()

#: Dynamism grid for the Fig. 4/6/7/8 sweeps.
DYNAMISM_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.85, 1.0)

#: Host speed range used by all evaluation scenarios.  Narrower than the
#: full "hundreds of megaflops" span of the platform default so that the
#: figures measure load adaptation rather than static speed heterogeneity
#: (with equal chunks, a 5x speed spread would dominate every effect the
#: paper studies).
EVALUATION_SPEED_RANGE = (250 * MFLOPS, 350 * MFLOPS)

#: "Moderately dynamic" operating point for the Fig. 5 over-allocation
#: sweep (the paper's "load probability of 0.2, which is moderately
#: dynamic").  On our dynamism axis the equivalent regime -- enough churn
#: that per-iteration rebalancing mispredicts, enough persistence that
#: escaping load pays -- sits at d=0.75.
MODERATE_DYNAMISM = 0.75

#: One variant: (series label, application, strategy).
Variant = "tuple[str, ApplicationSpec, Strategy]"

#: Builder signature: (x, seed) -> (platform, variants).
Builder = Callable[[float, int], "tuple[Platform, list[Variant]]"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One figure-regenerating sweep."""

    name: str
    """Identifier, e.g. ``"fig4"``."""
    title: str
    """What the paper's figure shows."""
    xlabel: str
    x_values: "tuple[float, ...]"
    build: Builder
    paper_claim: str = ""
    """The qualitative result the paper reports for this figure."""
    default_seeds: int = 5

    def __post_init__(self) -> None:
        if not self.x_values:
            raise ExperimentError(f"{self.name}: empty x grid")

    def fingerprint(self) -> str:
        """Content hash of everything that defines this sweep's cells.

        Covers the model's source
        (:func:`~repro.experiments.executor.code_digest`, which includes
        this module and so every claim's prose), the declarative fields,
        and the builder's own source, which matters for builders defined
        outside the package.  The cell cache keys and the fabric's
        admission gate are built on it.
        """
        import hashlib
        import inspect

        from repro.experiments.executor import code_digest

        try:
            build_src = inspect.getsource(self.build)
        except (OSError, TypeError):  # builtins / C callables / lost source
            build_src = getattr(self.build, "__qualname__", repr(self.build))
        hasher = hashlib.sha256()
        for part in (code_digest(), self.name, self.title, self.xlabel,
                     repr(tuple(float(x) for x in self.x_values)),
                     str(self.default_seeds), build_src):
            hasher.update(part.encode("utf-8"))
            hasher.update(b"\x00")
        return hasher.hexdigest()


def _standard_app(n_processes: int, state_bytes: float,
                  iterations: int = 50) -> ApplicationSpec:
    return paper_application(n_processes=n_processes, iterations=iterations,
                             iteration_minutes=1.0,
                             bytes_per_process=100 * KB,
                             state_bytes=state_bytes)


def _named(app: ApplicationSpec,
           strategies: "list[Strategy]") -> "list[Variant]":
    return [(s.name, app, s) for s in strategies]


def _four_techniques() -> "list[Strategy]":
    return [NothingStrategy(), SwapStrategy(greedy_policy()),
            DlbStrategy(), CrStrategy()]


def _three_policies() -> "list[Strategy]":
    return [NothingStrategy(),
            SwapStrategy(greedy_policy()),
            SwapStrategy(safe_policy()),
            SwapStrategy(friendly_policy())]


# -- Fig. 4: four techniques vs dynamism ----------------------------------

def _fig4_build(d: float, seed: int):
    platform = make_platform(32, DYNAMISM.model(d), seed=seed,
                             speed_range=EVALUATION_SPEED_RANGE)
    app = _standard_app(n_processes=4, state_bytes=1 * MB)
    return platform, _named(app, _four_techniques())


FIG4 = ExperimentSpec(
    name="fig4",
    title="Execution time of performance enhancing techniques vs "
          "environment dynamism (4 active / 32 total, 1 MB state)",
    xlabel="environment dynamism [load probability]",
    x_values=DYNAMISM_GRID,
    build=_fig4_build,
    paper_claim="Quiescent and chaotic extremes: techniques equal. "
                "Moderately dynamic middle: SWAP/DLB/CR up to ~40% "
                "better than NOTHING; DLB weak in dynamic environments.",
)


# -- Fig. 5: over-allocation sweep -----------------------------------------

OVERALLOCATION_GRID = (0.0, 25.0, 50.0, 100.0, 150.0, 200.0, 300.0)


def _fig5_build(over_pct: float, seed: int):
    n_active = 8
    n_hosts = n_active + int(round(n_active * over_pct / 100.0))
    platform = make_platform(n_hosts, DYNAMISM.model(MODERATE_DYNAMISM),
                             seed=seed, speed_range=EVALUATION_SPEED_RANGE)
    app = _standard_app(n_processes=n_active, state_bytes=1 * MB)
    return platform, _named(app, _four_techniques())


FIG5 = ExperimentSpec(
    name="fig5",
    title="Execution time vs over-allocation (8 active processes, "
          "moderately dynamic environment, 1 MB state)",
    xlabel="% overallocation",
    x_values=OVERALLOCATION_GRID,
    build=_fig5_build,
    paper_claim="SWAP and CR improve with more spares; substantial benefit "
                "needs ~100% over-allocation; DLB consistently beats "
                "NOTHING; SWAP/CR roughly double DLB's gain when "
                "over-allocation is substantial.",
)


# -- Fig. 6: process size ---------------------------------------------------

def _fig6_build(d: float, seed: int):
    platform = make_platform(32, DYNAMISM.model(d), seed=seed,
                             speed_range=EVALUATION_SPEED_RANGE)
    small = _standard_app(n_processes=4, state_bytes=1 * MB)
    large = _standard_app(n_processes=4, state_bytes=1 * GB)
    variants = [
        ("nothing", small, NothingStrategy()),
        ("dlb", small, DlbStrategy()),
        ("swap-1MB", small, SwapStrategy(greedy_policy())),
        ("cr-1MB", small, CrStrategy()),
        ("swap-1GB", large, SwapStrategy(greedy_policy())),
        ("cr-1GB", large, CrStrategy()),
    ]
    return platform, variants


FIG6 = ExperimentSpec(
    name="fig6",
    title="Execution time vs dynamism for 1 MB and 1 GB process state "
          "(SWAP and CR; 4 active / 32 total)",
    xlabel="environment dynamism [load probability]",
    x_values=DYNAMISM_GRID,
    build=_fig6_build,
    paper_claim="NOTHING and DLB are independent of process size.  SWAP "
                "and CR go from beneficial at 1 MB to harmful at 1 GB, "
                "where the swap time exceeds the iteration time.",
)


# -- Fig. 7: the three policies --------------------------------------------

def _fig7_build(d: float, seed: int):
    platform = make_platform(32, DYNAMISM.model(d), seed=seed,
                             speed_range=EVALUATION_SPEED_RANGE)
    app = _standard_app(n_processes=4, state_bytes=100 * MB)
    return platform, _named(app, _three_policies())


FIG7 = ExperimentSpec(
    name="fig7",
    title="Execution time for the greedy/safe/friendly swapping policies "
          "vs dynamism (4 active / 32 total, 100 MB state)",
    xlabel="environment dynamism",
    x_values=DYNAMISM_GRID,
    build=_fig7_build,
    paper_claim="Greedy gives the largest boost (~40% max).  Friendly "
                "nearly keeps pace in moderately chaotic settings but "
                "collapses in chaos.  Safe gains less but beats greedy in "
                "the most chaotic environments.",
)


# -- Fig. 8: policies with large process state ------------------------------

def _fig8_build(d: float, seed: int):
    platform = make_platform(32, DYNAMISM.model(d), seed=seed,
                             speed_range=EVALUATION_SPEED_RANGE)
    app = _standard_app(n_processes=2, state_bytes=1 * GB)
    return platform, _named(app, _three_policies())


FIG8 = ExperimentSpec(
    name="fig8",
    title="Swapping policies with large (1 GB) process state "
          "(2 active / 32 total; swap time ~ 2x iteration time)",
    xlabel="environment dynamism",
    x_values=DYNAMISM_GRID,
    build=_fig8_build,
    paper_claim="With 1 GB state only the safe policy is appropriate: "
                "greedy/friendly chase an unobtainable performance and "
                "spend all their time swapping.",
)


# -- Fig. 9: hyperexponential load model ------------------------------------

LIFETIME_GRID = (30.0, 60.0, 120.0, 300.0, 600.0, 1200.0, 2400.0)


def _fig9_build(mean_lifetime: float, seed: int):
    model = HyperexponentialLoadModel(mean_lifetime=mean_lifetime,
                                      utilization=0.6, branch_prob=0.1)
    platform = make_platform(32, model, seed=seed,
                             speed_range=EVALUATION_SPEED_RANGE)
    app = _standard_app(n_processes=4, state_bytes=1 * MB)
    return platform, _named(app, _four_techniques())


FIG9 = ExperimentSpec(
    name="fig9",
    title="Four techniques under the hyperexponential load model "
          "(4 active / 32 total, 1 MB state)",
    xlabel="environment dynamism [mean process lifetime, s]",
    x_values=LIFETIME_GRID,
    build=_fig9_build,
    paper_claim="Swapping remains viable; the larger share of long-running "
                "competing jobs widens the dynamism range over which "
                "swapping (and DLB/CR) is beneficial.",
)


# -- Ablations (beyond the paper's figures) ---------------------------------

PAYBACK_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, float("inf"))


def _ablation_payback_build(threshold: float, seed: int):
    platform = make_platform(32, DYNAMISM.model(0.7), seed=seed,
                             speed_range=EVALUATION_SPEED_RANGE)
    app = _standard_app(n_processes=4, state_bytes=100 * MB)
    policy = greedy_policy().with_overrides(
        name="payback-swept", payback_threshold=threshold)
    return platform, [("nothing", app, NothingStrategy()),
                      ("swap", app, SwapStrategy(policy))]


ABLATION_PAYBACK = ExperimentSpec(
    name="ablation-payback",
    title="Ablation: payback threshold at fixed dynamism (d=0.7, "
          "100 MB state)",
    xlabel="payback threshold [iterations]",
    x_values=PAYBACK_GRID,
    build=_ablation_payback_build,
    paper_claim="Section 4.1: smaller payback thresholds indicate more "
                "risk-aversion.",
)

HISTORY_GRID = (0.0, 30.0, 60.0, 120.0, 300.0, 600.0)


def _ablation_history_build(window: float, seed: int):
    platform = make_platform(32, DYNAMISM.model(0.7), seed=seed,
                             speed_range=EVALUATION_SPEED_RANGE)
    app = _standard_app(n_processes=4, state_bytes=100 * MB)
    policy = greedy_policy().with_overrides(
        name="history-swept", history_window=window)
    return platform, [("nothing", app, NothingStrategy()),
                      ("swap", app, SwapStrategy(policy))]


ABLATION_HISTORY = ExperimentSpec(
    name="ablation-history",
    title="Ablation: performance-history window at fixed dynamism (d=0.7, "
          "100 MB state)",
    xlabel="history window [s]",
    x_values=HISTORY_GRID,
    build=_ablation_history_build,
    paper_claim="Section 4.1: more history damps swap frequency but can "
                "miss good swapping opportunities.",
)

# The binary ON/OFF load makes an unloaded spare exactly 2x a loaded
# active (a 100% process improvement), so the grid must cross 1.0 for the
# stiction threshold to bind.
IMPROVEMENT_GRID = (0.0, 0.1, 0.25, 0.5, 0.9, 1.5)


def _ablation_improvement_build(threshold: float, seed: int):
    platform = make_platform(32, DYNAMISM.model(0.5), seed=seed,
                             speed_range=EVALUATION_SPEED_RANGE)
    app = _standard_app(n_processes=4, state_bytes=100 * MB)
    policy = greedy_policy().with_overrides(
        name="improvement-swept", min_process_improvement=threshold)
    return platform, [("nothing", app, NothingStrategy()),
                      ("swap", app, SwapStrategy(policy))]


ABLATION_IMPROVEMENT = ExperimentSpec(
    name="ablation-improvement",
    title="Ablation: minimum process improvement threshold (d=0.5, "
          "100 MB state)",
    xlabel="min process improvement threshold",
    x_values=IMPROVEMENT_GRID,
    build=_ablation_improvement_build,
    paper_claim="Section 4.1: higher thresholds add swapping stiction.",
)

MAXSWAP_GRID = (1.0, 2.0, 4.0, 8.0)


def _ablation_maxswaps_build(max_swaps: float, seed: int):
    platform = make_platform(32, DYNAMISM.model(0.5), seed=seed,
                             speed_range=EVALUATION_SPEED_RANGE)
    app = _standard_app(n_processes=8, state_bytes=10 * MB)
    policy = greedy_policy().with_overrides(
        name="maxswaps-swept", max_swaps_per_decision=int(max_swaps))
    return platform, [("nothing", app, NothingStrategy()),
                      ("swap", app, SwapStrategy(policy))]


ABLATION_MAXSWAPS = ExperimentSpec(
    name="ablation-maxswaps",
    title="Ablation: cap on swaps per decision epoch (d=0.5, 8 active, "
          "10 MB state)",
    xlabel="max swaps per decision",
    x_values=MAXSWAP_GRID,
    build=_ablation_maxswaps_build,
    paper_claim='Section 4.2: policies "swap the slowest active '
                'processor(s) for the fastest inactive processor(s)".',
)


# -- Extension: over-allocation vs MPI-2 dynamic spawning ---------------------

RUN_LENGTH_GRID = (3.0, 6.0, 12.0, 25.0, 50.0, 100.0)


def _ext_spawn_build(iterations: float, seed: int):
    from repro.strategies.spawnswap import SpawnSwapStrategy

    platform = make_platform(32, DYNAMISM.model(0.5), seed=seed,
                             speed_range=EVALUATION_SPEED_RANGE)
    app = _standard_app(n_processes=4, state_bytes=1 * MB,
                        iterations=int(iterations))
    variants = [
        ("nothing", app, NothingStrategy()),
        ("swap-overalloc", app, SwapStrategy(greedy_policy())),
        ("swap-spawn", app, SpawnSwapStrategy(greedy_policy())),
    ]
    return platform, variants


EXT_SPAWN = ExperimentSpec(
    name="ext-spawn",
    title="Extension: over-allocation vs MPI-2 dynamic spawning, by run "
          "length (4 active / 32 total, d=0.5, 1 MB state)",
    xlabel="application length [iterations]",
    x_values=RUN_LENGTH_GRID,
    build=_ext_spawn_build,
    paper_claim="Section 7.1: over-allocating 28 spares adds ~21 s of "
                "startup, so 'for very short-running applications ... "
                "SWAP performs worse'; Section 3: MPI-2 dynamic process "
                "management 'could remove the need for over-allocation'.",
)


# -- Extension: GrADS-style contract-gated swapping ---------------------------


def _ext_contracts_build(d: float, seed: int):
    from repro.contracts.strategy import ContractSwapStrategy

    platform = make_platform(32, DYNAMISM.model(d), seed=seed,
                             speed_range=EVALUATION_SPEED_RANGE)
    app = _standard_app(n_processes=4, state_bytes=1 * MB)
    variants = [
        ("nothing", app, NothingStrategy()),
        ("swap-every-iter", app, SwapStrategy(greedy_policy())),
        ("swap-contract", app, ContractSwapStrategy(greedy_policy())),
    ]
    return platform, variants


EXT_CONTRACTS = ExperimentSpec(
    name="ext-contracts",
    title="Extension: contract-gated vs every-iteration swap decisions "
          "(4 active / 32 total, 1 MB state)",
    xlabel="environment dynamism",
    x_values=DYNAMISM_GRID,
    build=_ext_contracts_build,
    paper_claim="Section 8: 'work is underway to integrate process "
                "swapping in the GrADS architecture' -- where a "
                "performance-contract monitor gates rescheduling actions.",
)


# -- Extension: replayed diurnal traces (the paper's future work) -------------

START_HOUR_GRID = (2.0, 6.0, 8.0, 10.0, 14.0, 16.0, 20.0)


def _ext_replay_build(start_hour: float, seed: int):
    from repro.load.base import ConstantLoadModel
    from repro.load.trace import ReplayLoadModel

    def factory(i: int):
        if i % 4 == 3:
            return ConstantLoadModel(0)  # an ownerless lab machine
        # Office workstations: owners keep similar but jittered hours.
        jitter = ((i % 3) - 1) * 0.5
        return ReplayLoadModel.diurnal(phase_hours=jitter - start_hour)

    platform = make_platform(32, factory, seed=seed,
                             speed_range=EVALUATION_SPEED_RANGE)
    app = _standard_app(n_processes=4, state_bytes=1 * MB)
    return platform, _named(app, _four_techniques())


EXT_REPLAY = ExperimentSpec(
    name="ext-replay",
    title="Extension: replayed diurnal office traces, by application "
          "start hour (4 active / 32 total; every 4th host is an "
          "ownerless lab machine)",
    xlabel="application start hour [h of day]",
    x_values=START_HOUR_GRID,
    build=_ext_replay_build,
    paper_claim="Section 8 (future work): 'Augmenting the simulation with "
                "CPU load traces that better reflect actual environments "
                "will help ensure our policies are beneficial.'  The "
                "validation platform was an HP intranet of personal "
                "workstations -- i.e. diurnal usage.",
)


# -- Extension: owner reclamation (desktop-grid eviction) --------------------

PRESENCE_GRID = (0.0, 0.1, 0.2, 0.3, 0.45, 0.6)


def _ext_eviction_build(presence: float, seed: int):
    from repro.load.owner import OwnerActivityModel

    model = OwnerActivityModel(presence_fraction=presence,
                               mean_presence=600.0,
                               base=OnOffLoadModel(p=0.01, q=0.02))
    platform = make_platform(32, model, seed=seed,
                             speed_range=EVALUATION_SPEED_RANGE)
    app = _standard_app(n_processes=4, state_bytes=1 * MB)
    return platform, _named(app, _four_techniques())


EXT_EVICTION = ExperimentSpec(
    name="ext-eviction",
    title="Extension: techniques under desktop-grid owner reclamation "
          "(4 active / 32 total, 1 MB state, 10-minute owner sessions)",
    xlabel="owner presence fraction",
    x_values=PRESENCE_GRID,
    build=_ext_eviction_build,
    paper_claim="Section 2 (sketched, not evaluated): combining swapping "
                "with Condor-style eviction lets a process be migrated "
                "both when its resource is reclaimed and for performance; "
                "a revoked process that cannot move simply stalls.",
)


# -- Extension: fault injection (host revocation and recovery) ---------------

#: Host revocations per host-hour.  0 is the fault-free control; 8 means
#: a host drops out every 7.5 minutes on average -- faster than the mean
#: downtime, so several hosts are typically dark at once.
FAULT_RATE_GRID = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)


def _ext_faults_build(rate: float, seed: int):
    faults = FaultModel(revocation_rate=rate, mean_downtime=300.0,
                        transfer_failure_prob=0.05, store_outage_rate=0.5,
                        mean_store_outage=120.0)
    platform = make_platform(32, DYNAMISM.model(0.3), seed=seed,
                             speed_range=EVALUATION_SPEED_RANGE,
                             fault_model=faults)
    app = _standard_app(n_processes=4, state_bytes=1 * MB)
    return platform, _named(app, _four_techniques())


EXT_FAULTS = ExperimentSpec(
    name="ext-faults",
    title="Extension: techniques under host revocation faults, by "
          "revocation rate (4 active / 32 total, d=0.3, 1 MB state, "
          "5-minute mean downtime)",
    xlabel="revocation rate [per host-hour]",
    x_values=FAULT_RATE_GRID,
    build=_ext_faults_build,
    paper_claim="Section 2 (sketched, not evaluated): a swap-capable "
                "application can treat a revoked processor like a slow "
                "one and promote a spare, while a static MPI application "
                "stalls until the processor returns.",
)


ALL_SCENARIOS: "dict[str, ExperimentSpec]" = {
    spec.name: spec
    for spec in (FIG4, FIG5, FIG6, FIG7, FIG8, FIG9,
                 ABLATION_PAYBACK, ABLATION_HISTORY,
                 ABLATION_IMPROVEMENT, ABLATION_MAXSWAPS,
                 EXT_EVICTION, EXT_SPAWN, EXT_REPLAY, EXT_CONTRACTS,
                 EXT_FAULTS)
}


def get_scenario(name: str) -> ExperimentSpec:
    try:
        return ALL_SCENARIOS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown scenario {name!r}; choose from {sorted(ALL_SCENARIOS)}"
        ) from None
