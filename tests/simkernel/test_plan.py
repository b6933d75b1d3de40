"""Tests for scenario lowering (repro.simkernel.plan)."""

import pytest

from repro import obs
from repro.app.iterative import ApplicationSpec
from repro.core.policy import friendly_policy, greedy_policy, safe_policy
from repro.errors import StrategyError
from repro.load.base import ConstantExtender, ConstantLoadModel, LoadTrace
from repro.load.kernels import RateView
from repro.load.onoff import OnOffLoadModel
from repro.platform.cluster import make_platform
from repro.simkernel.plan import (
    disable_lowering,
    lower,
    lowering_enabled,
)
from repro.strategies.nothing import NothingStrategy
from repro.strategies.swapstrat import SwapStrategy
from repro.units import MB


def app(n, iters=5, flops=4e8, state=1 * MB):
    return ApplicationSpec(n_processes=n, iterations=iters,
                           flops_per_iteration=flops, state_bytes=state)


def constant_platform(n=4, n_competing=0, seed=0):
    return make_platform(n, ConstantLoadModel(n_competing), seed=seed)


def onoff_platform(n=6, seed=0):
    return make_platform(n, OnOffLoadModel(p=0.3, q=0.3), seed=seed)


# -- the lowering decisions --------------------------------------------------

def assert_matches_generic(platform):
    """A constant-looking platform lowers onto the batch kernel, and its
    bindings reproduce the generic path's floats."""
    lowered = lower(platform)
    assert lowered.kind == "batch-kernel"
    with disable_lowering():
        generic = lower(platform)
    chunks = {0: 3e8, 1: 5e8}
    for start in (0.0, 7.0, 2e3):
        assert (lowered.iteration(chunks, start, 0.5)
                == generic.iteration(chunks, start, 0.5))
        for window in (0.0, 30.0):
            assert (lowered.predicted_rates(start + 50.0, window)
                    == generic.predicted_rates(start + 50.0, window))


def test_all_passes_fire_on_quiet_constant_platform():
    plan = lower(constant_platform())
    assert plan.kind == "batch-kernel"
    assert plan.fault_free
    assert not plan.obs_on


def test_constant_load_pass_declines_stochastic_traces():
    assert lower(onoff_platform()).kind == "batch-kernel"


def test_constant_load_proof_inspects_traces_not_specs():
    # A non-constant trace swapped in behind a constant spec (the
    # standard test rig).
    platform = constant_platform()
    platform.hosts[1].trace = LoadTrace([0.0, 5.0, 1e9], [0, 2],
                                        beyond_horizon="hold")
    assert_matches_generic(platform)


def test_constant_load_proof_requires_matching_extender():
    # One held segment extended by a *different* value is not constant.
    platform = constant_platform()
    platform.hosts[0].trace = LoadTrace([0.0, 1e3], [0],
                                        extender=ConstantExtender(2))
    assert_matches_generic(platform)


def test_constant_proof_accepts_matching_extender():
    platform = constant_platform()
    platform.hosts[0].trace = LoadTrace([0.0, 1e3], [2],
                                        extender=ConstantExtender(2))
    platform.hosts[1].trace = LoadTrace([0.0, 1e3], [0],
                                        extender=ConstantExtender(0))
    assert_matches_generic(platform)


def test_obs_pass_keeps_emission_under_active_session():
    with obs.observing(obs.ObsSession()):
        plan = lower(constant_platform())
    assert plan.obs_on


def test_untraced_faulted_cell_runs_without_a_sink(monkeypatch):
    """A lowered plan nothing observes has no sink: an untraced
    ext-faults cell reaches every strategy's fault record sites with
    ``sink is None`` and computes what the traced cell computes."""
    from repro.experiments.executor import compute_cell
    from repro.experiments.scenarios import get_scenario
    from repro.strategies import cr, dlb, nothing, swapstrat

    plans = []
    for module in (nothing, swapstrat, dlb, cr):
        def spy(platform, app=None, _lower=module.lower):
            plans.append(_lower(platform, app))
            return plans[-1]
        monkeypatch.setattr(module, "lower", spy)
    spec = get_scenario("ext-faults")
    x = spec.x_values[-1]
    untraced = compute_cell(spec, x, 1)
    assert plans and not any(plan.fault_free for plan in plans)
    assert all(plan.sink is None and not plan.obs_on for plan in plans)
    del plans[:]
    traced = compute_cell(spec, x, 1, instrument=True)
    assert all(isinstance(plan.sink, obs.SessionSink) for plan in plans)
    kinds = {record["kind"] for record in traced.trace_events}
    assert {"checkpoint", "swap", "fault.revocation", "fault.stall",
            "fault.recovery", "fault.return", "fault.store_outage"} <= kinds
    assert traced.makespans == untraced.makespans
    assert traced.events == untraced.events


def test_fault_pass_keeps_hooks_with_fault_plan():
    from repro.faults.plan import FaultModel

    platform = make_platform(4, ConstantLoadModel(0), seed=0,
                             fault_model=FaultModel(revocation_rate=8.0,
                                                    mean_downtime=300.0))
    assert not lower(platform).fault_free


# -- disable_lowering --------------------------------------------------------

def test_disable_lowering_suspends_pipeline():
    assert lowering_enabled()
    with disable_lowering():
        assert not lowering_enabled()
        plan = lower(constant_platform())
        with disable_lowering():  # re-entrant
            assert not lowering_enabled()
        assert not lowering_enabled()
    assert lowering_enabled()
    assert plan.kind == "generic"
    assert plan.obs_on


# -- float identity: lowered == generic --------------------------------------

def test_plan_bindings_match_generic_path_constant():
    platform = constant_platform(n_competing=1)
    lowered = lower(platform)
    with disable_lowering():
        generic = lower(platform)
    chunks = {0: 3e8, 2: 5e8}
    assert (lowered.iteration(chunks, 7.0, 0.5)
            == generic.iteration(chunks, 7.0, 0.5))
    for window in (0.0, 30.0):
        assert (lowered.predicted_rates(50.0, window)
                == generic.predicted_rates(50.0, window))


def test_plan_bindings_match_generic_path_stochastic():
    lowered_platform = onoff_platform()
    generic_platform = onoff_platform()  # same seed: identical traces
    lowered = lower(lowered_platform)
    with disable_lowering():
        generic = lower(generic_platform)
    t = 0.0
    for i in range(40):
        chunks = {h: 2e8 + 1e7 * h for h in range(0, 6, 2)}
        fast = lowered.iteration(chunks, t, 1.0)
        ref = generic.iteration(chunks, t, 1.0)
        assert fast == ref
        assert (lowered.predicted_rates(fast[1], 20.0)
                == generic.predicted_rates(ref[1], 20.0))
        t = fast[1]


@pytest.mark.parametrize("strategy_factory", [
    lambda: NothingStrategy(),
    lambda: SwapStrategy(greedy_policy()),
    lambda: SwapStrategy(safe_policy()),
    lambda: SwapStrategy(friendly_policy()),
])
def test_strategy_makespans_identical_lowered_vs_unlowered(strategy_factory):
    """The regression oracle: full runs are float-identical whichever
    lowering fires."""
    lowered_result = strategy_factory().run(onoff_platform(seed=3),
                                            app(3, iters=12))
    with disable_lowering():
        generic_result = strategy_factory().run(onoff_platform(seed=3),
                                                app(3, iters=12))
    assert lowered_result.makespan == generic_result.makespan
    assert ([r.end for r in lowered_result.records]
            == [r.end for r in generic_result.records])


def test_decision_rates_bounded_only_on_batch_plans():
    """Batch plans hand decisions a lazy view for window averages and the
    cached full map for instantaneous rates; the disable_lowering()
    oracle hands them the full map."""
    lowered = lower(onoff_platform())
    with disable_lowering():
        generic = lower(onoff_platform())
    full = generic.predicted_rates(40.0, 30.0)
    view = lowered.decision_rates(40.0, 30.0, [1, 4])
    assert type(view) is RateView
    assert set(view) == {1, 4}
    assert {h: view[h] for h in full} == full
    assert lowered.decision_rates(40.0, 0.0, [1]) == \
        generic.predicted_rates(40.0, 0.0)
    oracle = generic.decision_rates(40.0, 30.0, [1, 4])
    assert type(oracle) is dict and oracle == full


def test_strategy_makespans_identical_on_constant_load():
    lowered_result = NothingStrategy().run(constant_platform(n_competing=2),
                                           app(2, iters=8))
    with disable_lowering():
        generic_result = NothingStrategy().run(
            constant_platform(n_competing=2), app(2, iters=8))
    assert lowered_result.makespan == generic_result.makespan


# -- plan guards -------------------------------------------------------------

def test_iteration_rejects_empty_chunks_every_binding():
    for build in (lambda: lower(constant_platform()),
                  lambda: lower(onoff_platform())):
        plan = build()
        with pytest.raises(StrategyError):
            plan.iteration({}, 0.0, 1.0)
    with disable_lowering():
        plan = lower(constant_platform())
    with pytest.raises(StrategyError):
        plan.iteration({}, 0.0, 1.0)
