"""Strategy-level fault behavior: stalls, promotion, restart, repartition.

The SWAP variants (spawn, contract) share SWAP's loop, so they see the
same faults and recover the same way.

Each test runs one strategy on a faulty platform under an ObsSession and
checks the recovery semantics through the emitted ``fault.*`` records
plus the execution result.  A shared invariant: a platform built with a
zero-rate fault model behaves bit-for-bit like a fault-free platform.
"""

import pytest

from repro import obs
from repro.obs.analyze import TraceSet, lint
from repro.app.workloads import paper_application
from repro.contracts.strategy import ContractSwapStrategy
from repro.core.policy import greedy_policy
from repro.faults.plan import FaultModel
from repro.load.onoff import OnOffLoadModel
from repro.platform.cluster import make_platform
from repro.simkernel.plan import disable_lowering
from repro.strategies.cr import CrStrategy
from repro.strategies.dlb import DlbStrategy
from repro.strategies.nothing import NothingStrategy
from repro.strategies.spawnswap import SpawnSwapStrategy
from repro.strategies.swapstrat import SwapStrategy
from repro.units import MB

#: High enough that every seed sees several revocations inside a 50 x
#: 60 s run: ~8 per host-hour with 5-minute outages.
FAULTY = FaultModel(revocation_rate=8.0, mean_downtime=300.0)


def small_app(n_processes=4, iterations=50):
    return paper_application(n_processes=n_processes, iterations=iterations,
                             iteration_minutes=1.0,
                             bytes_per_process=100e3, state_bytes=1 * MB)


def faulty_platform(seed, model=FAULTY, n_hosts=16):
    return make_platform(n_hosts, OnOffLoadModel(p=0.02, q=0.02), seed=seed,
                         speed_range=(250e6, 350e6), fault_model=model)


def traced_run(strategy, platform, app):
    session = obs.ObsSession()
    with obs.observing(session):
        result = strategy.run(platform, app)
    return result, session


def records_of(session, kind):
    return [r for r in session.trace.records if r["kind"] == kind]


SWAP_VARIANTS = [SpawnSwapStrategy(greedy_policy()),
                 ContractSwapStrategy(greedy_policy())]
ALL_STRATEGIES = [NothingStrategy(), SwapStrategy(greedy_policy()),
                  DlbStrategy(), CrStrategy(), *SWAP_VARIANTS]


# -- zero-rate plan is a no-op ------------------------------------------------

@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
def test_zero_rate_plan_matches_fault_free_run(strategy):
    app = small_app()
    plain = strategy.run(
        make_platform(16, OnOffLoadModel(p=0.02, q=0.02), seed=23,
                      speed_range=(250e6, 350e6)), app)
    gated = strategy.run(
        faulty_platform(23, model=FaultModel(revocation_rate=0.0)), app)
    assert gated.makespan == plain.makespan
    assert gated.swap_count == plain.swap_count
    assert gated.restart_count == plain.restart_count
    assert gated.final_active == plain.final_active


# -- NOTHING: stalls ----------------------------------------------------------

def test_nothing_declares_stall_per_revocation():
    result, session = traced_run(NothingStrategy(), faulty_platform(1),
                                 small_app())
    revocations = records_of(session, "fault.revocation")
    stalls = records_of(session, "fault.stall")
    assert revocations, "expected revocations at 8/host-hour over ~1 h"
    assert len(stalls) == len(revocations)
    assert all(s["reason"] == "no-adaptation" for s in stalls)
    counters = session.metrics.to_dict()["counters"]
    assert counters["faults.stalls_total"] == len(stalls)
    assert counters["faults.revocations_total"] == len(revocations)


def test_nothing_makespan_degrades_with_faults():
    app = small_app()
    plain = NothingStrategy().run(
        make_platform(16, OnOffLoadModel(p=0.02, q=0.02), seed=1,
                      speed_range=(250e6, 350e6)), app)
    faulty = NothingStrategy().run(faulty_platform(1), app)
    assert faulty.makespan > plain.makespan


# -- SWAP: spare promotion ----------------------------------------------------

def test_swap_promotes_spare_on_revocation():
    result, session = traced_run(SwapStrategy(greedy_policy()),
                                 faulty_platform(1), small_app())
    promotions = [r for r in records_of(session, "fault.recovery")
                  if r["action"] == "swap-promote"]
    assert promotions, "expected at least one spare promotion"
    for p in promotions:
        assert p["out_host"] != p["in_host"]
        assert p["end"] > p["start"]  # the transfer cost was paid
    counters = session.metrics.to_dict()["counters"]
    assert counters["faults.recoveries_total"] >= len(promotions)


def test_swap_recovers_better_than_nothing():
    # The acceptance shape of the tentpole: under heavy revocations SWAP
    # keeps running on promoted spares while NOTHING waits out downtimes.
    app = small_app()
    worse = 0
    for seed in (1, 2, 3):
        nothing = NothingStrategy().run(faulty_platform(seed), app)
        swap = SwapStrategy(greedy_policy()).run(faulty_platform(seed), app)
        worse += nothing.makespan > swap.makespan
    assert worse >= 2, "SWAP should beat NOTHING on most faulty seeds"


@pytest.mark.parametrize("strategy", SWAP_VARIANTS, ids=lambda s: s.name)
def test_swap_variants_see_faults(strategy):
    app = small_app()
    plain = strategy.run(
        make_platform(16, OnOffLoadModel(p=0.02, q=0.02), seed=1,
                      speed_range=(250e6, 350e6)), app)
    faulty, session = traced_run(strategy, faulty_platform(1), app)
    assert faulty.makespan != plain.makespan
    revocations = records_of(session, "fault.revocation")
    assert revocations
    assert {r["source"] for r in revocations} == {strategy.name}


def test_spawn_promotion_pays_spawn_cost():
    platform = faulty_platform(1)
    transfer = platform.link.transfer_time(1 * MB)
    costs = {}
    for strategy in (SwapStrategy(greedy_policy()),
                     SpawnSwapStrategy(greedy_policy())):
        _result, session = traced_run(strategy, faulty_platform(1),
                                      small_app())
        costs[strategy.name] = {
            p["end"] - p["start"] for p in records_of(session,
                                                      "fault.recovery")
            if p["action"] == "swap-promote" and p["attempts"] == 1}
    assert costs["swap-greedy"] and costs["swap-spawn-greedy"]
    assert all(c == pytest.approx(transfer) for c in costs["swap-greedy"])
    assert all(c == pytest.approx(transfer + platform.startup_per_process)
               for c in costs["swap-spawn-greedy"])


# -- CR: checkpoint restart ---------------------------------------------------

def test_cr_restarts_after_revocation():
    result, session = traced_run(CrStrategy(), faulty_platform(1),
                                 small_app())
    restarts = [r for r in records_of(session, "fault.recovery")
                if r["action"] == "cr-restart"]
    assert restarts, "expected at least one checkpoint restart"
    for r in restarts:
        assert r["cost"] > 0.0  # re-read the checkpoint + startup
        assert len(r["new_active"]) == 4
    assert result.restart_count >= len(restarts)


def test_cr_stalls_until_enough_hosts_return_same_as_oracle():
    # One spare for four processes: revocations often leave too few
    # survivors, and CR waits for the earliest return.
    model = FaultModel(revocation_rate=4.0, mean_downtime=300.0)
    result, session = traced_run(
        CrStrategy(), faulty_platform(2, model=model, n_hosts=5),
        small_app())
    stalls = [r for r in records_of(session, "fault.stall")
              if r["reason"] == "insufficient-hosts"]
    assert stalls
    with disable_lowering():
        ref, ref_session = traced_run(
            CrStrategy(), faulty_platform(2, model=model, n_hosts=5),
            small_app())
    assert result.makespan == ref.makespan
    assert session.trace.records == ref_session.trace.records


# -- DLB: repartition ---------------------------------------------------------

def test_dlb_repartitions_over_survivors():
    result, session = traced_run(DlbStrategy(), faulty_platform(1),
                                 small_app(n_processes=4))
    repartitions = [r for r in records_of(session, "fault.recovery")
                    if r["action"] == "dlb-repartition"]
    assert repartitions, "expected at least one membership drop"
    returns = records_of(session, "fault.return")
    assert returns, "returned hosts should rejoin the membership"


# -- trace hygiene ------------------------------------------------------------

@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
def test_fault_traces_satisfy_tl_invariants(strategy):
    _result, session = traced_run(strategy, faulty_platform(7), small_app())
    findings = lint(TraceSet(session.trace.records))
    assert findings == [], [str(f) for f in findings]
