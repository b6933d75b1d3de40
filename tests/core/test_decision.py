"""Tests for the swap decision engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decision import decide_swaps, evaluate_reconfiguration
from repro.core.policy import (
    PolicyParams,
    friendly_policy,
    greedy_policy,
    safe_policy,
)
from repro.errors import PolicyError


def equal_chunks(hosts, chunk=1e9):
    return {h: chunk for h in hosts}


# -- evaluate_reconfiguration -----------------------------------------------------

def test_gate_accepts_clear_win():
    check = evaluate_reconfiguration(100.0, 50.0, cost=10.0,
                                     params=greedy_policy())
    assert check.accepted
    assert check.app_improvement == pytest.approx(1.0)
    assert check.payback == pytest.approx(0.2)


def test_gate_rejects_no_improvement():
    check = evaluate_reconfiguration(100.0, 100.0, cost=0.0,
                                     params=greedy_policy())
    assert not check.accepted
    assert "no application improvement" in check.reason


def test_gate_rejects_below_app_threshold():
    params = PolicyParams(name="x", min_app_improvement=0.10)
    check = evaluate_reconfiguration(100.0, 95.0, cost=0.0, params=params)
    assert not check.accepted
    assert "below" in check.reason


def test_gate_rejects_long_payback():
    params = PolicyParams(name="x", payback_threshold=0.5)
    # Saves 1 s/iteration but costs 10 s -> payback 10 iterations.
    check = evaluate_reconfiguration(100.0, 99.0, cost=10.0, params=params)
    assert not check.accepted
    assert "payback" in check.reason


def test_gate_validates_iteration_times():
    with pytest.raises(PolicyError):
        evaluate_reconfiguration(0.0, 1.0, 0.0, greedy_policy())


# -- decide_swaps -----------------------------------------------------------------

def test_greedy_swaps_slowest_for_fastest():
    rates = {0: 100.0, 1: 50.0, 2: 200.0, 3: 80.0}
    decision = decide_swaps(active=[0, 1], spares=[2, 3], rates=rates,
                            chunk_flops=equal_chunks([0, 1], 1000.0),
                            comm_time=0.0, swap_cost=1.0,
                            params=greedy_policy())
    assert decision.should_swap
    first = decision.moves[0]
    assert first.out_host == 1 and first.in_host == 2


def test_greedy_chains_multiple_swaps():
    rates = {0: 100.0, 1: 50.0, 2: 400.0, 3: 300.0}
    decision = decide_swaps(active=[0, 1], spares=[2, 3], rates=rates,
                            chunk_flops=equal_chunks([0, 1], 1000.0),
                            comm_time=0.0, swap_cost=0.1,
                            params=greedy_policy())
    # Swap 1->2, then 0 is the slowest and 3 still improves it.
    assert [(m.out_host, m.in_host) for m in decision.moves] == [(1, 2), (0, 3)]
    assert decision.active_set_after([0, 1]) == [3, 2]


def test_no_swap_when_spares_slower():
    rates = {0: 100.0, 1: 90.0, 2: 50.0}
    decision = decide_swaps(active=[0, 1], spares=[2], rates=rates,
                            chunk_flops=equal_chunks([0, 1], 1000.0),
                            comm_time=0.0, swap_cost=1.0,
                            params=greedy_policy())
    assert not decision.should_swap
    assert "no faster" in decision.rejected_reason


def test_no_swap_without_spares():
    rates = {0: 100.0, 1: 90.0}
    decision = decide_swaps(active=[0, 1], spares=[], rates=rates,
                            chunk_flops=equal_chunks([0, 1], 1000.0),
                            comm_time=0.0, swap_cost=1.0,
                            params=greedy_policy())
    assert not decision.should_swap


def test_safe_requires_20_percent_process_gain():
    # 10% faster spare: greedy swaps, safe does not.
    rates = {0: 120.0, 1: 100.0, 2: 110.0}
    kwargs = dict(active=[0, 1], spares=[2],
                  chunk_flops=equal_chunks([0, 1], 1000.0),
                  comm_time=0.0, swap_cost=0.001, rates=rates)
    assert decide_swaps(params=greedy_policy(), **kwargs).should_swap
    safe = decide_swaps(params=safe_policy(), **kwargs)
    assert not safe.should_swap
    assert "process improvement" in safe.rejected_reason


def test_safe_payback_threshold_blocks_expensive_swaps():
    # Large gain but cost of 100 s vs 1 s saved per iteration.
    rates = {0: 100.0, 1: 50.0, 2: 65.0}
    decision = decide_swaps(active=[0, 1], spares=[2], rates=rates,
                            chunk_flops=equal_chunks([0, 1], 100.0),
                            comm_time=0.0, swap_cost=100.0,
                            params=safe_policy())
    assert not decision.should_swap


def test_friendly_needs_application_level_gain():
    # The slowest active barely improves: app gain under 2%.
    rates = {0: 100.0, 1: 99.0, 2: 100.5}
    decision = decide_swaps(active=[0, 1], spares=[2], rates=rates,
                            chunk_flops=equal_chunks([0, 1], 1000.0),
                            comm_time=0.0, swap_cost=0.001,
                            params=friendly_policy())
    assert not decision.should_swap
    assert "application improvement" in decision.rejected_reason


def test_friendly_accepts_meaningful_gain():
    rates = {0: 100.0, 1: 50.0, 2: 100.0}
    decision = decide_swaps(active=[0, 1], spares=[2], rates=rates,
                            chunk_flops=equal_chunks([0, 1], 1000.0),
                            comm_time=0.0, swap_cost=0.001,
                            params=friendly_policy())
    assert decision.should_swap


def test_comm_time_dilutes_app_improvement():
    # Compute halves, but communication dominates the iteration.
    rates = {0: 100.0, 1: 200.0}
    params = PolicyParams(name="x", min_app_improvement=0.10)
    without_comm = decide_swaps(active=[0], spares=[1], rates=rates,
                                chunk_flops={0: 1000.0}, comm_time=0.0,
                                swap_cost=0.001, params=params)
    with_comm = decide_swaps(active=[0], spares=[1], rates=rates,
                             chunk_flops={0: 1000.0}, comm_time=100.0,
                             swap_cost=0.001, params=params)
    assert without_comm.should_swap
    assert not with_comm.should_swap


def test_swapped_in_host_inherits_chunk():
    # Unequal chunks: host 1 has the big chunk; its replacement gets it.
    rates = {0: 100.0, 1: 100.0, 2: 150.0}
    chunks = {0: 100.0, 1: 1000.0}
    decision = decide_swaps(active=[0, 1], spares=[2], rates=rates,
                            chunk_flops=chunks, comm_time=0.0,
                            swap_cost=0.001, params=greedy_policy())
    assert decision.moves[0].out_host == 1
    assert decision.new_iteration_time == pytest.approx(1000.0 / 150.0)


def test_max_swaps_cap():
    rates = {0: 10.0, 1: 20.0, 2: 30.0, 3: 100.0, 4: 100.0, 5: 100.0}
    params = greedy_policy().with_overrides(max_swaps_per_decision=1)
    decision = decide_swaps(active=[0, 1, 2], spares=[3, 4, 5], rates=rates,
                            chunk_flops=equal_chunks([0, 1, 2], 100.0),
                            comm_time=0.0, swap_cost=0.001, params=params)
    assert len(decision.moves) == 1
    uncapped = decide_swaps(active=[0, 1, 2], spares=[3, 4, 5], rates=rates,
                            chunk_flops=equal_chunks([0, 1, 2], 100.0),
                            comm_time=0.0, swap_cost=0.001,
                            params=greedy_policy())
    assert len(uncapped.moves) == 3


def test_tied_actives_swap_as_a_batch():
    """Replacing one of several equally slow processors gains nothing
    alone; the batch decision replaces them together."""
    rates = {0: 10.0, 1: 10.0, 2: 10.0, 3: 100.0, 4: 100.0, 5: 100.0}
    decision = decide_swaps(active=[0, 1, 2], spares=[3, 4, 5], rates=rates,
                            chunk_flops=equal_chunks([0, 1, 2], 100.0),
                            comm_time=0.0, swap_cost=0.001,
                            params=greedy_policy())
    assert len(decision.moves) == 3
    assert decision.new_iteration_time == pytest.approx(1.0)


def test_input_validation():
    with pytest.raises(PolicyError):
        decide_swaps(active=[], spares=[], rates={}, chunk_flops={},
                     comm_time=0.0, swap_cost=0.0, params=greedy_policy())
    with pytest.raises(PolicyError):
        decide_swaps(active=[0], spares=[1], rates={0: 1.0},
                     chunk_flops={0: 1.0}, comm_time=0.0, swap_cost=0.0,
                     params=greedy_policy())
    with pytest.raises(PolicyError):
        decide_swaps(active=[0], spares=[], rates={0: 0.0},
                     chunk_flops={0: 1.0}, comm_time=0.0, swap_cost=0.0,
                     params=greedy_policy())


# -- dead / revoked spares --------------------------------------------------------
#
# The caller (the SWAP strategy under fault injection) excises revoked
# hosts from the spare list before deciding.  These pin the behaviors
# that excision relies on.

def test_excised_spare_falls_through_to_next_fastest():
    # Host 2 is the fastest spare but revoked: with it filtered out the
    # decision must promote the next-fastest spare, not give up.
    rates = {0: 100.0, 1: 50.0, 2: 400.0, 3: 200.0}
    decision = decide_swaps(active=[0, 1], spares=[3],  # 2 excised
                            rates=rates, chunk_flops=equal_chunks([0, 1]),
                            comm_time=0.0, swap_cost=1.0,
                            params=greedy_policy())
    assert [(m.out_host, m.in_host) for m in decision.moves] == [(1, 3)]


def test_all_spares_revoked_means_no_swap_not_an_error():
    rates = {0: 100.0, 1: 50.0}
    decision = decide_swaps(active=[0, 1], spares=[], rates=rates,
                            chunk_flops=equal_chunks([0, 1]),
                            comm_time=0.0, swap_cost=1.0,
                            params=greedy_policy())
    assert not decision.should_swap
    assert not decision.moves
    assert decision.rejected_reason == ""  # pool exhausted, nothing gated


def test_unfiltered_dead_spare_without_rate_is_rejected():
    # A dead spare the caller forgot to excise has no predicted rate;
    # that must surface as a loud error, not a silent bad decision.
    rates = {0: 100.0, 1: 50.0, 3: 200.0}
    with pytest.raises(PolicyError):
        decide_swaps(active=[0, 1], spares=[2, 3], rates=rates,
                     chunk_flops=equal_chunks([0, 1]), comm_time=0.0,
                     swap_cost=1.0, params=greedy_policy())


def test_zero_rate_dead_spare_is_rejected():
    # Likewise a "present but dead" spare reported at rate 0.
    rates = {0: 100.0, 1: 50.0, 2: 0.0}
    with pytest.raises(PolicyError):
        decide_swaps(active=[0, 1], spares=[2], rates=rates,
                     chunk_flops=equal_chunks([0, 1]), comm_time=0.0,
                     swap_cost=1.0, params=greedy_policy())


# -- rejected_reason / gate trail -------------------------------------------------

def test_rejection_after_committed_prefix_keeps_its_reason():
    """Regression: a rejection that follows an accepted move used to be
    reported as "" because acceptance reset the reason and the restore
    path only ran when nothing had been committed yet."""
    rates = {0: 100.0, 1: 50.0, 2: 200.0, 3: 40.0}
    decision = decide_swaps(active=[0, 1], spares=[2, 3], rates=rates,
                            chunk_flops=equal_chunks([0, 1], 1000.0),
                            comm_time=0.0, swap_cost=1.0,
                            params=greedy_policy())
    assert [(m.out_host, m.in_host) for m in decision.moves] == [(1, 2)]
    assert "no faster" in decision.rejected_reason


def test_rejected_reason_process_threshold_after_commit():
    params = greedy_policy().with_overrides(min_process_improvement=0.5)
    rates = {0: 100.0, 1: 50.0, 2: 200.0, 3: 120.0}
    decision = decide_swaps(active=[0, 1], spares=[2, 3], rates=rates,
                            chunk_flops=equal_chunks([0, 1], 1000.0),
                            comm_time=0.0, swap_cost=1.0, params=params)
    assert len(decision.moves) == 1
    assert "process improvement" in decision.rejected_reason
    assert "below" in decision.rejected_reason


def test_rejected_reason_payback_after_commit():
    # First swap saves 10 s for a cost of 9 s (payback 0.9); the second
    # brings cumulative cost to 18 s against 10.9 s saved (payback 1.65).
    params = PolicyParams(name="x", payback_threshold=1.0)
    rates = {0: 100.0, 1: 50.0, 2: 200.0, 3: 110.0}
    decision = decide_swaps(active=[0, 1], spares=[2, 3], rates=rates,
                            chunk_flops=equal_chunks([0, 1], 1000.0),
                            comm_time=0.0, swap_cost=9.0, params=params)
    assert [(m.out_host, m.in_host) for m in decision.moves] == [(1, 2)]
    assert "payback" in decision.rejected_reason


def test_rejected_reason_app_threshold_on_first_proposal():
    rates = {0: 100.0, 1: 99.0, 2: 100.5}
    decision = decide_swaps(active=[0, 1], spares=[2], rates=rates,
                            chunk_flops=equal_chunks([0, 1], 1000.0),
                            comm_time=0.0, swap_cost=0.001,
                            params=friendly_policy())
    assert not decision.should_swap
    assert "application improvement" in decision.rejected_reason
    assert "below" in decision.rejected_reason


def test_rejected_reason_empty_when_spares_run_out_accepted():
    rates = {0: 100.0, 1: 50.0, 2: 200.0}
    decision = decide_swaps(active=[0, 1], spares=[2], rates=rates,
                            chunk_flops=equal_chunks([0, 1], 1000.0),
                            comm_time=0.0, swap_cost=1.0,
                            params=greedy_policy())
    assert decision.should_swap
    assert decision.rejected_reason == ""


def test_gate_trail_records_every_proposal():
    rates = {0: 100.0, 1: 50.0, 2: 200.0, 3: 40.0}
    decision = decide_swaps(active=[0, 1], spares=[2, 3], rates=rates,
                            chunk_flops=equal_chunks([0, 1], 1000.0),
                            comm_time=0.0, swap_cost=1.0,
                            params=greedy_policy())
    assert [g.gate for g in decision.gates] == ["accepted", "process"]
    accepted, rejected = decision.gates
    assert accepted.accepted and accepted.reason == ""
    assert accepted.app_improvement == pytest.approx(1.0)
    assert accepted.payback is not None
    # The process gate fails before the application gates run.
    assert not rejected.accepted
    assert rejected.app_improvement is None and rejected.payback is None
    assert rejected.process_improvement == pytest.approx(40.0 / 100.0 - 1.0)


def test_gate_trail_application_rejection_carries_numbers():
    params = PolicyParams(name="x", payback_threshold=1.0)
    rates = {0: 100.0, 1: 50.0, 2: 200.0, 3: 110.0}
    decision = decide_swaps(active=[0, 1], spares=[2, 3], rates=rates,
                            chunk_flops=equal_chunks([0, 1], 1000.0),
                            comm_time=0.0, swap_cost=9.0, params=params)
    assert [g.gate for g in decision.gates] == ["accepted", "application"]
    rejected = decision.gates[1]
    assert rejected.payback == pytest.approx(18.0 / (20.0 - 1000.0 / 110.0))
    record = rejected.to_record()
    assert record["gate"] == "application"
    assert record["reason"] == rejected.reason


def test_gate_trail_all_accepted_chain():
    rates = {0: 100.0, 1: 50.0, 2: 400.0, 3: 300.0}
    decision = decide_swaps(active=[0, 1], spares=[2, 3], rates=rates,
                            chunk_flops=equal_chunks([0, 1], 1000.0),
                            comm_time=0.0, swap_cost=0.1,
                            params=greedy_policy())
    assert [g.gate for g in decision.gates] == ["accepted", "accepted"]
    assert decision.rejected_reason == ""


# -- properties -------------------------------------------------------------------

rate_lists = st.lists(st.floats(min_value=1.0, max_value=1e4),
                      min_size=3, max_size=12)


@given(rate_lists, st.integers(min_value=1, max_value=4))
@settings(max_examples=80)
def test_decision_never_worsens_prediction(rates_list, n_active):
    n_active = min(n_active, len(rates_list) - 1)
    hosts = list(range(len(rates_list)))
    rates = dict(enumerate(rates_list))
    active, spares = hosts[:n_active], hosts[n_active:]
    decision = decide_swaps(active=active, spares=spares, rates=rates,
                            chunk_flops=equal_chunks(active, 100.0),
                            comm_time=0.0, swap_cost=0.01,
                            params=greedy_policy())
    assert decision.new_iteration_time <= decision.old_iteration_time + 1e-9
    assert len(decision.moves) <= len(spares)
    after = decision.active_set_after(active)
    assert len(after) == len(active)
    assert len(set(after)) == len(after)


@given(rate_lists)
@settings(max_examples=80)
def test_stricter_policy_swaps_no_more_than_greedy(rates_list):
    hosts = list(range(len(rates_list)))
    rates = dict(enumerate(rates_list))
    active, spares = hosts[:2], hosts[2:]
    kwargs = dict(active=active, spares=spares, rates=rates,
                  chunk_flops=equal_chunks(active, 100.0),
                  comm_time=0.0, swap_cost=0.01)
    greedy = decide_swaps(params=greedy_policy(), **kwargs)
    strict = decide_swaps(params=safe_policy(), **kwargs)
    assert len(strict.moves) <= len(greedy.moves)


# -- bounded rate sources ----------------------------------------------------------
#
# A bounded source (repro.load.kernels.RateView) computes rates lazily and
# skips spares whose unloaded speed proves they cannot be the fastest.
# Decisions over it must equal the eager full-map decisions exactly:
# moves, predictions, reason strings and the whole gate trail.

def _host_batch(speeds, segment_lists):
    from repro.load.base import LoadTrace
    from repro.load.kernels import HostBatch
    from repro.platform.host import Host, HostSpec

    hosts = []
    for i, (speed, segments) in enumerate(zip(speeds, segment_lists)):
        host = Host(HostSpec(name=f"h{i}", speed=speed), rng=None, index=i)
        times, values = [0.0], []
        for duration, value in segments:
            times.append(times[-1] + duration)
            values.append(value)
        host.trace = LoadTrace(times, values, beyond_horizon="hold")
        hosts.append(host)
    return HostBatch(hosts)


_segments = st.lists(st.tuples(st.sampled_from([1.0, 7.5, 20.0, 45.0]),
                               st.integers(min_value=0, max_value=3)),
                     min_size=1, max_size=6)


@st.composite
def bounded_cases(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    # Few distinct speeds and (optionally) one shared trace: exact rate
    # ties between hosts are common, not a measure-zero accident.
    speeds = draw(st.lists(st.sampled_from([1e8, 2e8, 2.5e8, 3e8]),
                           min_size=n, max_size=n))
    if draw(st.booleans()):
        segment_lists = [draw(_segments)] * n
    else:
        segment_lists = draw(st.lists(_segments, min_size=n, max_size=n))
    hosts = draw(st.permutations(range(n)))
    n_active = draw(st.integers(min_value=1, max_value=min(4, n)))
    active = list(hosts[:n_active])
    rest = list(hosts[n_active:])
    spares = rest[:draw(st.integers(min_value=0, max_value=len(rest)))]
    params = PolicyParams(
        name="drawn",
        payback_threshold=draw(st.sampled_from([float("inf"), 0.5, 5.0])),
        min_process_improvement=draw(st.sampled_from([0.0, 0.2])),
        min_app_improvement=draw(st.sampled_from([0.0, 0.02])),
        max_swaps_per_decision=draw(st.sampled_from([None, 1, 2])))
    chunks = {h: draw(st.sampled_from([1e8, 3e8])) for h in active}
    return dict(
        speeds=speeds, segment_lists=segment_lists, active=active,
        spares=spares, params=params, chunks=chunks,
        t=draw(st.sampled_from([1.0, 12.5, 60.0, 133.0, 300.0])),
        window=draw(st.sampled_from([2.0, 30.0, 60.0, 500.0])),
        comm_time=draw(st.sampled_from([0.0, 1.0])),
        swap_cost=draw(st.sampled_from([0.01, 10.0])))


@given(bounded_cases())
@settings(max_examples=300, deadline=None)
def test_bounded_decision_equals_eager_decision(case):
    from repro.load.kernels import RateView

    def decide(rates):
        return decide_swaps(case["active"], case["spares"], rates,
                            case["chunks"], case["comm_time"],
                            case["swap_cost"], case["params"])

    eager = _host_batch(case["speeds"], case["segment_lists"]).rates_map(
        case["t"], case["window"])
    view = _host_batch(case["speeds"], case["segment_lists"]).rate_view(
        case["t"], case["window"], case["active"])
    assert type(view) is RateView
    assert decide(view) == decide(eager)


def test_bounded_tie_goes_to_the_spare_earlier_in_the_pool():
    batch = _host_batch([3e8] * 5, [[(100.0, 0)]] * 5)
    args = ({0: 1e9, 1: 1e9}, 0.0, 0.01, greedy_policy())
    decision = decide_swaps([0, 1], [4, 2, 3],
                            batch.rate_view(50.0, 20.0, [0, 1]), *args)
    eager = decide_swaps([0, 1], [4, 2, 3], batch.rates_map(50.0, 20.0),
                         *args)
    assert decision == eager
    assert decision.gates[0].in_host == 4


def test_bounded_source_rejects_out_of_range_spare():
    batch = _host_batch([1e8, 2e8, 3e8], [[(100.0, 1)]] * 3)
    view = batch.rate_view(50.0, 20.0, [0])
    with pytest.raises(PolicyError):
        decide_swaps([0], [1, 3], view, {0: 1e9}, 0.0, 0.01,
                     greedy_policy())
    with pytest.raises(PolicyError):
        decide_swaps([0], [-1], view, {0: 1e9}, 0.0, 0.01,
                     greedy_policy())


# -- looser gates never take a move away -------------------------------------------
#
# decide_swaps builds one candidate batch and commits its longest accepted
# prefix.  The batch does not depend on the payback or application
# thresholds, and a higher process threshold only cuts it shorter; a
# candidate the tighter gates accept, the looser ones accept too.  So the
# tighter policy's moves are a prefix of the looser policy's, exactly:
# the same hosts, gains and paybacks.

_thresholds = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5))


@st.composite
def gate_pairs(draw):
    """A looser policy and one with all three thresholds tightened
    together (each by a step that may be zero), with the same cap."""
    cap = draw(st.sampled_from([None, 1, 2]))
    payback = draw(st.one_of(st.just(float("inf")),
                             st.floats(min_value=0.05, max_value=20.0)))
    process, app = draw(_thresholds), draw(_thresholds)
    loose = PolicyParams(name="loose", payback_threshold=payback,
                         min_process_improvement=process,
                         min_app_improvement=app,
                         max_swaps_per_decision=cap)
    tight = PolicyParams(
        name="tight",
        payback_threshold=min(payback, draw(st.one_of(
            st.just(float("inf")), st.floats(min_value=0.05,
                                             max_value=20.0)))),
        min_process_improvement=process + draw(_thresholds),
        min_app_improvement=app + draw(_thresholds),
        max_swaps_per_decision=cap)
    return loose, tight


@st.composite
def gate_cases(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    hosts = draw(st.permutations(range(n)))
    n_active = draw(st.integers(min_value=1, max_value=n - 1))
    active = list(hosts[:n_active])
    return dict(
        n=n, active=active, spares=list(hosts[n_active:]),
        policies=draw(gate_pairs()),
        chunks={h: draw(st.sampled_from([1e8, 3e8])) for h in active},
        comm_time=draw(st.sampled_from([0.0, 1.0, 10.0])),
        swap_cost=draw(st.sampled_from([0.01, 1.0, 10.0])))


def _assert_tighter_moves_are_a_prefix(case, rates_for):
    loose, tight = (
        decide_swaps(case["active"], case["spares"], rates_for(), case["chunks"],
                     case["comm_time"], case["swap_cost"], params)
        for params in case["policies"])
    assert tight.moves == loose.moves[:len(tight.moves)]


@given(gate_cases(), st.data())
@settings(max_examples=300, deadline=None)
def test_looser_gates_never_take_a_move_away(case, data):
    # Few distinct rates, so exact ties between hosts are common.
    rates = dict(enumerate(data.draw(st.lists(
        st.one_of(st.sampled_from([1e8, 1.5e8, 2e8, 3e8]),
                  st.floats(min_value=5e7, max_value=4e8)),
        min_size=case["n"], max_size=case["n"]))))
    _assert_tighter_moves_are_a_prefix(case, lambda: rates)


@given(gate_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_looser_gates_never_take_a_move_away_over_a_rate_view(case, data):
    from repro.load.kernels import RateView

    n = case["n"]
    speeds = data.draw(st.lists(st.sampled_from([1e8, 2e8, 2.5e8, 3e8]),
                                min_size=n, max_size=n))
    segment_lists = data.draw(st.lists(_segments, min_size=n, max_size=n))
    t = data.draw(st.sampled_from([12.5, 60.0, 133.0, 300.0]))
    window = data.draw(st.sampled_from([2.0, 30.0, 60.0, 500.0]))

    def rate_view():
        view = _host_batch(speeds, segment_lists).rate_view(
            t, window, case["active"])
        assert type(view) is RateView
        return view

    _assert_tighter_moves_are_a_prefix(case, rate_view)
