"""Fault-injected runs are deterministic: same seed, same bytes.

The ext-faults sweep must produce byte-identical traces across reruns,
worker counts, and cache states -- the executor's contract extended to
the fault subsystem (plans are realized lazily per cell, so this is a
real property, not a tautology).
"""

from repro import obs
from repro.obs.analyze import TraceSet, lint
from repro.experiments.executor import execute_sweep
from repro.experiments.scenarios import EXT_FAULTS, FAULT_RATE_GRID


def traced_sweep(jobs=1, cache_dir=None):
    session = obs.ObsSession()
    result, _timing = execute_sweep(EXT_FAULTS, seeds=1, jobs=jobs,
                                    cache_dir=cache_dir, obs_session=session)
    return result, session


def test_rerun_is_byte_identical():
    result_a, session_a = traced_sweep()
    result_b, session_b = traced_sweep()
    assert session_a.trace.to_jsonl() == session_b.trace.to_jsonl()
    assert result_a.to_dict() == result_b.to_dict()


def test_parallel_matches_serial():
    result_serial, session_serial = traced_sweep(jobs=1)
    result_parallel, session_parallel = traced_sweep(jobs=2)
    assert session_serial.trace.to_jsonl() == session_parallel.trace.to_jsonl()
    assert result_serial.to_dict() == result_parallel.to_dict()


def test_warm_cache_matches_cold(tmp_path):
    _cold, session_cold = traced_sweep(cache_dir=tmp_path)
    _warm, session_warm = traced_sweep(cache_dir=tmp_path)
    assert session_cold.trace.to_jsonl() == session_warm.trace.to_jsonl()


def test_fault_trace_passes_lint():
    _result, session = traced_sweep()
    findings = lint(TraceSet(session.trace.records))
    assert findings == [], [str(f) for f in findings]


def test_swap_recovers_while_nothing_degrades():
    # The scenario's acceptance shape at the heaviest revocation rate.
    result, _session = traced_sweep()
    assert FAULT_RATE_GRID[0] == 0.0
    nothing = result.series["nothing"].mean
    swap = result.series["swap-greedy"].mean
    assert nothing[-1] > 2.0 * nothing[0]
    assert swap[-1] < 2.0 * swap[0]
    assert swap[-1] < nothing[-1]
