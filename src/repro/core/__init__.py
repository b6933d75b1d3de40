"""The paper's primary contribution: swap policies and the payback algebra.

* :mod:`repro.core.payback` -- the cost/benefit algebra of Section 5:
  ``swap_time = alpha + size/beta`` and the *payback distance*.
* :mod:`repro.core.history` -- performance history windows and their
  last-value/windowed-mean forecasts (Section 4.1's "amount of
  performance history" parameter).
* :mod:`repro.core.policy` -- the policy parameter set of Section 4.1 and
  the three named policies of Section 4.2 (greedy, safe, friendly).
* :mod:`repro.core.decision` -- the decision engine: "swap the slowest
  active processor(s) for the fastest inactive processor(s)", gated by the
  policy's thresholds.
"""

from repro.core.payback import payback_distance, swap_time
from repro.core.history import (
    Forecaster,
    LastValueForecaster,
    PerformanceHistory,
    PerformanceMonitor,
    WindowedMeanForecaster,
)
from repro.core.policy import (
    PolicyParams,
    friendly_policy,
    greedy_policy,
    named_policy,
    safe_policy,
)
from repro.core.decision import (
    ReconfigurationCheck,
    SwapDecision,
    SwapMove,
    decide_swaps,
    evaluate_reconfiguration,
)

__all__ = [
    "Forecaster",
    "LastValueForecaster",
    "PerformanceHistory",
    "PerformanceMonitor",
    "PolicyParams",
    "ReconfigurationCheck",
    "SwapDecision",
    "SwapMove",
    "WindowedMeanForecaster",
    "decide_swaps",
    "evaluate_reconfiguration",
    "friendly_policy",
    "greedy_policy",
    "named_policy",
    "payback_distance",
    "safe_policy",
    "swap_time",
]
