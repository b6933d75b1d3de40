"""repro: a full reproduction of "Policies for Swapping MPI Processes"
(Otto Sievert and Henri Casanova, HPDC 2003).

The package contains:

* the paper's core contribution -- the payback algebra and the greedy /
  safe / friendly swap policies (:mod:`repro.core`);
* every substrate the evaluation depends on -- a discrete-event simulation
  kernel (:mod:`repro.simkernel`), a heterogeneous shared-LAN platform
  model (:mod:`repro.platform`), the ON/OFF and hyperexponential CPU load
  models (:mod:`repro.load`), a simulated MPI subset (:mod:`repro.smpi`)
  and the process-swapping runtime built on it (:mod:`repro.swap`);
* the four execution strategies the paper compares
  (:mod:`repro.strategies`) and the experiment harness regenerating every
  figure (:mod:`repro.experiments`).

Quickstart
----------

>>> from repro import quick_comparison
>>> table = quick_comparison(load_probability=0.2, seed=1)
>>> sorted(table)   # doctest: +ELLIPSIS
['cr', 'dlb', 'nothing', 'swap-greedy']
"""

from repro.app import ApplicationSpec, paper_application
from repro.core import (
    PolicyParams,
    decide_swaps,
    friendly_policy,
    greedy_policy,
    named_policy,
    payback_distance,
    safe_policy,
    swap_time,
)
from repro.load import (
    ConstantLoadModel,
    HyperexponentialLoadModel,
    LoadTrace,
    OnOffLoadModel,
    ReplayLoadModel,
)
from repro.platform import LinkSpec, Platform, make_platform
from repro.strategies import (
    CrStrategy,
    DlbStrategy,
    ExecutionResult,
    NothingStrategy,
    Strategy,
    SwapStrategy,
)

__version__ = "1.1.0"

__all__ = [
    "ApplicationSpec",
    "ConstantLoadModel",
    "CrStrategy",
    "DlbStrategy",
    "ExecutionResult",
    "HyperexponentialLoadModel",
    "LinkSpec",
    "LoadTrace",
    "NothingStrategy",
    "OnOffLoadModel",
    "Platform",
    "PolicyParams",
    "ReplayLoadModel",
    "Strategy",
    "SwapStrategy",
    "__version__",
    "decide_swaps",
    "friendly_policy",
    "greedy_policy",
    "make_platform",
    "named_policy",
    "paper_application",
    "payback_distance",
    "quick_comparison",
    "safe_policy",
    "swap_time",
]


def quick_comparison(load_probability: float = 0.2, seed: int = 0,
                     n_hosts: int = 32, n_processes: int = 4,
                     iterations: int = 30) -> "dict[str, float]":
    """Run the paper's four techniques once and return their makespans.

    A convenience wrapper around the full experiment harness for a first
    contact with the package; see :mod:`repro.experiments` for the real
    figure sweeps.
    """
    app = paper_application(n_processes=n_processes, iterations=iterations)
    platform = make_platform(
        n_hosts, OnOffLoadModel(p=load_probability, q=0.08), seed=seed)
    strategies = [NothingStrategy(), SwapStrategy(greedy_policy()),
                  DlbStrategy(), CrStrategy()]
    return {s.name: s.run(platform, app).makespan for s in strategies}
