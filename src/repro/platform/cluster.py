"""Platform assembly: a pool of hosts plus the shared link.

:func:`make_platform` builds the paper's evaluation environment: ``P``
workstations with unloaded speeds drawn uniformly from the
hundreds-of-megaflops range, each with an independent instance of one CPU
load model, all on one shared 6 MB/s link, with an MPI startup cost of
0.75 s per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import PlatformError
from repro.faults.plan import FaultModel, FaultPlan
from repro.load.base import LoadModel
from repro.load.kernels import effective_rates_many
from repro.platform.host import Host, HostSpec
from repro.platform.network import LinkSpec
from repro.simkernel.rng import RngRegistry
from repro.units import HOUR, MFLOPS

#: The paper's measured MPI startup cost: "3/4 second per process".
DEFAULT_STARTUP_PER_PROCESS = 0.75

#: The paper's speed range: "processors in the hundreds-of-megaflops
#: performance range".
DEFAULT_SPEED_RANGE = (100 * MFLOPS, 500 * MFLOPS)


@dataclass
class Platform:
    """A concrete pool of hosts sharing one link.

    Host load traces are already instantiated, so two strategy simulations
    run on the *same* platform object observe the same environment -- the
    back-to-back reproducibility the paper built its simulator for.
    """

    hosts: "list[Host]"
    link: LinkSpec = field(default_factory=LinkSpec)
    startup_per_process: float = DEFAULT_STARTUP_PER_PROCESS
    """MPI launch cost per allocated process, in seconds."""
    faults: "FaultPlan | None" = None
    """Shared fault plan (revocations, transfer failures, store outages);
    ``None`` -- the default -- means a fault-free environment and leaves
    every strategy on its exact pre-fault code path."""

    def __post_init__(self) -> None:
        if not self.hosts:
            raise PlatformError("platform needs at least one host")
        names = [h.name for h in self.hosts]
        if len(set(names)) != len(names):
            raise PlatformError("host names must be unique")
        if self.startup_per_process < 0:
            raise PlatformError("startup_per_process must be >= 0")
        for i, host in enumerate(self.hosts):
            host.index = i

    def __len__(self) -> int:
        return len(self.hosts)

    def host(self, index: int) -> Host:
        return self.hosts[index]

    def startup_time(self, n_processes: int) -> float:
        """MPI launch time for ``n_processes`` (paper: 0.75 s each)."""
        if n_processes < 0:
            raise PlatformError(f"negative process count {n_processes}")
        return self.startup_per_process * n_processes

    def effective_rates(self, t: float, window: float = 0.0,
                        indices: "Sequence[int] | None" = None) -> "dict[int, float]":
        """Window-averaged effective rate of each host (flop/s) at ``t``.

        One flat pass over the hosts' cached trace kernels
        (:func:`repro.load.kernels.effective_rates_many`), bit-identical
        to calling :meth:`Host.effective_rate` per host.
        """
        if window < 0:
            raise PlatformError(f"negative window {window}")
        if indices is None:
            indices = range(len(self.hosts))
            hosts = self.hosts
        else:
            hosts = [self.hosts[i] for i in indices]
        return dict(zip(indices, effective_rates_many(hosts, t, window)))


def make_platform(n_hosts: int,
                  load_model_factory: "Callable[[int], LoadModel] | LoadModel",
                  seed: int = 0,
                  speed_range: "tuple[float, float]" = DEFAULT_SPEED_RANGE,
                  link: LinkSpec | None = None,
                  horizon: float = HOUR,
                  startup_per_process: float = DEFAULT_STARTUP_PER_PROCESS,
                  fault_model: FaultModel | None = None,
                  ) -> Platform:
    """Build the paper's heterogeneous time-shared platform.

    Parameters
    ----------
    n_hosts:
        Total pool size ``P = N + M`` (actives plus spares).
    load_model_factory:
        Either a single :class:`LoadModel` used for every host, or a
        callable ``factory(host_index) -> LoadModel``.
    seed:
        Root seed; host speeds and every host's load trace derive
        independent streams from it.
    speed_range:
        Uniform range for unloaded host speeds in flop/s.
    link:
        Shared link parameters (defaults to the paper's 6 MB/s LAN).
    horizon:
        Initial load-trace materialization horizon in seconds.
    startup_per_process:
        MPI launch cost per process.
    fault_model:
        Optional :class:`~repro.faults.plan.FaultModel`; when given, the
        platform carries one realized :class:`FaultPlan` (streams derived
        from the same root ``seed`` under the ``"faults"`` key) shared by
        every strategy that runs on it.
    """
    if n_hosts < 1:
        raise PlatformError(f"need at least one host, got {n_hosts}")
    lo, hi = speed_range
    if not 0 < lo <= hi:
        raise PlatformError(f"invalid speed range {speed_range}")

    registry = RngRegistry(seed)
    speed_rng, *host_rngs = registry.streams(
        [("platform", "speeds")]
        + [("load", "host", i) for i in range(n_hosts)])
    speeds = speed_rng.uniform(lo, hi, size=n_hosts)

    if callable(load_model_factory) and not isinstance(load_model_factory, LoadModel):
        factory = load_model_factory
    else:
        model = load_model_factory

        def factory(_index: int) -> LoadModel:
            return model

    hosts = []
    for i in range(n_hosts):
        spec = HostSpec(name=f"host{i:03d}", speed=float(speeds[i]),
                        load_model=factory(i))
        hosts.append(Host(spec, host_rngs[i], horizon=horizon, index=i))

    faults = None
    if fault_model is not None:
        faults = fault_model.build(registry.spawn("faults"), n_hosts)

    return Platform(hosts=hosts, link=link or LinkSpec(),
                    startup_per_process=startup_per_process,
                    faults=faults)
