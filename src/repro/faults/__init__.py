"""Deterministic fault injection and recovery (:mod:`repro.faults`).

See :mod:`repro.faults.plan` for the fault model/plan layer and
:mod:`repro.faults.recovery` for the strategy-shared recovery mechanics.
``docs/ROBUSTNESS.md`` documents the fault model, the per-strategy
recovery semantics, and the determinism contract.
"""

from repro.faults.plan import FaultModel, FaultPlan
from repro.faults.recovery import (TransferSequencer, attempt_transfer,
                                   compute_finish, promote_spares)

__all__ = [
    "FaultModel",
    "FaultPlan",
    "TransferSequencer",
    "attempt_transfer",
    "compute_finish",
    "promote_spares",
]
