"""Data-plane hardening: record contracts, quarantine, stage supervision.

The contract layer (:mod:`repro.contracts.schema`) validates every
record at the dataset boundary with three dispositions — repair,
degrade, quarantine.  The dead-letter store
(:mod:`repro.contracts.quarantine`) keeps what validation rejects.  The
stage supervisor (:mod:`repro.contracts.supervisor`) keeps a failing
analysis stage from killing the run.
"""

from repro.contracts.quarantine import (
    ContractViolationError,
    QUARANTINE_FILENAME,
    QuarantineStore,
    QuarantinedRecord,
    SOURCE_VALIDATION,
)
from repro.contracts.schema import (
    CONTRACTS,
    DEGRADE,
    FieldSpec,
    Invariant,
    QUARANTINE,
    REPAIR,
    RecordContract,
    RecordOutcome,
    ValidationReport,
    validate_dataset,
)
from repro.contracts.supervisor import (
    InjectedStageError,
    StageFailure,
    StageSupervisor,
)

__all__ = [
    "CONTRACTS",
    "ContractViolationError",
    "DEGRADE",
    "FieldSpec",
    "InjectedStageError",
    "Invariant",
    "QUARANTINE",
    "QUARANTINE_FILENAME",
    "QuarantineStore",
    "QuarantinedRecord",
    "REPAIR",
    "RecordContract",
    "RecordOutcome",
    "SOURCE_VALIDATION",
    "StageFailure",
    "StageSupervisor",
    "ValidationReport",
    "validate_dataset",
]
