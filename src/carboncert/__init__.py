"""Desk-scale carbon-credit certification pipeline.

Simulated smart-meter telemetry flows through collector and aggregator
stages into a permissioned-ledger emulation whose chaincode validates
batches, converts energy production into carbon-credit records, and
enforces the credit lifecycle; an independent audit path replays the raw
CSVs for third-party verification.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    EmissionConfig,
    Identity,
    MinuteRecord,
    PhaseReading,
    Quality,
    Role,
    window_index,
)
