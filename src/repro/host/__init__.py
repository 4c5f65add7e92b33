"""Host runtime for the simulated UPMEM system (the SDK stand-in)."""

from repro.host.alignment import (
    TRANSFER_ALIGNMENT,
    PaddedBuffer,
    align_up,
    is_aligned,
    pad_array,
    pad_buffer,
    padding_needed,
    validate_transfer,
)
from repro.host.runtime import (
    DpuSet,
    DpuSystem,
    LaunchReport,
)
from repro.host.topology import DpuAddress, SystemTopology
from repro.host.transfer import (
    XferDirection,
    copy_to,
    gather_rows,
    scatter_rows,
)

__all__ = [
    "TRANSFER_ALIGNMENT",
    "PaddedBuffer",
    "align_up",
    "is_aligned",
    "pad_array",
    "pad_buffer",
    "padding_needed",
    "validate_transfer",
    "DpuSet",
    "DpuSystem",
    "LaunchReport",
    "DpuAddress",
    "SystemTopology",
    "XferDirection",
    "copy_to",
    "gather_rows",
    "scatter_rows",
]
