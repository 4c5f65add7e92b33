"""Host<->DPU data transfer API (paper Section 3.2, Eqs. 3.1-3.3).

The three transfer kinds the thesis builds its memory orchestration on,
and PrIM measures (Gómez-Luna et al., "Benchmarking a New Paradigm"):

* :func:`copy_to` — ``dpu_copy_to``: broadcast the same buffer to a symbol
  on every DPU of a set (Eq. 3.1).
* :func:`scatter_rows` — ``dpu_push_xfer`` to the DPUs: push a
  *different* row to the same symbol on each DPU (Eq. 3.2).
* :func:`gather_rows` — ``dpu_push_xfer`` from the DPUs: read the same
  symbol back from each DPU (Eq. 3.3).

:func:`account_rows` accounts a push or broadcast without moving bytes,
for a caller that writes MRAM itself.  All transfers enforce the 8-byte
size/offset rule of :mod:`repro.host.alignment`; callers move unaligned
payloads by padding them and shipping the actual size separately,
exactly as the paper describes.  Every transfer checks every DPU's
symbol before touching any, counts its bytes in ``GLOBAL_METRICS`` and
advances the DPUs' simulated clock by its time on the host link.
"""

from __future__ import annotations

import enum
import operator

import numpy as np

from repro import telemetry
from repro.dpu.device import Dpu
from repro.host.alignment import align_up, validate_transfer
from repro.errors import MappingError, TransferError

_M_XFER_BYTES = telemetry.GLOBAL_METRICS.counter(
    "transfer.bytes", "host-link bytes moved, labelled by direction"
)
_M_BYTES_TO_DPU = _M_XFER_BYTES.labels(direction="to_dpu")
_M_BYTES_FROM_DPU = _M_XFER_BYTES.labels(direction="from_dpu")
_M_BROADCASTS = telemetry.GLOBAL_METRICS.counter(
    "transfer.broadcasts", "dpu_copy_to broadcasts"
)
_M_PUSHES = telemetry.GLOBAL_METRICS.counter(
    "transfer.pushes", "dpu_push_xfer batch executions"
)
_IMAGE = operator.attrgetter("image")

#: Host->DIMM link bandwidth (DDR4-2400 class, the UPMEM DIMM interface).
HOST_LINK_BYTES_PER_SECOND = 16e9


class XferDirection(enum.Enum):
    """Direction of a transfer (``dpu_xfer_t``)."""

    TO_DPU = "to_dpu"
    FROM_DPU = "from_dpu"


def copy_to(
    dpus: list[Dpu],
    symbol_name: str,
    data: bytes | np.ndarray,
    *,
    symbol_offset: int = 0,
) -> None:
    """``dpu_copy_to``: broadcast one buffer to a symbol on every DPU."""
    raw = _as_bytes(data)
    validate_transfer(len(raw), symbol_offset)
    addrs = _symbol_addrs(dpus, symbol_name, symbol_offset, len(raw))
    for dpu, addr in zip(dpus, addrs):
        dpu.mram.write(addr, raw)
    _account(dpus, "broadcast", XferDirection.TO_DPU, len(raw))


def scatter_rows(
    dpus: list[Dpu],
    symbol_name: str,
    rows: list[np.ndarray] | list[bytes],
) -> int:
    """Send a different (padded) row to each DPU; returns the pushed length.

    The paper's per-DPU row distribution (Fig. 4.6) as one
    ``dpu_push_xfer``: all rows are padded to a common 8-byte-aligned
    length and written to the same symbol.  Every DPU is validated
    before any is written, and the push is accounted only once every
    row is written.
    """
    if len(rows) != len(dpus):
        raise TransferError(
            f"{len(rows)} rows for {len(dpus)} DPUs; counts must match"
        )
    raws = [_as_bytes(row) for row in rows]
    length = align_up(max(len(raw) for raw in raws))
    validate_transfer(length)
    addrs = _symbol_addrs(dpus, symbol_name, 0, length)
    for dpu, addr, raw in zip(dpus, addrs, raws):
        dpu.mram.write(addr, raw.ljust(length, b"\0"))
    _account(dpus, "push", XferDirection.TO_DPU, length)
    return length


def gather_rows(
    dpus: list[Dpu],
    symbol_name: str,
    length: int,
) -> list[bytes]:
    """Read the same symbol back from every DPU (one row each): the
    ``dpu_push_xfer`` gather."""
    if not dpus:
        raise TransferError("push_xfer over no DPUs")
    validate_transfer(length)
    addrs = _symbol_addrs(dpus, symbol_name, 0, length)
    rows = [dpu.mram.read(addr, length) for dpu, addr in zip(dpus, addrs)]
    _account(dpus, "push", XferDirection.FROM_DPU, length)
    return rows


def account_rows(
    dpus: list[Dpu], symbol_name: str, length: int, direction: XferDirection,
    rows: int | None = None, *, kind: str = "push",
) -> None:
    """The checks and accounting of pushing ``rows`` rows (default: one
    per DPU) over ``dpus`` as :meth:`DpuSet.charge` launches them, or
    with ``kind="broadcast"`` of :func:`copy_to`, without moving bytes.
    The pushes are accounted at once, in one span."""
    if not dpus:
        raise TransferError("push_xfer over no DPUs")
    validate_transfer(length)
    _check_symbol(dpus, symbol_name, 0, length)
    _account(dpus, kind, direction, length, rows)


def _check_symbol(
    dpus: list[Dpu], symbol_name: str, offset: int, n_bytes: int
) -> dict[int, int]:
    """Check ``n_bytes`` at ``offset`` of ``symbol_name`` once per
    distinct image of ``dpus``, before any DPU is touched, so a missing
    symbol cannot leave the set partially written; returns each image's
    (by ``id``) MRAM address of that range."""
    first = dpus[0]
    if operator.countOf(map(_IMAGE, dpus), first.image) == len(dpus):
        distinct = (first,)  # one image, checked once
    else:
        distinct = {id(dpu.image): dpu for dpu in dpus}.values()
    resolved = {}
    for dpu in distinct:
        symbol = dpu.symbol(symbol_name)
        symbol.check_range(offset, n_bytes)
        resolved[id(dpu.image)] = symbol.mram_addr + offset
    return resolved


def _symbol_addrs(
    dpus: list[Dpu], symbol_name: str, offset: int, n_bytes: int
) -> list[int]:
    """Each DPU's MRAM address of ``symbol_name`` at ``offset``, every
    image checked first (:func:`_check_symbol`)."""
    resolved = _check_symbol(dpus, symbol_name, offset, n_bytes)
    if len(resolved) == 1:
        return [*resolved.values()] * len(dpus)
    return [resolved[id(dpu.image)] for dpu in dpus]


def transfer_seconds(n_bytes: int) -> float:
    """Host-link time to move ``n_bytes``."""
    if n_bytes < 0:
        raise MappingError(f"negative transfer size: {n_bytes}")
    return n_bytes / HOST_LINK_BYTES_PER_SECOND


def _account(
    dpus: list[Dpu], kind: str, direction: XferDirection, length: int,
    rows: int | None = None,
) -> None:
    """Account a completed transfer of ``length`` bytes to or from each
    of ``dpus``, or of ``rows`` rows dealt over them in pushes of one row
    per DPU: the counters, the DPUs' clock and the span move together.

    The host link is serial, so the clock advances by every push's
    :func:`transfer_seconds`.
    """
    n = len(dpus)
    rows = n if rows is None else rows
    if rows <= 0:
        raise TransferError(f"transfer of {rows} rows; push at least one")
    full, part = divmod(rows, n)
    total = length * rows
    to_dpu = direction is XferDirection.TO_DPU
    (_M_BYTES_TO_DPU if to_dpu else _M_BYTES_FROM_DPU).inc(total)
    if kind == "push":
        _M_PUSHES.inc(full + (part > 0))
    elif kind == "broadcast":
        _M_BROADCASTS.inc()
    clock = dpus[0].clock
    tracer = telemetry.current_tracer()
    with telemetry.NOOP_SPAN if tracer is None else tracer.span(
        f"transfer.{kind}", category="transfer", direction=direction.value,
        bytes=total, n_dpus=min(rows, n),
    ):
        clock.advance(transfer_seconds(length * n), full)
        if part:
            clock.advance(transfer_seconds(length * part))


def _as_bytes(data: bytes | bytearray | memoryview | np.ndarray) -> bytes:
    if isinstance(data, np.ndarray):
        return np.ascontiguousarray(data).tobytes()
    return bytes(data)
