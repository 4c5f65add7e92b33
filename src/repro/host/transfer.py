"""Host<->DPU data transfer API (paper Section 3.2, Eqs. 3.1-3.3).

Mirrors the three UPMEM SDK entry points the thesis builds its memory
orchestration on:

* :func:`copy_to` — ``dpu_copy_to``: broadcast the same buffer to a symbol
  on every DPU of a set (Eq. 3.1).
* :class:`XferBatch` — ``dpu_prepare_xfer`` + ``dpu_push_xfer``: stage a
  *different* buffer per DPU, then push them all to (or gather them all
  from) the same symbol in one batched operation (Eqs. 3.2-3.3).

All transfers enforce the 8-byte size/offset rule of
:mod:`repro.host.alignment`; callers move unaligned payloads by padding
them and shipping the actual size separately, exactly as the paper
describes.  Every transfer counts its bytes in ``GLOBAL_METRICS`` and
advances the DPUs' simulated clock by its time on the host link.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field

import numpy as np

from repro import faults, telemetry
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
    """Direction of a batched transfer (``dpu_xfer_t``)."""

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
    plan = faults.current_plan()
    for dpu, addr in zip(dpus, addrs):
        payload = raw if plan is None else plan.corrupt(raw, dpu_id=dpu.dpu_id)
        dpu.mram.write(addr, payload)
    _account(dpus, "broadcast", XferDirection.TO_DPU, len(raw))


def copy_from(
    dpu: Dpu,
    symbol_name: str,
    n_bytes: int,
    *,
    symbol_offset: int = 0,
) -> bytes:
    """``dpu_copy_from``: read a symbol from one DPU."""
    validate_transfer(n_bytes, symbol_offset)
    raw = dpu.read_symbol(symbol_name, n_bytes, symbol_offset)
    plan = faults.current_plan()
    if plan is not None:
        raw = plan.corrupt(raw, dpu_id=dpu.dpu_id)
    _account([dpu], "read", XferDirection.FROM_DPU, n_bytes)
    return raw


@dataclass
class XferBatch:
    """A prepared scatter/gather transfer across a set of DPUs.

    Usage follows the SDK's FOREACH pattern::

        batch = XferBatch()
        for i, dpu in enumerate(dpus):
            batch.prepare(dpu, rows[i])            # dpu_prepare_xfer
        batch.push(XferDirection.TO_DPU, "input")  # dpu_push_xfer

    On push, the ``length`` parameter bounds how much of each prepared
    buffer moves — the mechanism the paper uses to send only the valid
    prefix of a padded buffer.
    """

    _prepared: list[tuple[Dpu, bytearray | bytes]] = field(default_factory=list)

    def prepare(self, dpu: Dpu, buffer: bytes | bytearray | np.ndarray) -> None:
        """``dpu_prepare_xfer``: associate a buffer with one DPU."""
        if isinstance(buffer, np.ndarray):
            buffer = bytearray(np.ascontiguousarray(buffer).tobytes())
        elif isinstance(buffer, bytes):
            buffer = bytearray(buffer)
        self._prepared.append((dpu, buffer))

    def push(
        self,
        direction: XferDirection,
        symbol_name: str,
        *,
        symbol_offset: int = 0,
        length: int | None = None,
    ) -> list[bytes] | None:
        """``dpu_push_xfer``: execute all prepared transfers.

        For TO_DPU, each prepared buffer's first ``length`` bytes are
        written to the symbol.  For FROM_DPU, ``length`` bytes are read
        from each DPU into (and also returned as) the prepared buffers.
        """
        if not self._prepared:
            raise TransferError("push_xfer with no prepared transfers")
        if length is None:
            lengths = {len(buf) for _, buf in self._prepared}
            if len(lengths) != 1:
                raise TransferError(
                    "prepared buffers have differing sizes; pass an explicit length"
                )
            length = lengths.pop()
        validate_transfer(length, symbol_offset)
        # Validate every prepared entry before touching any DPU: a short
        # buffer or missing symbol at index k used to surface only after
        # DPUs 0..k-1 were already written, leaving the set in a mixed
        # state with no indication of which members were touched.
        for dpu, buffer in self._prepared:
            if len(buffer) < length:
                raise TransferError(
                    f"prepared buffer of {len(buffer)} bytes shorter than "
                    f"push length {length}"
                )
            dpu.symbol(symbol_name).check_range(symbol_offset, length)
        plan = faults.current_plan()
        results: list[bytes] = []
        for dpu, buffer in self._prepared:
            if direction is XferDirection.TO_DPU:
                payload = bytes(buffer[:length])
                if plan is not None:
                    payload = plan.corrupt(payload, dpu_id=dpu.dpu_id)
                dpu.write_symbol(symbol_name, payload, symbol_offset)
            else:
                data = dpu.read_symbol(symbol_name, length, symbol_offset)
                if plan is not None:
                    data = plan.corrupt(data, dpu_id=dpu.dpu_id)
                if isinstance(buffer, bytearray):
                    buffer[:length] = data
                results.append(data)
        _account([dpu for dpu, _ in self._prepared], "push", direction, length)
        self._prepared.clear()
        return results if direction is XferDirection.FROM_DPU else None


def scatter_rows(
    dpus: list[Dpu],
    symbol_name: str,
    rows: list[np.ndarray] | list[bytes],
) -> int:
    """Send a different (padded) row to each DPU; returns the pushed length.

    The paper's per-DPU row distribution (Fig. 4.6) as one
    ``dpu_push_xfer``: all rows are padded to a common 8-byte-aligned
    length and written to the same symbol.  Like :meth:`XferBatch.push`
    it validates every DPU before writing any, and accounts the push
    only once every row is written.
    """
    if len(rows) != len(dpus):
        raise TransferError(
            f"{len(rows)} rows for {len(dpus)} DPUs; counts must match"
        )
    raws = [_as_bytes(row) for row in rows]
    length = align_up(max(len(raw) for raw in raws))
    validate_transfer(length)
    addrs = _symbol_addrs(dpus, symbol_name, 0, length)
    plan = faults.current_plan()
    for dpu, addr, raw in zip(dpus, addrs, raws):
        payload = raw.ljust(length, b"\0")
        if plan is not None:
            payload = plan.corrupt(payload, dpu_id=dpu.dpu_id)
        dpu.mram.write(addr, payload)
    _account(dpus, "push", XferDirection.TO_DPU, length)
    return length


def gather_rows(
    dpus: list[Dpu],
    symbol_name: str,
    length: int,
) -> list[bytes]:
    """Read the same symbol back from every DPU (one row each).

    The ``dpu_push_xfer`` gather of :meth:`XferBatch.push` without the
    staging buffers: the same validation, corruption draws and accounting.
    """
    if not dpus:
        raise TransferError("push_xfer with no prepared transfers")
    validate_transfer(length)
    addrs = _symbol_addrs(dpus, symbol_name, 0, length)
    plan = faults.current_plan()
    rows = []
    for dpu, addr in zip(dpus, addrs):
        row = dpu.mram.read(addr, length)
        rows.append(row if plan is None else plan.corrupt(row, dpu_id=dpu.dpu_id))
    _account(dpus, "push", XferDirection.FROM_DPU, length)
    return rows


def account_rows(
    dpus: list[Dpu], symbol_name: str, length: int, direction: XferDirection,
    rows: int | None = None, *, kind: str = "push",
) -> list[tuple[int, int] | None]:
    """The checks, bit-flip draws and accounting of pushing ``rows`` rows
    (default: one per DPU) over ``dpus`` as :meth:`DpuSet.charge` launches
    them, or with ``kind="broadcast"`` of :func:`copy_to`, without moving
    bytes; returns each row's flip site (see :func:`faults.flip_bit`).
    The pushes are accounted at once, in one span."""
    if not dpus:
        raise TransferError("push_xfer with no prepared transfers")
    validate_transfer(length)
    _check_symbol(dpus, symbol_name, 0, length)
    rows, n = len(dpus) if rows is None else rows, len(dpus)
    plan = faults.current_plan()
    if plan is None or plan.bitflip_rate <= 0:  # draw_flip would draw nothing
        sites = [None] * rows
    else:
        sites = [
            plan.draw_flip(length, dpu_id=dpus[r % n].dpu_id) for r in range(rows)
        ]
    _account(dpus, kind, direction, length, rows)
    return sites


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
