"""DPU memory hierarchy: WRAM, IRAM, MRAM and the DMA engine.

The DPU sees three physical memories (paper Fig. 2.1 / Table 2.1):

* **WRAM** — 64 KB working RAM inside the DPU; loads and stores cost one
  cycle (Section 3.2.1).
* **IRAM** — 24 KB instruction RAM; programs are loaded here.
* **MRAM** — 64 MB main RAM outside the DPU, reachable only through the DMA
  engine, which costs ``25 + bytes/2`` cycles per transfer (Eq. 3.4).

MRAM is backed by a sparse page store so that instantiating many DPUs (the
paper's server has 2560) does not allocate 2560 x 64 MB up front; a page
holds only the extent written so far.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.dpu import costs
from repro.errors import DpuAlignmentError, DpuMemoryError

_M_DMA_TRANSFERS = telemetry.GLOBAL_METRICS.counter(
    "dma.transfers", "MRAM<->WRAM DMA transactions across all DPUs"
)
_M_DMA_BYTES = telemetry.GLOBAL_METRICS.counter(
    "dma.bytes", "MRAM<->WRAM DMA bytes across all DPUs"
)

#: MRAM<->WRAM DMA transfers must be 8-byte aligned (Section 3.2).
DMA_ALIGNMENT = 8

#: Page size for the sparse MRAM backing store.
_MRAM_PAGE_BYTES = 64 * 1024

#: A page is allocated and grown in steps of this many bytes.
_MRAM_GRAIN = 4 * 1024


class Wram:
    """64 KB working RAM with single-cycle access.

    The backing buffer is a numpy uint8 array, but byte-level traffic (the
    interpreter's loads/stores, the DMA engine) goes through a cached
    ``memoryview`` — creating a numpy slice object per 1/2/4-byte access
    costs more than the access itself.
    The buffer is allocated on first access (kernel images never touch
    WRAM); until then the WRAM reads as zeros.
    """

    def __init__(self, size: int = 64 * 1024) -> None:
        if size <= 0:
            raise DpuMemoryError(f"WRAM size must be positive, got {size}")
        self.size = size

    def __getattr__(self, name: str):
        # Only reached while _buf/_view are unset: allocate on first use.
        if name not in ("_buf", "_view"):
            raise AttributeError(name)
        self._data = np.zeros(self.size, dtype=np.uint8)
        return self.__dict__[name]

    @property
    def allocated(self) -> bool:
        return "_buf" in self.__dict__

    def release(self) -> None:
        """Drop the buffer: all zeros again, until next touched."""
        self.__dict__.pop("_buf", None)
        self.__dict__.pop("_view", None)

    @property
    def _data(self) -> np.ndarray:
        return self._buf

    @_data.setter
    def _data(self, array: np.ndarray) -> None:
        # Assigned directly by Dpu.restore; keep the cached memoryview
        # pointing at the adopted buffer.
        self._buf = np.ascontiguousarray(array)
        self._view = memoryview(self._buf)

    def _check(self, addr: int, n_bytes: int) -> None:
        if addr < 0 or n_bytes < 0 or addr + n_bytes > self.size:
            raise DpuMemoryError(
                f"WRAM access [{addr}, {addr + n_bytes}) outside [0, {self.size})"
            )

    def read(self, addr: int, n_bytes: int) -> bytes:
        """Read ``n_bytes`` starting at ``addr``."""
        self._check(addr, n_bytes)
        return self._view[addr : addr + n_bytes].tobytes()

    def read_view(self, addr: int, n_bytes: int) -> memoryview:
        """Zero-copy view of ``n_bytes`` at ``addr`` (valid until written)."""
        self._check(addr, n_bytes)
        return self._view[addr : addr + n_bytes]

    def write(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        """Write a byte string starting at ``addr``."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            data = bytes(data)
        n_bytes = len(data)
        self._check(addr, n_bytes)
        self._view[addr : addr + n_bytes] = data

    def read_array(self, addr: int, dtype: np.dtype | str, count: int) -> np.ndarray:
        """Read ``count`` little-endian items of ``dtype`` starting at ``addr``."""
        dt = np.dtype(dtype)
        self._check(addr, dt.itemsize * count)
        return (
            self._buf[addr : addr + dt.itemsize * count]
            .view(dt)
            .copy()
        )

    def write_array(self, addr: int, values: np.ndarray) -> None:
        """Write an array's little-endian byte image starting at ``addr``."""
        raw = np.ascontiguousarray(values).view(np.uint8).reshape(-1)
        self._check(addr, raw.size)
        self._buf[addr : addr + raw.size] = raw

    def read_u32(self, addr: int) -> int:
        return int(self.read_array(addr, np.uint32, 1)[0])

    def write_u32(self, addr: int, value: int) -> None:
        self.write_array(addr, np.array([value & 0xFFFFFFFF], dtype=np.uint32))

    def clear(self) -> None:
        """Zero the whole WRAM (used between launches in tests)."""
        self._buf[:] = 0


class Iram:
    """24 KB instruction RAM; holds at most ``size // 8`` 64-bit instructions.

    The simulator stores decoded instruction objects rather than encoded
    words, but enforces the capacity limit so oversized programs are rejected
    exactly as the hardware would reject them.
    """

    INSTRUCTION_BYTES = 8

    def __init__(self, size: int = 24 * 1024) -> None:
        if size <= 0:
            raise DpuMemoryError(f"IRAM size must be positive, got {size}")
        self.size = size
        self._instructions: list = []

    @property
    def capacity_instructions(self) -> int:
        return self.size // self.INSTRUCTION_BYTES

    def load(self, instructions: list) -> None:
        """Load a decoded program, enforcing the IRAM capacity."""
        if len(instructions) > self.capacity_instructions:
            raise DpuMemoryError(
                f"program of {len(instructions)} instructions exceeds IRAM "
                f"capacity of {self.capacity_instructions}"
            )
        self._instructions = list(instructions)

    def fetch(self, index: int):
        """Fetch the decoded instruction at ``index``."""
        if index < 0 or index >= len(self._instructions):
            raise DpuMemoryError(f"IRAM fetch at {index} outside loaded program")
        return self._instructions[index]

    def __len__(self) -> int:
        return len(self._instructions)


class Mram:
    """64 MB main RAM, sparse-backed, reachable only via :class:`DmaEngine`.

    Each resident 64 KB page is allocated only up to the highest byte
    written to it, in 4 KB steps, and grows as later writes reach
    further; bytes past a page's extent read as zeros.
    """

    def __init__(self, size: int = 64 * 1024 * 1024) -> None:
        if size <= 0:
            raise DpuMemoryError(f"MRAM size must be positive, got {size}")
        self.size = size
        self._pages: dict[int, np.ndarray] = {}

    def _check(self, addr: int, n_bytes: int) -> None:
        if addr < 0 or n_bytes < 0 or addr + n_bytes > self.size:
            raise DpuMemoryError(
                f"MRAM access [{addr}, {addr + n_bytes}) outside [0, {self.size})"
            )

    def _page(self, page_index: int, extent: int) -> np.ndarray:
        """Page ``page_index``, allocated or grown (contents kept) to hold
        at least its first ``extent`` bytes."""
        page = self._pages.get(page_index)
        if page is None or len(page) < extent:
            grown = np.zeros(-(-extent // _MRAM_GRAIN) * _MRAM_GRAIN, np.uint8)
            if page is not None:
                grown[: len(page)] = page
            self._pages[page_index] = page = grown
        return page

    def read(self, addr: int, n_bytes: int) -> bytes:
        """Read ``n_bytes`` starting at ``addr`` (host-side / DMA use)."""
        self._check(addr, n_bytes)
        page_index, offset = divmod(addr, _MRAM_PAGE_BYTES)
        if offset + n_bytes <= _MRAM_PAGE_BYTES:
            # Within one page (every DMA beat: 2048 <= page size): one
            # allocation, no per-page copy loop.
            page = self._pages.get(page_index)
            if page is None:
                return bytes(n_bytes)
            if offset + n_bytes <= len(page):
                return memoryview(page)[offset : offset + n_bytes].tobytes()
        out = bytearray(n_bytes)
        view = memoryview(out)
        pos = 0
        while pos < n_bytes:
            a = addr + pos
            page_index, offset = divmod(a, _MRAM_PAGE_BYTES)
            chunk = min(n_bytes - pos, _MRAM_PAGE_BYTES - offset)
            page = self._pages.get(page_index)
            if page is not None and offset < len(page):
                held = min(chunk, len(page) - offset)
                view[pos : pos + held] = memoryview(page)[offset : offset + held]
            pos += chunk
        return bytes(out)

    def read_view(self, addr: int, n_bytes: int) -> "memoryview | bytes":
        """Zero-copy view when the range lies in one page's extent.

        Falls back to a materialized ``bytes`` for absent pages (all
        zeros, without allocating the page), ranges past a page's
        extent and page-crossing ranges.
        """
        self._check(addr, n_bytes)
        page_index, offset = divmod(addr, _MRAM_PAGE_BYTES)
        page = self._pages.get(page_index)
        if page is not None and offset + n_bytes <= len(page):
            return memoryview(page)[offset : offset + n_bytes]
        return self.read(addr, n_bytes)

    def write(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        """Write a byte string starting at ``addr`` (host-side / DMA use)."""
        if isinstance(data, memoryview):
            # Bytes, not items: a view of an int16 array has 2 per item.
            data = data.cast("B") if data.c_contiguous else data.tobytes()
        elif not isinstance(data, (bytes, bytearray)):
            data = bytes(data)
        n_bytes = len(data)
        self._check(addr, n_bytes)
        if n_bytes == 0:
            return
        page_index, offset = divmod(addr, _MRAM_PAGE_BYTES)
        end = offset + n_bytes
        if end <= _MRAM_PAGE_BYTES:
            # Within one page (every DMA beat, most host rows): one copy.
            memoryview(self._page(page_index, end))[offset:end] = data
            return
        _write_pages(self, addr, np.frombuffer(data, dtype=np.uint8))

    def release(self) -> None:
        """Drop every page: all zeros again, until next written."""
        self._pages.clear()

    def read_array(self, addr: int, dtype: np.dtype | str, count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        return np.frombuffer(self.read(addr, dt.itemsize * count), dtype=dt).copy()

    def write_array(self, addr: int, values: np.ndarray) -> None:
        self.write(addr, np.ascontiguousarray(values).tobytes())

    @property
    def resident_bytes(self) -> int:
        """Bytes of host memory actually backing this MRAM (each resident
        page's allocated extent)."""
        return sum(len(page) for page in self._pages.values())


def write_rows(mrams: list[Mram], addr: int, block: np.ndarray) -> None:
    """Write row ``i`` of the 2-D uint8 ``block`` at ``addr`` of
    ``mrams[i]``: a host write to a set of DPUs as one operation, its
    range checked once and each row copied page by page."""
    rows, n_bytes = block.shape
    if rows != len(mrams):
        raise DpuMemoryError(f"{rows} rows for {len(mrams)} MRAMs")
    size = min({mram.size for mram in mrams})
    if addr < 0 or addr + n_bytes > size:
        raise DpuMemoryError(
            f"MRAM access [{addr}, {addr + n_bytes}) outside [0, {size})"
        )
    if n_bytes == 0:
        return
    page_index, offset = divmod(addr, _MRAM_PAGE_BYTES)
    end = offset + n_bytes
    if end <= _MRAM_PAGE_BYTES:
        for mram, row in zip(mrams, block):
            page = mram._pages.get(page_index)
            if page is None or len(page) < end:
                page = mram._page(page_index, end)
            page[offset:end] = row
        return
    for mram, row in zip(mrams, block):
        _write_pages(mram, addr, row)


def _write_pages(mram: Mram, addr: int, src: np.ndarray) -> None:
    """Copy the uint8 ``src`` to ``mram`` from ``addr``, page by page."""
    pos, n_bytes = 0, len(src)
    while pos < n_bytes:
        page_index, offset = divmod(addr + pos, _MRAM_PAGE_BYTES)
        chunk = min(n_bytes - pos, _MRAM_PAGE_BYTES - offset)
        page = mram._page(page_index, offset + chunk)
        page[offset : offset + chunk] = src[pos : pos + chunk]
        pos += chunk


class DmaEngine:
    """The DMA engine that moves data between MRAM and WRAM (Eq. 3.4).

    Every transfer costs ``25 + bytes/2`` cycles and is limited to 2048 bytes
    (the staging limit Section 4.1.3 reports).  Addresses and sizes must be
    8-byte aligned, mirroring the UPMEM SDK's constraint.  The engine keeps
    running totals so kernels and experiments can account DMA time.
    """

    def __init__(self, mram: Mram, wram: Wram, *, enforce_alignment: bool = True) -> None:
        self.mram = mram
        self.wram = wram
        self.enforce_alignment = enforce_alignment
        self.total_cycles = 0
        self.total_bytes = 0
        self.transfer_count = 0

    def _validate(self, mram_addr: int, wram_addr: int, n_bytes: int) -> None:
        if n_bytes <= 0:
            raise DpuMemoryError(f"DMA transfer size must be positive, got {n_bytes}")
        if n_bytes > costs.DMA_MAX_TRANSFER_BYTES:
            raise DpuMemoryError(
                f"DMA transfer of {n_bytes} bytes exceeds the "
                f"{costs.DMA_MAX_TRANSFER_BYTES}-byte per-transfer limit"
            )
        if self.enforce_alignment:
            for name, value in (
                ("MRAM address", mram_addr),
                ("WRAM address", wram_addr),
                ("size", n_bytes),
            ):
                if value % DMA_ALIGNMENT != 0:
                    raise DpuAlignmentError(
                        f"DMA {name} {value} is not {DMA_ALIGNMENT}-byte aligned"
                    )

    def _charge(self, n_bytes: int) -> int:
        cycles = costs.mram_access_cycles(n_bytes)
        self.total_cycles += cycles
        self.total_bytes += n_bytes
        self.transfer_count += 1
        _M_DMA_TRANSFERS.value += 1
        _M_DMA_BYTES.value += n_bytes
        return cycles

    def mram_to_wram(self, mram_addr: int, wram_addr: int, n_bytes: int) -> int:
        """Copy MRAM -> WRAM; returns the cycles the transfer cost."""
        self._validate(mram_addr, wram_addr, n_bytes)
        self.wram.write(wram_addr, self.mram.read_view(mram_addr, n_bytes))
        return self._charge(n_bytes)

    def wram_to_mram(self, wram_addr: int, mram_addr: int, n_bytes: int) -> int:
        """Copy WRAM -> MRAM; returns the cycles the transfer cost."""
        self._validate(mram_addr, wram_addr, n_bytes)
        self.mram.write(mram_addr, self.wram.read_view(wram_addr, n_bytes))
        return self._charge(n_bytes)

    def reset_counters(self) -> None:
        self.total_cycles = 0
        self.total_bytes = 0
        self.transfer_count = 0


def streamed_transfer_cycles(total_bytes: int, chunk_bytes: int = costs.DMA_MAX_TRANSFER_BYTES) -> int:
    """Cycles to move ``total_bytes`` through repeated DMA transfers.

    Large buffers (CNN weights, GEMM rows) are streamed through the DMA in
    ``chunk_bytes`` pieces, each paying the Eq. 3.4 setup cost.
    """
    if total_bytes < 0:
        raise DpuMemoryError(f"negative transfer size: {total_bytes}")
    if chunk_bytes <= 0 or chunk_bytes > costs.DMA_MAX_TRANSFER_BYTES:
        raise DpuMemoryError(
            f"chunk size {chunk_bytes} outside (0, {costs.DMA_MAX_TRANSFER_BYTES}]"
        )
    if total_bytes == 0:
        return 0
    full, rest = divmod(total_bytes, chunk_bytes)
    cycles = full * costs.mram_access_cycles(chunk_bytes)
    if rest:
        cycles += costs.mram_access_cycles(rest)
    return cycles
