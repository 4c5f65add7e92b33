"""Tests for repro.dpu.memory (WRAM/IRAM/MRAM, DMA engine)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dpu.device import Dpu
from repro.dpu.memory import (
    DmaEngine,
    Iram,
    Mram,
    Wram,
    streamed_transfer_cycles,
    write_rows,
)
from repro.errors import DpuAlignmentError, DpuMemoryError


class TestWram:
    def test_round_trip(self):
        wram = Wram()
        wram.write(16, b"hello!!!")
        assert wram.read(16, 8) == b"hello!!!"

    def test_initially_zero(self):
        assert Wram().read(0, 16) == bytes(16)

    def test_out_of_bounds_read(self):
        with pytest.raises(DpuMemoryError):
            Wram(64).read(60, 8)

    def test_out_of_bounds_write(self):
        with pytest.raises(DpuMemoryError):
            Wram(64).write(64, b"x")

    def test_negative_address(self):
        with pytest.raises(DpuMemoryError):
            Wram().read(-1, 4)

    def test_array_round_trip(self):
        wram = Wram()
        values = np.arange(10, dtype=np.int32)
        wram.write_array(8, values)
        assert np.array_equal(wram.read_array(8, np.int32, 10), values)

    def test_u32_round_trip(self):
        wram = Wram()
        wram.write_u32(4, 0xDEADBEEF)
        assert wram.read_u32(4) == 0xDEADBEEF

    def test_u32_masks_to_32_bits(self):
        wram = Wram()
        wram.write_u32(0, 2**40 + 7)
        assert wram.read_u32(0) == 7

    def test_clear(self):
        wram = Wram()
        wram.write(0, b"\xff" * 8)
        wram.clear()
        assert wram.read(0, 8) == bytes(8)

    def test_default_size_is_64_kb(self):
        assert Wram().size == 64 * 1024

    def test_bad_size(self):
        with pytest.raises(DpuMemoryError):
            Wram(0)

    @given(st.integers(0, 1000), st.binary(min_size=1, max_size=64))
    @settings(max_examples=50)
    def test_round_trip_property(self, addr, data):
        wram = Wram(2048)
        if addr + len(data) <= 2048:
            wram.write(addr, data)
            assert wram.read(addr, len(data)) == data


class TestIram:
    def test_capacity(self):
        assert Iram().capacity_instructions == 3072  # 24 KB / 8 B

    def test_load_and_fetch(self):
        iram = Iram()
        iram.load(["a", "b", "c"])
        assert iram.fetch(1) == "b"
        assert len(iram) == 3

    def test_oversized_program_rejected(self):
        iram = Iram(16)  # two instructions
        with pytest.raises(DpuMemoryError):
            iram.load(["a", "b", "c"])

    def test_fetch_out_of_range(self):
        iram = Iram()
        iram.load(["a"])
        with pytest.raises(DpuMemoryError):
            iram.fetch(1)


class TestMram:
    def test_round_trip(self):
        mram = Mram()
        mram.write(1_000_000, b"payload!")
        assert mram.read(1_000_000, 8) == b"payload!"

    def test_unwritten_regions_read_zero(self):
        assert Mram().read(2**20, 64) == bytes(64)

    def test_cross_page_write(self):
        mram = Mram()
        boundary = 64 * 1024 - 4
        data = bytes(range(16))
        mram.write(boundary, data)
        assert mram.read(boundary, 16) == data

    def test_sparse_backing(self):
        mram = Mram()
        mram.write(0, b"x" * 8)
        mram.write(32 * 1024 * 1024, b"y" * 8)
        assert mram.resident_bytes <= 2 * 64 * 1024

    def test_out_of_bounds(self):
        mram = Mram(1024)
        with pytest.raises(DpuMemoryError):
            mram.read(1020, 8)

    def test_array_round_trip(self):
        mram = Mram()
        values = np.arange(100, dtype=np.int16)
        mram.write_array(4096, values)
        assert np.array_equal(mram.read_array(4096, np.int16, 100), values)


class TestMramWrite:
    """The single-page fast path against the page-crossing path."""

    PAGE = 64 * 1024

    BUFFERS = {
        "bytes": bytes(range(40)),
        "bytearray": bytearray(range(100, 140)),
        "int16 view": memoryview(np.arange(-10, 10, dtype=np.int16)),
        "strided view": memoryview(np.arange(40, dtype=np.int16))[::2],
        "empty": b"",
    }

    @pytest.mark.parametrize("kind", sorted(BUFFERS))
    @pytest.mark.parametrize(
        "where", ["in page", "crossing", "ends on boundary", "starts on page"]
    )
    def test_matches_a_flat_reference(self, kind, where):
        data = self.BUFFERS[kind]
        raw = bytes(data) if not isinstance(data, memoryview) else data.tobytes()
        addr = {
            "in page": 8,
            "crossing": self.PAGE - 16,
            "ends on boundary": self.PAGE - len(raw),
            "starts on page": self.PAGE,
        }[where]
        mram = Mram(3 * self.PAGE)
        mram.write(addr, data)
        assert mram.read(0, 3 * self.PAGE) == (
            bytes(addr) + raw + bytes(3 * self.PAGE - addr - len(raw))
        )
        end = addr + len(raw)
        pages = range(addr // self.PAGE, -(-end // self.PAGE)) if raw else []
        assert sorted(mram._pages) == list(pages)

    def test_views_write_bytes_not_items(self):
        values = np.arange(6, dtype=np.int32).reshape(2, 3)
        mram = Mram()
        mram.write(16, memoryview(values))
        assert mram.read(16, values.nbytes) == values.tobytes()


class TestMramExtent:
    """Pages hold only the extent written so far, in 4 KB steps."""

    PAGE, GRAIN = 64 * 1024, 4 * 1024

    def extents(self, mram):
        return {index: len(page) for index, page in mram._pages.items()}

    def test_a_write_allocates_up_to_its_end(self):
        mram = Mram()
        mram.write(100, b"abcdefgh")
        assert self.extents(mram) == {0: self.GRAIN}
        mram.write(self.GRAIN, b"x")  # one byte past the extent
        assert self.extents(mram) == {0: 2 * self.GRAIN}
        assert mram.resident_bytes == 2 * self.GRAIN

    def test_reads_at_and_past_the_extent(self):
        mram = Mram()
        mram.write(self.GRAIN - 8, bytes(range(1, 9)))
        assert mram.read(self.GRAIN - 8, 8) == bytes(range(1, 9))
        assert mram.read(self.GRAIN - 4, 12) == bytes(range(5, 9)) + bytes(8)
        assert mram.read(self.GRAIN, 16) == bytes(16)
        assert mram.read(3 * self.GRAIN, self.PAGE - 3 * self.GRAIN) == bytes(
            self.PAGE - 3 * self.GRAIN
        )
        view = mram.read_view(self.GRAIN - 8, 8)
        assert isinstance(view, memoryview) and view == bytes(range(1, 9))
        past = mram.read_view(self.GRAIN - 4, 12)
        assert isinstance(past, bytes)
        assert past == mram.read(self.GRAIN - 4, 12)
        assert mram.read_view(self.GRAIN, 8) == bytes(8)
        assert self.extents(mram) == {0: self.GRAIN}  # reads allocate nothing

    def test_growth_keeps_earlier_bytes(self):
        mram = Mram()
        mram.write(16, b"earlier!")
        mram.write(10_000, b"later!!!")
        assert self.extents(mram) == {0: 3 * self.GRAIN}
        assert mram.read(16, 8) == b"earlier!"
        assert mram.read(10_000, 8) == b"later!!!"
        assert mram.read(0, 12 * 1024) == (
            bytes(16) + b"earlier!" + bytes(10_000 - 24) + b"later!!!"
            + bytes(12 * 1024 - 10_008)
        )

    def test_page_crossing_write(self):
        mram = Mram()
        mram.write(self.PAGE - 4, bytes(range(16)))
        assert self.extents(mram) == {0: self.PAGE, 1: self.GRAIN}
        assert mram.read(self.PAGE - 4, 16) == bytes(range(16))
        assert mram.read(self.PAGE - 8, 24) == bytes(4) + bytes(range(16)) + bytes(4)
        assert mram.resident_bytes == self.PAGE + self.GRAIN

    def test_checkpoint_restores_a_grown_page(self):
        dpu = Dpu()
        dpu.mram.write(8, b"before!!")
        saved = dpu.checkpoint()
        dpu.mram.write(20_000, b"grown!!!")
        dpu.mram.write(8, b"changed!")
        assert self.extents(dpu.mram) == {0: 5 * self.GRAIN}
        for _ in range(2):  # a checkpoint restores more than once
            dpu.restore(saved)
            assert self.extents(dpu.mram) == {0: self.GRAIN}
            assert dpu.mram.read(0, 24 * 1024) == (
                bytes(8) + b"before!!" + bytes(24 * 1024 - 16)
            )
            dpu.mram.write(20_000, b"again!!!")
        assert dpu.mram.read(20_000, 8) == b"again!!!"

    @pytest.mark.parametrize("addr,n_bytes", [
        (0, 40), (8, 5000), (64 * 1024 - 16, 48), (64 * 1024, 24),
        (100, 3 * 64 * 1024),
    ])
    def test_write_rows_matches_one_write_per_row(self, addr, n_bytes):
        rng = np.random.default_rng(addr + n_bytes)
        block = rng.integers(0, 256, (3, n_bytes), np.uint8)
        got, want = [Mram() for _ in range(3)], [Mram() for _ in range(3)]
        for mram in got + want:  # an earlier, smaller image
            mram.write(0, rng.integers(0, 256, 300, np.uint8).tobytes())
        for mram, other in zip(got, want):
            other._pages[0][:] = mram._pages[0]
        write_rows(got, addr, block)
        for mram, row in zip(want, block):
            mram.write(addr, row.tobytes())
        span = addr + n_bytes + 64
        for a, b in zip(got, want):
            assert self.extents(a) == self.extents(b)
            assert a.read(0, span) == b.read(0, span)

    def test_write_rows_checks_before_writing(self):
        mrams = [Mram(1024), Mram(1024)]
        with pytest.raises(DpuMemoryError):
            write_rows(mrams, 1000, np.zeros((2, 32), np.uint8))
        with pytest.raises(DpuMemoryError):
            write_rows(mrams, 0, np.zeros((3, 32), np.uint8))
        with pytest.raises(DpuMemoryError):
            write_rows(mrams, -8, np.zeros((2, 32), np.uint8))
        assert all(mram._pages == {} for mram in mrams)


class TestDmaEngine:
    def make(self):
        mram, wram = Mram(), Wram()
        return DmaEngine(mram, wram), mram, wram

    def test_mram_to_wram_moves_data_and_charges(self):
        dma, mram, wram = self.make()
        mram.write(64, b"12345678")
        cycles = dma.mram_to_wram(64, 0, 8)
        assert wram.read(0, 8) == b"12345678"
        assert cycles == 25 + 4

    def test_wram_to_mram(self):
        dma, mram, wram = self.make()
        wram.write(8, b"abcdefgh")
        dma.wram_to_mram(8, 128, 8)
        assert mram.read(128, 8) == b"abcdefgh"

    def test_paper_transfer_cost(self):
        dma, _, _ = self.make()
        assert dma.mram_to_wram(0, 0, 2048) == 1049

    def test_counters_accumulate(self):
        dma, _, _ = self.make()
        dma.mram_to_wram(0, 0, 8)
        dma.mram_to_wram(8, 8, 16)
        assert dma.transfer_count == 2
        assert dma.total_bytes == 24
        assert dma.total_cycles == (25 + 4) + (25 + 8)

    def test_reset_counters(self):
        dma, _, _ = self.make()
        dma.mram_to_wram(0, 0, 8)
        dma.reset_counters()
        assert dma.total_cycles == 0
        assert dma.transfer_count == 0

    def test_oversized_transfer_rejected(self):
        dma, _, _ = self.make()
        with pytest.raises(DpuMemoryError):
            dma.mram_to_wram(0, 0, 4096)

    def test_misaligned_address_rejected(self):
        dma, _, _ = self.make()
        with pytest.raises(DpuAlignmentError):
            dma.mram_to_wram(4, 0, 8)

    def test_misaligned_size_rejected(self):
        dma, _, _ = self.make()
        with pytest.raises(DpuAlignmentError):
            dma.mram_to_wram(0, 0, 6)

    def test_zero_size_rejected(self):
        dma, _, _ = self.make()
        with pytest.raises(DpuMemoryError):
            dma.mram_to_wram(0, 0, 0)


class TestStreamedTransfer:
    def test_zero_bytes_free(self):
        assert streamed_transfer_cycles(0) == 0

    def test_single_chunk(self):
        assert streamed_transfer_cycles(2048) == 1049

    def test_two_chunks(self):
        assert streamed_transfer_cycles(4096) == 2 * 1049

    def test_remainder_chunk(self):
        assert streamed_transfer_cycles(2048 + 100) == 1049 + 25 + 50

    def test_custom_chunk(self):
        assert streamed_transfer_cycles(1024, chunk_bytes=512) == 2 * (25 + 256)

    def test_negative_rejected(self):
        with pytest.raises(DpuMemoryError):
            streamed_transfer_cycles(-1)

    def test_bad_chunk_rejected(self):
        with pytest.raises(DpuMemoryError):
            streamed_transfer_cycles(100, chunk_bytes=4096)

    @given(st.integers(1, 10**6))
    @settings(max_examples=50)
    def test_streaming_cost_at_least_flat_rate(self, total):
        """Streaming always costs at least bytes/2 plus one setup."""
        assert streamed_transfer_cycles(total) >= total // 2 + 25
