"""Tests for repro.host.transfer (SDK transfer semantics)."""

import numpy as np
import pytest

from repro import faults, telemetry
from repro.dpu.device import Dpu, DpuImage
from repro.faults import FaultPlan
from repro.host import transfer
from repro.host.transfer import XferBatch, XferDirection
from repro.errors import SymbolError, TransferError


def make_dpus(n=3, symbol_size=64):
    image = DpuImage.from_symbol_layout(
        "xfer_test", kernel_name="test_double", layout=[("data", symbol_size)]
    )
    dpus = []
    for i in range(n):
        dpu = Dpu(i)
        dpu.load(image)
        dpus.append(dpu)
    return dpus


class TestCopyTo:
    def test_broadcast_reaches_all_dpus(self, transfers):
        dpus = make_dpus()
        transfer.copy_to(dpus, "data", b"ABCDEFGH")
        for dpu in dpus:
            assert dpu.read_symbol("data", 8) == b"ABCDEFGH"
        counted = transfers()
        assert counted["to_dpu"] == 24
        assert counted["broadcasts"] == 1

    def test_numpy_payload(self):
        dpus = make_dpus(1)
        values = np.arange(4, dtype=np.int16)
        transfer.copy_to(dpus, "data", values)
        assert np.array_equal(
            dpus[0].read_symbol_array("data", np.int16, 4), values
        )

    def test_offset_write(self):
        dpus = make_dpus(1)
        transfer.copy_to(dpus, "data", b"ABCDEFGH", symbol_offset=8)
        assert dpus[0].read_symbol("data", 8, offset=8) == b"ABCDEFGH"

    def test_unaligned_size_rejected(self):
        with pytest.raises(TransferError):
            transfer.copy_to(make_dpus(1), "data", b"abc")


class TestCopyFrom:
    def test_reads_back(self, transfers):
        dpus = make_dpus(1)
        dpus[0].write_symbol("data", b"12345678")
        assert transfer.copy_from(dpus[0], "data", 8) == b"12345678"
        assert transfers()["from_dpu"] == 8

    def test_unaligned_rejected(self):
        with pytest.raises(TransferError):
            transfer.copy_from(make_dpus(1)[0], "data", 5)


class TestXferBatch:
    def test_scatter_different_buffers(self):
        dpus = make_dpus(3)
        batch = XferBatch()
        for i, dpu in enumerate(dpus):
            batch.prepare(dpu, bytes([i]) * 8)
        batch.push(XferDirection.TO_DPU, "data")
        for i, dpu in enumerate(dpus):
            assert dpu.read_symbol("data", 8) == bytes([i]) * 8

    def test_gather(self):
        dpus = make_dpus(2)
        dpus[0].write_symbol("data", b"AAAAAAAA")
        dpus[1].write_symbol("data", b"BBBBBBBB")
        batch = XferBatch()
        for dpu in dpus:
            batch.prepare(dpu, bytearray(8))
        results = batch.push(XferDirection.FROM_DPU, "data", length=8)
        assert results == [b"AAAAAAAA", b"BBBBBBBB"]

    def test_length_bounds_transfer(self):
        """The paper's mechanism: push only the valid prefix."""
        dpus = make_dpus(1)
        batch = XferBatch()
        batch.prepare(dpus[0], b"VALIDPAD" + b"X" * 8)
        batch.push(XferDirection.TO_DPU, "data", length=8)
        assert dpus[0].read_symbol("data", 8) == b"VALIDPAD"
        assert dpus[0].read_symbol("data", 8, offset=8) == bytes(8)

    def test_mismatched_buffer_sizes_need_explicit_length(self):
        dpus = make_dpus(2)
        batch = XferBatch()
        batch.prepare(dpus[0], b"A" * 8)
        batch.prepare(dpus[1], b"B" * 16)
        with pytest.raises(TransferError, match="differing sizes"):
            batch.push(XferDirection.TO_DPU, "data")

    def test_short_buffer_rejected(self):
        dpus = make_dpus(1)
        batch = XferBatch()
        batch.prepare(dpus[0], b"AB")
        with pytest.raises(TransferError, match="shorter"):
            batch.push(XferDirection.TO_DPU, "data", length=8)

    def test_empty_push_rejected(self):
        with pytest.raises(TransferError, match="no prepared"):
            XferBatch().push(XferDirection.TO_DPU, "data")

    def test_push_clears_prepared(self):
        dpus = make_dpus(1)
        batch = XferBatch()
        batch.prepare(dpus[0], b"12345678")
        batch.push(XferDirection.TO_DPU, "data")
        with pytest.raises(TransferError):
            batch.push(XferDirection.TO_DPU, "data")


class TestRowHelpers:
    def test_scatter_rows_pads_to_common_length(self):
        dpus = make_dpus(2)
        rows = [np.arange(3, dtype=np.int16), np.arange(4, dtype=np.int16)]
        length = transfer.scatter_rows(dpus, "data", rows)
        assert length == 8  # 4 int16 = 8 bytes, padded up
        assert np.array_equal(
            dpus[0].read_symbol_array("data", np.int16, 3), rows[0]
        )
        assert np.array_equal(
            dpus[1].read_symbol_array("data", np.int16, 4), rows[1]
        )

    def test_scatter_missing_symbol_touches_nothing(self):
        dpus = make_dpus(3)
        dpus[2].load(DpuImage.from_symbol_layout(
            "other", kernel_name="test_double", layout=[("blob", 64)]
        ))
        before = telemetry.GLOBAL_METRICS.snapshot()
        with pytest.raises(SymbolError, match="data"):
            transfer.scatter_rows(dpus, "data", [b"\xaa" * 8] * 3)
        delta = telemetry.GLOBAL_METRICS.delta_since(before)
        for dpu in dpus[:2]:
            assert dpu.read_symbol("data", 64) == bytes(64)
            assert dpu.mram._pages == {}
        assert delta["transfer.pushes"]["state"] == 0
        children = delta["transfer.bytes"].get("children", {})
        assert all(child["state"] == 0 for child in children.values())

    def test_scatter_flips_like_a_batch_push(self):
        """One corrupt draw per DPU, in set order, as XferBatch.push makes."""
        rows = [bytes([i] * 12) for i in range(3)]

        def pushed(scatter):
            dpus = make_dpus(3)
            plan = FaultPlan(seed=4, bitflip_rate=1.0)
            draws = []
            corrupt = plan.corrupt

            def recorded(data, *, dpu_id):
                draws.append(dpu_id)
                return corrupt(data, dpu_id=dpu_id)

            plan.corrupt = recorded
            with faults.fault_injection(plan):
                scatter(dpus)
            return [d.read_symbol("data", 16) for d in dpus], draws

        def batch(dpus):
            batch = XferBatch()
            for dpu, row in zip(dpus, rows):
                batch.prepare(dpu, row.ljust(16, b"\0"))
            batch.push(XferDirection.TO_DPU, "data")

        got = pushed(lambda dpus: transfer.scatter_rows(dpus, "data", rows))
        want = pushed(batch)
        assert got == want
        assert got[1] == [0, 1, 2]
        assert all(stored[:16] != row.ljust(16, b"\0")
                   for stored, row in zip(got[0], rows))

    def test_scatter_count_mismatch(self):
        with pytest.raises(TransferError, match="counts must match"):
            transfer.scatter_rows(make_dpus(2), "data", [b"x" * 8])

    def test_gather_rows(self):
        dpus = make_dpus(2)
        dpus[0].write_symbol("data", b"11111111")
        dpus[1].write_symbol("data", b"22222222")
        rows = transfer.gather_rows(dpus, "data", 8)
        assert rows == [b"11111111", b"22222222"]

    def test_gather_flips_like_a_batch_push(self):
        """One corrupt draw per DPU, in set order, as XferBatch.push makes."""

        def gathered(gather):
            dpus = make_dpus(3)
            for i, dpu in enumerate(dpus):
                dpu.write_symbol("data", bytes([i + 1]) * 16)
            plan = FaultPlan(seed=4, bitflip_rate=1.0)
            draws = []
            corrupt = plan.corrupt

            def recorded(data, *, dpu_id):
                draws.append(dpu_id)
                return corrupt(data, dpu_id=dpu_id)

            plan.corrupt = recorded
            with faults.fault_injection(plan):
                rows = [bytes(row) for row in gather(dpus)]
            stored = [d.read_symbol("data", 16) for d in dpus]
            return rows, draws, stored

        def batch(dpus):
            batch = XferBatch()
            for dpu in dpus:
                batch.prepare(dpu, bytearray(16))
            return batch.push(XferDirection.FROM_DPU, "data")

        got = gathered(lambda dpus: transfer.gather_rows(dpus, "data", 16))
        assert got == gathered(batch)
        rows, draws, stored = got
        assert draws == [0, 1, 2]
        # The flip hits the copy the host receives, not the DPU's MRAM.
        assert stored == [bytes([i + 1]) * 16 for i in range(3)]
        assert all(row != want for row, want in zip(rows, stored))


def _mixed_image_set(k, other_layout):
    """Four DPUs holding ``data`` at address 0; DPU ``k`` holds another image."""
    dpus = make_dpus(4, symbol_size=16)
    dpus[k].load(DpuImage.from_symbol_layout(
        "other", kernel_name="test_double", layout=other_layout
    ))
    return dpus


#: The set transfers, each moving 16 bytes per DPU through ``data``.
SET_TRANSFERS = {
    "copy_to": lambda dpus: transfer.copy_to(dpus, "data", b"\xab" * 16),
    "scatter_rows": lambda dpus: transfer.scatter_rows(
        dpus, "data", [bytes([i + 1]) * 16 for i in range(len(dpus))]
    ),
    "gather_rows": lambda dpus: transfer.gather_rows(dpus, "data", 16),
}


class TestMixedImageSets:
    """Symbols resolve once per distinct image, yet per DPU in effect."""

    @pytest.mark.parametrize("k", [0, 2, 3])
    @pytest.mark.parametrize("name", sorted(SET_TRANSFERS))
    def test_each_dpu_uses_its_own_symbol(self, name, k):
        dpus = _mixed_image_set(k, [("pad", 32), ("data", 16)])
        for i, dpu in enumerate(dpus):
            dpu.write_symbol("data", bytes([0x40 + i]) * 16)
        rows = SET_TRANSFERS[name](dpus)
        assert dpus[k].symbol("data").mram_addr == 32
        assert dpus[k].read_symbol("pad", 32) == bytes(32)
        stored = [dpu.read_symbol("data", 16) for dpu in dpus]
        if name == "copy_to":
            assert stored == [b"\xab" * 16] * 4
        elif name == "scatter_rows":
            assert stored == [bytes([i + 1]) * 16 for i in range(4)]
        else:
            assert rows == [bytes([0x40 + i]) * 16 for i in range(4)]

    @pytest.mark.parametrize("other_layout", [
        [("blob", 16)],            # no such symbol
        [("pad", 8), ("data", 8)],  # too small for 16 bytes
    ], ids=["missing", "short"])
    @pytest.mark.parametrize("k", [0, 2, 3])
    @pytest.mark.parametrize("name", sorted(SET_TRANSFERS))
    def test_a_bad_symbol_touches_nothing(self, name, k, other_layout):
        dpus = _mixed_image_set(k, other_layout)
        plan = FaultPlan(seed=4, bitflip_rate=1.0)
        before = telemetry.GLOBAL_METRICS.snapshot()
        with faults.fault_injection(plan), pytest.raises(SymbolError):
            SET_TRANSFERS[name](dpus)
        delta = telemetry.GLOBAL_METRICS.delta_since(before)
        for dpu in dpus:
            assert dpu.mram.read(0, 64) == bytes(64)
        assert plan._xfer_seq == {}
        for counter in ("transfer.pushes", "transfer.broadcasts"):
            assert delta[counter]["state"] == 0
        children = delta["transfer.bytes"].get("children", {})
        assert all(child["state"] == 0 for child in children.values())


class TestAccountRows:
    """The accounting of a transfer that moves no bytes."""

    @pytest.mark.parametrize("rows", [0, -1])
    def test_no_rows_is_an_empty_push(self, rows, transfers):
        dpus = make_dpus(4)
        plan = FaultPlan(seed=4, bitflip_rate=1.0)
        with faults.fault_injection(plan), pytest.raises(TransferError):
            transfer.account_rows(dpus, "data", 8, XferDirection.TO_DPU, rows)
        with pytest.raises(TransferError):
            transfer._account(dpus, "push", XferDirection.TO_DPU, 8, rows)
        assert plan._xfer_seq == {}
        assert dpus[0].clock.now == 0.0
        assert transfers() == {
            "to_dpu": 0, "from_dpu": 0, "broadcasts": 0, "pushes": 0,
        }

    def test_broadcast_accounts_and_draws_as_copy_to(self, transfers):
        """Same flip sites, clock and counters as ``copy_to``, and the
        DPUs' memory untouched."""

        def broadcast(send):
            dpus = make_dpus(3)
            plan = FaultPlan(seed=4, bitflip_rate=0.5)
            with faults.fault_injection(plan):
                sites = send(dpus)
            return sites, dict(plan._xfer_seq), dpus[0].clock.now, dpus

        payload = b"\x5a" * 16
        sites, seq, now, dpus = broadcast(lambda dpus: transfer.account_rows(
            dpus, "data", 16, XferDirection.TO_DPU, kind="broadcast"
        ))
        accounted = transfers()
        assert all(dpu.mram._pages == {} for dpu in dpus)
        _, want_seq, want_now, copied = broadcast(
            lambda dpus: transfer.copy_to(dpus, "data", payload)
        )
        assert (seq, now) == (want_seq, want_now)
        assert [faults.flipped(payload, site) for site in sites] == [
            dpu.read_symbol("data", 16) for dpu in copied
        ]
        assert any(sites) and not all(sites)
        both = transfers()
        assert both == {key: 2 * value for key, value in accounted.items()}
        assert accounted["broadcasts"] == 1 and accounted["to_dpu"] == 48


class TestSymbolResolution:
    """``_symbol_addrs`` looks a symbol up once per distinct image."""

    @pytest.fixture
    def looked_up(self, monkeypatch):
        """The ids of the DPUs whose symbols are looked up, in order."""
        ids = []
        symbol = Dpu.symbol
        monkeypatch.setattr(
            Dpu, "symbol", lambda dpu, name: ids.append(dpu.dpu_id) or symbol(dpu, name)
        )
        return ids

    def test_one_image_is_checked_once(self, looked_up):
        dpus = make_dpus(64)
        assert transfer._symbol_addrs(dpus, "data", 8, 16) == [8] * 64
        assert looked_up == [0]

    def test_two_images_are_both_checked_before_any_write(self, looked_up):
        dpus = _mixed_image_set(2, [("pad", 32), ("data", 16)])
        dpus[3].load(dpus[2].image)
        assert transfer._symbol_addrs(dpus, "data", 0, 16) == [0, 0, 32, 32]
        checked = [dpus[i].image for i in looked_up]
        assert checked == [dpus[0].image, dpus[2].image]

    def test_a_symbol_missing_from_the_second_image_draws_nothing(self):
        """``TestMixedImageSets`` covers the transfers that move bytes."""
        dpus = _mixed_image_set(3, [("blob", 16)])
        plan = FaultPlan(seed=4, bitflip_rate=1.0)
        with faults.fault_injection(plan), pytest.raises(SymbolError, match="data"):
            transfer.account_rows(dpus, "data", 16, XferDirection.TO_DPU)
        assert plan._xfer_seq == {}
        assert dpus[0].clock.now == 0.0
        assert all(dpu.mram._pages == {} for dpu in dpus)

    def test_account_rows_checks_each_image_once(self, looked_up):
        """``account_rows`` checks the range as ``_symbol_addrs`` does,
        without resolving a per-DPU address list."""
        transfer.account_rows(make_dpus(64), "data", 64, XferDirection.TO_DPU)
        assert looked_up == [0]
        looked_up.clear()
        dpus = _mixed_image_set(2, [("pad", 32), ("data", 16)])
        transfer.account_rows(dpus, "data", 16, XferDirection.TO_DPU)
        assert [dpus[i].image for i in looked_up] == [dpus[0].image, dpus[2].image]
        with pytest.raises(SymbolError, match="outside symbol"):
            transfer.account_rows(dpus, "data", 24, XferDirection.TO_DPU)

    def test_equal_images_resolve_alike(self):
        """Two builds of one layout are distinct objects with one layout."""
        dpus = make_dpus(4)
        twin = DpuImage.from_symbol_layout(
            "xfer_test", kernel_name="test_double", layout=[("data", 64)]
        )
        assert twin is not dpus[0].image and twin == dpus[0].image
        dpus[2].load(twin)
        assert transfer._symbol_addrs(dpus, "data", 16, 8) == [16] * 4
