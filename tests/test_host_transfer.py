"""Tests for repro.host.transfer (SDK transfer semantics)."""

import numpy as np
import pytest

from repro import telemetry
from repro.dpu.device import Dpu, DpuImage
from repro.host import transfer
from repro.host.transfer import XferDirection
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

    def test_scatter_count_mismatch(self):
        with pytest.raises(TransferError, match="counts must match"):
            transfer.scatter_rows(make_dpus(2), "data", [b"x" * 8])

    def test_gather_rows(self):
        dpus = make_dpus(2)
        dpus[0].write_symbol("data", b"11111111")
        dpus[1].write_symbol("data", b"22222222")
        rows = transfer.gather_rows(dpus, "data", 8)
        assert rows == [b"11111111", b"22222222"]

    def test_gather_rows_reads_back(self, transfers):
        dpus = make_dpus(2)
        dpus[0].write_symbol("data", b"12345678")
        dpus[1].write_symbol("data", b"87654321")
        assert transfer.gather_rows(dpus, "data", 8) == [
            b"12345678", b"87654321"
        ]
        counted = transfers()
        assert counted["from_dpu"] == 16 and counted["pushes"] == 1

    def test_gather_rows_unaligned_rejected(self):
        with pytest.raises(TransferError):
            transfer.gather_rows(make_dpus(1), "data", 5)

    def test_gather_rows_of_no_dpus_rejected(self):
        with pytest.raises(TransferError, match="no DPUs"):
            transfer.gather_rows([], "data", 8)


#: Each transfer helper over no DPUs.
NO_DPU_TRANSFERS = {
    "copy_to": lambda: transfer.copy_to([], "data", b"\xab" * 8),
    "scatter_rows": lambda: transfer.scatter_rows([], "data", []),
    "gather_rows": lambda: transfer.gather_rows([], "data", 8),
    "account_rows": lambda: transfer.account_rows(
        [], "data", 8, XferDirection.TO_DPU
    ),
}


@pytest.mark.parametrize("name", sorted(NO_DPU_TRANSFERS))
def test_transfer_over_no_dpus_moves_nothing(name, transfers):
    """Every helper rejects an empty DPU list with the same error,
    before it counts a byte, opens a span or moves the clock."""
    with telemetry.tracing() as tracer:
        with pytest.raises(TransferError, match="^transfer over no DPUs$"):
            NO_DPU_TRANSFERS[name]()
    assert transfers() == {
        "to_dpu": 0, "from_dpu": 0, "broadcasts": 0, "pushes": 0,
    }
    assert len(tracer) == 0 and tracer.sim_now == 0.0


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
        before = telemetry.GLOBAL_METRICS.snapshot()
        with pytest.raises(SymbolError):
            SET_TRANSFERS[name](dpus)
        delta = telemetry.GLOBAL_METRICS.delta_since(before)
        for dpu in dpus:
            assert dpu.mram.read(0, 64) == bytes(64)
        for counter in ("transfer.pushes", "transfer.broadcasts"):
            assert delta[counter]["state"] == 0
        children = delta["transfer.bytes"].get("children", {})
        assert all(child["state"] == 0 for child in children.values())


class TestAccountRows:
    """The accounting of a transfer that moves no bytes."""

    @pytest.mark.parametrize("rows", [0, -1])
    def test_no_rows_is_an_empty_push(self, rows, transfers):
        dpus = make_dpus(4)
        with pytest.raises(TransferError):
            transfer.account_rows(dpus, "data", 8, XferDirection.TO_DPU, rows)
        with pytest.raises(TransferError):
            transfer._account(dpus, "push", XferDirection.TO_DPU, 8, rows)
        assert dpus[0].clock.now == 0.0
        assert transfers() == {
            "to_dpu": 0, "from_dpu": 0, "broadcasts": 0, "pushes": 0,
        }

    def test_broadcast_accounts_as_copy_to(self, transfers):
        """The clock and counters of ``copy_to``, and the DPUs' memory
        untouched."""
        dpus = make_dpus(3)
        transfer.account_rows(
            dpus, "data", 16, XferDirection.TO_DPU, kind="broadcast"
        )
        accounted = transfers()
        assert all(dpu.mram._pages == {} for dpu in dpus)
        copied = make_dpus(3)
        transfer.copy_to(copied, "data", b"\x5a" * 16)
        assert dpus[0].clock.now == copied[0].clock.now > 0
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

    def test_a_symbol_missing_from_one_image_accounts_nothing(self):
        """``TestMixedImageSets`` covers the transfers that move bytes."""
        dpus = _mixed_image_set(3, [("blob", 16)])
        with pytest.raises(SymbolError, match="data"):
            transfer.account_rows(dpus, "data", 16, XferDirection.TO_DPU)
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
