"""Algorithm 1: host-side LUT creation replacing BN + BinAct on the DPU.

The eBNN conv-pool block ends in Batch Normalization followed by Binary
Activation — both floating point, both catastrophically slow inside a DPU
(Section 3.3).  Section 4.1.4's fix: because the conv/pool output is a
*bounded integer* (a k x k binary correlation lies in [-k^2, +k^2]), the
host can precompute the 1-bit BN+BinAct result for **every possible input
value and every filter** and ship the table to the DPU, which then replaces
two float blocks with one WRAM lookup.

``LUT[(value - x) * z + j]`` holds the bit for input ``value`` and filter
``j``, where ``x`` is the smallest possible conv result and ``z`` the
filter count — the exact indexing of Algorithm 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MappingError
from repro.host.alignment import pad_buffer
from repro.nn.layers import BatchNormParams


@dataclass(frozen=True)
class LookupTable:
    """The flattened BN+BinAct table of Algorithm 1."""

    table: np.ndarray   # uint8, shape (range_size * n_filters,)
    smallest: int       # x: smallest possible conv result
    largest: int        # y: largest possible conv result
    n_filters: int      # z

    @property
    def range_size(self) -> int:
        return self.largest - self.smallest + 1

    @property
    def size_bytes(self) -> int:
        return self.table.size

    def index(self, value: int, filter_index: int) -> int:
        """Flat index for (input value, filter) — Algorithm 1 line 18."""
        if not self.smallest <= value <= self.largest:
            raise MappingError(
                f"conv result {value} outside LUT range "
                f"[{self.smallest}, {self.largest}]"
            )
        if not 0 <= filter_index < self.n_filters:
            raise MappingError(
                f"filter {filter_index} outside [0, {self.n_filters})"
            )
        return (value - self.smallest) * self.n_filters + filter_index

    def lookup(self, value: int, filter_index: int) -> int:
        """One BN+BinAct result bit (the DPU-side access)."""
        return int(self.table[self.index(value, filter_index)])

    def lookup_map(self, values: np.ndarray, filter_index: int) -> np.ndarray:
        """Vectorized lookup over an integer feature map of one filter."""
        offsets = (np.asarray(values, dtype=np.int64) - self.smallest)
        if np.any(offsets < 0) or np.any(offsets >= self.range_size):
            raise MappingError("feature map contains values outside LUT range")
        return self.table[offsets * self.n_filters + filter_index]

    def lookup_all(self, feature_maps: np.ndarray) -> np.ndarray:
        """Vectorized lookup over a (..., filters, H, W) integer tensor."""
        if feature_maps.ndim < 3 or feature_maps.shape[-3] != self.n_filters:
            raise MappingError(
                f"maps of shape {feature_maps.shape} for "
                f"{self.n_filters} LUT filters"
            )
        out = np.empty(feature_maps.shape, dtype=np.uint8)
        for j in range(self.n_filters):
            out[..., j, :, :] = self.lookup_map(feature_maps[..., j, :, :], j)
        return out

    def to_bytes(self) -> bytes:
        """Serialize for the host->DPU transfer (8-byte padded)."""
        return pad_buffer(self.table.astype(np.uint8).tobytes()).data

    @staticmethod
    def from_bytes(
        data: bytes, smallest: int, largest: int, n_filters: int
    ) -> "LookupTable":
        """Deserialize a table previously produced by :meth:`to_bytes`."""
        size = (largest - smallest + 1) * n_filters
        if len(data) < size:
            raise MappingError(
                f"{len(data)} bytes cannot hold a {size}-entry LUT"
            )
        table = np.frombuffer(data[:size], dtype=np.uint8).copy()
        return LookupTable(table, smallest, largest, n_filters)


def create_lut(
    bn: BatchNormParams,
    smallest: int,
    largest: int,
) -> LookupTable:
    """Algorithm 1, line for line: run every (value, filter) through BN+BinAct.

    The host needs only the BN weights, the conv result range (a function
    of the filter size alone) and the filter count — exactly the inputs
    Section 4.1.4 lists.
    """
    if largest < smallest:
        raise MappingError(f"empty conv-result range [{smallest}, {largest}]")
    z = bn.n_filters
    table = np.zeros((largest - smallest + 1) * z, dtype=np.uint8)
    for value in range(smallest, largest + 1):
        for j in range(z):
            tmp = float(value)
            tmp = tmp + float(bn.w0[j])
            tmp = tmp - float(bn.w1[j])
            tmp = tmp / float(bn.w2[j])
            tmp = tmp * float(bn.w3[j])
            tmp = tmp + float(bn.w4[j])
            result = 1 if tmp >= 0.0 else 0
            table[(value - smallest) * z + j] = result
    return LookupTable(table, smallest, largest, z)


def lut_matches_float_path(lut: LookupTable, bn: BatchNormParams) -> bool:
    """Verify the LUT agrees with the float BN+BinAct on every input.

    The correctness property of the Section 4.1.4 transformation: for all
    in-range values and filters, table lookup == float pipeline.
    """
    values = np.arange(lut.smallest, lut.largest + 1, dtype=np.float64)
    for j in range(lut.n_filters):
        normalized = bn.apply(values, j)
        expected = (normalized >= 0).astype(np.uint8)
        actual = lut.lookup_map(values.astype(np.int64), j)
        if not np.array_equal(expected, actual):
            return False
    return True
