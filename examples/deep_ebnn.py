"""Extending the framework: a two-block (deeper) eBNN.

The thesis's eBNN has one conv-pool block; its future work asks how
deeper binary networks behave on the platform.  This example stacks a
second binary conv-pool block using the multi-channel substrate, builds a
*per-block* Algorithm 1 LUT (block 2's LUT must cover the wider
[-k*k*C, +k*k*C] range its multi-channel conv produces), and estimates
the DPU cost of each block with the same recipe the single-block mapping
uses.

Run:  python examples/deep_ebnn.py
"""

import numpy as np

from repro.core.lut import create_lut
from repro.datasets import generate_batch
from repro.dpu.attributes import UPMEM_ATTRIBUTES
from repro.dpu.costs import OptLevel
from repro.dpu.kernel import KernelContext
from repro.nn.binary import (
    binarize,
    binary_conv2d,
    binary_conv2d_multi,
    conv_result_range,
)
from repro.nn.layers import BatchNormParams, maxpool2d_int

BLOCK1_FILTERS = 8
BLOCK2_FILTERS = 16


def make_bn(n, seed):
    rng = np.random.default_rng(seed)
    return BatchNormParams(
        w0=rng.uniform(-0.5, 0.5, n),
        w1=rng.uniform(-2, 2, n),
        w2=rng.uniform(0.5, 3, n),
        w3=rng.uniform(0.5, 1.5, n),
        w4=rng.uniform(-0.5, 0.5, n),
    )


def block_cost_cycles(conv_macs: int, pooled: int, lut_bytes: int,
                      n_tasklets: int = 16) -> float:
    """DPU cycles of one binary conv-pool-LUT block (the mapping recipe)."""
    ctx = KernelContext(n_tasklets=n_tasklets, opt_level=OptLevel.O3)
    ctx.charge_instructions(7 * conv_macs)   # loads + XNOR chain per MAC
    ctx.charge_instructions(9 * pooled)      # max-pool
    ctx.charge_streamed_dma(lut_bytes)       # stage the block's LUT
    ctx.charge_instructions(4 * pooled)      # LUT lookups
    return ctx.elapsed_cycles()


def main() -> None:
    rng = np.random.default_rng(0)
    batch = generate_batch(4, seed=3)
    image = binarize(batch.normalized()[0], 0.5)

    # ---- block 1: 1 -> 8 filters over 28x28 ---------------------------- #
    w1 = rng.choice(np.array([-1, 1], dtype=np.int8),
                    size=(BLOCK1_FILTERS, 3, 3))
    conv1 = binary_conv2d(image, w1, padding=1)
    pool1 = maxpool2d_int(conv1, 2)
    lo1, hi1 = conv_result_range(3)
    lut1 = create_lut(make_bn(BLOCK1_FILTERS, 1), lo1, hi1)
    bits1 = lut1.lookup_all(pool1)
    print(f"block 1: conv range [{lo1}, {hi1}], LUT {lut1.size_bytes} B, "
          f"features {bits1.shape}")

    # ---- block 2: 8 -> 16 filters over the 14x14 binary features ------- #
    feature_signs = np.where(bits1 > 0, 1, -1).astype(np.int8)
    w2 = rng.choice(np.array([-1, 1], dtype=np.int8),
                    size=(BLOCK2_FILTERS, BLOCK1_FILTERS, 3, 3))
    conv2 = binary_conv2d_multi(feature_signs, w2, padding=1)
    pool2 = maxpool2d_int(conv2, 2)
    lo2, hi2 = conv_result_range(3, in_channels=BLOCK1_FILTERS)
    lut2 = create_lut(make_bn(BLOCK2_FILTERS, 2), lo2, hi2)
    bits2 = lut2.lookup_all(pool2)
    print(f"block 2: conv range [{lo2}, {hi2}] (x{BLOCK1_FILTERS} wider), "
          f"LUT {lut2.size_bytes} B, features {bits2.shape}")

    # ---- DPU cost of each block ---------------------------------------- #
    macs1 = BLOCK1_FILTERS * 28 * 28 * 9
    macs2 = BLOCK2_FILTERS * BLOCK1_FILTERS * 14 * 14 * 9
    cycles1 = block_cost_cycles(macs1, BLOCK1_FILTERS * 14 * 14,
                                lut1.size_bytes)
    cycles2 = block_cost_cycles(macs2, BLOCK2_FILTERS * 7 * 7,
                                lut2.size_bytes)
    to_ms = lambda c: UPMEM_ATTRIBUTES.cycles_to_seconds(c) * 1e3
    print(f"\nper-image DPU cost: block 1 {to_ms(cycles1):.3f} ms "
          f"({macs1} MACs), block 2 {to_ms(cycles2):.3f} ms ({macs2} MACs)")
    print(f"depth doubles the blocks but multiplies block-2 work by the "
          f"channel count: total {to_ms(cycles1 + cycles2):.3f} ms/image")
    print("\nthe per-block LUT keeps every block float-free on the DPU — "
          "the Algorithm 1 transform generalizes to any depth")


if __name__ == "__main__":
    main()
