"""Interpreter throughput benchmark: fast path vs reference oracle.

Measures host-side simulated-MIPS (millions of retired DPU instructions
per wall-clock second) for the two instruction-level benchmark kernels —
the eBNN binary convolution and the row-strided integer GEMM — at 1, 11
and 16 tasklets, under both interpreter modes (``REPRO_INTERP``).  Every
timed pair is also an equivalence check: the fast interpreter must
produce the same :class:`ExecutionResult` and the same WRAM image as the
reference, bit for bit.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_interpreter.py \
        --image-size 16 --out BENCH_interpreter.json

``--smoke`` shrinks the workload for CI and exits non-zero unless the
fast interpreter is at least ``--min-speedup`` (default 2.0) times the
reference on every kernel; full runs land at 10-20x.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.dpu import samples
from repro.dpu.assembler import assemble
from repro.dpu.interpreter import make_interpreter
from repro.dpu.memory import DmaEngine, Mram, Wram

TASKLET_COUNTS = (1, 11, 16)


def _kernels(image_size: int, gemm_dim: int, n_tasklets: int) -> list[tuple[str, object]]:
    """The benchmark programs, built for one tasklet count."""
    conv = samples.binary_conv_program(
        image_size=image_size, n_filters=min(n_tasklets, 24)
    )
    gemm = samples.gemm_program(
        gemm_dim, gemm_dim, gemm_dim, n_tasklets=n_tasklets
    )
    return [("ebnn_conv", conv.program), ("gemm", gemm.program)]


def _run_once(program, mode: str, n_tasklets: int):
    """Run ``program`` under ``mode`` on fresh memory; returns timing + state."""
    wram = Wram()
    dma = DmaEngine(Mram(), wram)
    interpreter = make_interpreter(
        program, wram, dma, mode=mode, n_tasklets=n_tasklets
    )
    start = time.perf_counter()
    result = interpreter.run()
    wall = time.perf_counter() - start
    return wall, result, wram.read(0, wram.size)


def measure_serial(
    image_size: int, gemm_dim: int, repeats: int
) -> tuple[list[dict], bool]:
    """MIPS per (kernel, tasklet count, mode); returns (rows, all-identical)."""
    rows = []
    identical = True
    for n_tasklets in TASKLET_COUNTS:
        for kernel, program in _kernels(image_size, gemm_dim, n_tasklets):
            best = {"fast": float("inf"), "reference": float("inf")}
            states = {}
            for mode in ("fast", "reference"):
                for _ in range(repeats):
                    wall, result, wram = _run_once(program, mode, n_tasklets)
                    best[mode] = min(best[mode], wall)
                states[mode] = (result, wram)
            match = states["fast"] == states["reference"]
            identical &= match
            retired = states["fast"][0].instructions_retired
            rows.append(
                {
                    "kernel": kernel,
                    "n_tasklets": n_tasklets,
                    "instructions": retired,
                    "fast_mips": retired / best["fast"] / 1e6,
                    "reference_mips": retired / best["reference"] / 1e6,
                    "speedup": best["reference"] / best["fast"],
                    "identical": match,
                }
            )
    return rows, identical


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--image-size", type=int, default=16,
                        help="eBNN input image side (default: 16)")
    parser.add_argument("--gemm-dim", type=int, default=16,
                        help="square GEMM dimension (default: 16)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repeats per configuration; best-of wins")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required fast/reference ratio (default: 2.0)")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI workload; gate on --min-speedup")
    parser.add_argument("--out", default="BENCH_interpreter.json",
                        help="BENCH JSON output path")
    args = parser.parse_args(argv)

    image_size = 8 if args.smoke else args.image_size
    gemm_dim = 8 if args.smoke else args.gemm_dim
    repeats = 1 if args.smoke else args.repeats

    rows, identical = measure_serial(image_size, gemm_dim, repeats)

    payload = {
        "benchmark": "interpreter",
        "image_size": image_size,
        "gemm_dim": gemm_dim,
        "repeats": repeats,
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "results": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)

    print(f"interpreter throughput — eBNN {image_size}x{image_size}, "
          f"GEMM {gemm_dim}^3, best of {repeats}")
    print(f"{'kernel':>10}  {'tasklets':>8}  {'instr':>9}  {'fast MIPS':>10}  "
          f"{'ref MIPS':>9}  {'speedup':>8}  identical")
    for row in rows:
        print(f"{row['kernel']:>10}  {row['n_tasklets']:>8}  "
              f"{row['instructions']:>9}  {row['fast_mips']:>10.2f}  "
              f"{row['reference_mips']:>9.2f}  {row['speedup']:>7.1f}x  "
              f"{row['identical']}")
    print(f"wrote {args.out}")

    if not identical:
        print("ERROR: fast interpreter diverged from the reference")
        return 1
    worst = min(row["speedup"] for row in rows)
    if args.smoke and worst < args.min_speedup:
        print(f"ERROR: fast interpreter only {worst:.2f}x the reference "
              f"(required {args.min_speedup:.1f}x)")
        return 1
    return 0


def bench_interpreter():
    """Pytest smoke: tiny kernels stay bit-identical across interpreters."""
    rows, identical = measure_serial(image_size=6, gemm_dim=4, repeats=1)
    assert identical
    assert all(row["identical"] for row in rows)


if __name__ == "__main__":
    raise SystemExit(main())
