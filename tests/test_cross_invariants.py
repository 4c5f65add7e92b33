"""Cross-module invariants: the contracts that tie the layers together.

These are the properties that must hold *between* subsystems — interpreter
vs. closed-form pipeline model, kernel accounting vs. interpreter charges
— so a change in one layer cannot silently skew
another.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dpu.assembler import assemble
from repro.dpu.costs import OptLevel
from repro.dpu.interpreter import run_program
from repro.dpu.kernel import KernelContext
from repro.dpu.pipeline import execution_cycles
from repro.dpu import runtime_calls


class TestInterpreterMatchesPipelineModel:
    @given(st.integers(1, 200), st.integers(1, 24))
    @settings(max_examples=60, deadline=None)
    def test_straightline_code_timing(self, n_instructions, n_tasklets):
        """The interpreter's clock equals the closed-form model exactly
        for straight-line code (every tasklet runs the same stream)."""
        source = "nop\n" * n_instructions + "halt"
        result, _ = run_program(assemble(source), n_tasklets=n_tasklets)
        expected = execution_cycles(n_instructions + 1, n_tasklets)
        assert result.cycles == expected

    @given(st.integers(1, 50))
    @settings(max_examples=30, deadline=None)
    def test_call_cost_equals_kernel_charge(self, n_calls):
        """A CALL in the interpreter costs what charge_call accounts."""
        source = "li r1, 3\nli r2, 4\n" + "call __mulsi3\n" * n_calls + "halt"
        result, _ = run_program(assemble(source), opt_level=OptLevel.O0)

        ctx = KernelContext(n_tasklets=1, opt_level=OptLevel.O0)
        ctx.charge_instructions(3 + 1)  # the two li's + halt... (see below)
        ctx.charge_call("__mulsi3", n_calls)
        # interpreter: (2 li + halt + n_calls * call_cost) slots
        per_call = runtime_calls.get("__mulsi3").instructions(OptLevel.O0)
        expected_slots = 3 + n_calls * per_call
        assert result.cycles == execution_cycles(expected_slots, 1)
        assert ctx.profile.occurrences("__mulsi3") == n_calls
        assert result.profile.occurrences("__mulsi3") == n_calls


class TestKernelAndDeviceAgree:
    def test_device_kernel_result_is_context_result(self):
        """A set launch of a kernel reports exactly the context's result."""
        from repro.dpu.attributes import UPMEM_ATTRIBUTES
        from repro.dpu.device import DpuImage
        from repro.dpu.kernel import charged_result
        from repro.host.runtime import DpuSystem
        from tests.conftest import launch_kernel

        def probe(dpus, *, n_tasklets, opt_level, slots):
            return [
                charged_result(
                    lambda ctx: ctx.charge_instructions(slots),
                    n_tasklets=n_tasklets, opt_level=opt_level,
                )
                for _ in dpus
            ]

        dpu_set = DpuSystem(UPMEM_ATTRIBUTES.scaled(1)).allocate(1)
        dpu_set.load(DpuImage(name="probe"))
        report = launch_kernel(dpu_set, probe, n_tasklets=4, slots=400)
        result = dpu_set[0].last_result
        assert result.issue_slots == 400
        assert result.cycles == report.cycles == execution_cycles(100, 4)


class TestQuantizedGemmInvariants:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_row_distribution_equals_full_gemm(self, seed):
        """Distributing rows across DPUs (Fig. 4.6) never changes C."""
        from repro.nn.gemm import gemm_fast, gemm_row

        rng = np.random.default_rng(seed)
        m, n, k = rng.integers(1, 8, size=3)
        a = rng.integers(-300, 300, size=(m, k)).astype(np.int16)
        b = rng.integers(-300, 300, size=(k, n)).astype(np.int16)
        full = gemm_fast(1, a, b)
        by_rows = np.stack([gemm_row(1, a[i], b) for i in range(m)])
        assert np.array_equal(full, by_rows)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_lut_path_equals_float_path_for_any_bn(self, seed):
        """Algorithm 1's table always agrees with the float chain."""
        from repro.core.lut import create_lut
        from repro.nn.layers import BatchNormParams, binary_activation

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        bn = BatchNormParams(
            w0=rng.uniform(-5, 5, n),
            w1=rng.uniform(-5, 5, n),
            w2=rng.choice([-1, 1], n) * rng.uniform(0.1, 5, n),
            w3=rng.uniform(-2, 2, n),
            w4=rng.uniform(-5, 5, n),
        )
        lut = create_lut(bn, -9, 9)
        values = np.arange(-9, 10, dtype=np.float64)
        for j in range(n):
            expected = binary_activation(bn.apply(values, j))
            actual = lut.lookup_map(values.astype(np.int64), j)
            assert np.array_equal(expected, actual)
