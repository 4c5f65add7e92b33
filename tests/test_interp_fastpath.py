"""Fast-interpreter equivalence.

The fast interpreter (``repro.dpu.fastpath``) must be observationally
indistinguishable from the reference: identical :class:`ExecutionResult`
(cycles, stalls, per-tasklet counters, profile, perfcounter values),
identical memory images, identical errors with identical messages, and
fault-injection sites that fire at exactly the same retired-instruction
count.  These tests drive both implementations side by side; the
differential fuzz in ``test_dpu_alu_fuzz.py`` covers randomized programs.
"""

import numpy as np
import pytest

from repro import faults
from repro.dpu import interpreter as interp
from repro.dpu import samples
from repro.dpu.assembler import assemble
from repro.dpu.fastpath import FastInterpreter
from repro.dpu.interpreter import Interpreter, make_interpreter
from repro.dpu.memory import DmaEngine, Mram, Wram
from repro.dpu.pipeline import TaskletClock
from repro.errors import DpuError, DpuFaultError, DpuLimitError


def _fresh(mram_size=64 * 1024 * 1024):
    wram = Wram()
    mram = Mram(mram_size)
    return wram, mram, DmaEngine(mram, wram)


def _mram_image(mram):
    return {index: page.tobytes() for index, page in mram._pages.items()}


def run_both(program, *, n_tasklets=1, setup=None, **kwargs):
    """Run under both modes; assert results and memories are identical."""
    outcomes = {}
    for mode in ("fast", "reference"):
        wram, mram, dma = _fresh()
        if setup is not None:
            setup(wram, mram)
        it = make_interpreter(
            program, wram, dma, mode=mode, n_tasklets=n_tasklets, **kwargs
        )
        result = it.run()
        outcomes[mode] = (result, wram.read(0, wram.size), _mram_image(mram))
    fast, reference = outcomes["fast"], outcomes["reference"]
    assert fast[0] == reference[0]
    assert fast[1] == reference[1]
    assert fast[2] == reference[2]
    return fast[0]


def raises_both(program, *, n_tasklets=1, setup=None, **kwargs):
    """Both modes must raise the same error type with the same message."""
    seen = {}
    for mode in ("fast", "reference"):
        wram, mram, dma = _fresh()
        if setup is not None:
            setup(wram, mram)
        it = make_interpreter(
            program, wram, dma, mode=mode, n_tasklets=n_tasklets, **kwargs
        )
        with pytest.raises(DpuError) as excinfo:
            it.run()
        seen[mode] = (type(excinfo.value), str(excinfo.value), wram.read(0, wram.size))
    assert seen["fast"][0] is seen["reference"][0]
    assert seen["fast"][1] == seen["reference"][1]
    # Side effects retired before the error must also agree.
    assert seen["fast"][2] == seen["reference"][2]
    return seen["fast"]


class TestModeSelection:
    def test_default_mode_is_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_INTERP", raising=False)
        interp.set_mode(None)
        assert interp.current_mode() == "fast"
        wram, _, dma = _fresh()
        it = make_interpreter(assemble("halt"), wram, dma)
        assert isinstance(it, FastInterpreter)

    def test_env_selects_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_INTERP", "reference")
        interp.set_mode(None)
        wram, _, dma = _fresh()
        it = make_interpreter(assemble("halt"), wram, dma)
        assert type(it) is Interpreter

    def test_scope_overrides_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_INTERP", raising=False)
        interp.set_mode(None)
        with interp.interp_scope("reference"):
            assert interp.current_mode() == "reference"
        assert interp.current_mode() == "fast"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown interpreter mode"):
            interp.set_mode("turbo")
        wram, _, dma = _fresh()
        with pytest.raises(ValueError, match="unknown interpreter mode"):
            make_interpreter(assemble("halt"), wram, dma, mode="turbo")


class TestSampleEquivalence:
    """Every sample kernel, at several tasklet counts, bit-for-bit."""

    @pytest.mark.parametrize("n_tasklets", [1, 3, 11, 16])
    def test_binary_conv(self, n_tasklets):
        sp = samples.binary_conv_program(image_size=8, n_filters=max(n_tasklets, 1))
        run_both(sp.program, n_tasklets=n_tasklets)

    @pytest.mark.parametrize("n_tasklets", [1, 5, 11])
    def test_gemm(self, n_tasklets):
        gp = samples.gemm_program(6, 7, 5, n_tasklets=n_tasklets)
        rng = np.random.default_rng(3)
        a = rng.integers(0, 256, 42).astype(np.int32)
        b = rng.integers(0, 256, 35).astype(np.int32)

        def setup(wram, mram):
            wram.write_array(0, a)
            wram.write_array(4 * 42, b)

        run_both(gp.program, n_tasklets=n_tasklets, setup=setup)

    @pytest.mark.parametrize("builder", [
        samples.copy_program,
        samples.relu_program,
        samples.reduction_program,
        samples.dot_product_program,
    ])
    @pytest.mark.parametrize("n_tasklets", [1, 4, 11])
    def test_strided_kernels(self, builder, n_tasklets):
        sp = builder(48, n_tasklets=n_tasklets)

        def setup(wram, mram):
            values = (np.arange(96, dtype=np.int32) * 37) % 251
            wram.write_array(0, values)  # covers the second operand too

        run_both(sp.program, n_tasklets=n_tasklets, setup=setup)

    def test_mram_copy_dma(self):
        program = samples.mram_copy_program(6, chunk_bytes=512)

        def setup(wram, mram):
            mram.write(0, bytes(range(256)) * 12)

        result = run_both(program, setup=setup)
        assert result.dma_transfers == 12
        assert result.stall_cycles > 0


class TestSemanticsEquivalence:
    def test_barrier_timing_all_tasklet_counts(self):
        # Tasklets arrive staggered (tid-dependent spin) so the last
        # arrival — whose dispatch reads the release-updated ready time —
        # is exercised at every count.
        source = """
                tid  r1
                li   r2, 0
            spin:
                bge  r2, r1, arrived
                addi r2, r2, 1
                j    spin
            arrived:
                barrier
                tid  r1
                lsli r1, r1, 2
                li   r3, 1
                sw   r3, r1, 0
                barrier
                halt
        """
        program = assemble(source)
        for n in (1, 2, 7, 11, 16):
            run_both(program, n_tasklets=n)

    def test_barrier_with_halted_spares(self):
        # Spare tasklets halt before the barrier; the live ones must
        # still release (the reference's live-set rule).
        source = """
                tid  r1
                li   r2, 3
                bge  r1, r2, finish
                barrier
                li   r4, 99
                sw   r4, r0, 0
            finish:
                halt
        """
        run_both(assemble(source), n_tasklets=6)

    def test_mutex_contention(self):
        sp = samples.dot_product_program(24, n_tasklets=8)

        def setup(wram, mram):
            wram.write_array(0, (np.arange(48, dtype=np.int32) * 7) % 200)

        run_both(sp.program, n_tasklets=8, setup=setup)

    def test_perfcounter_bracket(self):
        source = """
                perf_config
                li   r1, 10
            loop:
                addi r1, r1, -1
                bne  r1, r0, loop
                perf_get r5
                sw   r5, r0, 0
                perf_config
                perf_get r6
                sw   r6, r0, 4
                halt
        """
        result = run_both(assemble(source), n_tasklets=3)
        assert result.perf_values  # both brackets recorded, all tasklets

    def test_runtime_calls_and_profile(self):
        source = """
                li   r1, 1078530011     # pi as binary32
                li   r2, 1073741824     # 2.0f
                call __mulsf3
                sw   r1, r0, 0
                li   r1, 123456
                li   r2, 789
                call __mulsi3
                sw   r1, r0, 4
                li   r1, 1000
                li   r2, 7
                call __modsi3
                sw   r1, r0, 8
                halt
        """
        result = run_both(assemble(source), n_tasklets=2)
        assert result.profile.occurrences("__mulsf3") == 2
        assert result.stall_cycles > 0

    def test_jal_jr_linkage(self):
        source = """
                li   r2, 5
                jal  double
                sw   r1, r0, 0
                halt
            double:
                add  r1, r2, r2
                jr   r31
        """
        run_both(assemble(source), n_tasklets=2)

    def test_branch_into_middle_of_run(self):
        # The jump lands mid-run; the suffix run length must apply.
        source = """
                li   r1, 1
                j    middle
                addi r1, r1, 100
            middle:
                addi r1, r1, 1
                addi r1, r1, 1
                sw   r1, r0, 0
                halt
        """
        run_both(assemble(source))

    def test_fall_off_end_halts_without_retiring(self):
        program = assemble("addi r1, r1, 1\naddi r1, r1, 2")  # no halt
        result = run_both(program, n_tasklets=4)
        assert result.per_tasklet_instructions == [2, 2, 2, 2]

    def test_spare_tasklets_retire_nothing(self):
        source = """
                tid  r1
                bne  r1, r0, finish
                addi r2, r2, 1
                sw   r2, r0, 0
            finish:
                halt
        """
        result = run_both(assemble(source), n_tasklets=5)
        assert result.per_tasklet_cycles[0] > 0


class TestErrorEquivalence:
    def test_wram_out_of_bounds(self):
        raises_both(assemble("li r1, 65535\nlw r2, r1, 0\nhalt"))
        raises_both(assemble("li r1, 65534\nli r2, 7\nsw r2, r1, 0\nhalt"))

    def test_mutex_reacquire(self):
        err = raises_both(assemble("acquire 3\nacquire 3\nhalt"))
        assert err[0] is DpuFaultError
        assert "re-acquired mutex 3" in err[1]

    def test_release_not_held(self):
        err = raises_both(assemble("release 5\nhalt"))
        assert "does not hold" in err[1]

    def test_mutex_holder_halted_deadlock(self):
        source = """
                tid  r1
                bne  r1, r0, waiter
                acquire 2
                halt
            waiter:
                acquire 2
                halt
        """
        err = raises_both(assemble(source), n_tasklets=2)
        assert "halted without releasing" in err[1]

    def test_barrier_after_early_halt_releases_survivors(self):
        # Tasklet 0 halts before the barrier; the live-set release rule
        # must still free the others, identically in both modes.
        source = """
                tid  r1
                bne  r1, r0, skip
                halt
            skip:
                barrier
                lsli r2, r1, 2
                sw   r1, r2, 0
                halt
        """
        run_both(assemble(source), n_tasklets=3)

    def test_perf_get_unconfigured(self):
        err = raises_both(assemble("perf_get r1\nhalt"))
        assert "before perfcounter_config" in err[1]

    def test_unknown_runtime_call(self):
        err = raises_both(assemble("call __nosuch\nhalt"))
        assert "unknown runtime call" in err[1]

    def test_runaway_loop_cap(self):
        program = assemble("loop:\naddi r1, r1, 1\nj loop")
        err = raises_both(program, max_instructions=500)
        assert err[0] is DpuLimitError
        assert "exceeded 500 retired instructions" in err[1]

    def test_runaway_cap_mid_straight_line_run(self):
        # The cap lands inside a long stall-free run: the fast path must
        # split the run and stop at exactly the same retired count.
        body = "\n".join("addi r1, r1, 1" for _ in range(60))
        program = assemble(body + "\nhalt")
        err = raises_both(program, max_instructions=37)
        assert "exceeded 37" in err[1]

    def test_dma_misaligned(self):
        err = raises_both(assemble("li r1, 4\nli r2, 0\nldma r1, r2, 8\nhalt"))
        assert "not 8-byte aligned" in err[1]


class TestFaultInjectionEquivalence:
    def _event(self, site):
        return faults.ExecFault(
            kind=faults.FaultKind.FAULT, dpu_id=9, attempt=0,
            at_instruction=site,
        )

    @pytest.mark.parametrize("site", [0, 1, 17, 59])
    def test_fires_at_exact_site_mid_run(self, site):
        # 60 straight-line instructions: every site lands inside a run
        # the fast path would otherwise retire in one scheduler event.
        body = "\n".join(f"sw r1, r0, {4 * i}\naddi r1, r1, 1" for i in range(30))
        program = assemble(body + "\nhalt")
        err = raises_both(program, inject=self._event(site))
        assert err[0] is DpuFaultError
        assert f"trapped at instruction {site}" in err[1]

    def test_fires_after_program_end(self):
        program = assemble("addi r1, r1, 1\nhalt")
        err = raises_both(program, n_tasklets=2, inject=self._event(4))
        assert "trapped at instruction 4" in err[1]

    @pytest.mark.parametrize("site", [3, 10])
    def test_fires_across_tasklets(self, site):
        sp = samples.reduction_program(8, n_tasklets=4)
        err = raises_both(sp.program, n_tasklets=4, inject=self._event(site))
        assert f"trapped at instruction {site}" in err[1]


class TestDispatchRun:
    def test_matches_repeated_dispatch(self):
        a, b = TaskletClock(5), TaskletClock(5)
        for _ in range(7):
            a.dispatch(2)
        a.dispatch(2, 13.0)
        b.dispatch_run(2, 8, 13.0)
        assert a.next_ready == b.next_ready
        assert a.retired == b.retired
        assert a.finish_cycle() == b.finish_cycle()

    def test_zero_run_is_identity(self):
        clock = TaskletClock(2)
        before = list(clock.next_ready)
        clock.dispatch_run(1, 0)
        assert clock.next_ready == before

    def test_negative_run_rejected(self):
        with pytest.raises(DpuLimitError, match="negative dispatch run"):
            TaskletClock(2).dispatch_run(0, -1)
