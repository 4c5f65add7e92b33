"""Fast interpreter: decode-once dispatch and event-driven scheduling.

Drop-in replacement for :class:`repro.dpu.interpreter.Interpreter` that
produces **bit-identical** :class:`ExecutionResult` values, memory images,
errors, and fault-injection sites while retiring simulated instructions
5-15x faster.  Three mechanisms, none of which changes a reported cycle:

1. **Decode-once dispatch.**  Each :class:`~repro.dpu.isa.Instruction`
   is translated once per program into a per-opcode closure with its
   operands pre-extracted and register indices pre-validated, replacing
   the ~40-branch ``if/elif`` chain of the reference ``_execute``.
   Registers are a plain list (r0 writes are compiled away), and WRAM
   loads/stores go through :mod:`struct` on a cached ``memoryview``
   instead of allocating a ``bytes`` per access.

2. **Event-driven scheduling.**  The reference rebuilds the runnable
   list and calls ``min()`` for *every* retired instruction; here a
   ``heapq`` keyed on ``next_ready`` holds exactly one entry per
   runnable tasklet, so each scheduler decision is O(log T).  The heap
   pops ``(ready, tid)`` tuples, matching the reference's
   ``min((ready, tid))`` tie-break exactly.

3. **Straight-line runs.**  At decode time every instruction knows the
   length of the stall-free non-branching sequence that starts at it
   (:data:`repro.dpu.isa.STRAIGHT_LINE_OPS`); the whole run retires in
   one scheduler entry, advancing the clock by ``run_length *
   dispatch_interval``.  Because the dispatch interval is constant
   between scheduler events and all cycle values are integer-valued
   floats below 2**53, the batched advance is bit-identical to the
   reference's repeated additions (see ``TaskletClock.dispatch_run``).

Runs are capped so the ``max_instructions`` runaway guard fires at
*exactly* the same total retired count as the reference.  With a fault
injection installed the interpreter single-steps instead: a trap exposes
the partial memory image, which depends on the global cross-tasklet
retirement order, so runs are disabled until the site fires.

Batched runs reorder retirement *between* tasklets (one tasklet's whole
run executes before another's interleaved instructions), which is
observable only through unsynchronized cross-tasklet memory traffic.
Programs whose shared accesses are ordered by mutexes or barriers — both
run-breaking instructions — are bit-identical under either interpreter;
racy programs get the scheduler-order semantics of whichever mode runs
them, just as they would on real hardware.

The reference interpreter stays available via ``REPRO_INTERP=reference``
(see :func:`repro.dpu.interpreter.make_interpreter`) and backs the
differential fuzz harness in ``tests/test_dpu_alu_fuzz.py``.
"""

from __future__ import annotations

import struct
import weakref
from heapq import heappop, heappush

from repro.dpu import runtime_calls
from repro.dpu.costs import PROFILING_OVERHEAD_CYCLES
from repro.dpu.interpreter import ExecutionResult, Interpreter
from repro.dpu.isa import LINK_REGISTER, MUTEX_COUNT, Opcode
from repro.dpu.pipeline import PIPELINE_STAGES, TaskletClock, dispatch_interval
from repro.dpu.registers import REGISTER_COUNT, check_register as _reg
from repro.errors import DpuError, DpuFaultError, DpuLimitError

_M = 0xFFFF_FFFF
_SIGN = 0x8000_0000
_WRAP = 0x1_0000_0000

# Event kinds: how the scheduler loop treats a decoded instruction.
K_SIMPLE = 0    # handler(regs, tid) -> None; eligible for runs
K_BRANCH = 1    # handler(regs) -> next_pc
K_DMA = 2       # handler(regs) -> stall cycles (float)
K_CALL = 3      # handler(regs) -> stall cycles (float)
K_PERF = 4      # handler(tid, regs, ready) -> None
K_ACQUIRE = 5   # handler(tid) -> acquired (bool)
K_RELEASE = 6   # handler(tid) -> None
K_BARRIER = 7   # inline in the scheduler loop
K_HALT = 8      # inline in the scheduler loop

_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")
_U32_UNPACK = _U32.unpack_from
_U32_PACK = _U32.pack_into
_U16_UNPACK = _U16.unpack_from
_U16_PACK = _U16.pack_into


class _BindEnv:
    """Per-run context the decoded makers bind their handlers against.

    Decoding is per *program* (cached); binding is per *run*, because the
    WRAM backing buffer, DMA engine, profile, and opt level belong to one
    interpreter instance (and :meth:`~repro.dpu.device.Dpu.restore` may
    swap buffers between launches).
    """

    __slots__ = (
        "view", "wram", "wsize", "dma", "profile", "opt_level",
        "interval", "mutexes", "halted", "perf_origin", "perf_values",
    )


def _const(handler):
    """Maker for handlers that need nothing from the run environment."""
    return lambda env: handler


# --------------------------------------------------------------------- #
# per-opcode decoders: (instruction, index) -> (kind, maker)
# --------------------------------------------------------------------- #


def _d_add(ins, index):
    rd, rs, rt = _reg(ins.rd), _reg(ins.rs), _reg(ins.rt)
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = (regs[rs] + regs[rt]) & _M
    return K_SIMPLE, _const(h)


def _d_sub(ins, index):
    rd, rs, rt = _reg(ins.rd), _reg(ins.rs), _reg(ins.rt)
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = (regs[rs] - regs[rt]) & _M
    return K_SIMPLE, _const(h)


def _d_and(ins, index):
    rd, rs, rt = _reg(ins.rd), _reg(ins.rs), _reg(ins.rt)
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = regs[rs] & regs[rt]
    return K_SIMPLE, _const(h)


def _d_or(ins, index):
    rd, rs, rt = _reg(ins.rd), _reg(ins.rs), _reg(ins.rt)
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = regs[rs] | regs[rt]
    return K_SIMPLE, _const(h)


def _d_xor(ins, index):
    rd, rs, rt = _reg(ins.rd), _reg(ins.rs), _reg(ins.rt)
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = regs[rs] ^ regs[rt]
    return K_SIMPLE, _const(h)


def _d_lsl(ins, index):
    rd, rs, rt = _reg(ins.rd), _reg(ins.rs), _reg(ins.rt)
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = (regs[rs] << (regs[rt] & 31)) & _M
    return K_SIMPLE, _const(h)


def _d_lsr(ins, index):
    rd, rs, rt = _reg(ins.rd), _reg(ins.rs), _reg(ins.rt)
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = regs[rs] >> (regs[rt] & 31)
    return K_SIMPLE, _const(h)


def _d_asr(ins, index):
    rd, rs, rt = _reg(ins.rd), _reg(ins.rs), _reg(ins.rt)
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        a = regs[rs]
        if a & _SIGN:
            a -= _WRAP
        regs[rd] = (a >> (regs[rt] & 31)) & _M
    return K_SIMPLE, _const(h)


def _d_mul8(ins, index):
    rd, rs, rt = _reg(ins.rd), _reg(ins.rs), _reg(ins.rt)
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = (regs[rs] & 0xFF) * (regs[rt] & 0xFF)
    return K_SIMPLE, _const(h)


def _d_slt(ins, index):
    rd, rs, rt = _reg(ins.rd), _reg(ins.rs), _reg(ins.rt)
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        a = regs[rs]
        b = regs[rt]
        if a & _SIGN:
            a -= _WRAP
        if b & _SIGN:
            b -= _WRAP
        regs[rd] = 1 if a < b else 0
    return K_SIMPLE, _const(h)


def _d_sltu(ins, index):
    rd, rs, rt = _reg(ins.rd), _reg(ins.rs), _reg(ins.rt)
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = 1 if regs[rs] < regs[rt] else 0
    return K_SIMPLE, _const(h)


def _d_addi(ins, index):
    rd, rs, imm = _reg(ins.rd), _reg(ins.rs), ins.imm
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = (regs[rs] + imm) & _M
    return K_SIMPLE, _const(h)


def _d_andi(ins, index):
    rd, rs, imm = _reg(ins.rd), _reg(ins.rs), ins.imm & _M
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = regs[rs] & imm
    return K_SIMPLE, _const(h)


def _d_ori(ins, index):
    rd, rs, imm = _reg(ins.rd), _reg(ins.rs), ins.imm & _M
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = regs[rs] | imm
    return K_SIMPLE, _const(h)


def _d_xori(ins, index):
    rd, rs, imm = _reg(ins.rd), _reg(ins.rs), ins.imm & _M
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = regs[rs] ^ imm
    return K_SIMPLE, _const(h)


def _d_lsli(ins, index):
    rd, rs, sh = _reg(ins.rd), _reg(ins.rs), ins.imm & 31
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = (regs[rs] << sh) & _M
    return K_SIMPLE, _const(h)


def _d_lsri(ins, index):
    rd, rs, sh = _reg(ins.rd), _reg(ins.rs), ins.imm & 31
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = regs[rs] >> sh
    return K_SIMPLE, _const(h)


def _d_asri(ins, index):
    rd, rs, sh = _reg(ins.rd), _reg(ins.rs), ins.imm & 31
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        a = regs[rs]
        if a & _SIGN:
            a -= _WRAP
        regs[rd] = (a >> sh) & _M
    return K_SIMPLE, _const(h)


def _d_li(ins, index):
    rd, value = _reg(ins.rd), ins.imm & _M
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = value
    return K_SIMPLE, _const(h)


def _d_move(ins, index):
    rd, rs = _reg(ins.rd), _reg(ins.rs)
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = regs[rs]
    return K_SIMPLE, _const(h)


def _d_tid(ins, index):
    rd = _reg(ins.rd)
    if rd == 0:
        return K_SIMPLE, None

    def h(regs, tid):
        regs[rd] = tid
    return K_SIMPLE, _const(h)


def _d_lw(ins, index):
    rd, rs, imm = _reg(ins.rd), _reg(ins.rs), ins.imm

    def maker(env):
        view, check, limit = env.view, env.wram._check, env.wsize - 4
        unpack = _U32_UNPACK
        if rd == 0:
            def h(regs, tid):
                addr = (regs[rs] + imm) & _M
                if addr > limit:
                    check(addr, 4)  # out of bounds: canonical DpuMemoryError
            return h

        def h(regs, tid):
            addr = (regs[rs] + imm) & _M
            if addr > limit:
                check(addr, 4)
            regs[rd] = unpack(view, addr)[0]
        return h
    return K_SIMPLE, maker


def _d_lh(ins, index):
    rd, rs, imm = _reg(ins.rd), _reg(ins.rs), ins.imm

    def maker(env):
        view, check, limit = env.view, env.wram._check, env.wsize - 2
        unpack = _U16_UNPACK
        if rd == 0:
            def h(regs, tid):
                addr = (regs[rs] + imm) & _M
                if addr > limit:
                    check(addr, 2)
            return h

        def h(regs, tid):
            addr = (regs[rs] + imm) & _M
            if addr > limit:
                check(addr, 2)
            regs[rd] = unpack(view, addr)[0]
        return h
    return K_SIMPLE, maker


def _d_lb(ins, index):
    rd, rs, imm = _reg(ins.rd), _reg(ins.rs), ins.imm

    def maker(env):
        view, check, limit = env.view, env.wram._check, env.wsize - 1
        if rd == 0:
            def h(regs, tid):
                addr = (regs[rs] + imm) & _M
                if addr > limit:
                    check(addr, 1)
            return h

        def h(regs, tid):
            addr = (regs[rs] + imm) & _M
            if addr > limit:
                check(addr, 1)
            regs[rd] = view[addr]
        return h
    return K_SIMPLE, maker


def _d_sw(ins, index):
    rt, rs, imm = _reg(ins.rt), _reg(ins.rs), ins.imm

    def maker(env):
        view, check, limit = env.view, env.wram._check, env.wsize - 4
        pack = _U32_PACK

        def h(regs, tid):
            addr = (regs[rs] + imm) & _M
            if addr > limit:
                check(addr, 4)
            pack(view, addr, regs[rt])
        return h
    return K_SIMPLE, maker


def _d_sh(ins, index):
    rt, rs, imm = _reg(ins.rt), _reg(ins.rs), ins.imm

    def maker(env):
        view, check, limit = env.view, env.wram._check, env.wsize - 2
        pack = _U16_PACK

        def h(regs, tid):
            addr = (regs[rs] + imm) & _M
            if addr > limit:
                check(addr, 2)
            pack(view, addr, regs[rt] & 0xFFFF)
        return h
    return K_SIMPLE, maker


def _d_sb(ins, index):
    rt, rs, imm = _reg(ins.rt), _reg(ins.rs), ins.imm

    def maker(env):
        view, check, limit = env.view, env.wram._check, env.wsize - 1

        def h(regs, tid):
            addr = (regs[rs] + imm) & _M
            if addr > limit:
                check(addr, 1)
            view[addr] = regs[rt] & 0xFF
        return h
    return K_SIMPLE, maker


def _d_ldma(ins, index):
    rd, rs, size = _reg(ins.rd), _reg(ins.rs), ins.imm

    def maker(env):
        xfer = env.dma.mram_to_wram

        def h(regs):
            return float(xfer(regs[rs], regs[rd], size))
        return h
    return K_DMA, maker


def _d_sdma(ins, index):
    rd, rs, size = _reg(ins.rd), _reg(ins.rs), ins.imm

    def maker(env):
        xfer = env.dma.wram_to_mram

        def h(regs):
            return float(xfer(regs[rd], regs[rs], size))
        return h
    return K_DMA, maker


def _d_beq(ins, index):
    rs, rt = _reg(ins.rs), _reg(ins.rt)
    target, fallthrough = int(ins.target), index + 1

    def h(regs):
        return target if regs[rs] == regs[rt] else fallthrough
    return K_BRANCH, _const(h)


def _d_bne(ins, index):
    rs, rt = _reg(ins.rs), _reg(ins.rt)
    target, fallthrough = int(ins.target), index + 1

    def h(regs):
        return target if regs[rs] != regs[rt] else fallthrough
    return K_BRANCH, _const(h)


def _d_blt(ins, index):
    rs, rt = _reg(ins.rs), _reg(ins.rt)
    target, fallthrough = int(ins.target), index + 1

    def h(regs):
        a = regs[rs]
        b = regs[rt]
        if a & _SIGN:
            a -= _WRAP
        if b & _SIGN:
            b -= _WRAP
        return target if a < b else fallthrough
    return K_BRANCH, _const(h)


def _d_bge(ins, index):
    rs, rt = _reg(ins.rs), _reg(ins.rt)
    target, fallthrough = int(ins.target), index + 1

    def h(regs):
        a = regs[rs]
        b = regs[rt]
        if a & _SIGN:
            a -= _WRAP
        if b & _SIGN:
            b -= _WRAP
        return target if a >= b else fallthrough
    return K_BRANCH, _const(h)


def _d_j(ins, index):
    target = int(ins.target)

    def h(regs):
        return target
    return K_BRANCH, _const(h)


def _d_jal(ins, index):
    target, link = int(ins.target), (index + 1) & _M

    def h(regs):
        regs[LINK_REGISTER] = link
        return target
    return K_BRANCH, _const(h)


def _d_jr(ins, index):
    rs = _reg(ins.rs)

    def h(regs):
        return regs[rs]
    return K_BRANCH, _const(h)


def _d_call(ins, index):
    name = str(ins.target)
    try:
        call = runtime_calls.get(name)
    except DpuError:
        # Unknown subroutine: fault at execution time with the canonical
        # lookup error, exactly like the reference interpreter.
        def maker(env):
            def h(regs):
                runtime_calls.get(name)
                return 0.0  # pragma: no cover - get() always raises here
            return h
        return K_CALL, maker

    fn, arity = call.fn, call.arity

    def maker(env):
        n_instr = call.instructions(env.opt_level)
        stall = float((n_instr - 1) * env.interval)
        record = env.profile.record
        if arity == 0:
            def h(regs):
                result = fn()
                regs[1] = result & _M
                record(name, n_instr)
                return stall
        elif arity == 1:
            def h(regs):
                result = fn(regs[1])
                regs[1] = result & _M
                record(name, n_instr)
                return stall
        elif arity == 2:
            def h(regs):
                result = fn(regs[1], regs[2])
                regs[1] = result & _M
                record(name, n_instr)
                return stall
        else:
            def h(regs):
                result = fn(*[regs[i + 1] for i in range(arity)])
                regs[1] = result & _M
                record(name, n_instr)
                return stall
        return h
    return K_CALL, maker


def _d_perf_config(ins, index):
    def maker(env):
        origin, interval = env.perf_origin, env.interval

        def h(tid, regs, ready):
            # The reset takes effect when the config instruction itself
            # retires: the bracket excludes its own dispatch slot.
            origin[tid] = ready + interval
        return h
    return K_PERF, maker


def _d_perf_get(ins, index):
    rd = _reg(ins.rd)

    def maker(env):
        origin, values = env.perf_origin, env.perf_values

        def h(tid, regs, ready):
            start = origin[tid]
            if start is None:
                raise DpuError(
                    "perfcounter_get() before perfcounter_config()"
                )
            value = int(round(ready - start)) + PROFILING_OVERHEAD_CYCLES
            values[tid].append(value)
            if rd:
                regs[rd] = value & _M
        return h
    return K_PERF, maker


def _d_acquire(ins, index):
    mutex_id = ins.imm

    def maker(env):
        mutexes, halted = env.mutexes, env.halted

        def h(tid):
            holder = mutexes[mutex_id]
            if holder is None:
                mutexes[mutex_id] = tid
                return True
            if holder == tid:
                raise DpuFaultError(
                    f"tasklet {tid} re-acquired mutex {mutex_id} "
                    f"it already holds"
                )
            if halted[holder]:
                raise DpuFaultError(
                    f"deadlock: tasklet {tid} spins on mutex "
                    f"{mutex_id} held by tasklet {holder}, which "
                    f"halted without releasing it"
                )
            return False
        return h
    return K_ACQUIRE, maker


def _d_release(ins, index):
    mutex_id = ins.imm

    def maker(env):
        mutexes = env.mutexes

        def h(tid):
            if mutexes[mutex_id] != tid:
                raise DpuFaultError(
                    f"tasklet {tid} released mutex {mutex_id} "
                    f"it does not hold"
                )
            mutexes[mutex_id] = None
        return h
    return K_RELEASE, maker


def _d_barrier(ins, index):
    return K_BARRIER, None


def _d_nop(ins, index):
    return K_SIMPLE, None


def _d_halt(ins, index):
    return K_HALT, None


_DECODERS = {
    Opcode.ADD: _d_add, Opcode.SUB: _d_sub, Opcode.AND: _d_and,
    Opcode.OR: _d_or, Opcode.XOR: _d_xor, Opcode.LSL: _d_lsl,
    Opcode.LSR: _d_lsr, Opcode.ASR: _d_asr, Opcode.MUL8: _d_mul8,
    Opcode.SLT: _d_slt, Opcode.SLTU: _d_sltu, Opcode.ADDI: _d_addi,
    Opcode.ANDI: _d_andi, Opcode.ORI: _d_ori, Opcode.XORI: _d_xori,
    Opcode.LSLI: _d_lsli, Opcode.LSRI: _d_lsri, Opcode.ASRI: _d_asri,
    Opcode.LI: _d_li, Opcode.MOVE: _d_move, Opcode.TID: _d_tid,
    Opcode.LW: _d_lw, Opcode.LH: _d_lh, Opcode.LB: _d_lb,
    Opcode.SW: _d_sw, Opcode.SH: _d_sh, Opcode.SB: _d_sb,
    Opcode.LDMA: _d_ldma, Opcode.SDMA: _d_sdma, Opcode.BEQ: _d_beq,
    Opcode.BNE: _d_bne, Opcode.BLT: _d_blt, Opcode.BGE: _d_bge,
    Opcode.J: _d_j, Opcode.JAL: _d_jal, Opcode.JR: _d_jr,
    Opcode.CALL: _d_call, Opcode.PERF_CONFIG: _d_perf_config,
    Opcode.PERF_GET: _d_perf_get, Opcode.ACQUIRE: _d_acquire,
    Opcode.RELEASE: _d_release, Opcode.BARRIER: _d_barrier,
    Opcode.NOP: _d_nop, Opcode.HALT: _d_halt,
}


def decode(instructions) -> tuple[list[int], list[int], list]:
    """Pre-translate a program: kinds, run lengths, handler makers.

    ``run_len[i]`` is the number of consecutive :data:`K_SIMPLE`
    instructions starting at ``i`` (0 for any other kind), computed with
    one backward sweep; a branch *into* the middle of a run correctly
    sees the suffix length.
    """
    kinds: list[int] = []
    makers: list = []
    for index, ins in enumerate(instructions):
        decoder = _DECODERS.get(ins.opcode)
        if decoder is None:  # pragma: no cover - decoder table is total
            raise DpuFaultError(f"unimplemented opcode {ins.opcode}")
        kind, maker = decoder(ins, index)
        kinds.append(kind)
        makers.append(maker)
    run_len = [0] * len(kinds)
    count = 0
    for i in range(len(kinds) - 1, -1, -1):
        count = count + 1 if kinds[i] == K_SIMPLE else 0
        run_len[i] = count
    return kinds, run_len, makers


#: Decoded-program cache, keyed by Program identity and validated by the
#: identity of its instruction objects (a mutated instruction list
#: re-decodes instead of going stale).  The cache lives *outside* the
#: Program, whose makers are closures, and each entry holds a weakref
#: whose callback evicts it, so a freed Program neither leaks its decode
#: nor lets a recycled ``id()`` serve stale handlers.
_DECODE_CACHE: dict[int, tuple] = {}


def _decoded_for(program, instructions):
    key = tuple(map(id, instructions))
    pid = id(program)
    entry = _DECODE_CACHE.get(pid)
    if entry is not None and entry[0] == key and entry[1]() is program:
        return entry[2], entry[3], entry[4]
    decoded = decode(instructions)
    ref = weakref.ref(
        program, lambda _ref, pid=pid: _DECODE_CACHE.pop(pid, None)
    )
    _DECODE_CACHE[pid] = (key, ref, *decoded)
    return decoded


class FastInterpreter(Interpreter):
    """The decode-once, event-scheduled interpreter (``REPRO_INTERP=fast``).

    Construction (and therefore IRAM capacity validation) is inherited
    from the reference; only :meth:`run` is replaced.
    """

    def _decoded(self):
        """Decode the loaded program once (cached across runs and DPUs)."""
        return _decoded_for(self.program, self.iram._instructions)

    def run(self) -> ExecutionResult:
        """Run all tasklets to HALT (or program end) and report timing."""
        n = self.n_tasklets
        clock = TaskletClock(n)
        interval = dispatch_interval(n)
        next_ready = clock.next_ready
        retired = clock.retired
        kinds, run_len, makers = self._decoded()
        n_instr = len(kinds)

        env = _BindEnv()
        env.wram = self.wram
        env.view = self.wram._view
        env.wsize = self.wram.size
        env.dma = self.dma
        env.profile = self.profile
        env.opt_level = self.opt_level
        env.interval = interval
        env.mutexes = [None] * MUTEX_COUNT
        env.halted = [False] * n
        env.perf_origin = [None] * n
        env.perf_values = [[] for _ in range(n)]
        handlers = [m(env) if m is not None else None for m in makers]

        pcs = [0] * n
        regs_all = [[0] * REGISTER_COUNT for _ in range(n)]
        halted = env.halted
        blocked = [False] * n
        perf_values = env.perf_values
        heap = [(float(i), i) for i in range(n)]  # already heap-ordered

        max_instructions = self.max_instructions
        inject = self.inject
        inject_at = inject.at_instruction if inject is not None else 0
        total_retired = 0
        total_stall = 0.0
        dma_cycles_before = self.dma.total_cycles
        dma_transfers_before = self.dma.transfer_count
        dma_bytes_before = self.dma.total_bytes

        def release_barrier(now: float, skip_tid: int) -> None:
            # Mirror of the reference _maybe_release_barrier: once every
            # live tasklet is blocked, all resume one dispatch interval
            # after the last arrival.  The arriving/halting tasklet
            # itself (skip_tid) is re-queued by its caller after its own
            # dispatch is applied.
            for i in range(n):
                if not halted[i] and not blocked[i]:
                    return
            release_at = now + interval
            for i in range(n):
                if blocked[i]:
                    blocked[i] = False
                    at = next_ready[i]
                    if release_at > at:
                        at = release_at
                        next_ready[i] = at
                    if i != skip_tid:
                        heappush(heap, (at, i))

        while True:
            if inject is not None and total_retired >= inject_at:
                event = inject
                inject = self.inject = None
                event.raise_now(total_retired)
            if not heap:
                if True in blocked:
                    raise DpuLimitError(
                        "all runnable tasklets are blocked at a barrier; "
                        "a tasklet halted before reaching it?"
                    )
                break
            ready, tid = heappop(heap)
            if halted[tid] or blocked[tid] or next_ready[tid] != ready:
                continue  # defensive; the heap never holds stale entries
            pc = pcs[tid]
            if pc >= n_instr:
                # Fell off the program end: halts without retiring.
                halted[tid] = True
                release_barrier(ready, tid)
                continue
            kind = kinds[pc]

            if kind == K_SIMPLE:
                end = pc + run_len[pc]
                if inject is not None:
                    # With a fault site pending, the memory image at the
                    # trap is part of the contract: single-step so the
                    # global retirement order (and thus the partial state
                    # the trap exposes) matches the reference interleave
                    # exactly, not just the retired-instruction count.
                    end = pc + 1
                cap = pc + (max_instructions + 1 - total_retired)
                if end > cap:
                    end = cap
                regs = regs_all[tid]
                i = pc
                while i < end:
                    h = handlers[i]
                    if h is not None:
                        h(regs, tid)
                    i += 1
                count = end - pc
                pcs[tid] = end
                ready += count * interval
                next_ready[tid] = ready
                retired[tid] += count
                total_retired += count
                if total_retired > max_instructions:
                    raise DpuLimitError(
                        f"program exceeded {max_instructions} retired "
                        f"instructions; runaway loop?"
                    )
                heappush(heap, (ready, tid))
                continue

            if kind == K_BRANCH:
                pcs[tid] = handlers[pc](regs_all[tid])
                ready += interval
                next_ready[tid] = ready
            elif kind == K_DMA or kind == K_CALL:
                stall = handlers[pc](regs_all[tid])
                pcs[tid] = pc + 1
                ready += interval + stall
                next_ready[tid] = ready
                total_stall += stall
            elif kind == K_PERF:
                handlers[pc](tid, regs_all[tid], ready)
                pcs[tid] = pc + 1
                ready += interval
                next_ready[tid] = ready
            elif kind == K_ACQUIRE:
                if handlers[pc](tid):
                    pcs[tid] = pc + 1
                # else spin: retry this instruction (it still retires)
                ready += interval
                next_ready[tid] = ready
            elif kind == K_RELEASE:
                handlers[pc](tid)
                pcs[tid] = pc + 1
                ready += interval
                next_ready[tid] = ready
            elif kind == K_BARRIER:
                blocked[tid] = True
                pcs[tid] = pc + 1
                release_barrier(ready, tid)
                # The dispatch applies *after* the release, on a ready
                # time the release may just have bumped (the reference
                # orders these identically).
                ready = next_ready[tid] + interval
                next_ready[tid] = ready
            else:  # K_HALT
                halted[tid] = True
                release_barrier(ready, tid)
                pcs[tid] = pc + 1
                ready += interval
                next_ready[tid] = ready

            retired[tid] += 1
            total_retired += 1
            if total_retired > max_instructions:
                raise DpuLimitError(
                    f"program exceeded {max_instructions} retired "
                    f"instructions; runaway loop?"
                )
            if not halted[tid] and not blocked[tid]:
                heappush(heap, (ready, tid))

        per_tasklet_cycles = [
            at - interval + PIPELINE_STAGES if count else 0.0
            for at, count in zip(next_ready, retired)
        ]
        return ExecutionResult(
            cycles=clock.finish_cycle(),
            instructions_retired=total_retired,
            per_tasklet_instructions=list(retired),
            profile=self.profile,
            perf_values={
                i: values for i, values in enumerate(perf_values) if values
            },
            dma_cycles=self.dma.total_cycles - dma_cycles_before,
            dma_transfers=self.dma.transfer_count - dma_transfers_before,
            dma_bytes=self.dma.total_bytes - dma_bytes_before,
            stall_cycles=total_stall,
            per_tasklet_cycles=per_tasklet_cycles,
        )
