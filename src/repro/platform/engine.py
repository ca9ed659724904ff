"""Fast execution engine: lockstep bursts and event-driven sleep skips.

:meth:`Machine.step` is the *reference* cycle model — it re-arbitrates
every structure every cycle and is what the counters are defined against.
This module is the performance path layered on top of it.  It exploits the
two regimes that dominate the paper's workloads:

**Lockstep bursts** — on the improved design the cores spend most of their
time executing the *same* instruction at the *same* PC (the property the
I-Xbar broadcast and the synchronizer exist to create).  While every
running core shares one PC, no request is outstanding, and nothing is
pending in the synchronizer, a whole cycle collapses to "run one
predecoded closure once per running core" — or, for a lockstep LD/ST
whose requests provably win D-Xbar arbitration (distinct banks, or one
broadcast read), one inline pass over the banks.  The engine executes
the entire run of such instructions in a tight loop and credits the
activity counters in one batched update — the software mirror of a
broadcast fetch serving all cores from a single IM bank read.

**Superblock fusion** — inside a burst the engine still pays one closure
call per instruction per core.  :mod:`repro.cpu.blocks` compiles every
straight-line run (ending at jump/branch/memory boundaries) into one
fused function, so a burst advances whole blocks at a time: one fused
call per running core covers the block's cycles, with the activity
counters bulk-credited for the run.  A fused call is only made when the
burst has already proven that many uninterrupted cycles (PC uniform, no
pending IRQ/sync/memory work, horizon clearance); any guard failure
**deoptimizes** to the reference ``step()`` for that cycle, counted in
:attr:`EngineStats.deopt_count`.

**Divergent bursts** — when running cores sit at *different* PCs (or IM
broadcast is off), the reference serializes fetches through per-bank
rotating arbitration: one winner group per cycle, everyone else stalls.
That regime is just as invariant as lockstep while nothing external is
pending, so :meth:`FastEngine._divergent_burst` replays it without the
reference path's per-cycle scans: the winners follow a static
round-robin schedule, the broadcast groups live in a pc -> cores index,
a served group's provably-winning LD/ST is served inline, and so is a
group's SINC/SDEC arrival — the paper's own mechanism, cores checking
in or out one broadcast group at a time.  On ECG input, where the
kernels' data-dependent branches pull the cores apart, most simulated
cycles run here.

**Merged-barrier replay** — the cores that execute one ``SINC``/``SDEC``
together merge, in the reference, into one two-cycle checkpoint
read-modify-write that touches nothing but the checkpoint word.  One
implementation (:meth:`FastEngine._rmw_plan`, ``_rmw_read``,
``_rmw_write``: flags/counter arithmetic, release/wake latching, every
trace and per-checkpoint counter, listener callbacks) replays it for
a lockstep RMW (:meth:`FastEngine._lockstep_sync`, or inline mid-burst)
and for a divergent group's arrival, instead of handing the window to
``step()``.

**Sleep fast-forward** — duty-cycled streaming nodes sleep for hundreds of
cycles between ADC interrupts.  When no core is running and only a timer
or a scheduled interrupt can change machine state, the engine jumps
``trace.cycles`` straight to the cycle before the next event and
bulk-credits the sleep/halt counters, instead of ticking the idle
platform one cycle at a time.

**Barrier wake-ups** — a release latches the woken cores for the next
cycle.  ``step()`` applies latched wake-ups before anything else in a
cycle, so the engine applies them itself and simulates that cycle in a
burst instead of handing it to the reference.

All paths are cycle-exact: every counter in the
:class:`~repro.platform.trace.ActivityTrace`, every register and every
memory word ends up bit-for-bit identical to pure ``step()`` stepping
(guarded by ``tests/platform/test_engine_differential.py``).  Whenever a
precondition fails — probes attached, outstanding memory or synchronizer
work, pending interrupts, mode changes — the engine degrades to the
reference ``step()`` for that cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cpu.executor import checkpoint_address
from ..cpu.predecode import BURSTABLE, KIND_DIVERGE, KIND_JUMP, KIND_MEM, \
    KIND_SEQ, KIND_SYNC
from ..cpu.state import CoreMode
from ..isa.spec import Opcode
from .synchronizer import CheckpointStats, SyncCompletion, _Rmw, \
    pack_checkpoint, unpack_checkpoint

INFINITY = float("inf")

#: consecutive failed fast-path probes back off exponentially: the first
#: failure is free (a probe is a handful of attribute checks — far
#: cheaper than one reference cycle — and the cycle after a barrier RMW
#: or IRQ delivery is usually burstable again), then 1, 2, 4, ...
#: reference cycles are stepped between probes up to this cap.  The cap
#: only matters in step()-owned stretches the bursts cannot enter at
#: all (held memory conflicts, back-to-back IRQ delivery).
_MAX_BACKOFF = 16


class DeadlockError(RuntimeError):
    """All awake work is exhausted but some cores still sleep."""


class SimulationLimitError(RuntimeError):
    """The configured cycle budget was exceeded."""


@dataclass(slots=True)
class EngineStats:
    """Fast-path engagement counters (one update per burst/skip, so the
    bookkeeping adds no per-cycle cost).  The telemetry layer reads these
    to prove the fast engine stayed engaged during a traced run."""

    lockstep_bursts: int = 0
    lockstep_cycles: int = 0
    divergent_bursts: int = 0
    divergent_cycles: int = 0
    sleep_skips: int = 0
    sleep_cycles: int = 0
    #: fused superblock executions (one per block per burst engagement,
    #: regardless of how many cores ran the fused call)
    fused_blocks: int = 0
    #: cycles covered by fused blocks (a subset of ``lockstep_cycles``)
    fused_cycles: int = 0
    #: bursts abandoned by a guard check — a STOP instruction, a SYNC
    #: the barrier replay refuses (split or locked checkpoint word, a
    #: protocol violation, a refused request), a memory pattern that
    #: may lose D-Xbar arbitration, an off-image or multi-bank PC.  The
    #: abandoned cycle is replayed by the reference ``step()`` (or, for
    #: a lockstep checkpoint RMW, by the barrier fast path).  Burst
    #: endings that need no fallback (horizon, convergence, divergence,
    #: a barrier sleep or wake-up) are not deopts, and neither is a
    #: hammock disagreement (see ``pred_aborts``).
    deopt_count: int = 0
    #: executions of fused blocks containing inlined memory ops, and
    #: the fused LD/STs those executions served (per block execution,
    #: not per core — mirrors ``fused_blocks``)
    mem_fused_blocks: int = 0
    mem_fused_ops: int = 0
    #: block-termination census: every fused-block execution credits
    #: the reason its block stopped fusing further instructions —
    #: an unfusable memory op (``term_mem``), a synchronizer op
    #: (``term_sync``), a mode change / unfusable instruction / end of
    #: image (``term_stop``), a control-flow terminator
    #: (``term_diverge``), or the MAX_BLOCK cap (``term_cap``).
    #: ``term_guard`` instead counts *runtime* aborts: a memory-fused
    #: block whose cross-core address re-check failed (wrong or
    #: config-defeated fact) and was rolled back before committing.
    term_mem: int = 0
    term_sync: int = 0
    term_stop: int = 0
    term_diverge: int = 0
    term_cap: int = 0
    term_guard: int = 0
    #: if-converted (predicated) fused-block executions: the block
    #: computed both hammock arms branch-free and charged the taken
    #: path's cycle cost, and the cycles those executions consumed
    pred_blocks: int = 0
    pred_cycles: int = 0
    #: lockstep bursts in which the cores disagreed on a predicated
    #: block's arms: nothing was committed, and the burst went on per
    #: instruction, without predicated blocks, to the diverging branch
    #: (at most one per burst; not a deopt)
    pred_aborts: int = 0
    #: merged SINC/SDEC read-modify-writes replayed by the fast path
    #: (both cycles) instead of the reference ``step()`` — lockstep
    #: ones and divergent groups' arrivals alike
    sync_fused_rmws: int = 0
    #: size of the largest array-of-machines batch this run was part of
    #: (:func:`repro.cpu.vec.run_batch`); 0 when never batched
    batched_runs: int = 0
    #: widest runs x cores lane count this run executed vectorized in
    vector_width: int = 0
    #: vectorized block executions credited to this run
    vector_blocks: int = 0
    #: cycles advanced by the vectorized batch engine (disjoint from
    #: ``lockstep_cycles`` — a cycle is counted where it was executed)
    vector_cycles: int = 0
    #: times this run peeled out of a batch early (guard boundary hit
    #: before the natural end of program)
    peel_count: int = 0

    @property
    def fast_cycles(self) -> int:
        """Cycles consumed by the fast paths (the rest were ``step()``)."""
        return self.lockstep_cycles + self.divergent_cycles \
            + self.sleep_cycles + self.vector_cycles

    @property
    def engaged(self) -> bool:
        """True when at least one fast path fired during the run."""
        return bool(self.lockstep_bursts or self.divergent_bursts
                    or self.sleep_skips or self.vector_cycles
                    or self.sync_fused_rmws)

    def as_dict(self) -> dict:
        return {
            "lockstep_bursts": self.lockstep_bursts,
            "lockstep_cycles": self.lockstep_cycles,
            "divergent_bursts": self.divergent_bursts,
            "divergent_cycles": self.divergent_cycles,
            "sleep_skips": self.sleep_skips,
            "sleep_cycles": self.sleep_cycles,
            "fused_blocks": self.fused_blocks,
            "fused_cycles": self.fused_cycles,
            "deopt_count": self.deopt_count,
            "mem_fused_blocks": self.mem_fused_blocks,
            "mem_fused_ops": self.mem_fused_ops,
            "term_mem": self.term_mem,
            "term_sync": self.term_sync,
            "term_stop": self.term_stop,
            "term_diverge": self.term_diverge,
            "term_cap": self.term_cap,
            "term_guard": self.term_guard,
            "pred_blocks": self.pred_blocks,
            "pred_cycles": self.pred_cycles,
            "pred_aborts": self.pred_aborts,
            "sync_fused_rmws": self.sync_fused_rmws,
            "batched_runs": self.batched_runs,
            "vector_width": self.vector_width,
            "vector_blocks": self.vector_blocks,
            "vector_cycles": self.vector_cycles,
            "peel_count": self.peel_count,
            "fast_cycles": self.fast_cycles,
            "engaged": self.engaged,
        }


class FastEngine:
    """Opportunistic fast paths around a :class:`Machine`'s ``step()``."""

    __slots__ = ("_machine", "stats")

    def __init__(self, machine):
        self._machine = machine
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self, limit: int, *, raise_on_limit: bool = True) -> None:
        """Advance the machine until every core halts or ``limit`` cycles.

        Uses the fast paths whenever their preconditions hold and the
        reference ``step()`` otherwise.  Probes force pure ``step()``
        stepping (they observe individual cycles).
        """
        machine = self._machine
        trace = machine.trace
        step = machine.step
        fast = machine.fast_engine and not machine._probes
        backoff = 0           # slow cycles left before the next probe
        penalty = 0           # backoff charged by the next failed probe
        while True:
            if fast:
                if backoff:
                    backoff -= 1
                else:
                    before = trace.cycles
                    self._advance(limit)
                    if trace.cycles != before:
                        penalty = 0
                    else:
                        backoff = penalty
                        if penalty == 0:
                            penalty = 1
                        elif penalty < _MAX_BACKOFF:
                            penalty += penalty
            if trace.cycles >= limit:
                if not raise_on_limit:
                    return
                raise SimulationLimitError(
                    f"exceeded {limit} cycles "
                    f"(pcs={[c.pc for c in machine.cores]})")
            step()
            # Only a cycle with no activity at all can be the end of the
            # program or a deadlock; skip the scans otherwise.
            if machine._quiet:
                if machine.all_halted:
                    machine._finish_probes()
                    return
                machine._check_deadlock()

    # ------------------------------------------------------------------
    # Fast paths
    # ------------------------------------------------------------------

    def _advance(self, limit: int) -> None:
        """Consume as many cycles as the fast paths allow (maybe none)."""
        machine = self._machine
        cores = machine.cores
        wake_next = machine._wake_next
        while True:
            if machine.trace.cycles >= limit:
                return
            if wake_next:
                # Barrier wake-ups latched last cycle: step() applies
                # them first thing in a cycle, before any IRQ or timer
                # work, so the engine can apply them the same way and
                # simulate the cycle itself.
                barrier_sleeper = machine._barrier_sleeper
                for cid in wake_next:
                    core = cores[cid]
                    if core.mode is CoreMode.SLEEPING:
                        core.mode = CoreMode.RUNNING
                    barrier_sleeper[cid] = False
                wake_next.clear()
            # Preconditions shared by both fast paths: nothing in flight
            # anywhere but the cores themselves.
            if machine._outstanding_count or machine._pending_irq_count:
                return
            sync = machine.synchronizer
            if sync is not None and sync.busy:
                return
            running = [c for c in cores if c.mode is CoreMode.RUNNING]
            if not running:
                self._sleep_fast_forward(limit)
                return
            pc = running[0].pc
            uniform = True
            for core in running:
                if core.pc != pc:
                    uniform = False
                    break
            if uniform and (len(running) == 1
                            or machine.config.im_broadcast):
                # One PC through the broadcast I-Xbar — or a single
                # requester, which wins its bank unconditionally even
                # without broadcast.
                decoded = machine._decoded
                if (pc < len(decoded)
                        and decoded[pc][0] == KIND_SYNC):
                    # A lockstep SINC/SDEC merges into one two-cycle
                    # checkpoint RMW — replay it without step().
                    if not self._lockstep_sync(running, pc,
                                               decoded[pc][2], limit):
                        return
                    continue
                if not self._lockstep_burst(running, pc, limit):
                    return
            else:
                # Divergent PCs (or broadcast off): the reference
                # serializes through rotating per-bank arbitration.
                if not self._divergent_burst(running, limit):
                    return

    def _next_event_cycle(self) -> float:
        """First future cycle at which a timer or scheduled IRQ fires."""
        machine = self._machine
        nxt = machine._next_timer_fire
        schedule = machine._irq_schedule
        if schedule:
            now = machine.trace.cycles
            for cycle in schedule:
                if now < cycle < nxt:
                    nxt = cycle
        return nxt

    def _idle_census(self) -> tuple[int, int, int]:
        """(halted, sleeping, barrier-sleeping) core counts."""
        machine = self._machine
        halted = sleeping = waiting = 0
        for cid, core in enumerate(machine.cores):
            mode = core.mode
            if mode is CoreMode.HALTED:
                halted += 1
            elif mode is CoreMode.SLEEPING:
                sleeping += 1
                if machine._barrier_sleeper[cid]:
                    waiting += 1
        return halted, sleeping, waiting

    def _lockstep_burst(self, running: list, pc: int, limit: int) -> bool:
        """Execute a run of plain instructions shared by all running cores.

        Mirrors, cycle for cycle, what ``step()`` does when every running
        core fetches one address through the broadcast I-Xbar and the
        instruction retires in one cycle: one IM bank access serves
        ``len(running)`` fetches, every running core is active, every
        idle core accrues its sleep/halt cycle.  A lockstep LD/ST whose
        requests provably win arbitration (distinct banks, or one
        broadcast read address) is served inline through
        :func:`_mem_cycle`, and a checkpoint RMW that leaves the
        running set alone is replayed inline; everything else — mode
        changes, PC divergence, bank conflicts — ends the burst, as
        does the cycle before the next timer/IRQ event.

        Whole straight-line runs are advanced by **fused superblocks**
        (:mod:`repro.cpu.blocks`): one fused call per running core
        covers the block's cycles, provided the block fits under the
        burst horizon.  Instructions without a fused block (short runs,
        code adjacent to memory/sync boundaries) take the
        per-instruction closure path.

        :returns: True if at least one cycle was consumed.
        """
        machine = self._machine
        trace = machine.trace
        decoded = machine._decoded
        im_len = len(decoded)
        # The last cycle this burst may simulate: stay inside the run
        # budget and strictly before the next external event, which must
        # be handled (and accounted) by the reference step().
        horizon = min(limit, self._next_event_cycle() - 1)
        cycles = trace.cycles
        if cycles >= horizon:
            return False

        table = machine._blocks
        if table is None:
            table = machine._block_table()
        blocks = table.blocks
        block_at = table.at

        # The synchronizer is idle (precondition), so no checkpoint word
        # is locked and no conflict group is draining; inline memory
        # cycles stay valid for the whole burst because they can create
        # neither.
        dxbar = machine.dxbar
        mem_ok = not (dxbar.locked_addresses or dxbar._groups)
        config = machine.config
        words = machine.dm.words
        dm_priority = dxbar._priority
        ncores = config.num_cores
        interleaved = config.dm_interleaved
        nb = config.dm_banks
        bw = config.dm_bank_words
        dm_broadcast = config.dm_broadcast
        dm_reads = dm_writes = dm_served = 0
        mem_blocks = 0
        mem_ops = 0
        terms: dict = {}
        executed = 0
        n_syncs = 0
        fused_blocks = 0
        fused_cycles = 0
        pred_blocks_l = 0
        pred_cycles_l = 0
        deopt = False
        n = len(running)
        single = running[0] if n == 1 else None
        # A single requester without IM broadcast is served through the
        # per-bank arbitration path, which rotates the bank's priority
        # to (winner + 1) on every fetch; track the banks it touches so
        # the rotation can be replayed at flush time (idempotent — the
        # winner never changes).
        banks: set | None = None
        if single is not None and not machine.config.im_broadcast:
            banks = set()
            bank_words = machine.config.im_bank_words
        # Predicated blocks are off when bank rotations are replayed
        # (the replay assumes a block fetches one contiguous PC run)
        # and, once lockstep cores disagree on a hammock's arm, for the
        # rest of the burst.
        preds_ok = banks is None
        while cycles < horizon:
            if pc >= im_len:
                deopt = True          # let step() raise the fetch error
                break
            blk = blocks.get(pc, False)
            if blk is False:
                blk = block_at(pc)
            if (blk is not None and cycles + blk[1] <= horizon
                    and (mem_ok or not blk[5])
                    and (preds_ok or not blk[8])):
                run = blk[0]
                length = blk[1]
                end_kind = blk[2]
                memspec = blk[5]
                preds = blk[8]
                if memspec or preds:
                    # Memory-fused / predicated block: pure phase per
                    # core, re-check the actual cross-core address
                    # pattern (the static facts are hints, not trusted
                    # proofs) and cross-core arm agreement, then commit.
                    # Any failure aborts with *nothing* committed, so
                    # the reference step() replays from the block start
                    # bit-exactly.
                    try:
                        if single is not None:
                            outs = (run(single, words),)
                        else:
                            outs = [run(core, words) for core in running]
                    except IndexError:
                        self.stats.term_guard += 1
                        deopt = True      # out-of-range: step() faults
                        break
                    hp = 0
                    gates = blk[9]
                    if preds:
                        # Lockstep cores must take the same arms, or
                        # the block-granular cycle accounting (and the
                        # op-major store order) no longer matches the
                        # reference.  On disagreement nothing has been
                        # committed: the burst carries on per
                        # instruction up to the diverging branch, which
                        # hands over to the divergent burst.
                        hp = outs[0][blk[10]]
                        if n > 1:
                            for out in outs:
                                if out[blk[10]] != hp:
                                    hp = -1
                                    break
                            if hp < 0:
                                self.stats.pred_aborts += 1
                                preds_ok = False
                                continue
                        length = outs[0][blk[11]]
                    if n > 1 and memspec and not self._mem_guard(
                            memspec, outs, n, gates, hp):
                        self.stats.term_guard += 1
                        deopt = True      # fact wrong: step() arbitrates
                        break
                    # Deferred stores land op-major across cores — the
                    # reference's cycle order (all cores serve op j
                    # before any core reaches op j+1).
                    for j, value_at in blk[6]:
                        if gates and gates[j] and not hp & gates[j]:
                            continue      # arm not taken: no store
                        for out in outs:
                            words[out[j]] = out[value_at]
                    commit = blk[7]
                    for core, out in zip(running, outs):
                        commit(core, out)
                    # Replay DataCrossbar priority rotation and bulk-
                    # credit its counters, op by op in program order.
                    served_ops = 0
                    for j, (uniform, is_write) in enumerate(memspec):
                        if gates and gates[j] and not hp & gates[j]:
                            continue      # arm not taken: no access
                        served_ops += 1
                        if uniform and n > 1:
                            addr = outs[0][j]
                            bank = (addr % nb if interleaved
                                    else addr // bw)
                            base = dm_priority[bank]
                            winner = running[0].coreid
                            best = (winner - base) % ncores
                            for core in running:
                                key = (core.coreid - base) % ncores
                                if key < best:
                                    winner = core.coreid
                                    best = key
                            dm_priority[bank] = (winner + 1) % ncores
                            dm_reads += 1
                        else:
                            for core, out in zip(running, outs):
                                addr = out[j]
                                bank = (addr % nb if interleaved
                                        else addr // bw)
                                dm_priority[bank] = \
                                    (core.coreid + 1) % ncores
                            if is_write:
                                dm_writes += n
                            else:
                                dm_reads += n
                        dm_served += n
                    if memspec:
                        mem_blocks += 1
                        mem_ops += served_ops
                    if preds:
                        pred_blocks_l += 1
                        pred_cycles_l += length
                elif single is not None:
                    run(single)
                else:
                    for core in running:
                        run(core)
                term = blk[4]
                terms[term] = terms.get(term, 0) + 1
                cycles += length
                executed += length
                fused_blocks += 1
                fused_cycles += length
                if banks is not None:
                    banks.add(pc // bank_words)
                    banks.add((pc + length - 1) // bank_words)
                if end_kind == KIND_SEQ:
                    pc += blk[1]
                    continue
                pc = running[0].pc
                if end_kind == KIND_JUMP or single is not None:
                    continue
                diverged = False
                for core in running:
                    if core.pc != pc:
                        diverged = True
                        break
                if diverged:
                    break
                continue
            rec = decoded[pc]
            kind = rec[0]
            if kind <= BURSTABLE:
                run = rec[1]
                if single is not None:
                    run(single)
                else:
                    for core in running:
                        run(core)
                cycles += 1
                executed += 1
                if banks is not None:
                    banks.add(pc // bank_words)
                if kind == KIND_SEQ:
                    pc += 1
                else:
                    pc = running[0].pc
                    if kind != KIND_JUMP:     # divergent control flow
                        diverged = False
                        for core in running:
                            if core.pc != pc:
                                diverged = True
                                break
                        if diverged:
                            break
            elif kind == KIND_MEM and mem_ok:
                accesses = _mem_cycle(running, rec[1], words, dm_priority,
                                      interleaved, nb, bw, ncores,
                                      dm_broadcast)
                if not accesses:
                    deopt = True      # possible conflict: slow path
                    break
                if rec[1][0]:
                    dm_writes += accesses
                else:
                    dm_reads += accesses
                dm_served += n
                cycles += 1
                executed += 1
                if banks is not None:
                    banks.add(pc // bank_words)
                pc += 1
            elif kind == KIND_SYNC:
                # A lockstep SINC/SDEC merges into one two-cycle
                # checkpoint RMW (see :meth:`_lockstep_sync`).  The
                # *continuing* cases — a checkin, or a release that
                # wakes no sleeping core — are replayed inline so the
                # burst survives the barrier instead of tearing down
                # and re-probing.  Anything else (a checkout that puts
                # cores to sleep, a wake-latching release, a split or
                # locked or would-raise word, an event in the two-cycle
                # window) ends the burst cleanly; the next `_advance`
                # iteration routes it through `_lockstep_sync` /
                # ``step()`` untouched.
                if machine.synchronizer is None or cycles + 2 > horizon:
                    break
                plan = self._rmw_plan(running, rec[2])
                if plan is None:
                    break
                _address, is_checkout, _flags, count, woken = plan
                if is_checkout:
                    if count:
                        break     # the cores sleep: burst must end
                    cores_all = machine.cores
                    sleeper = False
                    for cid in woken:
                        if cores_all[cid].mode is CoreMode.SLEEPING:
                            sleeper = True
                            break
                    if sleeper:
                        break     # wake latching: burst must end
                cycles += 2
                self._rmw_write(plan, self._rmw_read(plan[0]), running,
                                cycles)
                n_syncs += 1
                if banks is not None:
                    banks.add(pc // bank_words)
                for core in running:
                    core.pc = pc + 1
                pc += 1
            else:
                deopt = True          # mode change / unclassified
                break
        if deopt:
            self.stats.deopt_count += 1
        if not executed and not n_syncs:
            return False

        # Batched accounting — the per-cycle counters of `executed`
        # identical lockstep cycles plus `n_syncs` two-cycle checkpoint
        # RMWs, applied in one update.  Inline syncs change no core
        # mode (those cases end the burst), so one census covers the
        # whole burst.
        busy = executed + 2 * n_syncs
        fetched = executed + n_syncs
        halted, sleeping, waiting = self._idle_census()
        trace.cycles = cycles
        trace.core_active_cycles += busy * n
        trace.retired_ops += fetched * n
        retired = trace.retired_per_core
        for core in running:
            retired[core.coreid] += fetched
        trace.im_bank_accesses += fetched
        trace.im_fetches_served += fetched * n
        histogram = trace.lockstep_histogram
        histogram[n] = histogram.get(n, 0) + fetched
        if halted:
            trace.core_halted_cycles += busy * halted
        if sleeping:
            trace.core_sleep_cycles += busy * sleeping
        if waiting:
            trace.sync_wait_cycles += busy * waiting
        if banks is not None:
            rotated = (single.coreid + 1) % machine.config.num_cores
            priority = machine.ixbar._priority
            for bank in banks:
                priority[bank] = rotated
        if dm_served:
            trace.dm_bank_reads += dm_reads
            trace.dm_bank_writes += dm_writes
            trace.dm_served += dm_served
        stats = self.stats
        stats.lockstep_bursts += 1
        stats.lockstep_cycles += busy
        stats.fused_blocks += fused_blocks
        stats.fused_cycles += fused_cycles
        stats.mem_fused_blocks += mem_blocks
        stats.mem_fused_ops += mem_ops
        stats.pred_blocks += pred_blocks_l
        stats.pred_cycles += pred_cycles_l
        stats.sync_fused_rmws += n_syncs
        for reason, count in terms.items():
            attr = "term_" + reason
            setattr(stats, attr, getattr(stats, attr) + count)
        machine._quiet = False
        return True

    def _mem_guard(self, memspec, outs, n: int, gates: tuple = (),
                   hp: int = 0) -> bool:
        """Verify the actual cross-core address pattern of a memory block.

        ``outs[c][j]`` is core ``c``'s effective address for fused op
        ``j``.  A uniform op must see one shared address (the broadcast
        read the block was compiled for); an affine op must see pairwise
        distinct banks (every core wins its private bank).  Anything
        else could lose D-Xbar arbitration, so the block is abandoned —
        the compile-time facts were hints, this is the proof.  Gated
        ops (inside a predicated arm, see ``FusedBlock.gates``) whose
        arm did not execute report sentinel addresses and are skipped.
        """
        config = self._machine.config
        interleaved = config.dm_interleaved
        nb = config.dm_banks
        bw = config.dm_bank_words
        for j, (uniform, _is_write) in enumerate(memspec):
            if gates and gates[j] and not hp & gates[j]:
                continue
            if uniform:
                addr = outs[0][j]
                for out in outs:
                    if out[j] != addr:
                        return False
            else:
                if interleaved:
                    banks = {out[j] % nb for out in outs}
                else:
                    banks = {out[j] // bw for out in outs}
                if len(banks) != n:
                    return False
        return True

    def _lockstep_sync(self, running: list, pc: int, ins,
                       limit: int) -> bool:
        """Replay one merged lockstep SINC/SDEC read-modify-write.

        When every running core executes the same checkpoint
        instruction through the broadcast I-Xbar, the reference
        collapses the requests into a *single* two-cycle RMW: broadcast
        fetch and synchronizer read phase in cycle T, write phase /
        retire / wake latching in cycle T+1.  Neither cycle touches
        anything but the checkpoint word, so both are replayed here in
        one batched update — in barrier-dense kernels these two-step
        windows are most of what ``step()`` is left with.

        Anything unusual defers to the reference untouched (see
        :meth:`_rmw_plan`), as does a timer/IRQ event inside the window
        or a missing synchronizer.

        :returns: True if the two cycles were consumed.
        """
        machine = self._machine
        if machine.synchronizer is None:
            return False          # step() raises ExecutionError
        trace = machine.trace
        cycles = trace.cycles
        if cycles + 2 > min(limit, self._next_event_cycle() - 1):
            return False          # an event lands inside the window
        plan = self._rmw_plan(running, ins)
        if plan is None:
            return False
        n = len(running)
        config = machine.config

        # -- cycle T: broadcast fetch + synchronizer read phase --------
        if n == 1 and not config.im_broadcast:
            # single requester through per-bank arbitration: it wins its
            # bank unconditionally, rotating the bank's priority
            bank = pc // config.im_bank_words
            machine.ixbar._priority[bank] = \
                (running[0].coreid + 1) % config.num_cores
        trace.im_bank_accesses += 1
        trace.im_fetches_served += n
        trace.note_lockstep(n)
        checkpoint = self._rmw_read(plan[0])

        # Batched accounting of both cycles.  The idle census runs
        # before any mode change: a non-released checkout core is
        # *active* on its write cycle and only sleeps from T+2, and a
        # woken core stays a barrier sleeper through T+1.
        halted, sleeping, waiting = self._idle_census()
        # -- cycle T+1: write phase, retire, wake latching -------------
        self._rmw_write(plan, checkpoint, running, cycles + 2)
        trace.cycles = cycles + 2
        trace.core_active_cycles += 2 * n
        trace.retired_ops += n
        retired = trace.retired_per_core
        for core in running:
            retired[core.coreid] += 1
            core.pc = pc + 1
        if halted:
            trace.core_halted_cycles += 2 * halted
        if sleeping:
            trace.core_sleep_cycles += 2 * sleeping
        if waiting:
            trace.sync_wait_cycles += 2 * waiting
        stats = self.stats
        stats.lockstep_cycles += 2
        stats.sync_fused_rmws += 1
        machine._quiet = False
        return True

    # ------------------------------------------------------------------
    # Merged checkpoint read-modify-write (shared by every burst)
    # ------------------------------------------------------------------

    def _rmw_plan(self, cores, ins):
        """Validate the merged SINC/SDEC RMW that ``cores`` start together.

        Pure: nothing is touched.  Returns ``None`` — so the reference
        ``step()`` runs the exchange — for a split checkpoint address
        (per-core ``Rsync``), a locked or out-of-range word, or a
        protocol violation the write phase would raise.  Otherwise
        returns ``(address, is_checkout, flags, count_after, woken)``:
        the identity flags already carry the check-ins, and ``woken``
        lists every flagged core when the counter reaches zero on a
        check-out (the barrier release).
        """
        machine = self._machine
        address = checkpoint_address(cores[0], ins)
        for core in cores:
            if checkpoint_address(core, ins) != address:
                return None       # split addresses: step() merges groups
        words = machine.dm.words
        if address >= len(words):
            return None           # step() raises MemoryError_
        if address in machine.dxbar.locked_addresses:
            return None           # refused request: step() replays retry
        ncores = machine.config.num_cores
        n = len(cores)
        flags, count = unpack_checkpoint(words[address])
        is_checkout = ins.op is Opcode.SDEC
        count += -n if is_checkout else n
        if count < 0 or count > ncores:
            return None           # protocol violation: step() raises
        woken: tuple = ()
        if is_checkout:
            if not count:
                woken = tuple(cid for cid in range(ncores)
                              if flags & (1 << cid))
        else:
            for core in cores:
                flags |= 1 << core.coreid
        return address, is_checkout, flags, count, woken

    def _rmw_read(self, address: int) -> CheckpointStats:
        """Cycle T of a planned RMW: the synchronizer's read phase.

        :returns: the checkpoint's statistics record, for the write.
        """
        machine = self._machine
        stats = machine.synchronizer.stats
        checkpoint = stats.get(address)
        if checkpoint is None:
            checkpoint = stats[address] = CheckpointStats()
        trace = machine.trace
        trace.dm_bank_reads += 1
        trace.sync_rmw_ops += 1
        checkpoint.rmws += 1
        return checkpoint

    def _rmw_write(self, plan: tuple, checkpoint: CheckpointStats,
                   cores, cycle: int) -> bool:
        """Cycle T+1 of a planned RMW: the synchronizer's write phase.

        Writes the checkpoint word, credits the trace and checkpoint
        counters, puts non-released check-out cores to sleep, latches
        the release's wake-ups for the next cycle and notifies the
        listeners with ``cycle``.  Retiring ``cores`` (PC, retire
        counters) is the caller's.

        :returns: True when the running set changes after this cycle —
            cores went to sleep or a wake-up is latched.
        """
        machine = self._machine
        trace = machine.trace
        address, is_checkout, flags, count, woken = plan
        n = len(cores)
        coreids = tuple(sorted(core.coreid for core in cores))
        trace.dm_bank_writes += 1
        if is_checkout:
            checkins: tuple = ()
            checkouts = coreids
            trace.sync_checkouts += n
            checkpoint.checkouts += n
        else:
            checkins = coreids
            checkouts = ()
            trace.sync_checkins += n
            checkpoint.checkins += n
        if count > checkpoint.max_counter:
            checkpoint.max_counter = count
        changed = False
        released = is_checkout and not count
        if released:
            # barrier release: wake every flagged sleeper (latched to
            # the start of the next cycle) and reinitialize the word
            machine.dm.words[address] = 0
            trace.sync_wakeups += 1
            checkpoint.wakeups += 1
            all_cores = machine.cores
            wake_next = machine._wake_next
            for cid in woken:
                if all_cores[cid].mode is CoreMode.SLEEPING:
                    wake_next.add(cid)
                    changed = True
        else:
            machine.dm.words[address] = pack_checkpoint(flags, count)
            if is_checkout:
                barrier_sleeper = machine._barrier_sleeper
                for core in cores:
                    core.mode = CoreMode.SLEEPING
                    barrier_sleeper[core.coreid] = True
                changed = True
        listeners = machine.synchronizer.listeners
        if listeners:
            trace.cycles = cycle  # listeners see the real clock
            completion = SyncCompletion(address, checkins, checkouts,
                                        woken, released, count)
            for listener in listeners:
                listener(cycle, completion)
        return changed

    def _rmw_handoff(self, pending: tuple) -> None:
        """Leave a burst between the two cycles of an RMW.

        The read phase ran in the burst's last cycle; hand the write
        phase to the reference exactly as ``Synchronizer.read_phase``
        would have left it: a pending write, the word locked, and the
        arriving cores waiting on their SINC/SDEC.
        """
        plan, _checkpoint, cores, ins = pending
        address, is_checkout, _flags, _count, _woken = plan
        machine = self._machine
        coreids = sorted(core.coreid for core in cores)
        mask = 0
        if not is_checkout:
            for cid in coreids:
                mask |= 1 << cid
        machine.synchronizer._pending_writes.append(_Rmw(
            address, mask, coreids if is_checkout else [],
            [] if is_checkout else coreids, machine.dm.words[address]))
        machine.dxbar.lock(address)
        outstanding = machine._outstanding
        for cid in coreids:
            outstanding[cid] = ("sync_wait", ins)
        machine._outstanding_count += len(coreids)

    # ------------------------------------------------------------------

    def _divergent_burst(self, running: list, limit: int) -> bool:
        """Serialize divergent running cores through I-Xbar arbitration.

        Replays, cycle for cycle, what the reference does when running
        cores request *different* addresses in one IM bank (or IM
        broadcast is disabled): the bank's rotating priority picks one
        winner, the broadcast group sharing the winner's address (just
        the winner without broadcast) fetches and executes, everyone
        else stalls, and the priority rotates past the winner.

        The idle cores cannot change inside the burst, nor can the IM
        bank (leaving it ends the burst), and every cycle that rotates
        the bank's priority rotates it to winner + 1.  The winners
        therefore follow a **static schedule** — the running cores
        round-robin in coreid order, starting at the first core at or
        after the bank's priority — which the burst walks by index,
        writing the priority back once at exit.  Broadcast groups live
        in a pc -> cores index; a group is re-keyed whole under its new
        PC, and split per core only after a data-dependent branch.

        A served group's LD/ST is served inline when it provably wins
        its D-Xbar banks (a lone request always does; a group through
        :func:`_mem_cycle`).  A served SINC/SDEC runs its merged RMW in
        the burst: the read phase in its cycle T, the write phase in
        T+1, while the I-Xbar serves the next winner among the *other*
        cores (the arriving ones do not fetch at T+1, so the schedule
        skips them, and the checkpoint's DM bank port is busy).  A
        check-out that sleeps or a release that latches wake-ups ends
        the burst after T+1; so does an IM bank change and, with
        broadcast, reconvergence (the lockstep burst's regime).

        Deopts to ``step()`` — committing nothing for that cycle — when
        the winner would stop or fault, on a memory pattern that may
        lose arbitration (including the busy bank at T+1), on an RMW
        :meth:`_rmw_plan` refuses or the synchronizer would refuse, and
        for the (never exercised by the bundled kernels) multi-bank
        divergence case.  A burst that stops between an RMW's two
        cycles hands the write phase over (:meth:`_rmw_handoff`).

        :returns: True if at least one cycle was consumed.
        """
        machine = self._machine
        trace = machine.trace
        decoded = machine._decoded
        config = machine.config
        im_len = len(decoded)
        # the burst's last cycle; lowered to end it after the current one
        end = min(limit, self._next_event_cycle() - 1)
        start = cycles = trace.cycles
        if cycles >= end:
            return False
        bank_words = config.im_bank_words
        bank = running[0].pc // bank_words
        lo = bank * bank_words
        hi = lo + bank_words
        for core in running:
            if not lo <= core.pc < hi:
                self.stats.deopt_count += 1
                return False
        ncores = config.num_cores
        n = len(running)
        # `running` is in coreid order: the first winner is the first
        # core at or after the bank's priority, wrapping to the lowest.
        priority = machine.ixbar._priority[bank]
        turn = 0
        for index, core in enumerate(running):
            if core.coreid >= priority:
                turn = index
                break
        after = list(range(1, n)) + [0]       # the schedule's next turn
        groups: dict | None = None
        singles: list | None = None
        if config.im_broadcast:
            groups = {}
            for core in running:
                group = groups.get(core.pc)
                if group is None:
                    groups[core.pc] = [core]
                else:
                    group.append(core)
        else:
            singles = [[core] for core in running]
        # Only the running cores change inside the burst, so the idle
        # census holds for every cycle of it.
        halted, sleeping, waiting = self._idle_census()
        dxbar = machine.dxbar
        mem_ok = not (dxbar.locked_addresses or dxbar._groups)
        sync = machine.synchronizer
        words = machine.dm.words
        n_words = len(words)
        dm_priority = dxbar._priority
        interleaved = config.dm_interleaved
        nb = config.dm_banks
        bw = config.dm_bank_words
        dm_broadcast = config.dm_broadcast
        dm_reads = dm_writes = dm_served = 0
        calm = 0              # cycles without an I-Xbar conflict
        arrivals = 0          # write-cycle activity of arriving cores
        n_syncs = 0
        histogram = [0] * (n + 1)   # multi-core groups; size 1 derived
        retired = [0] * ncores
        # The RMW whose write phase is the next cycle:
        # (plan, checkpoint stats, arriving cores, instruction), its
        # cores' coreid bits (they skip that cycle's fetch) and DM bank.
        pending: tuple | None = None
        wmask = 0
        busy = -1
        plan = None
        deopt = False
        while cycles < end:
            t = turn
            winner = running[t]
            if wmask:
                while wmask >> winner.coreid & 1:
                    t = after[t]
                    winner = running[t]
            wpc = winner.pc
            if wpc >= im_len:
                deopt = True          # let step() raise the fetch error
                break
            if groups is None:
                served = singles[t]
            else:
                if not wmask and len(groups) == 1:
                    break             # converged: lockstep burst's regime
                served = groups[wpc]
            rec = decoded[wpc]
            kind = rec[0]
            if kind <= BURSTABLE:
                if len(served) == 1:
                    rec[1](winner)
                else:
                    run = rec[1]
                    for core in served:
                        run(core)
            elif kind == KIND_MEM and mem_ok:
                if len(served) == 1:
                    # A lone request always wins its D-Xbar bank —
                    # unless the synchronizer's write holds the port.
                    is_write, rs, imm, rd = rec[1]
                    regs = winner.regs
                    addr = (regs[rs] + imm) & 0xFFFF
                    if addr >= n_words:
                        deopt = True  # out of range: step() faults
                        break
                    dbank = addr % nb if interleaved else addr // bw
                    if dbank == busy:
                        deopt = True  # step() refuses it this cycle
                        break
                    dm_priority[dbank] = (winner.coreid + 1) % ncores
                    if is_write:
                        words[addr] = regs[rd] & 0xFFFF
                        dm_writes += 1
                    else:
                        regs[rd] = words[addr]
                        dm_reads += 1
                    dm_served += 1
                    winner.pc = wpc + 1
                else:
                    accesses = _mem_cycle(served, rec[1], words,
                                          dm_priority, interleaved, nb, bw,
                                          ncores, dm_broadcast, busy)
                    if not accesses:
                        deopt = True  # possible D-Xbar conflict
                        break
                    if rec[1][0]:
                        dm_writes += accesses
                    else:
                        dm_reads += accesses
                    dm_served += len(served)
            elif kind == KIND_SYNC and sync is not None:
                plan = self._rmw_plan(served, rec[2])
                if plan is None or config.dm_bank_of(plan[0]) == busy:
                    deopt = True      # step() refuses, raises or splits
                    break
            else:
                deopt = True          # mode change / no synchronizer
                break
            # Commit the cycle: advance the schedule and re-index the
            # served cores under their new PCs.
            cycles += 1
            ns = len(served)
            if ns > 1:
                histogram[ns] += 1
            if not wmask:
                turn = after[t]
            else:
                # the write cycle of the pending RMW: the I-Xbar's
                # broadcast fast path neither rotates nor conflicts
                # when one group is every fetcher
                fetchers = n - len(pending[2])
                if groups is None or ns != fetchers:
                    turn = after[t]
                if ns == fetchers:
                    calm += 1
            if plan is not None:
                if groups is not None:
                    del groups[wpc]   # held aside until the write phase
            elif ns == 1:
                retired[winner.coreid] += 1
                pc = winner.pc
                if groups is not None:
                    del groups[wpc]
                    group = groups.get(pc)
                    if group is None:
                        groups[pc] = served
                    else:
                        group.append(winner)
                if not lo <= pc < hi:
                    end = cycles      # next fetch is in another bank
            else:
                del groups[wpc]
                for core in served:
                    retired[core.coreid] += 1
                if kind == KIND_DIVERGE:
                    # a data-dependent branch may split the group
                    for core in served:
                        pc = core.pc
                        group = groups.get(pc)
                        if group is None:
                            groups[pc] = [core]
                        else:
                            group.append(core)
                        if not lo <= pc < hi:
                            end = cycles
                else:
                    # the group moved as one: re-key it whole
                    pc = winner.pc
                    group = groups.get(pc)
                    if group is None:
                        groups[pc] = served
                    else:
                        group.extend(served)
                    if not lo <= pc < hi:
                        end = cycles
            if wmask:
                # -- T+1 of the pending RMW: write phase and retire ----
                arrived = pending[2]
                if self._rmw_write(pending[0], pending[1], arrived,
                                   cycles):
                    end = cycles      # the running set changes
                elif groups is not None:
                    group = groups.get(arrived[0].pc + 1)
                    if group is None:
                        groups[arrived[0].pc + 1] = arrived
                    else:
                        group.extend(arrived)
                pc = arrived[0].pc + 1
                for core in arrived:
                    core.pc = pc
                    retired[core.coreid] += 1
                if not lo <= pc < hi:
                    end = cycles
                arrivals += len(arrived)
                n_syncs += 1
                pending = None
                wmask = 0
                busy = -1
            if plan is not None:
                # -- T of a new RMW: read phase; the cores wait --------
                pending = (plan, self._rmw_read(plan[0]), served, rec[2])
                for core in served:
                    wmask |= 1 << core.coreid
                busy = config.dm_bank_of(plan[0])
                plan = None
        if deopt:
            self.stats.deopt_count += 1
        if pending is not None:
            self._rmw_handoff(pending)
        executed = cycles - start
        if not executed:
            return False

        machine.ixbar._priority[bank] = \
            (running[turn - 1].coreid + 1) % ncores
        histogram[1] = executed - sum(histogram)
        fetched = 0
        for size, count in enumerate(histogram):
            fetched += size * count
        active = fetched + arrivals
        trace.cycles = cycles
        trace.core_active_cycles += active
        trace.core_stall_cycles += executed * n - active
        retired_per_core = trace.retired_per_core
        retired_ops = 0
        for cid, count in enumerate(retired):
            if count:
                retired_per_core[cid] += count
                retired_ops += count
        trace.retired_ops += retired_ops
        trace.im_bank_accesses += executed
        trace.im_fetches_served += fetched
        trace.im_conflict_cycles += executed - calm
        trace_histogram = trace.lockstep_histogram
        for size, count in enumerate(histogram):
            if count:
                trace_histogram[size] = trace_histogram.get(size, 0) + count
        if dm_served:
            trace.dm_bank_reads += dm_reads
            trace.dm_bank_writes += dm_writes
            trace.dm_served += dm_served
        if halted:
            trace.core_halted_cycles += executed * halted
        if sleeping:
            trace.core_sleep_cycles += executed * sleeping
        if waiting:
            trace.sync_wait_cycles += executed * waiting
        stats = self.stats
        stats.divergent_bursts += 1
        stats.divergent_cycles += executed
        stats.sync_fused_rmws += n_syncs
        machine._quiet = False
        return True

    def _sleep_fast_forward(self, limit: int) -> bool:
        """Jump over an all-asleep stretch to the next timer/IRQ event.

        Only taken when the platform is fully event-driven: no core runs,
        nothing is in flight, and no pending interrupt is deliverable —
        so *nothing* can change until the next timer fire or scheduled
        interrupt.  Credits every skipped cycle's sleep/halt (and barrier
        wait) counters in bulk.

        :returns: True if at least one cycle was skipped.
        """
        machine = self._machine
        if machine._pending_irq_count:
            # A deliverable pending IRQ changes state on the very next
            # cycle; leave it to the reference step().  Undeliverable
            # ones (masked, halted, checked out at a barrier) stay
            # pending for the whole sleep period.
            for cid, pending in enumerate(machine._pending_irq):
                if not pending:
                    continue
                core = machine.cores[cid]
                if (core.interrupts_enabled
                        and core.mode is not CoreMode.HALTED
                        and not machine._barrier_sleeper[cid]):
                    return False
        next_event = self._next_event_cycle()
        if next_event == INFINITY:
            return False              # deadlock or halt: step() decides
        trace = machine.trace
        target = min(limit, next_event - 1)
        skipped = target - trace.cycles
        if skipped <= 0:
            return False
        halted, sleeping, waiting = self._idle_census()
        if not sleeping:
            return False              # fully halted: run loop terminates
        trace.cycles = target
        trace.core_sleep_cycles += skipped * sleeping
        if halted:
            trace.core_halted_cycles += skipped * halted
        if waiting:
            trace.sync_wait_cycles += skipped * waiting
        self.stats.sleep_skips += 1
        self.stats.sleep_cycles += skipped
        machine._quiet = True
        return True


def _mem_cycle(cores, info: tuple, words: list, priority: list,
               interleaved: bool, nb: int, bw: int, ncores: int,
               broadcast: bool, busy: int = -1) -> int:
    """Serve one LD/ST cycle of a core group inline when it provably wins.

    Handles the two request patterns that cannot lose D-Xbar
    arbitration: every core hitting a distinct bank (the SPMD
    private-buffer pattern) and every core reading one shared address
    (one broadcast bank read serves all).  Reproduces the round-robin
    priority rotation and serve order of ``DataCrossbar._serve_bank``
    exactly; the caller binds the D-Xbar geometry once per burst and
    credits the counters.

    :param busy: the DM bank whose port the synchronizer's write phase
        holds this cycle (-1: none); a request to it is refused.
    :returns: the bank accesses made — reads or writes as ``info``
        says; every core counts as served — or 0, leaving all state
        untouched, on any other pattern, an out-of-range address or the
        busy bank, so the reference ``step()`` arbitrates the conflict
        or raises the fault.
    """
    is_write, rs, imm, rd = info
    n_words = len(words)
    addrs = []
    used = 0                # bank bitmask
    for core in cores:
        addr = (core.regs[rs] + imm) & 0xFFFF
        if addr >= n_words:
            return 0        # out of range: let the reference step fault
        bit = 1 << (addr % nb if interleaved else addr // bw)
        if used & bit:
            break
        used |= bit
        addrs.append(addr)
    else:
        # pairwise-distinct banks: every core wins its own
        if busy >= 0 and used >> busy & 1:
            return 0
        if is_write:
            for core, addr in zip(cores, addrs):
                priority[addr % nb if interleaved else addr // bw] = \
                    (core.coreid + 1) % ncores
                words[addr] = core.regs[rd] & 0xFFFF
                core.pc += 1
        else:
            for core, addr in zip(cores, addrs):
                priority[addr % nb if interleaved else addr // bw] = \
                    (core.coreid + 1) % ncores
                core.regs[rd] = words[addr]
                core.pc += 1
        return len(cores)
    # a shared bank: only one broadcast read address can win it whole
    if is_write or not broadcast:
        return 0
    addr = addrs[0]
    for core in cores:
        if (core.regs[rs] + imm) & 0xFFFF != addr:
            return 0
    bank = addr % nb if interleaved else addr // bw
    if bank == busy:
        return 0
    base = priority[bank]
    winner = min((core.coreid for core in cores),
                 key=lambda cid: (cid - base) % ncores)
    priority[bank] = (winner + 1) % ncores
    value = words[addr]
    for core in cores:
        core.regs[rd] = value
        core.pc += 1
    return 1
