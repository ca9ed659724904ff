"""The fast engine keeps divergent execution off the reference path.

One test per mechanism that lets divergent stretches stay in a burst,
each checked against ``fast_engine=False`` for exactness and against a
log of the reference ``Machine.step()`` calls the fast engine made:

- lockstep cores that disagree on a predicated hammock continue per
  instruction to the diverging branch (one ``pred_aborts`` per burst);
- barrier wake-ups latched by a release are applied by the engine, so
  the woken cores' first cycle runs inside a burst;
- a lone requester's LD/ST in a divergent burst is served inline, also
  at a DM bank edge, and an out-of-range address still faults through
  ``step()``.
"""

import pytest

from repro.cpu.state import CoreMode
from repro.platform import FastEngine, Machine, PlatformConfig, SyncPolicy

from .test_engine_differential import assert_equivalent


def log_steps(machine: Machine) -> list:
    """Record every reference ``step()`` the engine makes on ``machine``.

    Each entry is ``(cycle, dm_served)``: the cycle that call simulated
    and how many D-Xbar requests it served.
    """
    stepped = []
    step = machine.step
    trace = machine.trace

    def logged():
        served = trace.dm_served
        stepped.append([trace.cycles + 1, 0])
        step()
        stepped[-1][1] = trace.dm_served - served

    machine.step = logged
    return stepped


def run_both(program, config, setup=None, max_cycles=100_000):
    """(fast machine, its step() log, reference machine)."""
    fast = Machine(program, config)
    slow = Machine(program, config, fast_engine=False)
    stepped = log_steps(fast)
    for machine in (fast, slow):
        if setup is not None:
            setup(machine)
        machine.run(max_cycles=max_cycles)
    return fast, stepped, slow


# ---------------------------------------------------------------------------
# Hammock disagreement
# ---------------------------------------------------------------------------

# two register-only hammocks in one straight-line run: each arm runs on
# the fall-through path, so even cores take it and odd cores skip it
HAMMOCK = """
.entry main
main:
    MFSR R0, COREID
    LDI R1, #1
    AND R1, R0, R1
    ADDI R2, R2, #7
    CMPI R1, #0
    BNE skip
    ADDI R2, R2, #5
    XOR R3, R3, R2
skip:
    ADD R4, R2, R3
    CMPI R1, #0
    BNE done
    ADDI R4, R4, #1
done:
    HALT
"""


def test_hammock_disagreement_continues_the_burst(monkeypatch):
    config = PlatformConfig(num_cores=8)
    program = Machine.from_assembly(HAMMOCK, config).program
    assert program.hammocks
    aborts_per_burst = []
    burst = FastEngine._lockstep_burst

    def counted(engine, *args):
        before = engine.stats.pred_aborts
        result = burst(engine, *args)
        aborts_per_burst.append(engine.stats.pred_aborts - before)
        return result

    monkeypatch.setattr(FastEngine, "_lockstep_burst", counted)

    # the reference pins the cycle in which the branch first splits the
    # cores: the first cycle after which the running PCs differ
    class Divergence:
        cycle = None

        def sample(self, machine, active):
            pcs = {core.pc for core in machine.cores
                   if core.mode is CoreMode.RUNNING}
            if self.cycle is None and len(pcs) > 1:
                self.cycle = machine.trace.cycles

    divergence = Divergence()

    def setup(machine):
        if not machine.fast_engine:
            machine.attach_probe(divergence)

    fast, stepped, slow = run_both(program, config, setup)
    assert_equivalent(fast, slow)
    assert divergence.cycle is not None
    stats = fast.engine_stats
    # the burst that meets the disagreement stops predicating
    assert stats.pred_aborts == 1
    assert max(aborts_per_burst) == 1
    assert stats.divergent_cycles > 0
    # no reference cycle between the aborted block and the branch
    assert min(cycle for cycle, _ in stepped) > divergence.cycle


# ---------------------------------------------------------------------------
# Barrier wake-up
# ---------------------------------------------------------------------------

# core 0 checks out first and sleeps; cores 1..7 spin, then check out
# together, and that lockstep SDEC releases the barrier and wakes core 0
BARRIER = """
    .equ SYNCBASE 30720
.entry main
main:
    LI R1, #SYNCBASE
    MTSR RSYNC, R1
    MFSR R0, COREID
    SINC #0
    CMPI R0, #0
    BEQ short_path
    LI R2, #40
spin:
    DEC R2
    BNE spin
short_path:
    SDEC #0
    LI R4, #64
    ADD R4, R4, R0
    LDI R5, #1
    ST R5, [R4]
    HALT
"""


def test_woken_cores_run_their_first_cycle_in_a_burst():
    config = PlatformConfig(policy=SyncPolicy.FULL)
    program = Machine.from_assembly(BARRIER, config).program
    releases = []

    def setup(machine):
        if machine.fast_engine:
            machine.synchronizer.listeners.append(
                lambda cycle, completion: completion.barrier_released
                and releases.append(cycle))

    fast, stepped, slow = run_both(program, config, setup)
    assert_equivalent(fast, slow)
    assert fast.dm.dump(64, 8) == [1] * 8
    assert len(releases) == 1
    # the wake-up is latched to the cycle after the release
    stepped_cycles = {cycle for cycle, _ in stepped}
    assert releases[0] + 1 not in stepped_cycles
    assert fast.trace.sync_wakeups == 1


# ---------------------------------------------------------------------------
# Lone-requester LD/ST in a divergent burst
# ---------------------------------------------------------------------------

# cores spin COREID+1 times and, without IM broadcast, fetch one at a
# time, so each LD/ST is a lone request; core c stores to the last word
# of DM bank c and loads the first word of bank c+1 (R3 = 1) — or, with
# R3 = 0x8000, reaches past the end of the 32K-word DM.
LONE_MEMORY = """
.entry main
main:
    MFSR R0, COREID
    MOV R2, R0
    INC R2
spin:
    DEC R2
    BNE spin
    LI R4, #2048
    MUL R4, R4, R0
    ADDI R4, R4, #2047      ; last word of bank COREID
    ST R0, [R4]
    ADD R5, R4, R3
    LD R6, [R5]
    ST R6, [R4 + #-1]
    HALT
"""


def lone_memory_setup(reach):
    def setup(machine):
        for core in machine.cores:
            core.regs[3] = reach
        for bank in range(machine.config.dm_banks):
            machine.dm.write(bank * 2048, 1000 + bank)
    return setup


@pytest.mark.parametrize("interleaved", [False, True],
                         ids=["contiguous", "interleaved"])
def test_lone_requester_memory_at_a_bank_edge(interleaved):
    config = PlatformConfig(num_cores=8, im_broadcast=False,
                            dm_interleaved=interleaved)
    program = Machine.from_assembly(LONE_MEMORY, config).program
    fast, stepped, slow = run_both(program, config, lone_memory_setup(1))
    assert_equivalent(fast, slow)
    assert fast.engine_stats.divergent_cycles > 0
    for core in range(8):
        edge = (core + 1) * 2048 - 1
        assert fast.dm.words[edge] == core
        assert fast.dm.words[edge - 1] == 1000 + core + 1
    # every LD/ST was served by a burst, none by step()
    assert all(served == 0 for _, served in stepped)


def test_lone_requester_out_of_range_faults_through_step():
    config = PlatformConfig(num_cores=8, im_broadcast=False)
    program = Machine.from_assembly(LONE_MEMORY, config).program
    failures = []
    for fast_engine in (True, False):
        machine = Machine(program, config, fast_engine=fast_engine)
        stepped = log_steps(machine)
        lone_memory_setup(0x8000)(machine)
        # the reference D-Xbar has no bank for the address
        with pytest.raises(IndexError):
            machine.run(max_cycles=10_000)
        failures.append((machine.trace.cycles,
                         [core.pc for core in machine.cores]))
        # the faulting cycle is one the engine handed to step()
        assert stepped[-1][0] == machine.trace.cycles
    assert failures[0] == failures[1]


# ---------------------------------------------------------------------------
# Barrier arrivals inside divergent bursts
# ---------------------------------------------------------------------------

# cores below {bystanders} check in, then out, one pair or core at a
# time (staggered spins); the others never take part and run
# {bystander} instead, so every arrival — the last check-out's release
# too — happens while other cores run elsewhere: a divergent SINC/SDEC
STAGGERED = """
    .equ SYNCBASE 30720
.entry main
main:
    LI R1, #SYNCBASE
    MTSR RSYNC, R1
    MFSR R0, COREID
    CMPI R0, #{bystanders}
    BGE bystander
{setup}
    MOV R2, R0
    INC R2
arrive:
    DEC R2
    BNE arrive
    SINC #0
    MOV R2, R0
    ADDI R2, R2, #3
leave:
    DEC R2
    BNE leave
    SDEC #0
    LI R4, #64
    ADD R4, R4, R0
    LDI R5, #1
    ST R5, [R4]
    HALT
bystander:
    LI R4, #30784           ; in the checkpoints' DM bank
    LI R2, #60
idle:
{bystander}
    DEC R2
    BNE idle
    HALT
"""


def staggered(setup="", bystander="", bystanders=6):
    config = PlatformConfig()
    source = STAGGERED.format(setup=setup, bystander=bystander,
                              bystanders=bystanders)
    return Machine.from_assembly(source, config).program, config


def run_arrivals(program, config):
    """(fast, step() log, reference, completions as (cycle, completion))."""
    completions = []

    def setup(machine):
        if machine.fast_engine:
            machine.synchronizer.listeners.append(
                lambda cycle, completion:
                completions.append((cycle, completion)))

    fast, stepped, slow = run_both(program, config, setup)
    assert_equivalent(fast, slow)
    return fast, stepped, slow, completions


ARRIVALS = {
    "check-in": lambda c: c.checkin_cores,
    "sleeping check-out": lambda c: (c.checkout_cores
                                     and not c.barrier_released),
    "release": lambda c: c.barrier_released,
}


@pytest.mark.parametrize("arrival", sorted(ARRIVALS))
def test_divergent_arrival_runs_in_the_burst(arrival):
    fast, stepped, slow, completions = run_arrivals(*staggered())
    matching = [(cycle, completion) for cycle, completion in completions
                if ARRIVALS[arrival](completion)]
    assert matching
    stepped_cycles = {cycle for cycle, _ in stepped}
    for cycle, completion in matching:
        arriving = completion.checkin_cores or completion.checkout_cores
        assert len(arriving) < 8           # not a lockstep arrival
        # cycle T (fetch, read phase) and T+1 (write phase) both ran
        # in a burst
        assert {cycle - 1, cycle}.isdisjoint(stepped_cycles)
    if arrival == "release":
        # the wake-ups were latched for the cycle after the release
        (cycle, completion), = matching
        assert completion.woken_cores == (0, 1, 2, 3, 4, 5)
        assert cycle + 1 not in stepped_cycles
    assert fast.dm.dump(64, 6) == [1] * 6
    assert fast.engine_stats.sync_fused_rmws == len(completions)


def test_busy_checkpoint_bank_at_the_write_cycle_falls_back():
    # the lone bystander stores into the checkpoints' DM bank, whose
    # port an arrival's write phase holds at T+1
    program, config = staggered(bystander="    ST R0, [R4]",
                                bystanders=7)
    fast, stepped, slow, completions = run_arrivals(program, config)
    assert slow.trace.dm_conflict_cycles > 0
    stepped_at = dict(stepped)
    # some write cycles went to step(), which refused the store (served
    # nothing) — while their read cycle T had run in the burst
    refused = [cycle for cycle, _ in completions
               if stepped_at.get(cycle) == 0 and cycle - 1 not in stepped_at]
    assert refused
    # and every other arrival stayed in the burst
    assert any({cycle - 1, cycle}.isdisjoint(stepped_at)
               for cycle, _ in completions)


def test_split_checkpoint_addresses_fall_back():
    # a per-core Rsync: cores 0 and 1 arrive together at one SINC but
    # address different checkpoint words, which step() splits
    program, config = staggered(setup="    ADD R1, R1, R0\n"
                                      "    MTSR RSYNC, R1\n"
                                      "    MOV R3, R0\n"
                                      "    SRLI R3, #1")
    fast, stepped, slow, completions = run_arrivals(program, config)
    stepped_cycles = {cycle for cycle, _ in stepped}
    checkins = {completion.checkin_cores: cycle
                for cycle, completion in completions}
    # step() ran the pair's arrival; the reference serialized the two
    # words through the one DM bank they share (core 1 was refused)
    arrival = checkins[(0,)] - 1
    assert {arrival, arrival + 1} <= stepped_cycles
    assert slow.synchronizer.stats[30721].blocked_requests > 0
    # a lone arrival on its own word stays in the burst
    assert {checkins[(4,)] - 1, checkins[(4,)]}.isdisjoint(stepped_cycles)


def test_protocol_violation_raises_at_the_same_cycle():
    from repro.platform.synchronizer import SynchronizationError

    # core 0 checks out of a checkpoint it never entered, while the
    # other cores still run
    program, config = staggered(setup="    CMPI R0, #0\n"
                                      "    BNE fine\n"
                                      "    SDEC #1\n"
                                      "fine:")
    failures = []
    for fast_engine in (True, False):
        machine = Machine(program, config, fast_engine=fast_engine)
        stepped = log_steps(machine)
        with pytest.raises(SynchronizationError):
            machine.run(max_cycles=10_000)
        failures.append(machine.trace.cycles)
        if fast_engine:
            # the raising write cycle is one the engine handed to step()
            assert stepped[-1][0] == machine.trace.cycles
            assert machine.engine_stats.divergent_cycles > 0
    assert failures[0] == failures[1]


# ---------------------------------------------------------------------------
# Broadcast-group LD/ST in a divergent burst
# ---------------------------------------------------------------------------

# pairs of cores share a spin count, so each pair runs as one broadcast
# group while the other pairs (and the bystanders) sit elsewhere; each
# group stores to its cores' private banks, reads one shared word, and
# then does {tail}
GROUP_MEMORY = """
.entry main
main:
    MFSR R0, COREID
    CMPI R0, #6
    BGE bystander
    MOV R2, R0
    SRLI R2, #1
    INC R2
spin:
    DEC R2
    BNE spin
    LI R6, #2048
    MUL R6, R6, R0
    ST R0, [R6]             ; distinct banks
    LI R7, #100
    LD R5, [R7]             ; one shared address: broadcast read
    ST R5, [R6 + #1]
{tail}
    HALT
bystander:
    LI R2, #40
idle:
    DEC R2
    BNE idle
    HALT
"""


@pytest.mark.parametrize("conflict", [False, True],
                         ids=["provable", "conflicting"])
def test_group_memory_in_a_divergent_burst(conflict):
    # the conflicting tail stores to distinct words of one bank
    tail = ("    LI R4, #64\n    ADD R4, R4, R0\n    ST R0, [R4]"
            if conflict else "")
    config = PlatformConfig()
    program = Machine.from_assembly(GROUP_MEMORY.format(tail=tail),
                                    config).program

    def setup(machine):
        machine.dm.write(100, 777)

    fast, stepped, slow = run_both(program, config, setup)
    assert_equivalent(fast, slow)
    assert fast.engine_stats.divergent_cycles > 0
    for core in range(6):
        assert fast.dm.words[core * 2048:core * 2048 + 2] == [core, 777]
    served_by_step = sum(served for _, served in stepped)
    if conflict:
        # the same-bank stores lose arbitration: step() serializes them
        assert served_by_step > 0
        assert fast.dm.dump(64, 6) == list(range(6))
    else:
        # every group LD/ST was served by a burst, none by step()
        assert served_by_step == 0
