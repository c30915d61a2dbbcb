//! The SMT execution core of [`Machine`]: stepping, instruction semantics,
//! fetch modeling, the fused probe tier and the closed-form loop tier for
//! a co-running sibling, plus the thread, error and probe types the public
//! API speaks in.
//!
//! ## Closed-form catch-ups
//!
//! A sibling busy in a counted delay loop whose turns change no shared
//! structure (`Machine::loop_is_quiet`) is never stepped: each catch-up
//! moves it to the first instruction boundary at or after the attacker's
//! clock in O(1), a busy-wait's catch-up to the wait's end, and a fused
//! batch of calls or `Execute` probes whose fetches stay clear of the
//! loop's cache sets carries it across the whole batch — the batch runs
//! with no inner catch-up and one closed form settles the sibling at its
//! end (`Machine::try_carry`). A carry lives inside one engine entry
//! and is always settled before the entry returns.
//!
//! Two hardware threads share one physical core: the L1i/L1d/L2/LLC
//! hierarchy, the branch predictor, and — crucially — the pipeline that an
//! SMC machine clear flushes. Each thread owns a local cycle clock; the
//! machine always advances the thread that is behind, so cross-thread
//! interactions happen in approximately causal order.
//!
//! ## Timing model
//!
//! Values are computed eagerly (architecturally correct immediately); *time*
//! is modeled with per-register readiness stamps. A load costs one issue
//! cycle and marks its destination ready `latency` cycles later; `mfence`
//! and `rdtsc`-bracketed probe sequences surface those latencies, exactly
//! like the paper's measurement harness (Listing 2). Conditional branches
//! whose flags are not ready yet consult the PHT; a wrong prediction
//! executes the wrong path with buffered stores until the flags arrive,
//! then rolls back architectural state — but cache and TLB fills survive,
//! which is the ISpectre transmission channel.
//!
//! ## SMC detection
//!
//! Store/flush/prefetch-class instructions aimed at a line that is resident
//! in the L1i (or in either thread's in-flight fetch window) trigger a
//! *machine clear* when the microarchitecture's [`crate::profile::SmcMatrix`]
//! says so: both threads' front-ends are flushed, the sibling is stalled for
//! `sibling_stall` (~235) cycles, the line is invalidated from the L1i, and
//! the vendor's performance counters are charged per the paper's Figure 2
//! reverse engineering.

use std::error::Error;
use std::fmt;

use crate::addr::Addr;
use crate::counters::{CounterBank, PerfEvent};
use crate::decoded::{LOOP_ADD, LOOP_CMP, LOOP_JE, LOOP_LEN, LOOP_TAIL, NO_IDX};
use crate::hierarchy::{Footprint, Level, Residency};
use crate::isa::{Cond, Flags, Instr, MemRef, MemSize, Reg};
use crate::machine::{Machine, Tier};
use crate::profile::{ProbeKind, SmcBehavior, Vendor};

/// Return-address sentinel marking the boundary of an injected call: when a
/// `ret` pops this value the thread parks itself back in [`ThreadState::Idle`].
pub const RETURN_SENTINEL: u64 = 0xffff_ffff_0000_0000;

/// Identifier of one of the two SMT threads of the simulated physical core.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ThreadId {
    /// Logical processor 0.
    T0,
    /// Logical processor 1.
    T1,
}

impl ThreadId {
    /// Index (0 or 1).
    pub fn index(self) -> usize {
        match self {
            ThreadId::T0 => 0,
            ThreadId::T1 => 1,
        }
    }

    /// The other hardware thread on the same core.
    pub fn sibling(self) -> ThreadId {
        match self {
            ThreadId::T0 => ThreadId::T1,
            ThreadId::T1 => ThreadId::T0,
        }
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.index())
    }
}

/// Execution state of a thread.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum ThreadState {
    /// Not running a program; accepts injected instructions.
    #[default]
    Idle,
    /// Executing a loaded program.
    Running,
    /// Executed `halt` (or returned with an empty call stack).
    Halted,
}

/// Errors surfaced while stepping the machine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StepError {
    /// No instruction is mapped at the program counter.
    NoInstruction {
        /// Offending address.
        pc: u64,
    },
    /// The probe instruction does not exist on this microarchitecture
    /// (an `×` cell in Table 3, e.g. `clwb` before Sky Lake).
    Unsupported {
        /// Probe class that is unavailable.
        kind: ProbeKind,
    },
    /// Tried to step a thread that is not running.
    NotRunning {
        /// The thread in question.
        tid: ThreadId,
    },
    /// An injected sequence contained a branch (only straight-line code and
    /// calls may be injected).
    ControlFlowInjected,
    /// A run exceeded its instruction budget.
    StepLimit,
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::NoInstruction { pc } => write!(f, "no instruction at {pc:#x}"),
            StepError::Unsupported { kind } => {
                write!(f, "`{kind}` is not supported on this microarchitecture")
            }
            StepError::NotRunning { tid } => write!(f, "thread {tid} is not running"),
            StepError::ControlFlowInjected => {
                write!(f, "injected sequences cannot contain branches")
            }
            StepError::StepLimit => write!(f, "instruction budget exhausted"),
        }
    }
}

impl Error for StepError {}

/// Result of running an injected sequence.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SeqOutcome {
    /// Cycles the sequence consumed on its thread.
    pub cycles: u64,
    /// Thread-local clock when the sequence finished.
    pub end_clock: u64,
}

#[derive(Clone, Debug)]
pub(crate) struct SpecState {
    ckpt_regs: [u64; Reg::COUNT],
    ckpt_ready: [u64; Reg::COUNT],
    ckpt_flags: Flags,
    ckpt_flags_ready: u64,
    ckpt_stack_len: usize,
    correct_pc: u64,
    resolve_at: u64,
    budget: u32,
    buffered_stores: Vec<(Addr, u64, MemSize)>,
}

/// One hardware thread's architectural and timing state.
#[derive(Clone, Debug)]
pub(crate) struct Thread {
    pub(crate) state: ThreadState,
    pub(crate) regs: [u64; Reg::COUNT],
    pub(crate) ready: [u64; Reg::COUNT],
    flags: Flags,
    flags_ready: u64,
    pub(crate) pc: u64,
    /// Index of the instruction at `pc` in the machine's decoded table, or
    /// [`NO_IDX`] when unknown (resolved lazily with one hash probe). Kept
    /// in lockstep with `pc`: sequential flow and static branches copy the
    /// pre-resolved successor index; every other `pc` writer invalidates it.
    pub(crate) pc_idx: u32,
    pub(crate) clock: u64,
    pub(crate) stack: Vec<u64>,
    last_fetch_line: u64,
    /// Lines in the in-flight fetch window, `u64::MAX` = empty slot
    /// (a fixed ring; see [`FETCH_WINDOW`]).
    fetch_window: [u64; FETCH_WINDOW],
    fetch_window_next: usize,
    pending_mem: u64,
    /// Active wrong-path speculation. Boxed: mispredictions are rare, and
    /// keeping the large checkpoint out of line both shrinks the thread
    /// (better locality for the hot fields) and turns the per-step
    /// `is_some` check into a null test.
    pub(crate) spec: Option<Box<SpecState>>,
    pub(crate) counters: CounterBank,
}

impl Thread {
    pub(crate) fn new() -> Thread {
        Thread {
            state: ThreadState::Idle,
            regs: [0; Reg::COUNT],
            ready: [0; Reg::COUNT],
            flags: Flags::default(),
            flags_ready: 0,
            pc: 0,
            pc_idx: NO_IDX,
            clock: 0,
            stack: Vec::new(),
            fetch_window: [u64::MAX; FETCH_WINDOW],
            fetch_window_next: 0,
            last_fetch_line: u64::MAX,
            pending_mem: 0,
            spec: None,
            counters: CounterBank::new(),
        }
    }

    /// Restore the power-on state in place, keeping the stack and
    /// fetch-window allocations.
    pub(crate) fn reset(&mut self) {
        self.state = ThreadState::Idle;
        self.regs = [0; Reg::COUNT];
        self.ready = [0; Reg::COUNT];
        self.flags = Flags::default();
        self.flags_ready = 0;
        self.pc = 0;
        self.pc_idx = NO_IDX;
        self.clock = 0;
        self.stack.clear();
        self.fetch_window = [u64::MAX; FETCH_WINDOW];
        self.fetch_window_next = 0;
        self.last_fetch_line = u64::MAX;
        self.pending_mem = 0;
        self.spec = None;
        self.counters.reset();
    }
}

/// Lines tracked in the in-flight fetch window used for SMC detection.
const FETCH_WINDOW: usize = 2;

enum Next {
    Seq,
    Jump(u64),
    Stop,
}

/// Signal returned by injected-instruction execution.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum InjectedNext {
    /// The instruction completed; continue with the next one.
    Done,
    /// The instruction was a call; the caller must run the thread's program
    /// until it returns to idle.
    EnterCall {
        /// Call target address.
        target: u64,
    },
}

/// Per-run instruction budget for injected calls and sibling catch-ups:
/// generous, but bounded so that buggy victims fail loudly with
/// [`StepError::StepLimit`] instead of hanging the harness. Sibling steps
/// taken inside a call count against the call's budget.
pub const STEP_BUDGET: u64 = 500_000_000;

/// The budget the engine enforces: [`STEP_BUDGET`].
#[cfg(not(test))]
#[inline(always)]
pub(crate) fn step_budget() -> u64 {
    STEP_BUDGET
}

#[cfg(test)]
thread_local! {
    /// The unit tests' budget, lowered where a test needs
    /// [`StepError::StepLimit`] within a few steps.
    static TEST_BUDGET: std::cell::Cell<u64> = const { std::cell::Cell::new(STEP_BUDGET) };
}

/// The budget the engine enforces: [`STEP_BUDGET`], unless the running
/// unit test lowered it.
#[cfg(test)]
pub(crate) fn step_budget() -> u64 {
    TEST_BUDGET.with(std::cell::Cell::get)
}

/// Cycles per injected `Delay` chunk of a busy-wait: the granularity at
/// which a waiting thread lets its sibling catch up.
pub const DELAY_CHUNK: u64 = 200;

/// A probe sequence precompiled for the fused probe tier: the classic
/// `mfence; rdtsc; <op>; mfence; rdtsc` five-instruction template from
/// `probe_sequence`, recognized once at construction so
/// [`Machine::run_probes`] can retire the whole sequence in one
/// specialized pass instead of five injected-instruction round trips.
///
/// `compile` returns `None` for sequences whose timed operation the fused
/// tier does not model; those keep running per-step. The `Execute` probe's
/// `call *r` compiles, and fuses whenever its callee has the one-line
/// `nop*; ret` shape of an attacker eviction line.
#[derive(Copy, Clone, Debug)]
pub struct CompiledProbe {
    /// The original five-instruction sequence — the per-step fallback
    /// executes exactly this.
    instrs: [Instr; 5],
    /// Destination register of the opening `rdtsc`.
    t_start: Reg,
    /// Destination register of the closing `rdtsc`.
    t_end: Reg,
    /// The timed middle operation.
    op: Instr,
    /// The register `op` addresses through: its memory operand's base,
    /// or `call *r`'s register.
    pub(crate) addr: Reg,
}

impl CompiledProbe {
    /// Recognize the probe template, or `None` when the sequence must run
    /// per-step. The middle-op whitelist is exactly the set of operations
    /// the fused probe tier runs: the memory and probe-class instructions,
    /// through the helper `exec` shares (`exec_memory`), and
    /// `call *r`, through the fused call path.
    pub fn compile(instrs: &[Instr; 5]) -> Option<CompiledProbe> {
        let (t_start, t_end) = match (instrs[0], instrs[1], instrs[3], instrs[4]) {
            (Instr::Mfence, Instr::Rdtsc { dst: a }, Instr::Mfence, Instr::Rdtsc { dst: b }) => {
                (a, b)
            }
            _ => return None,
        };
        let op = instrs[2];
        let addr = match op {
            Instr::Load { mem, .. }
            | Instr::StoreImm { mem, .. }
            | Instr::LockInc { mem }
            | Instr::Clflush { mem }
            | Instr::Clflushopt { mem }
            | Instr::Clwb { mem }
            | Instr::PrefetchT0 { mem }
            | Instr::PrefetchNta { mem } => mem.base,
            Instr::CallReg { target } => target,
            _ => return None,
        };
        Some(CompiledProbe { instrs: *instrs, t_start, t_end, op, addr })
    }

    /// The measured delta a finished probe left on `tid`: the closing
    /// `rdtsc` reading minus the opening one, saturating at 0.
    pub(crate) fn timing(&self, m: &Machine, tid: ThreadId) -> u64 {
        m.reg(tid, self.t_end).saturating_sub(m.reg(tid, self.t_start))
    }

    /// The original five-instruction sequence (the per-step fallback).
    pub fn instrs(&self) -> &[Instr; 5] {
        &self.instrs
    }
}

/// Where a closed-form run of a counted delay loop stops
/// ([`Machine::try_loop_turns`]). Instructions are numbered by absolute
/// position `LOOP_LEN·turn + pos` from the head of the turn the thread is
/// in, and the run retires `[start, end)`.
#[derive(Copy, Clone, Debug)]
struct LoopSpan {
    delay: u64,
    start: u64,
    end: u64,
    /// Turn and position of `end`, where the thread stops.
    turns: u64,
    pos: usize,
    /// Cycles the run takes.
    cycles: u64,
}

impl LoopSpan {
    /// Cycles from the head of a turn to the start of position `pos`: the
    /// `delay` costs `delay`, every other instruction 1.
    #[inline(always)]
    fn offset(delay: u64, pos: usize) -> u64 {
        if pos == 0 {
            0
        } else {
            delay + pos as u64 - 1
        }
    }

    /// The run from position `pos` at clock `t0` to the first instruction
    /// boundary at or after `bound` (empty when `bound <= t0`). A run to
    /// the attacker's clock spans about a turn, so the turn count is found
    /// by repeated subtraction; only a long wait divides.
    #[inline(always)]
    fn new(delay: u64, pos: usize, t0: u64, bound: u64) -> LoopSpan {
        let turn = delay + LOOP_LEN as u64 - 1;
        let target = bound.saturating_sub(t0) + Self::offset(delay, pos);
        let (mut turns, mut rest) = (0, target);
        if target < 8 * turn {
            while rest >= turn {
                rest -= turn;
                turns += 1;
            }
        } else {
            turns = target / turn;
            rest = target - turns * turn;
        }
        let end_pos = match rest {
            0 => 0,
            r if r <= delay => 1,
            r => (r - delay + 1) as usize,
        };
        LoopSpan {
            delay,
            start: pos as u64,
            end: turns * LOOP_LEN as u64 + end_pos as u64,
            turns,
            pos: end_pos,
            cycles: turns * turn + Self::offset(delay, end_pos) - Self::offset(delay, pos),
        }
    }

    /// Instructions retired.
    fn instrs(&self) -> u64 {
        self.end - self.start
    }

    /// Retired instructions at position `pos`: one per whole turn, plus
    /// the partial turn's if `pos` is before the stop, less the first
    /// turn's if `pos` is before the start.
    #[inline(always)]
    fn count(&self, pos: usize) -> u64 {
        self.turns + u64::from(pos < self.pos) - u64::from((pos as u64) < self.start)
    }

    /// Retired instructions at position `pos`, not counting the first.
    #[inline(always)]
    fn count_after_first(&self, pos: usize) -> u64 {
        self.turns + u64::from(pos < self.pos) - u64::from(pos as u64 <= self.start)
    }

    /// Cycles from the run's start to the start of its last instruction
    /// at position `pos` (which [`LoopSpan::count`] says exists).
    fn last_start(&self, pos: usize) -> u64 {
        let turn = if self.pos > pos { self.turns } else { self.turns - 1 };
        turn * (self.delay + LOOP_LEN as u64 - 1) + Self::offset(self.delay, pos)
            - Self::offset(self.delay, self.start as usize)
    }
}

/// A sibling at position `pos` of a counted delay loop: where a
/// closed-form run starts once [`Machine::loop_is_quiet`] passes.
#[derive(Copy, Clone, Debug)]
struct QuietLoop {
    /// The loop's slot in the decoded table.
    slot: u32,
    /// Its counted register, `delay` and body line.
    reg: Reg,
    delay: u64,
    line: u64,
    pos: usize,
    /// The sibling's clock.
    t0: u64,
    /// The counted register's value.
    counter: u64,
}

impl QuietLoop {
    /// The run to the first instruction boundary at or after `bound`.
    #[inline(always)]
    fn span_to(&self, bound: u64) -> LoopSpan {
        LoopSpan::new(self.delay, self.pos, self.t0, bound)
    }

    /// The latest bound a closed-form run may reach when the other thread
    /// runs from `clock` up to that bound first: the run to any bound up to
    /// the horizon retires fewer `add`s than the counter holds, leaves a
    /// call's worth of steps (64) in the step budget, and, with the other
    /// thread's cycles since `clock`, ends strictly before the next
    /// background eviction, `room` cycles away.
    fn horizon(&self, clock: u64, room: u64) -> u64 {
        let (delay, t0) = (self.delay, self.t0);
        let turn = delay + LOOP_LEN as u64 - 1;
        // The counter-th `add` from here must start at or after the bound.
        let first = match self.pos {
            0 | 1 => LoopSpan::offset(delay, 1) - LoopSpan::offset(delay, self.pos),
            p => turn + LoopSpan::offset(delay, 1) - LoopSpan::offset(delay, p),
        };
        let counter = match self.counter {
            0 => t0,
            c => t0.saturating_add(first).saturating_add((c - 1).saturating_mul(turn)),
        };
        // A run to `b` lasts under `b - t0 + delay` cycles and retires at
        // most six instructions per turn begun; a call at most 64.
        let room = room.saturating_add(t0).saturating_add(clock).saturating_sub(delay) / 2;
        let turns = (step_budget().saturating_sub(64) / LOOP_LEN as u64).saturating_sub(2);
        let budget = t0.saturating_add(turns.saturating_mul(turn));
        counter.min(room).min(budget)
    }

    /// Whether `span` may retire in closed form: every `add` leaves the
    /// counter above 0 (so no `je` fires), it retires at most `budget`
    /// instructions, and with `idle` cycles the other thread passes in the
    /// meantime it ends strictly before the next background eviction,
    /// `room` cycles away.
    #[inline(always)]
    fn fits(&self, span: &LoopSpan, budget: u64, idle: u64, room: u64) -> bool {
        span.count(LOOP_ADD) < self.counter
            && span.instrs() <= budget
            && span.cycles.saturating_add(idle) < room
    }
}

/// A batch carry in progress ([`Machine::try_carry`]): the sibling's
/// quiet loop, its fetch footprint, the latest clock `tid` may reach
/// before the carry settles, and the worst-case cycles of one fetch.
#[derive(Copy, Clone, Debug)]
struct Carry {
    q: QuietLoop,
    own: Footprint,
    horizon: u64,
    fetch: u64,
}

/// Slots in the direct-mapped [`Machine::call_shape`] memo table.
pub(crate) const CALL_SHAPE_SLOTS: usize = 64;

/// The shape of a fusable callee: `nops` one-byte `nop`s, then the `ret`
/// at `ret_pc` (decoded index `ret_idx`), all on the entry line, whose
/// fetch touches `footprint`.
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct CallShape {
    nops: u64,
    ret_pc: u64,
    ret_idx: u32,
    footprint: Footprint,
}

/// Empty call-shape slot (`u64::MAX` is never a decodable call target).
pub(crate) const EMPTY_SHAPE: (u64, CallShape) =
    (u64::MAX, CallShape { nops: 0, ret_pc: 0, ret_idx: 0, footprint: Footprint::NONE });

impl Machine {
    #[inline(always)]
    pub(crate) fn t(&self, tid: ThreadId) -> &Thread {
        &self.threads[tid.index()]
    }

    #[inline(always)]
    pub(crate) fn t_mut(&mut self, tid: ThreadId) -> &mut Thread {
        &mut self.threads[tid.index()]
    }

    /// Set up an injected call: pushes the return sentinel and starts the
    /// thread at `target`. When the callee returns, the thread goes idle.
    pub(crate) fn begin_injected_call(&mut self, tid: ThreadId, target: u64) {
        let t = self.t_mut(tid);
        t.stack.push(RETURN_SENTINEL);
        t.pc = target;
        t.pc_idx = NO_IDX;
        t.state = ThreadState::Running;
    }

    // ---- execution ---------------------------------------------------------

    /// Execute one program instruction on a running thread.
    #[inline]
    pub(crate) fn step(&mut self, tid: ThreadId) -> Result<(), StepError> {
        if self.t(tid).state != ThreadState::Running {
            return Err(StepError::NotRunning { tid });
        }
        // Resolve speculation whose window has closed.
        if let Some(spec) = &self.t(tid).spec {
            if self.t(tid).clock >= spec.resolve_at || spec.budget == 0 {
                self.squash(tid);
                return Ok(());
            }
        }
        let pc = self.t(tid).pc;
        if pc == RETURN_SENTINEL {
            if self.t(tid).spec.is_some() {
                self.squash(tid);
            } else {
                self.t_mut(tid).state = ThreadState::Idle;
            }
            return Ok(());
        }
        // Locate the instruction. The decoded tiers chase pre-resolved
        // indices through the decoded side table (zero map lookups in steady
        // state); the reference tier repeats the per-step `BTreeMap` lookup
        // and is kept only as the equivalence tests' oracle.
        let (instr, len, line, fall, target_idx) = if self.tier != Tier::Reference {
            let idx = match self.t(tid).pc_idx {
                NO_IDX => self.decoded.index_of(pc),
                cached => cached,
            };
            if idx == NO_IDX {
                if self.t(tid).spec.is_some() {
                    self.squash(tid);
                    return Ok(());
                }
                return Err(StepError::NoInstruction { pc });
            }
            let d = self.decoded.get(idx);
            (d.instr, d.len, d.line, d.fall, d.target)
        } else {
            match self.code.instr_at(pc) {
                Some(i) => (*i, i.len(), Addr(pc).line().0, NO_IDX, NO_IDX),
                None => {
                    if self.t(tid).spec.is_some() {
                        self.squash(tid);
                        return Ok(());
                    }
                    return Err(StepError::NoInstruction { pc });
                }
            }
        };
        if self.t(tid).last_fetch_line != line {
            self.fetch(tid, line);
        }
        let next = self.exec(tid, &instr, false)?;
        let t = self.t_mut(tid);
        match next {
            Next::Seq => {
                t.pc = pc + len;
                t.pc_idx = fall;
            }
            Next::Jump(dest) => {
                t.pc = dest;
                // Static targets were resolved at decode time; dynamic
                // transfers (`ret`, `call *%reg`) resolve lazily next step.
                t.pc_idx = match instr {
                    Instr::Jmp { target } | Instr::Call { target } if dest == target => target_idx,
                    Instr::Jcc { target, .. } => {
                        if dest == target {
                            target_idx
                        } else {
                            fall
                        }
                    }
                    _ => NO_IDX,
                };
            }
            Next::Stop => {}
        }
        if let Some(spec) = &mut self.t_mut(tid).spec {
            spec.budget = spec.budget.saturating_sub(1);
        } else {
            self.t_mut(tid).counters.add(PerfEvent::InstRetired, 1);
        }
        Ok(())
    }

    /// Step the sibling's program while it is running and behind `tid`'s
    /// clock: the causal catch-up that precedes every injected
    /// instruction and ends every injected sequence. The clock comparison
    /// is re-evaluated every step because stepping the sibling can advance
    /// `tid`'s clock too (a machine clear stalls the other thread).
    ///
    /// # Errors
    ///
    /// Propagates [`StepError`] from the sibling's program, and
    /// [`StepError::StepLimit`] after [`STEP_BUDGET`] sibling steps.
    #[inline(always)]
    pub(crate) fn catch_up_sibling(&mut self, tid: ThreadId) -> Result<(), StepError> {
        if self.sibling_behind(tid) {
            return self.step_sibling_behind(tid, &mut 0, 0);
        }
        Ok(())
    }

    /// The fused tier's sibling-sync test: whether the sibling is running
    /// and behind `tid`'s clock, i.e. whether a catch-up has work. Two
    /// loads when the sibling is not running, so the lone-thread paths pay
    /// nothing for the hook; the stepping itself stays out of line.
    #[inline(always)]
    fn sibling_behind(&self, tid: ThreadId) -> bool {
        let sib = self.t(tid.sibling());
        sib.state == ThreadState::Running && sib.clock < self.t(tid).clock
    }

    /// Step the sibling while [`Machine::sibling_behind`] holds, charging
    /// each step to `steps`, the caller's budget counter. While the
    /// sibling sits in a counted delay loop, the loop tier retires the
    /// steps up to `tid`'s clock at once ([`Machine::retire_loop_turns`]);
    /// `wait` is the cycles `tid` will still pass idle after this
    /// catch-up (a busy-wait's remainder, else 0), which lets the tier
    /// carry the sibling to the end of the wait instead.
    #[inline(never)]
    fn step_sibling_behind(
        &mut self,
        tid: ThreadId,
        steps: &mut u64,
        wait: u64,
    ) -> Result<(), StepError> {
        let sib = tid.sibling();
        let loops = self.loop_tier_enabled();
        let budget = step_budget();
        // After the loop tier refuses, it is tried again only once the
        // sibling has fetched another line: what refuses it is nearly
        // always a loop line that is not quiet, which only a fetch can
        // change. Stepping in between is exact either way.
        let mut refused_at = None;
        while self.sibling_behind(tid) {
            if *steps >= budget {
                return Err(StepError::StepLimit);
            }
            let line = self.t(sib).last_fetch_line;
            if loops && refused_at != Some(line) {
                let retired = self.retire_loop_turns(tid, budget - *steps, wait);
                if retired > 0 {
                    *steps += retired;
                    continue;
                }
                refused_at = Some(line);
            }
            self.step(sib)?;
            *steps += 1;
        }
        Ok(())
    }

    /// Whether catch-ups may use the loop tier: the fused tier's global
    /// guards (the fused tier selected, no fetch logging to observe the
    /// elided steps).
    #[inline(always)]
    fn loop_tier_enabled(&self) -> bool {
        self.tier == Tier::Fused && self.fetch_log.is_none()
    }

    /// The loop tier's per-step test: when the sibling's next instruction
    /// belongs to a counted delay loop (one load from the decoded entry
    /// `step` would read anyway), try [`Machine::try_loop_turns`]. Returns
    /// the instructions retired in closed form, 0 when the sibling must
    /// step.
    #[inline(always)]
    fn retire_loop_turns(&mut self, tid: ThreadId, budget: u64, wait: u64) -> u64 {
        let idx = self.t(tid.sibling()).pc_idx;
        if idx == NO_IDX {
            return 0;
        }
        let d = self.decoded.get(idx);
        if d.counted == NO_IDX {
            return 0;
        }
        self.try_loop_turns(tid, d.counted, usize::from(d.loop_pos), budget, wait)
    }

    /// Move the sibling, sitting at position `pos` of counted loop `slot`,
    /// to the first instruction boundary at or after a clock bound in
    /// O(1) — exactly where stepping it would stop. The bound is the end
    /// of `tid`'s busy-wait when `wait > 0` and the closed form reaches
    /// it, `tid`'s clock otherwise. Returns the instructions retired, or
    /// 0 (no side effects) when a guard requires stepping.
    ///
    /// Exact under [`Machine::loop_is_quiet`]'s guards, with no background
    /// eviction firing before the threads reconverge. Idle `tid` cycles (a
    /// wait's `Delay` chunks) touch only `tid`'s clock and the noise
    /// schedule, so they commute with quiet turns as long as the eviction
    /// guard covers them too.
    #[inline(never)]
    fn try_loop_turns(
        &mut self,
        tid: ThreadId,
        slot: u32,
        pos: usize,
        budget: u64,
        wait: u64,
    ) -> u64 {
        let sib = tid.sibling();
        let q = self.loop_state(sib, slot, pos);
        if !self.loop_is_quiet(sib, &q) {
            return 0;
        }
        let room = self.noise.cycles_to_next_eviction();
        let attacker = self.t(tid).clock;
        let far = q.span_to(attacker + wait);
        let span = if wait > 0 && q.fits(&far, budget, wait, room) {
            far
        } else {
            let near = q.span_to(attacker);
            if !q.fits(&near, budget, 0, room) {
                return 0;
            }
            near
        };
        self.retire_span(sib, &q, &span)
    }

    /// The sibling's state at position `pos` of counted loop `slot`,
    /// guards not yet checked.
    #[inline(always)]
    fn loop_state(&self, sib: ThreadId, slot: u32, pos: usize) -> QuietLoop {
        let lp = self.decoded.counted_loop(slot);
        let t = self.t(sib);
        let (reg, delay, line) = (lp.reg, lp.delay, lp.line);
        QuietLoop { slot, reg, delay, line, pos, t0: t.clock, counter: t.regs[reg.index()] }
    }

    /// Whether the turns of the sibling's loop `q` change no shared
    /// structure: both loop lines are the hinted most recent lines of
    /// their sets in the L1i, L2 and LLC with the next-line prefetch
    /// target present, both iTLB accesses are quiet hits, the `je`'s
    /// predictor counter sits at 0 (predicted and actually not taken),
    /// nothing speculates and the counter is ready. Each turn then costs
    /// `c + 5` cycles and moves only the sibling's own registers, flags,
    /// fetch window and counters, all of which follow from the number of
    /// instructions retired ([`Machine::retire_span`]). A run must still
    /// pass [`QuietLoop::fits`].
    #[inline(always)]
    fn loop_is_quiet(&self, sib: ThreadId, q: &QuietLoop) -> bool {
        let t = self.t(sib);
        let tail_line = q.line + crate::LINE_SIZE;
        let je = self.decoded.counted_loop(q.slot).pc[LOOP_JE];
        !(t.spec.is_some()
            || t.ready[q.reg.index()] > q.t0 + 1
            || (q.pos == LOOP_JE && t.flags.eval(Cond::Eq))
            || !self.bpu.strongly_not_taken(je)
            || !self.itlb[sib.index()].hit_is_quiet(Addr(q.line))
            || !self.itlb[sib.index()].hit_is_quiet(Addr(tail_line))
            || !self.hier.front_end_fetch_is_quiet(q.line)
            || !self.hier.front_end_fetch_is_quiet(tail_line))
    }

    /// Retire `span` of the sibling's quiet loop `q` in closed form: the
    /// clock, the counter and its readiness, flags, `pc`, the fetch state
    /// and the counters follow from the count, and one `evictions_for`
    /// covers the cycles. Returns the instructions retired.
    #[inline(always)]
    fn retire_span(&mut self, sib: ThreadId, q: &QuietLoop, span: &LoopSpan) -> u64 {
        let t0 = q.t0;
        let fired = self.noise.evictions_for(span.cycles);
        debug_assert_eq!(fired, 0, "the eviction guard failed");
        let lp = self.decoded.counted_loop(q.slot);
        let (pc, pc_idx) = (lp.pc[span.pos], lp.idx[span.pos]);
        let line_of = |pos: usize| lp.line_of(pos);
        let (first_line, last) = (line_of(q.pos), line_of((span.pos + LOOP_LEN - 1) % LOOP_LEN));
        let n = span.instrs();
        let adds = span.count(LOOP_ADD);
        let cmps = span.count(LOOP_CMP);
        let r = q.reg.index();
        let t = &mut self.threads[sib.index()];
        t.clock = t0 + span.cycles;
        t.regs[r] = q.counter - adds;
        if adds > 0 {
            t.ready[r] = t0 + span.last_start(LOOP_ADD) + 1;
        }
        if cmps > 0 {
            // When the window ends right after an `add`, that add came
            // after the last `cmp`.
            let compared = t.regs[r] + u64::from(span.pos == LOOP_CMP);
            t.flags = Flags::compare(compared, 0);
            t.flags_ready = t0 + span.last_start(LOOP_CMP) + 1;
        }
        // The front-end fetches on entering the first instruction's line
        // (unless it is streaming it already) and at every later line
        // switch — each `delay` and each tail `jmp` — alternating between
        // the two lines.
        let tail_line = q.line + crate::LINE_SIZE;
        let fetches = u64::from(t.last_fetch_line != first_line)
            + span.count_after_first(0)
            + span.count_after_first(LOOP_TAIL);
        let next = (t.fetch_window_next + (fetches % FETCH_WINDOW as u64) as usize) % FETCH_WINDOW;
        let mut line = last;
        for back in 1..=fetches.min(FETCH_WINDOW as u64) as usize {
            t.fetch_window[(next + FETCH_WINDOW - back) % FETCH_WINDOW] = line;
            line = if line == q.line { tail_line } else { q.line };
        }
        t.fetch_window_next = next;
        t.last_fetch_line = last;
        t.pc = pc;
        t.pc_idx = pc_idx;
        t.counters.add(PerfEvent::InstRetired, n);
        t.counters.add(PerfEvent::BrInstRetired, span.count(LOOP_JE));
        t.counters.add(PerfEvent::SimLoopRetired, n);
        n
    }

    /// Start a batch carry at one of a fused batch's catch-up points:
    /// `Some` when the sibling sits in a quiet counted loop
    /// ([`Machine::loop_is_quiet`]), behind `tid` or not, `None` (no side
    /// effects) otherwise. The batch keeps a carry only while
    /// [`Machine::carries`] admits its next call or probe, which then runs
    /// with no catch-up; [`Machine::finish_carry`] moves the sibling in
    /// one closed form before the first call or probe not admitted, or at
    /// the batch's end.
    ///
    /// Exact for the reason a busy-wait carry is: quiet turns change
    /// nothing the batch reads, and fetches, `mfence`, `rdtsc` and `ret`
    /// whose footprint is disjoint from the loop's ([`Footprint`]) change
    /// nothing the turns read — with no data-side operation there is no
    /// machine clear, and the only random draws left are `rdtsc` jitter.
    /// Stepping the sibling at the skipped catch-up points would stop it
    /// at the first boundary at or after each point's clock, so at the end
    /// where the closed form stops it. The carry's horizon keeps that run
    /// within the loop counter, the step budget and, with `tid`'s cycles,
    /// below the next background eviction.
    fn try_carry(&mut self, tid: ThreadId) -> Option<Carry> {
        let sib = tid.sibling();
        let t = self.t(sib);
        if t.state != ThreadState::Running || t.pc_idx == NO_IDX || !self.loop_tier_enabled() {
            return None;
        }
        let d = self.decoded.get(t.pc_idx);
        if d.counted == NO_IDX {
            return None;
        }
        let q = self.loop_state(sib, d.counted, usize::from(d.loop_pos));
        let clock = self.t(tid).clock;
        let horizon = q.horizon(clock, self.noise.cycles_to_next_eviction());
        let fetch = u64::from(self.profile.tlb_walk) + self.hier.max_ifetch_extra();
        // When not even a bare call fits before the horizon (the loop
        // about to exit, an eviction due), the guards need not run.
        if clock + fetch + 2 > horizon || !self.loop_is_quiet(sib, &q) {
            return None;
        }
        let own = self.hier.fetch_footprint(q.line)
            | self.hier.fetch_footprint(q.line + crate::LINE_SIZE);
        Some(Carry { q, own, horizon, fetch })
    }

    /// Whether carry `c` covers the next call, to a `nop*; ret` routine
    /// of shape `shape` wrapped in `wrap` further cycles: its fetch
    /// footprint is disjoint from the loop's, and `tid`'s clock after it —
    /// bounded up front by a DRAM miss, an iTLB walk and an `mfence`
    /// waiting out `tid`'s pending loads — stays within the horizon.
    #[inline(always)]
    fn carries(&self, tid: ThreadId, c: &Carry, shape: &CallShape, wrap: u64) -> bool {
        let t = self.t(tid);
        let wait = t.pending_mem.saturating_sub(t.clock);
        t.clock + wait + wrap + c.fetch + shape.nops + 2 <= c.horizon
            && !shape.footprint.overlaps(c.own)
    }

    /// Settle carry `c`: move the sibling from where
    /// [`Machine::try_carry`] found it to the first boundary at or after
    /// `tid`'s clock — where the catch-up at this point would leave it.
    fn finish_carry(&mut self, tid: ThreadId, c: &Carry) {
        let clock = self.t(tid).clock;
        if clock > c.q.t0 {
            let span = c.q.span_to(clock);
            self.retire_span(tid.sibling(), &c.q, &span);
        }
        self.t_mut(tid).counters.add(PerfEvent::SimBatchCarried, 1);
    }

    /// Execute one injected instruction (attacker-style straight-line code;
    /// no fetch modeling for the injected code itself).
    ///
    /// # Errors
    ///
    /// Fails for branch instructions, unsupported probe classes and
    /// non-idle threads.
    pub(crate) fn exec_injected(
        &mut self,
        tid: ThreadId,
        instr: &Instr,
    ) -> Result<InjectedNext, StepError> {
        if self.t(tid).state == ThreadState::Running {
            return Err(StepError::NotRunning { tid });
        }
        // Injected attacker code executes from elsewhere: the front-end is
        // no longer streaming whatever program line was fetched last, so a
        // subsequent call re-checks the L1i like real re-entry would.
        self.t_mut(tid).last_fetch_line = u64::MAX;
        match instr {
            Instr::Jmp { .. } | Instr::Jcc { .. } => Err(StepError::ControlFlowInjected),
            Instr::Call { target } => Ok(InjectedNext::EnterCall { target: *target }),
            Instr::CallReg { target } => {
                let t = self.reg(tid, *target);
                Ok(InjectedNext::EnterCall { target: t })
            }
            _ => {
                self.t_mut(tid).counters.add(PerfEvent::InstRetired, 1);
                self.exec(tid, instr, true)?;
                Ok(InjectedNext::Done)
            }
        }
    }

    /// Whether `tid` may enter the fused tier: the fused tier selected,
    /// the thread idle and not speculating, and no fetch log observing
    /// intermediate state. A running sibling is no guard — the fused paths
    /// catch it up at the per-step points.
    fn fusable(&self, tid: ThreadId) -> bool {
        self.tier == Tier::Fused
            && self.t(tid).state != ThreadState::Running
            && self.t(tid).spec.is_none()
            && self.fetch_log.is_none()
    }

    /// Run `probe` once per target in one fused pass: the fused probe tier
    /// behind [`Machine::run_probes`]. Before each probe the probe's
    /// address register is set to its target (as the per-step fallback
    /// does), and after it the probe's timing lands in the target's
    /// `timings` slot. Returns `None` (with no side effects) when a guard
    /// requires per-step execution — the caller then injects
    /// `probe.instrs()` one instruction at a time per target — and
    /// otherwise what that per-step injection would have returned.
    ///
    /// Bit-identical to per-step injection by construction: each
    /// instruction runs the helper its `exec` arm runs (`exec_mfence`,
    /// `exec_rdtsc`, `exec_memory`) with the same retirement bookkeeping,
    /// and a running sibling is caught up at exactly the points
    /// [`Machine::run_sequence`] catches it up: before each instruction,
    /// before each step of the `Execute` probe's callee, and once after
    /// each sequence. Every fused step re-reads both clocks and the fetch
    /// state, which a sibling machine clear may have changed. What fusion
    /// saves is the per-instruction injection round trip and generic
    /// dispatch. An `Execute` batch may instead carry a looping sibling
    /// from its first probe on ([`Machine::try_carry`]): the carried
    /// probes run with no catch-up, and one closed form settles the
    /// sibling after the last of them — where the catch-up at that point
    /// would leave it.
    ///
    /// Guards (any one forces fallback): those of fusion itself (another
    /// tier selected, this thread running or speculating, fetch logging)
    /// and, for the `Execute` probe, a callee that is not a one-line
    /// `nop*; ret` routine.
    ///
    /// # Errors
    ///
    /// `Some(Err(_))` propagates the middle operation's error (e.g. an
    /// [`StepError::Unsupported`] probe class) or the sibling's (including
    /// [`StepError::StepLimit`]), with the same partial state per-step
    /// execution leaves behind, after the probes before the failing one
    /// have written their timings.
    pub(crate) fn try_fused_probes(
        &mut self,
        tid: ThreadId,
        probe: &CompiledProbe,
        targets: &[Addr],
        timings: &mut [u64],
    ) -> Option<Result<SeqOutcome, StepError>> {
        let execute = matches!(probe.op, Instr::CallReg { .. });
        if targets.is_empty()
            || !self.fusable(tid)
            || (execute && !targets.iter().all(|target| self.call_shape(target.0).is_some()))
        {
            return None;
        }
        let start = self.t(tid).clock;
        Some(
            self.fused_probes_body(tid, probe, targets, timings)
                .map(|()| self.outcome_since(tid, start)),
        )
    }

    fn fused_probes_body(
        &mut self,
        tid: ThreadId,
        probe: &CompiledProbe,
        targets: &[Addr],
        timings: &mut [u64],
    ) -> Result<(), StepError> {
        let wrap = 2 * u64::from(self.profile.mfence_cost + self.profile.rdtsc_cost);
        let mut carry = None;
        for (i, (&Addr(target), slot)) in targets.iter().zip(timings.iter_mut()).enumerate() {
            // Each probe's register write comes before its first catch-up,
            // which a sibling machine clear may delay.
            self.set_reg(tid, probe.addr, target);
            self.t_mut(tid).counters.add(PerfEvent::SimProbeFastPath, 1);
            let callee = match probe.op {
                // Shapes were checked up front and nothing in the batch
                // re-decodes code; this is a memo hit.
                Instr::CallReg { .. } => Some((target, self.call_shape(target).expect("shape"))),
                _ => None,
            };
            if let Some((_, shape)) = &callee {
                carry = match carry {
                    Some(c) if self.carries(tid, &c, shape, wrap) => Some(c),
                    Some(c) => {
                        self.finish_carry(tid, &c);
                        None
                    }
                    // Start a carry at the batch's first catch-up, when it
                    // covers the first probe.
                    None if i == 0 => {
                        self.try_carry(tid).filter(|c| self.carries(tid, c, shape, wrap))
                    }
                    None => None,
                };
            }
            match carry {
                Some(_) => self.fused_probe_body::<false>(tid, probe, callee)?,
                None => self.fused_probe_body::<true>(tid, probe, callee)?,
            }
            *slot = probe.timing(self, tid);
        }
        if let Some(c) = carry {
            self.finish_carry(tid, &c);
        }
        Ok(())
    }

    /// One fused probe. With `SYNC` the sibling is caught up before each
    /// instruction, before each step of the `Execute` probe's callee and
    /// after the sequence, exactly where per-step injection catches it up;
    /// without, a batch carry ([`Machine::try_carry`]) holds it and no
    /// catch-up runs.
    #[inline(always)]
    fn fused_probe_body<const SYNC: bool>(
        &mut self,
        tid: ThreadId,
        probe: &CompiledProbe,
        callee: Option<(u64, CallShape)>,
    ) -> Result<(), StepError> {
        self.sync::<SYNC>(tid)?;
        // Injected code executes from elsewhere; see `exec_injected`.
        self.t_mut(tid).last_fetch_line = u64::MAX;
        self.fused_exec(tid, &Instr::Mfence)?;
        self.sync::<SYNC>(tid)?;
        self.fused_exec(tid, &Instr::Rdtsc { dst: probe.t_start })?;
        self.sync::<SYNC>(tid)?;
        match callee {
            Some((target, shape)) => self.fused_call_body::<SYNC>(tid, target, shape)?,
            None => self.fused_exec(tid, &probe.op)?,
        }
        self.sync::<SYNC>(tid)?;
        // The closing `mfence` is injected again, away from any callee line.
        self.t_mut(tid).last_fetch_line = u64::MAX;
        self.fused_exec(tid, &Instr::Mfence)?;
        self.sync::<SYNC>(tid)?;
        self.fused_exec(tid, &Instr::Rdtsc { dst: probe.t_end })?;
        self.sync::<SYNC>(tid)
    }

    /// [`Machine::catch_up_sibling`] when `SYNC`, nothing otherwise.
    #[inline(always)]
    fn sync<const SYNC: bool>(&mut self, tid: ThreadId) -> Result<(), StepError> {
        if SYNC {
            self.catch_up_sibling(tid)
        } else {
            Ok(())
        }
    }

    /// The front-end fetch state of `tid`, for diagnostics and
    /// equivalence tests: the line the front-end is streaming (`u64::MAX`
    /// for none), then the in-flight fetch window, oldest first
    /// (`u64::MAX` for an empty slot). A store-class probe machine-clears
    /// on a line in either thread's window.
    pub fn fetch_state(&self, tid: ThreadId) -> (u64, [u64; FETCH_WINDOW]) {
        let t = self.t(tid);
        let window =
            std::array::from_fn(|i| t.fetch_window[(t.fetch_window_next + i) % FETCH_WINDOW]);
        (t.last_fetch_line, window)
    }

    pub(crate) fn outcome_since(&self, tid: ThreadId, start: u64) -> SeqOutcome {
        let end_clock = self.t(tid).clock;
        SeqOutcome { cycles: end_clock - start, end_clock }
    }

    /// Let `cycles` pass on an idle `tid` in one fused pass — the
    /// replacement for injecting `Delay` chunks of [`DELAY_CHUNK`] cycles,
    /// each preceded by a sibling catch-up, plus one catch-up after.
    /// [`Machine::advance`] calls it when fusion is on and `tid` is not
    /// running.
    ///
    /// Exact by construction: `Delay` draws no `rdtsc` jitter and touches
    /// no hierarchy state, so chunks with no sibling step between them
    /// retire as one batched update (`evictions_for` is exactly
    /// partition-invariant). A catch-up has work only once `tid`'s clock
    /// has passed the sibling's, so after each catch-up every chunk that
    /// starts at or before the sibling's clock joins one batch — all the
    /// remaining chunks when the sibling is not running.
    ///
    /// Each catch-up also tells the loop tier how many cycles of the wait
    /// are left, so a sibling busy in a counted delay loop is carried to
    /// the first boundary at or after the wait's end clock in one closed
    /// form — where the last per-chunk catch-up would leave it, since the
    /// chunks in between commute with its quiet turns — after which the
    /// rest of the wait is one batch.
    ///
    /// # Errors
    ///
    /// Propagates the sibling's [`StepError`] with the same partial state
    /// as the chunked loop.
    pub(crate) fn fused_advance(&mut self, tid: ThreadId, cycles: u64) -> Result<(), StepError> {
        let sib = tid.sibling();
        let mut left = cycles;
        loop {
            if self.sibling_behind(tid) {
                self.step_sibling_behind(tid, &mut 0, left)?;
            }
            if left == 0 {
                return Ok(());
            }
            let span = match self.t(sib).state {
                ThreadState::Running => {
                    let chunks = (self.t(sib).clock - self.t(tid).clock) / DELAY_CHUNK + 1;
                    left.min(chunks.saturating_mul(DELAY_CHUNK))
                }
                _ => left,
            };
            let t = self.t_mut(tid);
            t.last_fetch_line = u64::MAX;
            t.counters.add(PerfEvent::InstRetired, span.div_ceil(DELAY_CHUNK));
            self.fused_retire(tid, span);
            left -= span;
        }
    }

    /// Retire a batch of injected calls to attacker-owned one-line
    /// `nop*; ret` routines in one fused pass — the shape of every
    /// eviction-set way and oracle line, so `EvictionSet::prime`'s eight
    /// way-calls land here as a single entry ([`Machine::run_calls`]).
    /// Returns `None` (with *no* side effects) when a guard or any
    /// callee's shape requires per-step execution; the caller then
    /// injects the calls one at a time.
    ///
    /// Bit-identical to per-call injection by construction: a running
    /// sibling is caught up before each call and once after the batch
    /// (between two calls the per-call path's post-call and pre-call
    /// catch-ups coincide), and each callee steps as
    /// [`Machine::fused_call_body`] describes. From the first of those
    /// catch-ups with work on, a looping sibling may instead be carried
    /// ([`Machine::try_carry`]): the carried calls run with no catch-up
    /// and one closed form settles the sibling after the last of them. A
    /// prime's few calls rarely leave the sibling behind, so the carry is
    /// tried only where a catch-up would step it. The injected `call` itself
    /// retires nothing and charges nothing (`exec_injected` returns
    /// `EnterCall` before reaching `exec`), and the return sentinel
    /// push/pop nets out: the thread ends idle with `pc`/`pc_idx` parked
    /// at the last `ret` — the exact per-step end state.
    ///
    /// # Errors
    ///
    /// `Some(Err(_))` propagates the sibling's [`StepError`] (including
    /// [`StepError::StepLimit`]) with the per-step partial state.
    pub(crate) fn try_fused_calls(
        &mut self,
        tid: ThreadId,
        targets: &[Addr],
    ) -> Option<Result<SeqOutcome, StepError>> {
        if targets.is_empty()
            || !self.fusable(tid)
            || !targets.iter().all(|&Addr(target)| self.call_shape(target).is_some())
        {
            return None;
        }
        self.t_mut(tid).counters.add(PerfEvent::SimProbeFastPath, targets.len() as u64);
        let start = self.t(tid).clock;
        Some(self.fused_calls_body(tid, targets).map(|()| self.outcome_since(tid, start)))
    }

    fn fused_calls_body(&mut self, tid: ThreadId, targets: &[Addr]) -> Result<(), StepError> {
        let (mut carry, mut tried) = (None, false);
        for &Addr(target) in targets {
            // Shapes were checked up front and nothing in the batch
            // re-decodes code; this is a memo hit.
            let shape = self.call_shape(target).expect("callee shape checked");
            carry = match carry {
                Some(c) if self.carries(tid, &c, &shape, 0) => Some(c),
                Some(c) => {
                    self.finish_carry(tid, &c);
                    None
                }
                // Start a carry at the first catch-up with work, when it
                // covers this call.
                None if !tried && self.sibling_behind(tid) => {
                    tried = true;
                    self.try_carry(tid).filter(|c| self.carries(tid, c, &shape, 0))
                }
                None => None,
            };
            match carry {
                Some(_) => self.fused_call_body::<false>(tid, target, shape)?,
                None => {
                    self.catch_up_sibling(tid)?;
                    self.fused_call_body::<true>(tid, target, shape)?;
                }
            }
        }
        match carry {
            Some(c) => {
                self.finish_carry(tid, &c);
                Ok(())
            }
            None => self.catch_up_sibling(tid),
        }
    }

    /// One injected `call` of a `nop*; ret` routine, stepped in one pass
    /// the way `begin_injected_call` plus the per-step drive loop step it: the
    /// sibling is caught up before every callee step, the return-sentinel
    /// `ret` included, and its steps count against the same
    /// [`STEP_BUDGET`]; the callee line is fetched whenever the front-end
    /// is not streaming it — on entry (the injected call reset
    /// `last_fetch_line`) and again after a sibling machine clear. `nop`
    /// costs 1 and `ret` 2. With no catch-up to make — the sibling held
    /// by a batch carry (`SYNC` off) or not running — the callee retires
    /// in one update. On error the thread is left mid-call exactly as the
    /// per-step path leaves it: running at the next callee instruction,
    /// sentinel pushed.
    fn fused_call_body<const SYNC: bool>(
        &mut self,
        tid: ThreadId,
        target: u64,
        shape: CallShape,
    ) -> Result<(), StepError> {
        let line = Addr(target).line().0;
        self.t_mut(tid).last_fetch_line = u64::MAX;
        let budget = step_budget();
        if (!SYNC || self.t(tid.sibling()).state != ThreadState::Running) && shape.nops < budget {
            // Nothing runs between the callee's steps: it fetches its line
            // once, on entry, and its `nop`s and `ret` retire as one
            // update (`evictions_for` is partition-invariant, and no other
            // draw comes between theirs).
            self.fetch(tid, line);
            self.fused_retire(tid, shape.nops + 2);
        } else {
            let mut steps = 0u64;
            for k in 0..=shape.nops {
                if SYNC && self.sibling_behind(tid) {
                    if let Err(e) = self.step_sibling_behind(tid, &mut steps, 0) {
                        return Err(self.leave_mid_call(tid, target + k, k, e));
                    }
                }
                if steps >= budget {
                    return Err(self.leave_mid_call(tid, target + k, k, StepError::StepLimit));
                }
                steps += 1;
                if self.t(tid).last_fetch_line != line {
                    self.fetch(tid, line);
                }
                self.fused_retire(tid, if k < shape.nops { 1 } else { 2 });
            }
        }
        let t = self.t_mut(tid);
        t.counters.add(PerfEvent::InstRetired, shape.nops + 1);
        t.pc = shape.ret_pc;
        t.pc_idx = shape.ret_idx;
        Ok(())
    }

    /// The state a failed drive leaves an injected call in: running at
    /// `pc` after `retired` callee instructions, return sentinel pushed.
    /// `pc_idx` stays unresolved; the next step looks it up.
    #[cold]
    fn leave_mid_call(&mut self, tid: ThreadId, pc: u64, retired: u64, e: StepError) -> StepError {
        let t = self.t_mut(tid);
        t.counters.add(PerfEvent::InstRetired, retired);
        t.state = ThreadState::Running;
        t.stack.push(RETURN_SENTINEL);
        t.pc = pc;
        t.pc_idx = NO_IDX;
        e
    }

    /// Resolve (and memoize) the fused-call shape of the routine at
    /// `target`: `Some` when the callee is `nop*; ret` entirely on its
    /// entry line, `None` for anything else — other opcodes, a line
    /// crossing, a decode hole left by a corrupting probe. Negative results
    /// are not memoized (they fall back to per-step execution, where one
    /// redundant walk is noise).
    #[inline(always)]
    fn call_shape(&mut self, target: u64) -> Option<CallShape> {
        let slot = (target.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58) as usize;
        match self.call_shapes[slot] {
            (t, shape) if t == target && self.call_shapes_gen == self.decode_gen => Some(shape),
            _ => self.walk_call_shape(target, slot),
        }
    }

    /// [`Machine::call_shape`] on a memo miss: walk the callee and memoize
    /// a positive result in `slot`.
    #[inline(never)]
    fn walk_call_shape(&mut self, target: u64, slot: usize) -> Option<CallShape> {
        if self.call_shapes_gen != self.decode_gen {
            self.call_shapes = [EMPTY_SHAPE; CALL_SHAPE_SLOTS];
            self.call_shapes_gen = self.decode_gen;
        }
        let line = Addr(target).line().0;
        let mut idx = self.decoded.index_of(target);
        let footprint = self.hier.fetch_footprint(line);
        let mut shape = CallShape { nops: 0, ret_pc: target, ret_idx: NO_IDX, footprint };
        loop {
            if idx == NO_IDX {
                return None;
            }
            let d = self.decoded.get(idx);
            if d.line != line {
                return None;
            }
            match d.instr {
                Instr::Nop => {
                    shape.nops += 1;
                    shape.ret_pc += d.len;
                    idx = d.fall;
                }
                Instr::Ret => break,
                _ => return None,
            }
        }
        shape.ret_idx = idx;
        self.call_shapes[slot] = (target, shape);
        Some(shape)
    }

    /// Quantize a raw time-stamp to the profile's `rdtsc` resolution
    /// (AMD parts count in coarse quanta; Intel's resolution of one makes
    /// this the identity, and skips the division).
    #[inline(always)]
    fn tsc_reading(&self, raw: u64) -> u64 {
        match self.profile.tsc_resolution as u64 {
            1 => raw,
            res => (raw / res) * res,
        }
    }

    /// Retire one instruction of a fused probe the way `exec_injected`
    /// retires it: count it, apply its effects through the helper its
    /// `exec` arm runs (fusion guards guarantee `spec.is_none()`, so the
    /// non-speculative one), then charge its cycles. On error the partial
    /// state (retire counter, dTLB fills) matches per-step execution — the
    /// clock/noise epilogue is skipped exactly like `exec`'s early return.
    #[inline(always)]
    fn fused_exec(&mut self, tid: ThreadId, instr: &Instr) -> Result<(), StepError> {
        self.t_mut(tid).counters.add(PerfEvent::InstRetired, 1);
        let cost = match *instr {
            Instr::Mfence => self.exec_mfence(tid),
            Instr::Rdtsc { dst } => self.exec_rdtsc(tid, dst),
            _ => self.exec_memory(tid, instr)?,
        };
        self.fused_retire(tid, cost);
        Ok(())
    }

    /// Charge `cost` cycles and apply the per-instruction noise epilogue
    /// (`exec`'s last four lines). Callers invoke this once per
    /// instruction, in per-step order relative to `rdtsc` jitter draws,
    /// hierarchy accesses and sibling steps; only
    /// [`Machine::fused_advance`] batches several `Delay` chunks into
    /// one call, where nothing can observe the boundaries between them.
    #[inline(always)]
    fn fused_retire(&mut self, tid: ThreadId, cost: u64) {
        self.t_mut(tid).clock += cost;
        let evictions = self.noise.evictions_for(cost);
        if evictions > 0 {
            self.apply_evictions(evictions);
        }
    }

    /// Inject `n` spurious background L1i evictions (the noise epilogue's
    /// application half — one `random_set` draw per eviction).
    #[cold]
    fn apply_evictions(&mut self, n: u32) {
        for _ in 0..n {
            let set = self.noise.random_set(self.profile.hierarchy.l1i.sets);
            self.hier.evict_lru_l1i(set);
        }
    }

    /// Model the front-end fetch of the (pre-computed) line holding the
    /// current instruction. Callers have already checked `last_fetch_line`,
    /// so this only runs on an actual line switch. Every fetch path —
    /// per-step, fused calls, the `Execute` probe — goes through here:
    /// the hierarchy access, then the fetch-log append, iTLB access,
    /// hit-level counters, the stall counter, fetch-window tracking and
    /// the cycle charge.
    fn fetch(&mut self, tid: ThreadId, line: u64) {
        let info = self.hier.front_end_fetch(line);
        if let Some(log) = &mut self.fetch_log {
            log.push(line);
        }
        let mut cost: u64 = 0;
        if !self.itlb[tid.index()].access(Addr(line)) {
            cost += self.profile.tlb_walk as u64;
            self.t_mut(tid).counters.add(PerfEvent::ItlbMisses, 1);
        }
        match info.level {
            Level::L1i => {}
            Level::L1d | Level::L2 => {
                self.t_mut(tid).counters.add(PerfEvent::L1iMisses, 1);
            }
            Level::Llc => {
                let c = &mut self.t_mut(tid).counters;
                c.add(PerfEvent::L1iMisses, 1);
                c.add(PerfEvent::L2Misses, 1);
                c.add(PerfEvent::LlcReferences, 1);
            }
            Level::Dram => {
                let c = &mut self.t_mut(tid).counters;
                c.add(PerfEvent::L1iMisses, 1);
                c.add(PerfEvent::L2Misses, 1);
                c.add(PerfEvent::LlcReferences, 1);
                c.add(PerfEvent::LlcMisses, 1);
            }
        }
        // For instruction fetches the hierarchy reports `ifetch_extra` as
        // the access latency.
        let extra = u64::from(info.latency);
        cost += extra;
        let t = self.t_mut(tid);
        if extra > 0 {
            t.counters.add(PerfEvent::CycleActivityStallsTotal, extra);
        }
        t.last_fetch_line = line;
        t.fetch_window[t.fetch_window_next] = line;
        t.fetch_window_next = (t.fetch_window_next + 1) % FETCH_WINDOW;
        t.clock += cost;
    }

    fn mem_addr(&self, tid: ThreadId, m: MemRef) -> Addr {
        Addr(self.reg(tid, m.base).wrapping_add(m.disp as u64))
    }

    fn dtlb_cost(&mut self, tid: ThreadId, addr: Addr) -> u64 {
        if self.dtlb[tid.index()].access(addr) {
            0
        } else {
            self.t_mut(tid).counters.add(PerfEvent::DtlbMisses, 1);
            self.profile.tlb_walk as u64
        }
    }

    fn count_data_level(&mut self, tid: ThreadId, level: Level) {
        match level {
            Level::L1i | Level::L1d | Level::L2 => {}
            Level::Llc => {
                let c = &mut self.t_mut(tid).counters;
                c.add(PerfEvent::L2Misses, 1);
                c.add(PerfEvent::LlcReferences, 1);
            }
            Level::Dram => {
                let c = &mut self.t_mut(tid).counters;
                c.add(PerfEvent::L2Misses, 1);
                c.add(PerfEvent::LlcReferences, 1);
                c.add(PerfEvent::LlcMisses, 1);
            }
        }
    }

    /// Does a write/flush/prefetch-class access to `line` conflict with the
    /// front-end? True when the line is in L1i (`in_l1i`, the caller's
    /// residency bit) or in either thread's in-flight fetch window.
    fn smc_conflict(&self, line: Addr, in_l1i: bool) -> bool {
        in_l1i || self.threads.iter().any(|t| t.fetch_window.contains(&line.0))
    }

    /// Probe-class bookkeeping shared by stores, flushes, prefetches and
    /// clwb. Returns `(smc_fired, cost_cycles)`. `res` is the caller's
    /// residency snapshot of `line` — every probe arm reads it for the
    /// cost model anyway, so the SMC check reuses its L1i bit instead of
    /// re-scanning the set.
    fn probe_effects(
        &mut self,
        tid: ThreadId,
        kind: ProbeKind,
        line: Addr,
        res: Residency,
    ) -> Result<(bool, u64), StepError> {
        let behavior = self.profile.smc.get(kind);
        if behavior == SmcBehavior::Unsupported {
            return Err(StepError::Unsupported { kind });
        }
        let costs = self.profile.probe_costs.get(kind);
        let fires = behavior == SmcBehavior::Triggers && self.smc_conflict(line, res.l1i);
        let cost = if fires {
            (costs.base + costs.smc_extra) as u64
        } else {
            (costs.base + costs.level_extra(res.data_level())) as u64
        };
        if fires {
            self.machine_clear(tid, kind, line);
        }
        Ok((fires, cost))
    }

    /// Apply the architectural and counter effects of an SMC machine clear.
    fn machine_clear(&mut self, tid: ThreadId, kind: ProbeKind, line: Addr) {
        let clear = self.profile.clear;
        let smc_inc = self.profile.smc_count_increment(kind);
        let vendor = self.profile.vendor;
        {
            let c = &mut self.t_mut(tid).counters;
            c.add(PerfEvent::SimSmcClears, 1);
            c.add(PerfEvent::CycleActivityStallsTotal, clear.stalls_total[kind.index()] as u64);
            match vendor {
                Vendor::Intel => {
                    c.add(PerfEvent::MachineClearsCount, 1);
                    c.add(PerfEvent::MachineClearsSmc, smc_inc);
                    c.add(PerfEvent::FrontendIdq4Bubbles, clear.frontend_bubbles as u64);
                    c.add(PerfEvent::IntMiscClearResteerCycles, clear.resteer as u64);
                    c.add(
                        PerfEvent::PartialRatStallsScoreboard,
                        clear.scoreboard[kind.index()] as u64,
                    );
                }
                Vendor::Amd => {
                    c.add(PerfEvent::AmdPipeStallBackPressure, clear.amd_back_pressure as u64);
                    if kind.writes_target() {
                        c.add(PerfEvent::AmdIcLinesInvalidated, 1);
                        c.add(PerfEvent::AmdL2FillBusy, clear.amd_l2_fill_busy as u64);
                    }
                }
            }
        }
        // The modified line leaves the instruction cache.
        self.hier.invalidate_l1i(line);
        // Pipeline flush: both threads refetch, and the sibling stalls.
        for t in &mut self.threads {
            t.fetch_window = [u64::MAX; FETCH_WINDOW];
            t.fetch_window_next = 0;
            t.last_fetch_line = u64::MAX;
        }
        let sib = tid.sibling();
        if self.t(sib).spec.is_some() {
            self.squash_silent(sib);
        }
        self.t_mut(sib).clock += clear.sibling_stall as u64;
        self.t_mut(sib)
            .counters
            .add(PerfEvent::CycleActivityStallsTotal, clear.sibling_stall as u64);
    }

    /// Roll back mispredicted speculation, with the misprediction penalty.
    fn squash(&mut self, tid: ThreadId) {
        let clock = self.t(tid).clock;
        let penalty = self.profile.spec.mispredict_penalty as u64;
        let t = self.t_mut(tid);
        let spec = t.spec.take().expect("squash requires active speculation");
        t.regs = spec.ckpt_regs;
        t.ready = spec.ckpt_ready;
        t.flags = spec.ckpt_flags;
        t.flags_ready = spec.ckpt_flags_ready;
        t.stack.truncate(spec.ckpt_stack_len);
        t.pc = spec.correct_pc;
        t.pc_idx = NO_IDX;
        t.clock = clock.max(spec.resolve_at) + penalty;
        t.last_fetch_line = u64::MAX;
        t.fetch_window = [u64::MAX; FETCH_WINDOW];
        t.fetch_window_next = 0;
    }

    /// Roll back speculation without charging the misprediction penalty
    /// (used when a sibling machine clear flushes the pipeline).
    fn squash_silent(&mut self, tid: ThreadId) {
        let t = self.t_mut(tid);
        if let Some(spec) = t.spec.take() {
            t.regs = spec.ckpt_regs;
            t.ready = spec.ckpt_ready;
            t.flags = spec.ckpt_flags;
            t.flags_ready = spec.ckpt_flags_ready;
            t.stack.truncate(spec.ckpt_stack_len);
            t.pc = spec.correct_pc;
            t.pc_idx = NO_IDX;
            t.fetch_window = [u64::MAX; FETCH_WINDOW];
            t.fetch_window_next = 0;
            t.last_fetch_line = u64::MAX;
        }
    }

    fn read_mem_value(&self, addr: Addr, size: MemSize) -> u64 {
        match size {
            MemSize::Byte => self.mem.read_u8(addr) as u64,
            MemSize::Quad => self.mem.read_u64(addr),
        }
    }

    fn write_mem_value(&mut self, addr: Addr, val: u64, size: MemSize) {
        match size {
            MemSize::Byte => self.mem.write_u8(addr, val as u8),
            MemSize::Quad => self.mem.write_u64(addr, val),
        }
    }

    /// Execute one instruction's semantics and timing on thread `tid`.
    #[allow(clippy::too_many_lines)]
    // Force-inlined: `exec` has exactly two callers — the hot `step` loop
    // and the cold injected-sequence path. Left to its own devices the
    // optimizer sees the second caller and outlines this (large) match,
    // costing ~30% steady-state throughput; always-inlining restores the
    // single-caller codegen regardless of what else links in.
    #[inline(always)]
    fn exec(&mut self, tid: ThreadId, instr: &Instr, injected: bool) -> Result<Next, StepError> {
        let mut cost: u64 = 1;
        let mut next = Next::Seq;
        let clock0 = self.t(tid).clock;
        let in_spec = self.t(tid).spec.is_some();
        match instr {
            Instr::Nop => {}
            Instr::Halt => {
                if in_spec {
                    // Wrong-path halt: close the window; the squash happens
                    // on the next step.
                    if let Some(s) = &mut self.t_mut(tid).spec {
                        s.budget = 0;
                    }
                } else {
                    self.t_mut(tid).state = ThreadState::Halted;
                    next = Next::Stop;
                }
            }
            Instr::MovImm { dst, imm } => {
                let t = self.t_mut(tid);
                t.regs[dst.index()] = *imm;
                t.ready[dst.index()] = clock0 + 1;
            }
            Instr::Mov { dst, src } => {
                let t = self.t_mut(tid);
                t.regs[dst.index()] = t.regs[src.index()];
                t.ready[dst.index()] = (clock0 + 1).max(t.ready[src.index()]);
            }
            Instr::Store { .. } | Instr::StoreImm { .. } | Instr::LockInc { .. } if in_spec => {
                // Stores do not issue to the memory system speculatively.
                let (mem, val, size) = match *instr {
                    Instr::Store { src, mem, size } => (mem, self.reg(tid, src), size),
                    Instr::StoreImm { mem, imm } => (mem, imm as u64, MemSize::Byte),
                    Instr::LockInc { mem } => {
                        let old = self.mem.read_u8(self.mem_addr(tid, mem));
                        (mem, (old as u64).wrapping_add(1), MemSize::Byte)
                    }
                    _ => unreachable!(),
                };
                let addr = self.mem_addr(tid, mem);
                if let Some(s) = &mut self.t_mut(tid).spec {
                    s.buffered_stores.push((addr, val, size));
                }
            }
            // Flushes, write-backs and prefetches are not executed
            // speculatively.
            Instr::Clflush { .. }
            | Instr::Clflushopt { .. }
            | Instr::Clwb { .. }
            | Instr::PrefetchT0 { .. }
            | Instr::PrefetchNta { .. }
                if in_spec => {}
            Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::StoreImm { .. }
            | Instr::LockInc { .. }
            | Instr::Clflush { .. }
            | Instr::Clflushopt { .. }
            | Instr::Clwb { .. }
            | Instr::PrefetchT0 { .. }
            | Instr::PrefetchNta { .. } => cost = self.exec_memory(tid, instr)?,
            Instr::Add { dst, src } => {
                let t = self.t_mut(tid);
                let v = t.regs[dst.index()].wrapping_add(t.regs[src.index()]);
                t.regs[dst.index()] = v;
                t.ready[dst.index()] =
                    (clock0 + 1).max(t.ready[dst.index()]).max(t.ready[src.index()]);
            }
            Instr::AddImm { dst, imm } => {
                let t = self.t_mut(tid);
                let v = t.regs[dst.index()].wrapping_add(*imm as u64);
                t.regs[dst.index()] = v;
                t.ready[dst.index()] = (clock0 + 1).max(t.ready[dst.index()]);
            }
            Instr::Sub { dst, src } => {
                let t = self.t_mut(tid);
                let v = t.regs[dst.index()].wrapping_sub(t.regs[src.index()]);
                t.regs[dst.index()] = v;
                t.ready[dst.index()] =
                    (clock0 + 1).max(t.ready[dst.index()]).max(t.ready[src.index()]);
            }
            Instr::Mul { dst, src } => {
                cost += 2;
                let t = self.t_mut(tid);
                let v = t.regs[dst.index()].wrapping_mul(t.regs[src.index()]);
                t.regs[dst.index()] = v;
                t.ready[dst.index()] =
                    (clock0 + 3).max(t.ready[dst.index()]).max(t.ready[src.index()]);
            }
            Instr::And { dst, src } | Instr::Or { dst, src } | Instr::Xor { dst, src } => {
                let t = self.t_mut(tid);
                let a = t.regs[dst.index()];
                let b = t.regs[src.index()];
                let v = match instr {
                    Instr::And { .. } => a & b,
                    Instr::Or { .. } => a | b,
                    _ => a ^ b,
                };
                t.regs[dst.index()] = v;
                t.ready[dst.index()] =
                    (clock0 + 1).max(t.ready[dst.index()]).max(t.ready[src.index()]);
            }
            Instr::ShlImm { dst, amount } => {
                let t = self.t_mut(tid);
                t.regs[dst.index()] = t.regs[dst.index()].wrapping_shl(*amount as u32);
                t.ready[dst.index()] = (clock0 + 1).max(t.ready[dst.index()]);
            }
            Instr::ShrImm { dst, amount } => {
                let t = self.t_mut(tid);
                t.regs[dst.index()] = t.regs[dst.index()].wrapping_shr(*amount as u32);
                t.ready[dst.index()] = (clock0 + 1).max(t.ready[dst.index()]);
            }
            Instr::Cmp { a, b } => {
                let t = self.t_mut(tid);
                let fa = t.regs[a.index()];
                let fb = t.regs[b.index()];
                t.flags = Flags::compare(fa, fb);
                t.flags_ready = (clock0 + 1).max(t.ready[a.index()]).max(t.ready[b.index()]);
            }
            Instr::CmpImm { a, imm } => {
                let t = self.t_mut(tid);
                let fa = t.regs[a.index()];
                t.flags = Flags::compare(fa, *imm);
                t.flags_ready = (clock0 + 1).max(t.ready[a.index()]);
            }
            Instr::Jmp { target } => {
                if injected {
                    return Err(StepError::ControlFlowInjected);
                }
                next = Next::Jump(*target);
            }
            Instr::Jcc { cond, target } => {
                if injected {
                    return Err(StepError::ControlFlowInjected);
                }
                next = self.exec_jcc(tid, *cond, *target)?;
            }
            Instr::Call { target } => {
                cost += 1;
                let ret = self.t(tid).pc + instr.len();
                self.t_mut(tid).stack.push(ret);
                next = Next::Jump(*target);
            }
            Instr::CallReg { target } => {
                cost += 1;
                let dest = self.reg(tid, *target);
                let wait = self.t(tid).ready[target.index()].saturating_sub(clock0);
                cost += wait;
                let ret = self.t(tid).pc + instr.len();
                self.t_mut(tid).stack.push(ret);
                next = Next::Jump(dest);
            }
            Instr::Ret => {
                cost += 1;
                match self.t_mut(tid).stack.pop() {
                    Some(RETURN_SENTINEL) => {
                        if in_spec {
                            if let Some(s) = &mut self.t_mut(tid).spec {
                                s.budget = 0;
                            }
                        } else {
                            self.t_mut(tid).state = ThreadState::Idle;
                            next = Next::Stop;
                        }
                    }
                    Some(ret) => next = Next::Jump(ret),
                    None => {
                        if in_spec {
                            if let Some(s) = &mut self.t_mut(tid).spec {
                                s.budget = 0;
                            }
                        } else {
                            // Returning with an empty stack ends the program.
                            self.t_mut(tid).state = ThreadState::Halted;
                            next = Next::Stop;
                        }
                    }
                }
            }
            Instr::Rdtsc { dst } => cost = self.exec_rdtsc(tid, *dst),
            Instr::Mfence => cost = self.exec_mfence(tid),
            Instr::Lfence => {
                let t = self.t_mut(tid);
                let wait = t.pending_mem.saturating_sub(t.clock);
                cost = wait + 2;
            }
            Instr::Delay { cycles } => {
                cost = *cycles as u64;
            }
        }
        self.t_mut(tid).clock += cost;
        let delta = self.t(tid).clock - clock0;
        let evictions = self.noise.evictions_for(delta);
        if evictions > 0 {
            self.apply_evictions(evictions);
        }
        Ok(next)
    }

    /// The non-speculative effects of a memory or probe-class instruction
    /// — `Load` (which also runs on a wrong path), `Store`/`StoreImm`,
    /// `LockInc`, `Clflush`/`Clflushopt`, `Clwb`, `PrefetchT0`/`PrefetchNta`
    /// — shared by `exec` and the fused probe tier. Returns the
    /// instruction's cycles, its issue cycle included. On error (an
    /// unsupported probe class) the dTLB fill stays, and `exec` skips its
    /// clock/noise epilogue.
    #[inline(always)]
    fn exec_memory(&mut self, tid: ThreadId, instr: &Instr) -> Result<u64, StepError> {
        let clock0 = self.t(tid).clock;
        let mut cost: u64 = 1;
        let (kind, mem) = match *instr {
            Instr::Load { dst, mem, size } => {
                let addr = self.mem_addr(tid, mem);
                cost += self.dtlb_cost(tid, addr);
                let info = self.hier.read(addr.line());
                self.count_data_level(tid, info.level);
                let val = self.read_mem_value(addr, size);
                let t = self.t_mut(tid);
                t.regs[dst.index()] = val;
                let done = (clock0 + cost).max(t.ready[mem.base.index()]) + info.latency as u64;
                t.ready[dst.index()] = done;
                t.pending_mem = t.pending_mem.max(done);
                return Ok(cost);
            }
            Instr::Store { mem, .. } | Instr::StoreImm { mem, .. } => (ProbeKind::Store, mem),
            Instr::LockInc { mem } => {
                // Atomic RMW: serializes outstanding memory operations.
                let t = self.t(tid);
                cost += t.pending_mem.saturating_sub(t.clock);
                (ProbeKind::Lock, mem)
            }
            Instr::Clflush { mem } => (ProbeKind::Flush, mem),
            Instr::Clflushopt { mem } => (ProbeKind::FlushOpt, mem),
            Instr::Clwb { mem } => (ProbeKind::Clwb, mem),
            Instr::PrefetchT0 { mem } => (ProbeKind::Prefetch, mem),
            Instr::PrefetchNta { mem } => (ProbeKind::PrefetchNta, mem),
            _ => unreachable!("not a memory instruction: {instr:?}"),
        };
        let addr = self.mem_addr(tid, mem);
        let line = addr.line();
        cost += self.dtlb_cost(tid, addr);
        let res = self.hier.residency(line);
        let (fired, c) = self.probe_effects(tid, kind, line, res)?;
        match *instr {
            Instr::Clflush { .. } | Instr::Clflushopt { .. } => {
                self.hier.flush(line);
            }
            Instr::Clwb { .. } => {
                self.hier.writeback(line);
            }
            Instr::PrefetchT0 { .. } | Instr::PrefetchNta { .. } => {
                if !fired {
                    self.hier.prefetch(line);
                }
            }
            // Stores and `lock inc` write the line.
            _ => {
                self.count_data_level(tid, res.data_level());
                self.hier.write_resident(line, res);
                match *instr {
                    Instr::Store { src, size, .. } => {
                        let val = self.reg(tid, src);
                        self.write_mem_value(addr, val, size);
                    }
                    Instr::StoreImm { imm, .. } => self.mem.write_u8(addr, imm),
                    _ => self.mem.write_u8(addr, self.mem.read_u8(addr).wrapping_add(1)),
                }
            }
        }
        Ok(cost + c)
    }

    /// `mfence`: waits out `tid`'s pending loads. Returns its cycles.
    #[inline(always)]
    fn exec_mfence(&mut self, tid: ThreadId) -> u64 {
        let t = self.t_mut(tid);
        let wait = t.pending_mem.saturating_sub(t.clock);
        if wait > 0 {
            t.counters.add(PerfEvent::CycleActivityStallsTotal, wait);
        }
        wait + self.profile.mfence_cost as u64
    }

    /// `rdtsc` into `dst`: the jitter draw comes before the instruction's
    /// eviction draw. Returns its cycles.
    #[inline(always)]
    fn exec_rdtsc(&mut self, tid: ThreadId, dst: Reg) -> u64 {
        let cost = self.profile.rdtsc_cost as u64;
        let clock0 = self.t(tid).clock;
        let jitter = self.noise.jitter();
        let val = self.tsc_reading((clock0 + cost).saturating_add_signed(jitter));
        let t = self.t_mut(tid);
        t.regs[dst.index()] = val;
        t.ready[dst.index()] = clock0 + cost;
        cost
    }

    #[inline]
    fn exec_jcc(&mut self, tid: ThreadId, cond: Cond, target: u64) -> Result<Next, StepError> {
        let pc = self.t(tid).pc;
        let fallthrough = pc + Instr::Jcc { cond, target }.len();
        let t = self.t(tid);
        let actual = t.flags.eval(cond);
        let resolved = t.flags_ready <= t.clock;
        let in_spec = t.spec.is_some();
        self.t_mut(tid).counters.add(PerfEvent::BrInstRetired, 1);
        let correct = if actual { target } else { fallthrough };
        if in_spec {
            // No nested speculation: wrong-path branches resolve eagerly.
            return Ok(Next::Jump(correct));
        }
        let predicted = self.bpu.predict(pc);
        self.bpu.update(pc, actual);
        if resolved {
            if predicted != actual {
                self.t_mut(tid).counters.add(PerfEvent::BrMispRetired, 1);
                let penalty = self.profile.spec.mispredict_penalty as u64;
                self.t_mut(tid).clock += penalty;
            }
            return Ok(Next::Jump(correct));
        }
        if predicted == actual {
            // Correct speculation: proceeds without a bubble.
            return Ok(Next::Jump(correct));
        }
        // Wrong-path speculation begins.
        self.t_mut(tid).counters.add(PerfEvent::BrMispRetired, 1);
        let wrong = if predicted { target } else { fallthrough };
        let window = self.profile.spec.window_instrs;
        let t = self.t_mut(tid);
        t.spec = Some(Box::new(SpecState {
            ckpt_regs: t.regs,
            ckpt_ready: t.ready,
            ckpt_flags: t.flags,
            ckpt_flags_ready: t.flags_ready,
            ckpt_stack_len: t.stack.len(),
            correct_pc: correct,
            resolve_at: t.flags_ready,
            budget: window,
            buffered_stores: Vec::new(),
        }));
        Ok(Next::Jump(wrong))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{Assembler, Program};
    use crate::isa::MemRef;
    use crate::machine::Placement;
    use crate::noise::NoiseConfig;
    use crate::profile::MicroArch;

    const T0: ThreadId = ThreadId::T0;
    const T1: ThreadId = ThreadId::T1;
    const DRIVER: u64 = 0x40_0000;
    const ROUTINE: u64 = 0x48_0000;
    const ORACLE: u64 = 0x30_0000;
    const DELAY: u32 = 64;
    const TURN: u64 = DELAY as u64 + 5;

    /// A victim busy in an `emit_routine`-shaped routine: the driver calls
    /// it `calls` times, each call running `iters` turns of `delay`.
    fn busy_victim(calls: u64, iters: u64) -> Program {
        let mut a = Assembler::new(DRIVER);
        a.mov_imm(Reg::R4, calls)
            .label("again")
            .call("routine")
            .add_imm(Reg::R4, -1)
            .cmp_imm(Reg::R4, 0)
            .jne("again")
            .halt();
        a.org(ROUTINE)
            .label("routine")
            .mov_imm(Reg::R11, iters)
            .label("body")
            .delay(DELAY)
            .add_imm(Reg::R11, -1)
            .cmp_imm(Reg::R11, 0)
            .je("done")
            .jmp("tail");
        a.org(ROUTINE + crate::LINE_SIZE).label("tail").jmp("body").label("done").ret();
        a.assemble().unwrap()
    }

    /// A machine with the busy victim started on T1 and a `nop; ret`
    /// oracle for T0; `loop_tier` toggles the fused tiers, whose off
    /// setting is the per-step oracle.
    fn corun(loop_tier: bool, noise: Option<(NoiseConfig, u64)>, victim: &Program) -> Machine {
        let profile = MicroArch::CascadeLake.profile();
        let mut m = match noise {
            Some((cfg, seed)) => Machine::with_noise(profile, cfg, seed),
            None => Machine::new(profile),
        };
        m.set_tier(if loop_tier { Tier::Fused } else { Tier::Decoded });
        m.load_program(victim);
        let mut o = Assembler::new(ORACLE);
        o.nop().ret();
        m.load_program(&o.assemble().unwrap());
        m.warm_tlb(T0, Addr(ORACLE));
        m.start_program(T1, DRIVER, &[]);
        m
    }

    /// Everything a closed-form catch-up must leave exactly as stepping
    /// does: both threads' architectural, timing and fetch state and
    /// hardware counters, the noise schedule, the predictor, the TLBs and
    /// — with `full` — every cache.
    fn observable(m: &Machine, full: bool) -> String {
        let threads: Vec<String> = m
            .threads
            .iter()
            .map(|t| {
                let hw: Vec<u64> = PerfEvent::ALL
                    .iter()
                    .filter(|e| !e.is_sim())
                    .map(|&e| t.counters.read(e))
                    .collect();
                format!(
                    "{:?} {:?} {:?} {:?} {} {:#x} {} {:?} {} {:?} {} {:#x} {} {} {:?}",
                    t.state,
                    t.regs,
                    t.ready,
                    t.flags,
                    t.flags_ready,
                    t.pc,
                    t.pc_idx,
                    t.stack,
                    t.clock,
                    t.fetch_window,
                    t.fetch_window_next,
                    t.last_fetch_line,
                    t.pending_mem,
                    t.spec.is_some(),
                    hw
                )
            })
            .collect();
        let caches = if full { format!("{:?}", m.hier) } else { format!("{:?}", m.hier.l1i()) };
        format!("{threads:?}\n{:?}\n{:?}\n{:?}\n{caches}", m.noise, m.itlb, m.bpu)
    }

    /// One attacker action, applied identically to both machines.
    #[derive(Copy, Clone, Debug)]
    enum Act {
        /// Move T0's clock on by `n` cycles and catch T1 up to it.
        Catch(u64),
        /// Busy-wait `n` cycles ([`Machine::advance`]).
        Wait(u64),
        /// Store to `addr` (a machine clear when its line is in the L1i).
        Store(u64),
        /// Call the oracle line.
        Call,
    }

    fn apply(m: &mut Machine, act: Act) -> Result<(), StepError> {
        match act {
            Act::Catch(n) => {
                m.t_mut(T0).clock += n;
                m.catch_up_sibling(T0)
            }
            Act::Wait(n) => m.advance(T0, n),
            Act::Store(addr) => {
                m.set_reg(T0, Reg::R1, addr);
                let store = Instr::StoreImm { mem: MemRef::base(Reg::R1), imm: 0x90 };
                m.run_sequence(T0, &[store]).map(|_| ())
            }
            Act::Call => m.run_calls(T0, &[Addr(ORACLE)]).map(|_| ()),
        }
    }

    /// Run `acts` on the loop tier and on the per-step oracle, comparing
    /// after every action; returns the loop-tier machine.
    fn check(victim: &Program, noise: Option<(NoiseConfig, u64)>, acts: &[Act]) -> Machine {
        let mut fast = corun(true, noise, victim);
        let mut slow = corun(false, noise, victim);
        for (i, &act) in acts.iter().enumerate() {
            let (a, b) = (apply(&mut fast, act), apply(&mut slow, act));
            assert_eq!(a, b, "action {i} {act:?}");
            assert_eq!(observable(&fast, false), observable(&slow, false), "action {i} {act:?}");
        }
        assert_eq!(observable(&fast, true), observable(&slow, true), "after all actions");
        assert_eq!(slow.counters(T1).read(PerfEvent::SimLoopRetired), 0, "the oracle steps");
        fast
    }

    fn loop_retired(m: &Machine) -> u64 {
        m.counters(T1).read(PerfEvent::SimLoopRetired)
    }

    /// The victim's loop position, or `None` outside the loop.
    fn loop_pos(m: &Machine) -> Option<usize> {
        let idx = m.decoded.index_of(m.t(T1).pc);
        let d = m.decoded.get(idx);
        (d.counted != NO_IDX).then_some(usize::from(d.loop_pos))
    }

    /// Catch-ups from each of the six positions to each of the six, over
    /// zero to two extra whole turns, land exactly where stepping lands.
    #[test]
    fn closed_form_stops_where_stepping_stops() {
        let victim = busy_victim(1, 1_000_000);
        let mut fast = corun(true, None, &victim);
        let mut slow = corun(false, None, &victim);
        // Enter the loop, fill its lines and train its `je`.
        for m in [&mut fast, &mut slow] {
            apply(m, Act::Catch(30 * TURN)).unwrap();
        }
        let offset = |pos: usize| LoopSpan::offset(DELAY.into(), pos);
        let mut seen = [[false; LOOP_LEN]; LOOP_LEN];
        let legs = (0..LOOP_LEN * LOOP_LEN * 3).flat_map(|i| {
            let (from, to, turns) = (i / 18, i / 3 % LOOP_LEN, i % 3);
            [(from, 0, i), (to, turns, i)]
        });
        for (to, turns, i) in legs {
            let from = loop_pos(&fast).expect("in the loop");
            // The clock at which position `to` starts, `turns` whole turns
            // on (the next turn's if `to` is not ahead), less some slack
            // inside the `delay` before position 1.
            let wrap = if to <= from { TURN } else { 0 };
            let at = fast.clock(T1) + wrap + turns as u64 * TURN + offset(to) - offset(from);
            let slack = if to == 1 { (i as u64 * 7) % u64::from(DELAY) } else { 0 };
            for m in [&mut fast, &mut slow] {
                m.t_mut(T0).clock = at - slack;
                m.catch_up_sibling(T0).unwrap();
            }
            assert_eq!(loop_pos(&fast), Some(to), "{from} -> {to} over {turns} turns");
            assert_eq!(fast.clock(T1), at);
            seen[from][to] = true;
            assert_eq!(observable(&fast, false), observable(&slow, false), "{from} -> {to}");
        }
        assert_eq!(observable(&fast, true), observable(&slow, true));
        assert_eq!(seen, [[true; LOOP_LEN]; LOOP_LEN], "every start and stop position");
        let retired = loop_retired(&fast);
        let total = fast.counters(T1).read(PerfEvent::InstRetired);
        assert!(retired * 10 > total * 9, "closed form retired {retired} of {total}");
    }

    /// Near the loop exit (`r` reaching 1) the tier steps the last turn,
    /// including across calls and the driver in between; a wait longer
    /// than the turns left runs the victim to its halt.
    #[test]
    fn loop_exit_and_waits_past_it_match_stepping() {
        let victim = busy_victim(6, 5);
        let mut acts: Vec<Act> = (0..40).map(|i| Act::Catch(1 + (i * 53) % (4 * TURN))).collect();
        acts.extend([Act::Wait(3 * TURN), Act::Wait(7 * TURN + 3), Act::Wait(50_000)]);
        let fast = check(&victim, None, &acts);
        assert!(loop_retired(&fast) > 0);
        assert_eq!(fast.state(T1), ThreadState::Halted);
        // A long wait carries the victim to the wait's end in one step.
        let victim = busy_victim(1, 1_000_000);
        let fast = check(&victim, None, &[Act::Catch(900), Act::Wait(100_000), Act::Wait(1)]);
        assert!(loop_retired(&fast) > 100_000 / TURN * 5);
    }

    /// A catch-up spanning the next background eviction: the victim steps
    /// until the eviction fires, then the rest of the span retires in
    /// closed form again.
    #[test]
    fn eviction_crossing_inside_the_window_matches_stepping() {
        let victim = busy_victim(1, 1_000_000);
        let noise = Some((NoiseConfig { timing_jitter: 0, evictions_per_kcycle: 1.0 }, 7));
        let mut fast = corun(true, noise, &victim);
        let mut slow = corun(false, noise, &victim);
        for m in [&mut fast, &mut slow] {
            apply(m, Act::Catch(30 * TURN)).unwrap();
        }
        let mut after_crossing = 0;
        for i in 0..20 {
            let due = fast.noise.cycles_to_next_eviction();
            assert!(due <= 1000);
            let bound = fast.clock(T1) + due + 5 * TURN;
            let before = loop_retired(&fast);
            for m in [&mut fast, &mut slow] {
                m.t_mut(T0).clock = bound;
                m.catch_up_sibling(T0).unwrap();
            }
            assert_eq!(observable(&fast, false), observable(&slow, false), "crossing {i}");
            assert!(fast.noise.cycles_to_next_eviction() > 1000 - 6 * TURN, "the eviction fired");
            after_crossing += loop_retired(&fast) - before;
        }
        assert_eq!(observable(&fast, true), observable(&slow, true));
        assert!(after_crossing > 0);
    }

    /// Background evictions every ~250 cycles land inside many would-be
    /// windows (which the tier must then step through), and scattered
    /// machine clears — on the attacker's line and on the victim's own
    /// loop line — reset the victim's fetch state and stall it mid-loop.
    #[test]
    fn evictions_and_sibling_clears_mid_loop_match_stepping() {
        let victim = busy_victim(3, 400);
        let heavy = NoiseConfig { timing_jitter: 8, evictions_per_kcycle: 4.0 };
        for seed in 0..6 {
            let mut acts = Vec::new();
            for i in 0..60u64 {
                acts.push(match i % 6 {
                    0 => Act::Call,
                    1 => Act::Store(ORACLE),
                    2 => Act::Wait(40 + (i * 97) % 2000),
                    3 if i % 12 == 3 => Act::Store(ROUTINE),
                    _ => Act::Catch(1 + (i * 29) % (2 * TURN)),
                });
            }
            let fast = check(&victim, Some((heavy, seed)), &acts);
            assert!(loop_retired(&fast) > 0, "seed {seed}");
            assert!(fast.counters(T1).read(PerfEvent::CycleActivityStallsTotal) > 0);
        }
    }

    /// Guards refuse without side effects: a cold tail line, a trained
    /// `je`, fetch logging, and the reference interpreter all keep the victim
    /// stepping.
    #[test]
    fn guards_fall_back_to_stepping() {
        let victim = busy_victim(1, 1_000_000);
        let warm = |m: &mut Machine| apply(m, Act::Catch(30 * TURN)).unwrap();
        let mut logged = corun(true, None, &victim);
        warm(&mut logged);
        let before = loop_retired(&logged);
        assert!(before > 0);
        logged.set_fetch_log(true);
        apply(&mut logged, Act::Catch(10 * TURN)).unwrap();
        assert_eq!(loop_retired(&logged), before, "fetch logging refuses");

        let mut reference = corun(true, None, &victim);
        reference.set_tier(Tier::Reference);
        warm(&mut reference);
        assert_eq!(loop_retired(&reference), 0, "the reference interpreter refuses");

        let mut cold = corun(true, None, &victim);
        warm(&mut cold);
        cold.place_line(Addr(ROUTINE + crate::LINE_SIZE), Placement::L2);
        let before = loop_retired(&cold);
        apply(&mut cold, Act::Catch(TURN / 2)).unwrap();
        assert!(loop_pos(&cold).is_some_and(|p| p < LOOP_TAIL));
        assert_eq!(loop_retired(&cold), before, "a cold tail refuses until refetched");
    }

    /// Attacker lines for the batch carry: eight ways of L1i set 32, clear
    /// of the busy victim's loop (L1i sets 0 and 1, L2 and LLC entries
    /// alike) together with their prefetch targets.
    const WAYS: [u64; 8] = {
        let mut w = [0; 8];
        let mut i = 0;
        while i < 8 {
            w[i] = 0x50_0800 + i as u64 * 0x1000;
            i += 1;
        }
        w
    };
    /// A line in the loop head's L1i set.
    const SAME_SET: u64 = 0x52_0000;

    /// `nop; nop; ret` at every line in `lines`, each page warmed in T0's
    /// iTLB.
    fn add_lines(m: &mut Machine, lines: &[u64]) {
        for &line in lines {
            let mut a = Assembler::new(line);
            a.nop().nop().ret();
            m.load_program(&a.assemble().unwrap());
            m.warm_tlb(T0, Addr(line));
        }
    }

    /// The hint entry of `line` in a cache of `sets` sets (the
    /// `Cache::hint_of` fold).
    fn hint(line: u64, sets: u64) -> u64 {
        let set = (line >> 6) & (sets - 1);
        (set ^ set >> 6 ^ set >> 12) & 63
    }

    /// One batch action of the carry tests, applied identically to both
    /// machines.
    #[derive(Copy, Clone, Debug)]
    enum Batch {
        /// [`Machine::run_calls`] over the lines.
        Calls(&'static [u64]),
        /// [`Machine::run_probes`] of the `Execute` probe over the lines.
        Probes(&'static [u64]),
        /// Move T0's clock on by `n` cycles with no catch-up, as a
        /// sibling machine clear stalls it: the next batch starts with
        /// the sibling behind.
        Jump(u64),
        /// Busy-wait `n` cycles.
        Wait(u64),
        /// Set the engine's step budget for the rest of the test.
        Budget(u64),
        /// Drop a line from every cache (setup, no instruction).
        Evict(u64),
    }

    fn run_batch(m: &mut Machine, b: Batch, timings: &mut Vec<u64>) -> Result<(), StepError> {
        match b {
            Batch::Calls(lines) => {
                let targets: Vec<Addr> = lines.iter().map(|&l| Addr(l)).collect();
                m.run_calls(T0, &targets).map(|_| ())
            }
            Batch::Probes(lines) => {
                let execute = [
                    Instr::Mfence,
                    Instr::Rdtsc { dst: Reg::R14 },
                    Instr::CallReg { target: Reg::R13 },
                    Instr::Mfence,
                    Instr::Rdtsc { dst: Reg::R15 },
                ];
                let probe = CompiledProbe::compile(&execute).unwrap();
                let targets: Vec<Addr> = lines.iter().map(|&l| Addr(l)).collect();
                let mut out = vec![0; lines.len()];
                let r = m.run_probes(T0, &probe, &targets, &mut out).map(|_| ());
                timings.extend(out);
                r
            }
            Batch::Jump(n) => {
                m.t_mut(T0).clock += n;
                Ok(())
            }
            Batch::Wait(n) => m.advance(T0, n),
            Batch::Budget(n) => {
                TEST_BUDGET.with(|b| b.set(n));
                Ok(())
            }
            Batch::Evict(line) => {
                m.flush_line(Addr(line));
                Ok(())
            }
        }
    }

    /// Run `batches` with the carry on and on the per-step oracle,
    /// comparing after every batch (both fail alike or not at all);
    /// returns the carrying machine and the error that stopped the run.
    fn check_batches(
        victim: &Program,
        noise: Option<(NoiseConfig, u64)>,
        lines: &[u64],
        batches: &[Batch],
    ) -> (Machine, Option<StepError>) {
        let mut fast = corun(true, noise, victim);
        let mut slow = corun(false, noise, victim);
        let (mut tf, mut ts) = (Vec::new(), Vec::new());
        for m in [&mut fast, &mut slow] {
            add_lines(m, lines);
            apply(m, Act::Catch(30 * TURN)).unwrap();
        }
        let mut err = None;
        for (i, &b) in batches.iter().enumerate() {
            let (a, c) = (run_batch(&mut fast, b, &mut tf), run_batch(&mut slow, b, &mut ts));
            assert_eq!(a, c, "batch {i} {b:?}");
            assert_eq!(tf, ts, "batch {i} {b:?} timings");
            assert_eq!(observable(&fast, false), observable(&slow, false), "batch {i} {b:?}");
            if let Err(e) = a {
                err = Some(e);
                break;
            }
        }
        assert_eq!(observable(&fast, true), observable(&slow, true), "after all batches");
        assert_eq!(slow.counters(T0).read(PerfEvent::SimBatchCarried), 0, "the oracle steps");
        (fast, err)
    }

    fn carried(m: &Machine) -> u64 {
        m.counters(T0).read(PerfEvent::SimBatchCarried)
    }

    /// The batches of a Mastik sample — prime, wait, probe round —
    /// repeated, with the sibling sometimes left behind between them.
    fn rounds(lines: &'static [u64], n: u64) -> Vec<Batch> {
        (0..n)
            .flat_map(|i| {
                [
                    Batch::Calls(lines),
                    Batch::Wait(600),
                    Batch::Jump(i * 37 % 300),
                    Batch::Probes(lines),
                ]
            })
            .collect()
    }

    /// Ways clear of the loop's sets and hint entries carry: every probe
    /// round and most primes retire the sibling in one closed form, with
    /// the sibling behind or ahead at the batch's start, and land where
    /// stepping lands.
    #[test]
    fn disjoint_batches_carry_and_match_stepping() {
        let victim = busy_victim(1, 1_000_000);
        let probe = corun(true, None, &victim);
        let own = probe.hier.fetch_footprint(ROUTINE) | probe.hier.fetch_footprint(ROUTINE + 64);
        for &w in &WAYS {
            assert!(!probe.hier.fetch_footprint(w).overlaps(own), "way {w:#x} is clear");
        }
        let (fast, _) = check_batches(&victim, None, &WAYS, &rounds(&WAYS, 40));
        assert!(carried(&fast) >= 40, "carried {} batches", carried(&fast));
        let realistic = Some((NoiseConfig::realistic(), 5));
        let (fast, _) = check_batches(&victim, realistic, &WAYS, &rounds(&WAYS, 40));
        assert!(carried(&fast) >= 40, "carried {} batches", carried(&fast));
    }

    /// A batch line in the loop head's L1i set refuses the carry.
    #[test]
    fn shared_l1i_set_refuses_the_carry() {
        static LINES: [u64; 3] = [WAYS[0], SAME_SET, WAYS[1]];
        let victim = busy_victim(1, 1_000_000);
        static SAME: [u64; 8] = [SAME_SET; 8];
        let batches = [Batch::Jump(200), Batch::Calls(&SAME), Batch::Probes(&SAME)];
        let (fast, _) = check_batches(&victim, None, &LINES, &batches.repeat(20));
        assert_eq!(carried(&fast), 0);
        // A clear line first carries up to the shared one, which settles
        // the carry.
        let batches = [Batch::Jump(200), Batch::Probes(&LINES)];
        let (fast, _) = check_batches(&victim, None, &LINES, &batches.repeat(20));
        assert!(carried(&fast) > 0);
    }

    /// A line that shares only an L2 or LLC hint entry with a loop line
    /// (its L1i set is clear), and one whose next-line prefetch target
    /// shares the tail's, both refuse the carry.
    #[test]
    fn shared_hint_entries_refuse_the_carry() {
        let tail = ROUTINE + 64;
        // Whether `l` takes the hint entry of a loop line in L2 or the LLC.
        let meets = |l: u64, loop_lines: &[u64]| {
            let level = |sets| loop_lines.iter().any(|&v| hint(l, sets) == hint(v, sets));
            level(1024) || level(8192)
        };
        let clear = |l: u64| {
            ![0, 1, 2].contains(&((l >> 6) & 63)) && !meets(l, &[ROUTINE, tail, tail + 64])
        };
        let candidates = (0..4096u64).map(|i| 0x60_0000 + i * 64 + 0x3000);
        let shared = candidates.clone().find(|&l| clear(l + 64) && meets(l, &[ROUTINE, tail]));
        let prefetch = candidates.filter(|&l| clear(l)).find(|&l| meets(l + 64, &[tail]));
        let (shared, prefetch) = (shared.unwrap(), prefetch.unwrap());
        let victim = busy_victim(1, 1_000_000);
        for line in [shared, prefetch] {
            let m = corun(true, None, &victim);
            let own = m.hier.fetch_footprint(ROUTINE) | m.hier.fetch_footprint(tail);
            assert!(m.hier.fetch_footprint(line).overlaps(own), "{line:#x} meets the loop");
            // Eight probes of the line span several turns, so stepping
            // refetches a loop line after the batch has touched its entry;
            // evicting the next line makes every batch prefetch it again.
            let lines: &'static [u64] = Box::leak(Box::new([line; 8]));
            let evict = Batch::Evict(line + 64);
            let batches =
                [Batch::Jump(150), evict, Batch::Calls(lines), evict, Batch::Probes(lines)];
            let (fast, _) = check_batches(&victim, None, &lines[..1], &batches.repeat(30));
            assert_eq!(carried(&fast), 0, "{line:#x}");
        }
    }

    /// The loop's exit inside a batch ends the carry before it: with
    /// turns of a few iterations, most batches settle early or never
    /// carry, and the victim still leaves and re-enters its loop exactly
    /// as stepping does.
    #[test]
    fn loop_exit_inside_a_batch_matches_stepping() {
        for iters in [2, 5, 9] {
            let victim = busy_victim(200, iters);
            check_batches(&victim, None, &WAYS, &rounds(&WAYS, 30));
        }
    }

    /// Background evictions every ~250 cycles fall inside most would-be
    /// carries: the horizon stops each carry short of them (or refuses
    /// it), and the eviction fires at its per-step point.
    #[test]
    fn evictions_inside_a_batch_match_stepping() {
        let victim = busy_victim(2, 3_000);
        for (rate, seed) in [(4.0, 1), (1.0, 2), (0.2, 3)] {
            let noise = Some((NoiseConfig { timing_jitter: 8, evictions_per_kcycle: rate }, seed));
            check_batches(&victim, noise, &WAYS, &rounds(&WAYS, 25));
        }
    }

    /// A sibling exhausting the step budget mid-batch leaves the same
    /// partial state with the carry on as stepping does: the carry's
    /// horizon keeps clear of the budget, so the catch-up that runs out
    /// of it is a stepped one.
    #[test]
    fn sibling_step_limit_mid_batch_matches_stepping() {
        let victim = busy_victim(1, 1_000_000);
        for budget in [30, 90, 400] {
            for start in [Batch::Calls(&WAYS), Batch::Probes(&WAYS)] {
                let batches = [Batch::Budget(budget), Batch::Jump(budget * 40), start];
                let (_, err) = check_batches(&victim, None, &WAYS, &batches);
                TEST_BUDGET.with(|b| b.set(STEP_BUDGET));
                assert_eq!(err, Some(StepError::StepLimit), "budget {budget}, {start:?}");
            }
        }
    }

    /// The resolution-1 short-circuit of `rdtsc` quantization agrees with
    /// the quantizing division on every profile (Intel counts single
    /// cycles, AMD 21-cycle quanta).
    #[test]
    fn tsc_reading_matches_quantizing_division() {
        for arch in MicroArch::ALL {
            let e = Machine::new(arch.profile());
            let res = e.profile.tsc_resolution as u64;
            let mut raw = 0x9e37_79b9_7f4a_7c15u64;
            for small in 0..500u64 {
                raw ^= raw << 13;
                raw ^= raw >> 7;
                raw ^= raw << 17;
                for r in [small, raw, raw >> 20, u64::MAX - small] {
                    assert_eq!(e.tsc_reading(r), (r / res) * res, "{arch:?} raw {r}");
                }
            }
        }
    }
}
