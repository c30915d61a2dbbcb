//! # smack-uarch
//!
//! A cycle-approximate simulator of an x86 SMT physical core with the
//! microarchitectural machinery exploited by the SMaCk paper (ASPLOS 2025):
//!
//! * a split L1 (instruction/data) cache, unified L2 and LLC with an
//!   inclusive fill policy and coherence-style invalidations,
//! * a front-end model with a next-line instruction prefetcher and an
//!   in-flight fetch window,
//! * a **self-modifying-code (SMC) detection unit** that turns writes,
//!   flushes and prefetches aimed at resident instruction lines into
//!   *machine clears* that flush both SMT threads,
//! * a pattern-history-table branch predictor with bounded wrong-path
//!   speculative execution (cache fills survive squashes — the Spectre
//!   channel),
//! * Intel- and AMD-flavoured performance counters, and
//! * ten microarchitecture profiles calibrated from the paper's
//!   measurements (Figure 1, Figure 2, Table 3).
//!
//! The simulator executes a small x86-like ISA defined in [`isa`], assembled
//! with [`asm::Assembler`]. Two hardware threads share one physical core;
//! each owns a local cycle clock and the engine always advances the thread
//! that is furthest behind, so cross-thread cache and pipeline interactions
//! are observed in (approximate) causal order.
//!
//! ## Example
//!
//! ```
//! use smack_uarch::{Machine, MicroArch, ThreadId};
//! use smack_uarch::isa::{Instr, Reg};
//!
//! let mut m = Machine::new(MicroArch::CascadeLake.profile());
//! let t0 = ThreadId::T0;
//! let out = m
//!     .run_sequence(t0, &[Instr::MovImm { dst: Reg::R1, imm: 7 }])
//!     .expect("sequence runs");
//! assert!(out.cycles > 0);
//! assert_eq!(m.reg(t0, Reg::R1), 7);
//! ```

pub mod addr;
pub mod asm;
pub mod bpu;
pub mod cache;
pub mod counters;
pub mod decoded;
pub mod engine;
pub mod hierarchy;
pub mod isa;
pub mod machine;
pub mod mem;
pub mod noise;
pub mod pool;
pub mod profile;
pub mod tlb;

pub use addr::{Addr, LINE_SIZE, PAGE_SIZE};
pub use counters::{CounterBank, CounterSnapshot, PerfEvent};
pub use decoded::{DecodedInstr, DecodedProgram};
pub use engine::{CompiledProbe, SeqOutcome, StepError, ThreadId, ThreadState};
pub use hierarchy::{Level, Residency};
pub use machine::{Machine, Placement, Tier};
pub use noise::NoiseConfig;
pub use pool::{MachinePool, PoolStats, PooledMachine};
pub use profile::{MicroArch, ProbeKind, SmcBehavior, UarchProfile, Vendor};
