//! Static leakage analysis for SMaCk victim programs.
//!
//! SMaCk's channel exists because a victim executes secret-dependent code
//! paths whose *instruction-cache footprints* differ (paper §5): the
//! attacker probes an L1i line and learns whether the victim fetched it.
//! The rest of this repository demonstrates that dynamically, with
//! thousands of measured trials per victim. This crate proves or refutes
//! the leak from program structure alone, in the style of a constant-time
//! verifier:
//!
//! 1. [`cfg`](mod@cfg) builds an instruction-level control-flow graph from the same
//!    pre-decoded successor indices and cache-line ids the engine's fast
//!    path uses ([`smack_uarch::DecodedProgram`]), harvesting candidate
//!    targets for dynamic transfers (`call *%reg`, `ret`) from immediate
//!    operands and from declared [`SecretSpec::indirect_targets`] ranges.
//! 2. [`taint`] runs a forward dataflow over `Instr` def/use sets: the
//!    victim declares its secret inputs (registers and memory ranges) in a
//!    [`SecretSpec`]; taint flows through moves, ALU ops and loads into
//!    the flags, and every control transfer is classified secret-dependent
//!    or not. A light constant propagation resolves load addresses so
//!    loads of *public* memory stay clean.
//! 3. [`leakage`] turns tainted transfers into a verdict: for each
//!    secret-dependent branch, the cache lines fetched on one arm but not
//!    the other (walked up to the branch's postdominator, with callees
//!    summarized) are *leaky*; a tainted indirect call leaks the
//!    non-shared lines of its candidate targets. Leaky lines map to the
//!    probe classes that can observe them on a given microarchitecture.
//! 4. [`audit`](mod@audit) checks that self-modifying stores aim at
//!    instruction boundaries, as a lint over decoded programs.
//!
//! The analysis is a *may*-analysis throughout: the static fetch footprint
//! over-approximates any dynamic execution's fetched lines (including
//! speculative wrong-path fetches, whose targets are always CFG
//! successors or previously-executed addresses), and a `ConstantFootprint`
//! verdict therefore proves the absence of the channel, while `Leaky`
//! names the lines an attacker should probe. Soundness is locked by
//! proptests comparing against the reference interpreter's observed
//! fetch-line log.

pub mod audit;
pub mod cfg;
pub mod leakage;
pub mod taint;

use smack_uarch::asm::Program;
use smack_uarch::isa::Reg;
use smack_uarch::{ProbeKind, SmcBehavior, UarchProfile};

pub use audit::{audit, AuditViolation};
pub use cfg::Cfg;
pub use leakage::LeakageSummary;
pub use taint::TaintSummary;

/// A half-open byte range `[start, end)` of simulated memory.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct AddrRange {
    /// First byte of the range.
    pub start: u64,
    /// One past the last byte.
    pub end: u64,
}

impl AddrRange {
    /// Build a range from a base and a length.
    pub fn span(start: u64, len: u64) -> AddrRange {
        AddrRange { start, end: start + len }
    }

    /// Whether `[addr, addr + size)` overlaps this range.
    pub fn overlaps(&self, addr: u64, size: u64) -> bool {
        addr < self.end && addr.wrapping_add(size) > self.start
    }
}

/// A victim's declaration of its secret inputs — the only hint the
/// analyzer takes. Victims without secrets declare [`SecretSpec::none`];
/// the analyzer then needs no heuristics to prove them constant-footprint.
#[derive(Clone, Debug, Default)]
pub struct SecretSpec {
    /// Registers holding secret values at program entry.
    pub tainted_regs: Vec<Reg>,
    /// Memory ranges holding secret bytes when the victim starts (e.g. the
    /// staged exponent bit array).
    pub tainted_memory: Vec<AddrRange>,
    /// Address ranges that dynamic control transfers (`call *%reg`) may
    /// target beyond what immediate harvesting finds — e.g. an oracle page
    /// of computed jump targets.
    pub indirect_targets: Vec<AddrRange>,
}

impl SecretSpec {
    /// No secrets: every load is public data and no transfer can be
    /// secret-dependent.
    pub fn none() -> SecretSpec {
        SecretSpec::default()
    }
}

/// The analyzer's verdict on one victim.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Some cache line's fetch depends on the secret; SMaCk applies.
    Leaky,
    /// The instruction-fetch footprint is the same for every secret value;
    /// no i-cache probe can learn anything.
    ConstantFootprint,
}

impl Verdict {
    /// Short label for tables and CSVs.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Leaky => "leaky",
            Verdict::ConstantFootprint => "constant",
        }
    }
}

/// Everything the analyzer derives about one program.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// The verdict.
    pub verdict: Verdict,
    /// Every cache line the program may ever fetch (sorted, deduplicated).
    /// Over-approximates the fetch-line log of any execution.
    pub footprint: Vec<u64>,
    /// Cache lines whose fetch depends on the secret (sorted): the lines
    /// an attacker should probe.
    pub leaky_lines: Vec<u64>,
    /// Program counters of secret-dependent conditional branches.
    pub tainted_branches: Vec<u64>,
    /// Program counters of secret-dependent indirect transfers.
    pub tainted_transfers: Vec<u64>,
    /// SMC patch audit findings (empty = the patch contract holds).
    pub audit: Vec<AuditViolation>,
}

/// Run the full pipeline — CFG construction, taint dataflow, leakage
/// verdict, SMC patch audit — on `prog` starting at `entry`.
pub fn analyze(prog: &Program, entry: u64, spec: &SecretSpec) -> AnalysisReport {
    let cfg = Cfg::build(prog, entry, spec);
    let taint = taint::propagate(&cfg, spec);
    let leak = leakage::summarize(&cfg, &taint);
    let audit = audit::audit(prog);
    AnalysisReport {
        verdict: if leak.leaky_lines.is_empty() {
            Verdict::ConstantFootprint
        } else {
            Verdict::Leaky
        },
        footprint: cfg.footprint(),
        leaky_lines: leak.leaky_lines,
        tainted_branches: leak.tainted_branches,
        tainted_transfers: leak.tainted_transfers,
        audit,
    }
}

/// The probe classes able to observe an L1i-resident leaky line on
/// `profile` — the ● (machine clear) and ◐ (timing-only) rows of the
/// paper's Table 3 for that part.
pub fn observing_probes(profile: &UarchProfile) -> Vec<ProbeKind> {
    ProbeKind::ALL
        .iter()
        .copied()
        .filter(|k| {
            matches!(profile.smc.get(*k), SmcBehavior::Triggers | SmcBehavior::LeaksWithoutSmc)
        })
        .collect()
}
