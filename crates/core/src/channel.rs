//! SMC covert channels (paper §5.1, Table 1, Figure 3).
//!
//! Two families:
//!
//! * **Prime+iProbe** — the receiver owns an L1i eviction set; the sender
//!   transmits `1` by executing a line that maps to the same set (evicting
//!   one receiver way) and `0` by idling. The receiver's SMC probe sees the
//!   evicted way as the one timing *without* a machine-clear conflict.
//! * **Flush+iReload** — sender and receiver share one executable line
//!   (page-deduplication scenario); the sender executes it for `1`, and the
//!   receiver's SMC probe conflicts (slow) exactly when the line is
//!   L1i-resident. Write-class probes (store/lock) are inapplicable: the
//!   shared page is read/execute-only, as in the paper's N/A rows.
//!
//! Transmission is slot-synchronized on the shared TSC: the receiver takes
//! a few samples per bit slot and decodes `1` if any sample shows activity.

use smack_uarch::{
    Addr, Machine, NoiseConfig, Placement, ProbeKind, SmcBehavior, StepError, ThreadId,
};

use crate::oracle::{EvictionSet, OraclePage};
use crate::probe::Prober;
use crate::session::Session;

/// Covert-channel family.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ChannelFamily {
    /// Prime+iProbe over an L1i eviction set.
    PrimeProbe,
    /// Flush+iReload over a shared executable line.
    FlushReload,
}

/// A covert-channel configuration.
#[derive(Copy, Clone, Debug)]
pub struct ChannelSpec {
    /// Family.
    pub family: ChannelFamily,
    /// SMC probe class used by the receiver.
    pub kind: ProbeKind,
    /// Monitored L1i set (Prime+iProbe only).
    pub set: usize,
    /// Receiver wait between prime and probe (the paper's `τ_w`), cycles.
    pub wait_cycles: u64,
}

impl ChannelSpec {
    /// A Prime+iProbe channel with paper-like defaults.
    pub fn prime_probe(kind: ProbeKind) -> ChannelSpec {
        ChannelSpec { family: ChannelFamily::PrimeProbe, kind, set: 21, wait_cycles: 1_000 }
    }

    /// A Flush+iReload channel with paper-like defaults.
    pub fn flush_reload(kind: ProbeKind) -> ChannelSpec {
        ChannelSpec { family: ChannelFamily::FlushReload, kind, set: 0, wait_cycles: 1_400 }
    }

    /// The paper's Table 1 channel list, in row order (including the two
    /// inapplicable rows, which [`ChannelSpec::applicability`] rejects).
    pub fn table1() -> Vec<ChannelSpec> {
        vec![
            ChannelSpec::prime_probe(ProbeKind::Flush),
            ChannelSpec::prime_probe(ProbeKind::FlushOpt),
            ChannelSpec::prime_probe(ProbeKind::Lock),
            ChannelSpec::prime_probe(ProbeKind::Prefetch),
            ChannelSpec::prime_probe(ProbeKind::Store),
            ChannelSpec::prime_probe(ProbeKind::Clwb),
            ChannelSpec::flush_reload(ProbeKind::Flush),
            ChannelSpec::flush_reload(ProbeKind::FlushOpt),
            ChannelSpec::flush_reload(ProbeKind::Lock),
            ChannelSpec::flush_reload(ProbeKind::Prefetch),
            ChannelSpec::flush_reload(ProbeKind::Store),
            ChannelSpec::flush_reload(ProbeKind::Clwb),
        ]
    }

    /// Paper-style channel name, e.g. `Prime+iFlush` or `Flush+iStore`.
    pub fn name(&self) -> String {
        let family = match self.family {
            ChannelFamily::PrimeProbe => "Prime",
            ChannelFamily::FlushReload => "Flush",
        };
        let kind = match self.kind {
            ProbeKind::Flush => "Flush",
            ProbeKind::FlushOpt => "Flushopt",
            ProbeKind::Store => "Store",
            ProbeKind::Lock => "Lock",
            ProbeKind::Prefetch => "Prefetch",
            ProbeKind::PrefetchNta => "Prefetchnta",
            ProbeKind::Clwb => "Clwb",
            ProbeKind::Load => "Load",
            ProbeKind::Execute => "Reload",
        };
        format!("{family}+i{kind}")
    }

    /// Whether this channel is applicable on `machine` (paper's "App."
    /// column): the probe must exist, trigger SMC conflicts, and — for
    /// Flush+iReload — not require write access to the shared page.
    pub fn applicability(&self, machine: &Machine) -> Result<(), &'static str> {
        match machine.profile().smc.get(self.kind) {
            SmcBehavior::Unsupported => return Err("instruction unsupported"),
            SmcBehavior::Triggers => {}
            _ => return Err("no SMC conflict on this microarchitecture"),
        }
        if self.family == ChannelFamily::FlushReload && self.kind.writes_target() {
            return Err("shared code page is read/execute-only");
        }
        Ok(())
    }
}

/// One receiver sample in a recorded trace (Figure 3).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TracePoint {
    /// Receiver clock at the start of the sample.
    pub at: u64,
    /// The decision timing: minimum way timing (Prime+iProbe) or the probe
    /// timing (Flush+iReload).
    pub timing: u64,
    /// Whether the sample detected sender activity.
    pub activity: bool,
    /// Bit-slot index this sample belongs to.
    pub slot: usize,
}

/// Outcome of one covert-channel run.
#[derive(Clone, PartialEq, Debug)]
pub struct ChannelReport {
    /// Channel name (paper row label).
    pub name: String,
    /// Bits transmitted.
    pub bits: usize,
    /// Bit errors.
    pub errors: usize,
    /// Error rate in percent.
    pub error_rate_pct: f64,
    /// Bandwidth in kbit/s at the profile's nominal frequency.
    pub kbit_per_s: f64,
    /// Total cycles the transmission took.
    pub cycles: u64,
    /// Decoded bits.
    pub decoded: Vec<bool>,
    /// Optional per-sample trace (Figure 3).
    pub trace: Vec<TracePoint>,
}

const RECEIVER: ThreadId = ThreadId::T0;
const SENDER: ThreadId = ThreadId::T1;
const EVSET_BASE: u64 = 0x0a00_0000;
const SENDER_BASE: u64 = 0x0b00_0000;
const SHARED_BASE: u64 = 0x0c00_0000;

/// Receiver samples per bit slot.
const SAMPLES_PER_BIT: u64 = 3;

/// Sender line executions per `1` bit (the paper's `N_l`).
const LOADS_PER_ONE: u32 = 40;

/// The cold placement the receiver's probe sees in each family:
/// Prime+iProbe reads just-evicted (L2-resident) lines, Flush+iReload
/// reads flushed-to-DRAM lines.
fn cold_placement(family: ChannelFamily) -> Placement {
    match family {
        ChannelFamily::PrimeProbe => Placement::L2,
        ChannelFamily::FlushReload => Placement::DramOnly,
    }
}

/// Run a covert channel inside a [`Session`], transmitting `payload` and
/// recording a trace when `record_trace` is set: the machine comes from
/// the pool and the receiver's threshold from the calibration cache
/// (computed once per `(profile, probe class, cold placement, noise)` per
/// process).
///
/// # Errors
///
/// Returns a description when the channel is inapplicable (the paper's N/A
/// rows), or propagates simulator errors as strings.
pub fn run_channel_in(
    session: &mut Session<'_>,
    spec: &ChannelSpec,
    payload: &[bool],
    record_trace: bool,
) -> Result<ChannelReport, String> {
    // Applicability first: an N/A row must report its reason, not a
    // calibration error, and must not cost a calibration pass.
    spec.applicability(session.machine()).map_err(|e| format!("{}: {e}", spec.name()))?;
    // Channels always transmit under the noisy model (see below), so the
    // threshold must be calibrated under it too.
    let cal = session
        .calibrated_for(spec.kind, cold_placement(spec.family), NoiseConfig::noisy())
        .map_err(|e| format!("{}: {e}", spec.name()))?;
    let machine = session.machine();
    machine.set_noise(NoiseConfig::noisy());
    let step = |e: StepError| format!("{}: {e}", spec.name());

    let mut prober = Prober::new(RECEIVER);
    // --- setup ------------------------------------------------------------
    let (evset, target) = match spec.family {
        ChannelFamily::PrimeProbe => {
            let ev = EvictionSet::for_machine(machine, EVSET_BASE, spec.set);
            ev.install(machine);
            for w in ev.ways() {
                machine.warm_tlb(RECEIVER, *w);
            }
            // The sender's own line mapping to the same set.
            let sender_line = Addr(SENDER_BASE + (spec.set as u64) * 64);
            let page = OraclePage::build(sender_line, 1);
            page.install(machine);
            machine.warm_tlb(SENDER, sender_line);
            (Some(ev), sender_line)
        }
        ChannelFamily::FlushReload => {
            let shared = OraclePage::build(Addr(SHARED_BASE), 1);
            shared.install(machine);
            machine.warm_tlb(RECEIVER, shared.line(0));
            machine.warm_tlb(SENDER, shared.line(0));
            (None, shared.line(0))
        }
    };

    // One receiver measurement: a Prime+iProbe round over every way of the
    // eviction set, or one Flush+iReload reload. Returns the fastest
    // way's (or the reload's) timing and whether it shows sender activity.
    // One timing buffer serves every probe round of the trial.
    let mut timings = Vec::new();
    let mut measure =
        |machine: &mut Machine, prober: &mut Prober| -> Result<(u64, bool), StepError> {
            match &evset {
                Some(ev) => {
                    ev.probe_first_into(machine, prober, spec.kind, ev.ways().len(), &mut timings)?;
                    // Activity = at least one way did NOT conflict (it was
                    // evicted by the sender's fetch).
                    let misses = timings.iter().filter(|t| !cal.is_hit(**t)).count();
                    Ok((*timings.iter().min().expect("nonempty ways"), misses >= 1))
                }
                None => {
                    let t = prober.measure(machine, spec.kind, target)?.cycles;
                    // Prefetch-based reloads need an explicit flush afterwards
                    // (paper: prefetch requires clflush before the next round).
                    if matches!(spec.kind, ProbeKind::Prefetch | ProbeKind::PrefetchNta) {
                        prober.flush_line(machine, target)?;
                    }
                    Ok((t, cal.is_hit(t)))
                }
            }
        };

    // --- measure one idle sample to size the bit slot ----------------------
    let t0 = machine.clock(RECEIVER);
    match &evset {
        Some(ev) => {
            ev.prime(machine, &mut prober).map_err(step)?;
            prober.wait(machine, spec.wait_cycles).map_err(step)?;
            measure(machine, &mut prober).map_err(step)?;
        }
        None => {
            measure(machine, &mut prober).map_err(step)?;
            prober.wait(machine, spec.wait_cycles).map_err(step)?;
        }
    }
    let sample_cost = (machine.clock(RECEIVER) - t0).max(1);
    // Every conflicting probe stalls the *sender* by `sibling_stall` cycles
    // (the machine clear flushes the whole physical core), so the bit slot
    // must leave room for the sender to get its N_l executions in.
    let clears_per_sample = match spec.family {
        ChannelFamily::PrimeProbe => machine.l1i_ways() as u64,
        ChannelFamily::FlushReload => 1,
    };
    let stall_allowance =
        SAMPLES_PER_BIT * clears_per_sample * machine.profile().clear.sibling_stall as u64;
    let bit_period = sample_cost * SAMPLES_PER_BIT + sample_cost / 2 + stall_allowance;
    // Spread the sender's N_l executions across the whole slot so that
    // every receiver prime→wait window overlaps at least one of them.
    let sender_gap = (bit_period / u64::from(LOADS_PER_ONE)).max(60);

    // --- transmit -----------------------------------------------------------
    // The receiver's sample is split into phases so that the sender's
    // executions interleave *inside* the prime→probe wait window, by clock
    // order — on real SMT hardware the two threads genuinely overlap.
    #[derive(Copy, Clone)]
    enum Phase {
        Setup,
        Wait { until: u64, started_at: u64 },
        Measure { started_at: u64 },
    }
    let epoch = machine.clock(RECEIVER).max(machine.clock(SENDER));
    let mut decoded = Vec::with_capacity(payload.len());
    let mut trace = Vec::new();
    let mut errors = 0usize;
    let mut phase = Phase::Setup;
    for (slot, bit) in payload.iter().enumerate() {
        let slot_end = epoch + (slot as u64 + 1) * bit_period;
        let mut sent = 0u32;
        let mut saw_activity = false;
        loop {
            let rc = machine.clock(RECEIVER);
            let sc = machine.clock(SENDER);
            if rc >= slot_end && sc >= slot_end {
                break;
            }
            if sc <= rc && sc < slot_end {
                // Sender's turn. Stop sending a guard band before the slot
                // boundary so a late fetch cannot bleed into the next bit.
                if *bit && sent < LOADS_PER_ONE && sc + sample_cost < slot_end {
                    machine.run_calls(SENDER, &[target]).map_err(step)?;
                    machine.advance(SENDER, sender_gap).map_err(step)?;
                    sent += 1;
                } else {
                    // Nothing left to send this slot: none of the send
                    // conditions can come back while the clock only grows,
                    // so the sender keeps idling until its clock passes the
                    // receiver's. Batch that whole run of 200-cycle chunks
                    // into one advance — `Machine::advance` is exactly
                    // partition-invariant, so one call with the chunks'
                    // total is bit-identical to issuing them one by one.
                    let chunks = (rc - sc) / 200 + 1;
                    let gap = (slot_end - sc).min(chunks * 200);
                    machine.advance(SENDER, gap).map_err(step)?;
                }
            } else if rc < slot_end {
                // Receiver's turn: advance one phase of the sample.
                match phase {
                    Phase::Setup => {
                        if let Some(ev) = evset.as_ref() {
                            ev.prime(machine, &mut prober).map_err(step)?;
                        }
                        phase = Phase::Wait {
                            until: machine.clock(RECEIVER) + spec.wait_cycles,
                            started_at: rc,
                        };
                    }
                    Phase::Wait { until, started_at } => {
                        if rc < until {
                            // The receiver holds its turn until its clock
                            // reaches the sender's (or the sender is done
                            // for the slot), so all the 150-cycle chunks
                            // up to that point run back-to-back — batch
                            // them into one partition-invariant advance.
                            let gap = if sc < slot_end && sc > rc {
                                let chunks = (sc - rc).div_ceil(150);
                                (until - rc).min(chunks * 150)
                            } else if sc >= slot_end {
                                until - rc
                            } else {
                                (until - rc).min(150)
                            };
                            machine.advance(RECEIVER, gap).map_err(step)?;
                        } else {
                            phase = Phase::Measure { started_at };
                        }
                    }
                    Phase::Measure { started_at } => {
                        let (timing, activity) = measure(machine, &mut prober).map_err(step)?;
                        saw_activity |= activity;
                        if record_trace {
                            trace.push(TracePoint { at: started_at, timing, activity, slot });
                        }
                        phase = Phase::Setup;
                    }
                }
            } else {
                // Receiver finished the slot; let the sender catch up to
                // the boundary in one batched advance (the chunked loop
                // this replaces ran uninterrupted, so partition invariance
                // makes the single call bit-identical).
                machine.advance(SENDER, slot_end.saturating_sub(sc)).map_err(step)?;
            }
        }
        decoded.push(saw_activity);
        if saw_activity != *bit {
            errors += 1;
        }
    }
    let cycles = machine.clock(RECEIVER).max(machine.clock(SENDER)) - epoch;
    let seconds = machine.profile().cycles_to_seconds(cycles);
    let kbit_per_s = payload.len() as f64 / seconds / 1000.0;
    Ok(ChannelReport {
        name: spec.name(),
        bits: payload.len(),
        errors,
        error_rate_pct: 100.0 * errors as f64 / payload.len().max(1) as f64,
        kbit_per_s,
        cycles,
        decoded,
        trace,
    })
}

/// Deterministic pseudo-random payload for channel benchmarks.
pub fn random_payload(bits: usize, seed: u64) -> Vec<bool> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..bits)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & 1 == 1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Scenario, Sessions};
    use smack_uarch::MicroArch;

    fn run(arch: MicroArch, spec: &ChannelSpec, payload: &[bool], trace: bool) -> ChannelReport {
        let sessions = Sessions::new();
        let mut session = sessions.session(&Scenario::new(arch));
        run_channel_in(&mut session, spec, payload, trace).unwrap()
    }

    #[test]
    fn names_match_paper_rows() {
        assert_eq!(ChannelSpec::prime_probe(ProbeKind::Flush).name(), "Prime+iFlush");
        assert_eq!(ChannelSpec::flush_reload(ProbeKind::FlushOpt).name(), "Flush+iFlushopt");
        assert_eq!(ChannelSpec::table1().len(), 12);
    }

    #[test]
    fn inapplicable_rows_are_rejected() {
        let m = Machine::new(MicroArch::CascadeLake.profile());
        assert!(ChannelSpec::flush_reload(ProbeKind::Lock).applicability(&m).is_err());
        assert!(ChannelSpec::flush_reload(ProbeKind::Store).applicability(&m).is_err());
        assert!(ChannelSpec::prime_probe(ProbeKind::Store).applicability(&m).is_ok());
        // clwb does not exist before Cascade Lake.
        let old = Machine::new(MicroArch::Broadwell.profile());
        assert!(ChannelSpec::prime_probe(ProbeKind::Clwb).applicability(&old).is_err());
    }

    #[test]
    fn prime_probe_store_channel_transmits() {
        let payload = random_payload(120, 7);
        let spec = ChannelSpec::prime_probe(ProbeKind::Store);
        let r = run(MicroArch::CascadeLake, &spec, &payload, false);
        assert!(r.error_rate_pct < 5.0, "error rate {}", r.error_rate_pct);
        assert!(r.kbit_per_s > 20.0, "bandwidth {}", r.kbit_per_s);
    }

    #[test]
    fn flush_reload_is_faster_than_prime_probe() {
        let payload = random_payload(120, 9);
        let pp = run(
            MicroArch::CascadeLake,
            &ChannelSpec::prime_probe(ProbeKind::Flush),
            &payload,
            false,
        );
        let fr = run(
            MicroArch::CascadeLake,
            &ChannelSpec::flush_reload(ProbeKind::Flush),
            &payload,
            false,
        );
        assert!(
            fr.kbit_per_s > pp.kbit_per_s * 2.0,
            "F+R {} vs P+P {}",
            fr.kbit_per_s,
            pp.kbit_per_s
        );
        assert!(fr.error_rate_pct < 5.0);
        assert!(pp.error_rate_pct < 5.0);
    }

    #[test]
    fn trace_recording_collects_samples() {
        let payload = vec![true, false, true, true, false];
        let r =
            run(MicroArch::TigerLake, &ChannelSpec::prime_probe(ProbeKind::Store), &payload, true);
        assert!(r.trace.len() >= payload.len(), "at least one sample per slot");
        assert_eq!(r.decoded.len(), payload.len());
    }

    #[test]
    fn payload_is_deterministic() {
        assert_eq!(random_payload(64, 3), random_payload(64, 3));
        assert_ne!(random_payload(64, 3), random_payload(64, 4));
    }
}
