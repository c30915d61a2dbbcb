//! What every workload shares: the [`Workload`] interface the closed loop
//! drives, per-thread simulated counters, the output digest, and the span
//! accumulator of the traced run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use smack::session::Sessions;
use smack_uarch::{Machine, PerfEvent, ThreadId};

/// The attacker (receiver) hardware thread in every workload.
pub const ATTACKER: ThreadId = ThreadId::T0;
/// The victim (sender) hardware thread in every workload.
pub const VICTIM: ThreadId = ThreadId::T1;

/// One benchmark workload: a fixed list of cells (trials), each a pure
/// function of the workload's seed-derived inputs.
pub trait Workload {
    /// Everything one cell computed. Compared for equality between the
    /// library path and the traced path, so it holds raw samples.
    type Out: PartialEq + std::fmt::Debug;

    /// Cell labels, in execution order.
    fn cells(&self) -> Vec<String>;

    /// Set-up on a fresh registry: build the pooled machines and compute
    /// every calibration the cells look up. Returns the time spent
    /// computing calibrations.
    fn warm(&self, sessions: &Sessions) -> Result<Duration, String>;

    /// Run one cell, marking its step boundaries on `laps`. Untraced, it
    /// calls the library's public entry points; traced, it rebuilds their
    /// loops from public pieces and times each layer into `trace`. Both
    /// must return exactly the same output.
    fn run(
        &self,
        sessions: &Sessions,
        cell: usize,
        laps: &mut Laps,
        trace: Option<&mut Trace>,
    ) -> Result<Self::Out, String>;

    /// Sanity check of one output (expected N/A rows, rates in range, ...).
    fn check(&self, cell: usize, out: &Self::Out) -> Result<(), String>;

    /// Simulated counters the cell's machines retired.
    fn counters<'a>(&self, out: &'a Self::Out) -> &'a Counters;

    /// Feed the cell's results (not its counters) into the digest.
    fn digest(&self, out: &Self::Out, h: &mut Fnv);

    /// Paper reference rows this cell contributes to `paper_err_pp`.
    fn paper_rows(&self, cell: usize, out: &Self::Out) -> Vec<Drift>;
}

/// Step boundaries inside one cell. A step is the same work on every
/// repetition of its cell, so each step's fastest repetition can be taken
/// on its own: a short step fits inside the host's fast windows far more
/// often than a whole cell does.
#[derive(Debug)]
pub struct Laps {
    last: Instant,
    steps: Vec<f64>,
}

impl Laps {
    /// Start the first step now.
    pub fn start() -> Laps {
        Laps { last: Instant::now(), steps: Vec::new() }
    }

    /// End the current step and start the next.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.steps.push((now - self.last).as_secs_f64());
        self.last = now;
    }

    /// End the last step; the steps' durations in seconds.
    pub fn finish(mut self) -> Vec<f64> {
        self.lap();
        self.steps
    }
}

/// One row of the paper reference table: a simulated value next to the
/// number the repository already quotes for it.
#[derive(Clone, Debug)]
pub struct Drift {
    /// Row label.
    pub row: String,
    /// Simulated value, percent.
    pub sim_pct: f64,
    /// Paper value, percent.
    pub paper_pct: f64,
    /// Where the repository quotes the paper value.
    pub source: &'static str,
}

/// Per-thread snapshot of every counter, summed over a cell's machine
/// phases (machines reset their counters on checkout and renew).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Counters {
    threads: [[u64; PerfEvent::ALL.len()]; 2],
}

impl Counters {
    /// Both threads' counters as they stand on `machine`.
    pub fn read(machine: &Machine) -> Counters {
        let bank = |tid| PerfEvent::ALL.map(|e| machine.counters(tid).read(e));
        Counters { threads: [bank(ATTACKER), bank(VICTIM)] }
    }

    /// Accumulate another reading.
    pub fn add(&mut self, other: &Counters) {
        for (mine, theirs) in self.threads.iter_mut().zip(&other.threads) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
    }

    /// `event` on one thread.
    pub fn get(&self, tid: ThreadId, event: PerfEvent) -> u64 {
        let slot = PerfEvent::ALL.iter().position(|e| *e == event).expect("event is in ALL");
        self.threads[usize::from(tid != ATTACKER)][slot]
    }

    /// `event` summed over both threads.
    pub fn total(&self, event: PerfEvent) -> u64 {
        self.get(ATTACKER, event) + self.get(VICTIM, event)
    }

    /// Feed the modelled hardware events into the digest. `SIM.*` events
    /// count engine-tier bookkeeping, not simulated hardware, so a change
    /// that only moves work between interpreter tiers keeps the digest.
    pub fn digest(&self, h: &mut Fnv) {
        for bank in &self.threads {
            for (event, value) in PerfEvent::ALL.iter().zip(bank) {
                if !event.name().starts_with("SIM.") {
                    h.u64(*value);
                }
            }
        }
    }
}

/// 64-bit FNV-1a: a stable, dependency-free output digest.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty digest.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mix in one word.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mix in a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mix in a string, length-prefixed.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Layer self-times and counts accumulated over the traced cells. Spans
/// are recorded around calls into the library's public functions only;
/// they never overlap, so they add up to at most the traced wall time.
#[derive(Debug, Default)]
pub struct Trace {
    /// Self-time per layer.
    pub spans: BTreeMap<String, Duration>,
    /// Event counts per name.
    pub counts: BTreeMap<String, u64>,
}

impl Trace {
    /// Charge the time since `since` to `layer`; returns now, so spans can
    /// be chained without gaps.
    pub fn span(&mut self, layer: &str, since: Instant) -> Instant {
        let now = Instant::now();
        self.add(layer, now - since);
        now
    }

    /// Charge `d` to `layer`.
    pub fn add(&mut self, layer: &str, d: Duration) {
        *self.spans.entry(layer.to_owned()).or_default() += d;
    }

    /// Count `n` occurrences of `name`.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_owned()).or_default() += n;
    }
}

/// Charge the time since `since` to `layer` when tracing, returning the
/// next span's start; a no-op without a trace.
pub fn span(trace: &mut Option<&mut Trace>, layer: &str, since: Instant) -> Instant {
    match trace {
        Some(tr) => tr.span(layer, since),
        None => since,
    }
}

/// Attacker sampling-loop phases, accumulated inside the per-sample
/// closure (a map insert per sample would distort what it measures). Each
/// phase also records the instructions both threads retired inside it:
/// victim catch-up happens inside the attacker's calls.
#[derive(Debug, Default)]
pub struct Phases {
    time: [Duration; 3],
    attacker_instr: [u64; 3],
    victim_instr: [u64; 3],
    samples: u64,
}

/// Names of the three sampling phases, in loop order.
const PHASES: [&str; 3] = ["attack.prime", "attack.wait", "attack.probe"];

impl Phases {
    /// Record one sample whose phase boundaries were taken at `t` (four
    /// instants) with the retired-instruction counts `instr` (attacker,
    /// victim) at the same boundaries.
    pub fn record(&mut self, t: [Instant; 4], instr: [(u64, u64); 4]) {
        for p in 0..3 {
            self.time[p] += t[p + 1] - t[p];
            self.attacker_instr[p] += instr[p + 1].0 - instr[p].0;
            self.victim_instr[p] += instr[p + 1].1 - instr[p].1;
        }
        self.samples += 1;
    }

    /// Move the totals into the trace.
    pub fn flush(self, trace: &mut Trace) {
        for (p, name) in PHASES.iter().enumerate() {
            trace.add(name, self.time[p]);
            trace.count(&format!("{name}.attacker_instr"), self.attacker_instr[p]);
            trace.count(&format!("{name}.victim_instr"), self.victim_instr[p]);
        }
        trace.count("attack.samples", self.samples);
    }
}

/// Retired instructions (attacker, victim) as they stand on `machine`.
pub fn retired(machine: &Machine) -> (u64, u64) {
    (
        machine.counters(ATTACKER).read(PerfEvent::InstRetired),
        machine.counters(VICTIM).read(PerfEvent::InstRetired),
    )
}
