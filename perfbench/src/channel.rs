//! `covert-channel`: table1's twelve channels plus its AMD Prime+iLock row
//! at the paper payload. The sender is injected calls rather than a
//! running program, so the fused probe tier serves these probes — the
//! workload on the other side of every "sibling running" guard.

use std::time::{Duration, Instant};

use smack::channel::{random_payload, run_channel_in, ChannelFamily, ChannelReport, ChannelSpec};
use smack::session::{Scenario, Sessions};
use smack_uarch::{MicroArch, NoiseConfig, Placement, ProbeKind};

use crate::harness::{span, Counters, Drift, Fnv, Laps, Trace, Workload};

/// table1's full-mode payload length and payload seed.
const PAYLOAD_BITS: usize = 4_000;
const TABLE1_PAYLOAD_SEED: u64 = 0x7ab1e1;
/// The paper's N/A rows: write-class probes on a read-only shared page.
const NOT_APPLICABLE: [&str; 2] = ["Flush+iLock", "Flush+iStore"];

/// The workload: every table1 row on a seed-derived payload.
pub struct CovertChannel {
    payload: Vec<bool>,
    specs: Vec<ChannelSpec>,
}

/// One channel row; the N/A rows carry their refusal.
#[derive(PartialEq, Debug)]
pub struct ChannelOut {
    report: Result<ChannelReport, String>,
    counters: Counters,
}

impl CovertChannel {
    /// Inputs for `seed`: payload seed `0x7ab1e1 + seed`, so seed 0
    /// transmits table1's own payload.
    pub fn new(seed: u64) -> CovertChannel {
        let mut specs = ChannelSpec::table1();
        specs.push(ChannelSpec::prime_probe(ProbeKind::Lock));
        let payload = random_payload(PAYLOAD_BITS, TABLE1_PAYLOAD_SEED.wrapping_add(seed));
        CovertChannel { payload, specs }
    }

    /// table1 runs its last row, Prime+iLock, on Ryzen 5; channels always
    /// transmit under the noisy model.
    fn scenario(&self, cell: usize) -> Scenario {
        let arch =
            if cell + 1 < self.specs.len() { MicroArch::CascadeLake } else { MicroArch::AmdRyzen5 };
        Scenario::new(arch).with_noise(NoiseConfig::noisy())
    }

    fn label(&self, cell: usize) -> String {
        let name = self.specs[cell].name();
        if cell + 1 < self.specs.len() {
            name
        } else {
            format!("{name}-AMD")
        }
    }
}

impl Workload for CovertChannel {
    type Out = ChannelOut;

    fn cells(&self) -> Vec<String> {
        (0..self.specs.len()).map(|c| self.label(c)).collect()
    }

    fn warm(&self, sessions: &Sessions) -> Result<Duration, String> {
        let mut calibrating = Duration::ZERO;
        for (cell, spec) in self.specs.iter().enumerate() {
            let mut session = sessions.session(&self.scenario(cell));
            if spec.applicability(session.machine()).is_err() {
                continue;
            }
            // `smack::channel`'s cold placement per family.
            let cold = match spec.family {
                ChannelFamily::PrimeProbe => Placement::L2,
                ChannelFamily::FlushReload => Placement::DramOnly,
            };
            let t = Instant::now();
            session
                .calibrated_for(spec.kind, cold, NoiseConfig::noisy())
                .map_err(|e| e.to_string())?;
            calibrating += t.elapsed();
        }
        Ok(calibrating)
    }

    fn run(
        &self,
        sessions: &Sessions,
        cell: usize,
        _laps: &mut Laps,
        mut tr: Option<&mut Trace>,
    ) -> Result<ChannelOut, String> {
        let t = Instant::now();
        let mut session = sessions.session(&self.scenario(cell));
        let t = span(&mut tr, "session.checkout", t);
        let report = run_channel_in(&mut session, &self.specs[cell], &self.payload, false);
        span(&mut tr, &format!("channel.{}", self.label(cell)), t);
        if let Some(tr) = tr {
            tr.count("session.checkouts", 1);
        }
        Ok(ChannelOut { report, counters: Counters::read(session.machine()) })
    }

    fn check(&self, cell: usize, out: &ChannelOut) -> Result<(), String> {
        let name = self.specs[cell].name();
        let expect_na = cell + 1 < self.specs.len() && NOT_APPLICABLE.contains(&name.as_str());
        match &out.report {
            Err(e) if !expect_na => Err(format!("channel failed: {e}")),
            Ok(_) if expect_na => Err("the paper's N/A row transmitted".to_owned()),
            Ok(r) if r.bits != self.payload.len() || r.decoded.len() != self.payload.len() => {
                Err(format!("decoded {} of {} bits", r.decoded.len(), self.payload.len()))
            }
            _ => Ok(()),
        }
    }

    fn counters<'a>(&self, out: &'a ChannelOut) -> &'a Counters {
        &out.counters
    }

    fn digest(&self, out: &ChannelOut, h: &mut Fnv) {
        match &out.report {
            Ok(r) => {
                h.str(&r.name);
                h.u64(r.errors as u64);
                h.u64(r.cycles);
                h.f64(r.kbit_per_s);
                for bit in &r.decoded {
                    h.u64(u64::from(*bit));
                }
            }
            Err(e) => h.str(e),
        }
    }

    /// The repository quotes no numeric paper value for table1.
    fn paper_rows(&self, _cell: usize, _out: &ChannelOut) -> Vec<Drift> {
        Vec::new()
    }
}
