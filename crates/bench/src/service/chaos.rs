//! Deterministic fault injection for the experiment service.
//!
//! The `SMACK_CHAOS` environment variable holds a comma-separated list of
//! directives, each optionally scoped to one worker with `@<index>`
//! (workers learn their one-based index from `SMACK_WORKER_INDEX`, set by
//! the coordinator when it spawns the fleet):
//!
//! ```text
//! SMACK_CHAOS="kill-after-unit=1@1,torn-write=1@2,stall-heartbeat=1@3,drop-result=2"
//! ```
//!
//! * `kill-after-unit=K` — the worker exits (code 17) immediately after
//!   *executing* its K-th lease, before reporting the result: a crash
//!   mid-unit. The lease expires and the unit re-runs elsewhere.
//! * `stall-heartbeat=K` — on its K-th lease the worker sends no
//!   heartbeats and sleeps past the lease deadline before executing: a
//!   hang. The coordinator re-queues the unit; the stalled worker's late
//!   result is deduplicated by unit id.
//! * `drop-result=K` — the K-th result frame is silently not sent: a lost
//!   message. The lease expires and the unit re-runs.
//! * `torn-write=K` — the partial CSVs of the K-th lease are truncated
//!   mid-file before being reported: a kill mid-write. The coordinator
//!   rejects the torn payload and re-queues the unit.
//!
//! Every directive counts *leases of one worker process*, so a given
//! `SMACK_CHAOS` value replays the exact same fault schedule on every
//! run — which is what lets CI assert byte-identical output under faults.
//!
//! The coordinator's own worker never reads `SMACK_CHAOS`; its plan is
//! `ServiceConfig::chaos`, which refuses `kill-after-unit` (the kill
//! would exit the coordinator itself).

/// One parsed directive.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Exit after executing lease `K` (1-based), before reporting.
    KillAfterUnit(u64),
    /// Send no heartbeats for lease `K` and sleep past the deadline.
    StallHeartbeat(u64),
    /// Do not send the result frame of lease `K`.
    DropResult(u64),
    /// Truncate the partial CSVs of lease `K` before reporting them.
    TornWrite(u64),
}

/// The chaos schedule one worker process operates under.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    faults: Vec<Fault>,
}

impl ChaosPlan {
    /// An empty plan: no injected faults.
    pub fn none() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// Parse a `SMACK_CHAOS` value, keeping only the directives that
    /// apply to worker `worker_index` (one-based; unscoped directives
    /// apply to every worker).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed directive.
    pub fn parse(spec: &str, worker_index: u64) -> Result<ChaosPlan, String> {
        let mut faults = Vec::new();
        for directive in spec.split(',').map(str::trim).filter(|d| !d.is_empty()) {
            let (name, rest) = directive
                .split_once('=')
                .ok_or_else(|| format!("chaos directive `{directive}` is missing `=K`"))?;
            let (k, scope) = match rest.split_once('@') {
                Some((k, w)) => {
                    let w = w
                        .parse::<u64>()
                        .map_err(|_| format!("chaos directive `{directive}`: bad worker `{w}`"))?;
                    (k, Some(w))
                }
                None => (rest, None),
            };
            let k =
                k.parse::<u64>().ok().filter(|k| *k > 0).ok_or_else(|| {
                    format!("chaos directive `{directive}`: K must be a positive")
                })?;
            if scope.is_some_and(|w| w != worker_index) {
                continue;
            }
            faults.push(match name {
                "kill-after-unit" => Fault::KillAfterUnit(k),
                "stall-heartbeat" => Fault::StallHeartbeat(k),
                "drop-result" => Fault::DropResult(k),
                "torn-write" => Fault::TornWrite(k),
                _ => return Err(format!("unknown chaos directive `{name}`")),
            });
        }
        Ok(ChaosPlan { faults })
    }

    /// The plan for this process: `SMACK_CHAOS` filtered by
    /// `SMACK_WORKER_INDEX` (malformed specs are reported and ignored —
    /// chaos must never break a production run it was not aimed at).
    pub fn from_env() -> ChaosPlan {
        let Ok(spec) = std::env::var("SMACK_CHAOS") else {
            return ChaosPlan::none();
        };
        let worker = std::env::var("SMACK_WORKER_INDEX")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        match ChaosPlan::parse(&spec, worker) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("warning: ignoring SMACK_CHAOS: {e}");
                ChaosPlan::none()
            }
        }
    }

    /// Whether any fault is scheduled at all.
    pub fn is_none(&self) -> bool {
        self.faults.is_empty()
    }

    /// Whether the plan kills its process after some lease.
    pub fn kills(&self) -> bool {
        self.faults.iter().any(|f| matches!(f, Fault::KillAfterUnit(_)))
    }

    /// Kill the process after executing lease `lease_no` (1-based)?
    pub fn kill_after(&self, lease_no: u64) -> bool {
        self.faults.contains(&Fault::KillAfterUnit(lease_no))
    }

    /// Stall (no heartbeats, sleep past deadline) on lease `lease_no`?
    pub fn stall(&self, lease_no: u64) -> bool {
        self.faults.contains(&Fault::StallHeartbeat(lease_no))
    }

    /// Drop the result frame of lease `lease_no`?
    pub fn drop_result(&self, lease_no: u64) -> bool {
        self.faults.contains(&Fault::DropResult(lease_no))
    }

    /// Tear the partial CSVs of lease `lease_no`?
    pub fn tear(&self, lease_no: u64) -> bool {
        self.faults.contains(&Fault::TornWrite(lease_no))
    }
}

/// Truncate CSV text the way a kill mid-write would: keep roughly half
/// the bytes, cutting mid-row (and never leaving a trailing newline).
pub fn tear_csv(text: &str) -> String {
    let cut = (text.len() / 2).max(1).min(text.len());
    let mut torn: String = text.chars().take(cut).collect();
    while torn.ends_with('\n') {
        torn.pop();
    }
    torn
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scoped_and_unscoped_directives() {
        let spec = "kill-after-unit=1@1, torn-write=2@2 ,drop-result=3,stall-heartbeat=4@1";
        let w1 = ChaosPlan::parse(spec, 1).unwrap();
        assert!(w1.kills() && w1.kill_after(1) && !w1.kill_after(2));
        assert!(w1.drop_result(3), "unscoped applies everywhere");
        assert!(w1.stall(4));
        assert!(!w1.tear(2), "scoped to worker 2");

        let w2 = ChaosPlan::parse(spec, 2).unwrap();
        assert!(w2.tear(2) && w2.drop_result(3));
        assert!(!w2.kills() && !w2.stall(4));

        assert!(ChaosPlan::parse("", 1).unwrap().is_none());
    }

    #[test]
    fn rejects_malformed_directives() {
        for bad in ["kill-after-unit", "kill-after-unit=0", "kill-after-unit=x", "explode=1"] {
            assert!(ChaosPlan::parse(bad, 1).is_err(), "{bad}");
        }
    }

    #[test]
    fn tear_cuts_mid_file_without_trailing_newline() {
        let text = "unit,a,b\n0,x,y\n0,p,q\n";
        let torn = tear_csv(text);
        assert!(torn.len() < text.len());
        assert!(!torn.ends_with('\n'));
        assert!(text.starts_with(&torn));
    }
}
