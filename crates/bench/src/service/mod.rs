//! The fault-tolerant distributed experiment service.
//!
//! `all --shards N` runs its units through this module: a lease-based
//! coordinator/worker split built for large measurement campaigns that
//! must survive worker death, torn partial CSVs and hung workers
//! **without** giving up bit-identical output:
//!
//! * the [`coordinator`] owns a [`lease::LeaseQueue`] of (experiment,
//!   unit) leases with heartbeat-extended deadlines, accepts workers over
//!   a loopback TCP socket ([`proto`]), deduplicates re-leased results by
//!   unit id, persists every accepted partial CSV atomically, and merges
//!   the parts with `report::merge_shard_dirs` when the queue drains;
//! * [`worker`]s pull leases, execute units through the existing registry
//!   `Ctx` (the disk calibration cache makes re-entry nearly free),
//!   stream unit-tagged partial CSVs back, heartbeat while executing, and
//!   retry transient connection failures with capped exponential backoff;
//! * a lease whose deadline passes without a heartbeat is re-queued, so a
//!   killed or hung worker only costs its in-flight units' wall time;
//! * the coordinator is itself a worker — a thread running the same
//!   worker loop against its own listener — so a run completes with no
//!   other worker, and every unit takes the one lease → validate →
//!   persist path; a service run always terminates with either complete
//!   output or a named error, never a silently partial tree;
//! * the [`chaos`] harness (`SMACK_CHAOS`) injects worker kills, stalled
//!   heartbeats, dropped results and torn CSV writes deterministically,
//!   so every recovery path above is driven by tests and CI.
//!
//! Because each unit derives its seeds from its own index, a unit's rows
//! are identical wherever and however often it executes; with duplicates
//! dropped by unit id, the merged CSVs are byte-identical to an unfaulted
//! solo run under every injected fault.

pub mod chaos;
pub mod coordinator;
pub mod lease;
pub mod proto;
pub mod worker;

use crate::Mode;

/// One schedulable atom of work: experiment `exp`, local unit `local`,
/// globally numbered `global` across the run's whole selection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitTask {
    /// Global unit id — the dedup key.
    pub global: usize,
    /// Registry name of the owning experiment.
    pub exp: String,
    /// Unit index within the experiment.
    pub local: usize,
}

/// Encode a [`Mode`] for the wire.
pub fn mode_token(mode: Mode) -> &'static str {
    match mode {
        Mode::Quick => "quick",
        Mode::Full => "full",
    }
}

/// Decode a [`Mode`] from the wire.
pub fn parse_mode(token: &str) -> Option<Mode> {
    match token {
        "quick" => Some(Mode::Quick),
        "full" => Some(Mode::Full),
        _ => None,
    }
}

/// Capped exponential backoff for transient worker failures: attempt 0
/// waits `base_ms`, each retry doubles, clamped to `cap_ms`.
pub fn backoff_ms(attempt: u32, base_ms: u64, cap_ms: u64) -> u64 {
    base_ms.saturating_mul(1u64 << attempt.min(32)).min(cap_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        assert_eq!(backoff_ms(0, 50, 2000), 50);
        assert_eq!(backoff_ms(1, 50, 2000), 100);
        assert_eq!(backoff_ms(2, 50, 2000), 200);
        assert_eq!(backoff_ms(5, 50, 2000), 1600);
        assert_eq!(backoff_ms(6, 50, 2000), 2000, "capped");
        assert_eq!(backoff_ms(63, 50, 2000), 2000, "no overflow at large attempts");
    }

    #[test]
    fn mode_tokens_round_trip() {
        for mode in [Mode::Quick, Mode::Full] {
            assert_eq!(parse_mode(mode_token(mode)), Some(mode));
        }
        assert_eq!(parse_mode("nope"), None);
    }
}
