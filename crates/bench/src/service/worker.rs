//! The worker half of the experiment service.
//!
//! A worker is a loop over the coordinator protocol: poll for a lease,
//! execute the leased (experiment, unit) through a registry `Ctx`
//! restricted to that unit, stream the unit-tagged partial CSVs back, and
//! heartbeat from a side thread while the unit runs so the lease deadline
//! keeps moving. Workers are deliberately stateless: all run parameters
//! (mode, τ jitter, lease period) arrive with each lease, so one warm
//! fleet can serve arbitrary trial traffic, and a worker that dies loses
//! nothing but its in-flight unit — the calibration cache on disk
//! (`SMACK_CALIB_DIR`) makes a replacement worker's re-entry nearly free.
//!
//! Transient failures (connection refused while the coordinator restarts,
//! timeouts) retry with capped exponential backoff; a unit that panics is
//! reported as `FAIL` so the coordinator can re-queue it against its
//! attempt budget. The [`ChaosPlan`] hooks let tests and CI inject kills,
//! stalls, dropped results and torn writes at exact lease ordinals.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::registry::{self, Ctx};
use crate::runner::Runner;
use crate::Mode;

use super::chaos::{tear_csv, ChaosPlan};
use super::proto::{exchange, Request, Response};
use super::{backoff_ms, UnitTask};

/// Consecutive failed exchanges before the worker gives up on the
/// coordinator entirely.
const MAX_CONNECT_ATTEMPTS: u32 = 8;

/// Backoff base / cap for transient failures (ms).
const BACKOFF_BASE_MS: u64 = 50;
const BACKOFF_CAP_MS: u64 = 2000;

/// Worker configuration — the `work` CLI subcommand parses into this and
/// hands it to [`run_worker`] (config-into-run, periscope style).
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub connect: String,
    /// Trial-runner worker threads (`None` = one per available core).
    pub threads: Option<usize>,
    /// Identity reported in every message (shows up in lease ownership).
    pub id: String,
    /// Injected fault schedule (`SMACK_CHAOS` for a `work` process,
    /// `ServiceConfig::chaos` for the coordinator's own worker).
    pub chaos: ChaosPlan,
}

/// What a worker did over its lifetime.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Units executed and accepted.
    pub completed: u64,
    /// Results the coordinator discarded as duplicates.
    pub duplicates: u64,
    /// Failed units (panics, rejected payloads).
    pub failures: u64,
}

/// Execute one leased unit of `exp_name` in-process: run the experiment
/// on that unit alone into a scratch directory, then collect the
/// unit-tagged partial CSVs it wrote. Every service unit — leased to a
/// spawned worker, an external one, or the coordinator's own — runs
/// through here, so this is where a lease's unit is validated.
///
/// # Errors
///
/// Returns a description when the experiment is unknown, the unit is out
/// of its range, the run panics, or it produces no CSVs.
pub fn execute_unit(
    exp_name: &str,
    local: usize,
    mode: Mode,
    tau_jitter: u64,
    threads: Option<usize>,
) -> Result<Vec<(String, String)>, String> {
    static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);
    let exp = registry::find(exp_name).ok_or_else(|| format!("unknown experiment {exp_name:?}"))?;
    let units = (exp.units)(mode);
    if local >= units {
        return Err(format!("experiment {exp_name:?} has no unit {local} (it has {units})"));
    }
    let scratch = std::env::temp_dir().join(format!(
        "smack-lease-{}-{}",
        std::process::id(),
        SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let runner = threads.map_or_else(Runner::available, Runner::with_threads);
    let ctx = Ctx::solo(mode, runner)
        .with_out_dir(Some(scratch.clone()))
        .with_tau_jitter(tau_jitter)
        .with_unit(local);
    let run = catch_unwind(AssertUnwindSafe(|| (exp.run)(&ctx)));
    let collected = match run {
        Ok(()) => collect_csvs(&scratch, exp.csvs),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic".to_owned());
            Err(format!("unit panicked: {msg}"))
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    collected
}

/// Gather the CSVs an experiment wrote into its scratch directory.
fn collect_csvs(scratch: &Path, csvs: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::with_capacity(csvs.len());
    for name in csvs {
        let file = format!("{name}.csv");
        match std::fs::read_to_string(scratch.join(&file)) {
            Ok(text) => files.push((file, text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("reading {file}: {e}")),
        }
    }
    if files.is_empty() {
        return Err("unit produced no CSVs".to_owned());
    }
    Ok(files)
}

/// Run the worker loop until the coordinator reports the run done.
///
/// # Errors
///
/// Returns a description when the coordinator stays unreachable past the
/// backoff budget.
pub fn run_worker(cfg: &WorkerConfig) -> Result<WorkerSummary, String> {
    let mut summary = WorkerSummary::default();
    let mut attempt = 0u32;
    let mut lease_no = 0u64;
    loop {
        match exchange(&cfg.connect, &Request::Poll { worker: cfg.id.clone() }) {
            Ok(Response::Done) => return Ok(summary),
            Ok(Response::Wait { ms }) => {
                attempt = 0;
                std::thread::sleep(Duration::from_millis(ms.clamp(10, 1000)));
            }
            Ok(Response::Lease { task, mode, tau_jitter, lease_ms }) => {
                attempt = 0;
                lease_no += 1;
                serve_lease(cfg, &mut summary, lease_no, &task, mode, tau_jitter, lease_ms);
            }
            Ok(other) => {
                return Err(format!("unexpected poll response {other:?}"));
            }
            Err(e) => {
                attempt += 1;
                if attempt >= MAX_CONNECT_ATTEMPTS {
                    return Err(format!("coordinator unreachable after {attempt} attempts: {e}"));
                }
                std::thread::sleep(Duration::from_millis(backoff_ms(
                    attempt - 1,
                    BACKOFF_BASE_MS,
                    BACKOFF_CAP_MS,
                )));
            }
        }
    }
}

/// Execute one lease end to end: heartbeats, execution, chaos hooks,
/// result delivery.
fn serve_lease(
    cfg: &WorkerConfig,
    summary: &mut WorkerSummary,
    lease_no: u64,
    task: &UnitTask,
    mode: Mode,
    tau_jitter: u64,
    lease_ms: u64,
) {
    let stalled = cfg.chaos.stall(lease_no);
    let heartbeat = if stalled {
        // Injected hang: no heartbeats, and sleep well past the deadline
        // so the coordinator re-leases the unit before we report.
        std::thread::sleep(Duration::from_millis(lease_ms + lease_ms / 2 + 200));
        None
    } else {
        Some(start_heartbeat(cfg, task.global, lease_ms))
    };

    let outcome = execute_unit(&task.exp, task.local, mode, tau_jitter, cfg.threads);

    if let Some((stop, handle)) = heartbeat {
        stop.store(true, Ordering::Relaxed);
        let _ = handle.join();
    }

    // Injected crash: die after executing, before reporting — the
    // worst-timed kill, losing a whole unit of work.
    if cfg.chaos.kill_after(lease_no) {
        eprintln!("[chaos] worker {} exiting after lease {lease_no}", cfg.id);
        std::process::exit(17);
    }

    match outcome {
        Err(error) => {
            summary.failures += 1;
            let _ = exchange(
                &cfg.connect,
                &Request::Fail { worker: cfg.id.clone(), unit: task.global, error },
            );
        }
        Ok(mut files) => {
            if cfg.chaos.tear(lease_no) {
                // Injected torn write: deliver truncated CSVs, as if this
                // process had been killed mid-write without the atomic
                // rename discipline.
                for (_, text) in &mut files {
                    *text = tear_csv(text);
                }
            }
            if cfg.chaos.drop_result(lease_no) {
                return; // injected message loss; the lease will expire
            }
            send_result(cfg, summary, task.global, files);
        }
    }
}

/// Deliver a result frame, retrying transient failures with backoff.
fn send_result(
    cfg: &WorkerConfig,
    summary: &mut WorkerSummary,
    unit: usize,
    files: Vec<(String, String)>,
) {
    let req = Request::Result { worker: cfg.id.clone(), unit, files };
    for attempt in 0..MAX_CONNECT_ATTEMPTS {
        match exchange(&cfg.connect, &req) {
            Ok(Response::Ok) => {
                summary.completed += 1;
                return;
            }
            Ok(Response::Dup) => {
                summary.duplicates += 1;
                return;
            }
            Ok(_) => {
                // Rejected (torn payload, lost lease): the coordinator
                // has re-queued the unit; nothing more to deliver.
                summary.failures += 1;
                return;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(backoff_ms(
                attempt,
                BACKOFF_BASE_MS,
                BACKOFF_CAP_MS,
            ))),
        }
    }
    // Undeliverable: the lease will expire and the unit re-runs.
    summary.failures += 1;
}

/// Start the heartbeat side thread: extend the lease every quarter
/// period until stopped. Failures are ignored — a missed beat only costs
/// an early expiry, which the dedup layer absorbs.
fn start_heartbeat(
    cfg: &WorkerConfig,
    unit: usize,
    lease_ms: u64,
) -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let connect = cfg.connect.clone();
    let worker = cfg.id.clone();
    let interval = Duration::from_millis((lease_ms / 4).max(25));
    let handle = std::thread::spawn(move || {
        while !flag.load(Ordering::Relaxed) {
            let _ = exchange(&connect, &Request::Beat { worker: worker.clone(), unit });
            // Sleep in small steps so stop requests take effect quickly.
            let mut slept = Duration::ZERO;
            while slept < interval && !flag.load(Ordering::Relaxed) {
                let step = Duration::from_millis(10).min(interval - slept);
                std::thread::sleep(step);
                slept += step;
            }
        }
    });
    (stop, handle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_unit_produces_tagged_partials() {
        let files = execute_unit("fig5", 1, Mode::Quick, 0, Some(2)).expect("fig5 unit 1 runs");
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].0, "fig5.csv");
        let text = &files[0].1;
        assert!(text.starts_with("unit,"), "partial is unit-tagged: {text:?}");
        assert!(text.lines().skip(1).all(|l| l.starts_with("1,")), "only unit 1 rows");
        crate::report::validate_partial_csv(text).expect("partial validates");
    }

    #[test]
    fn execute_unit_rejects_unknown_experiments() {
        let err = execute_unit("nope", 0, Mode::Quick, 0, Some(1)).unwrap_err();
        assert!(err.contains("unknown experiment"), "{err}");
    }

    #[test]
    fn execute_unit_rejects_out_of_range_units() {
        let units = crate::experiments::FIG5_KINDS.len();
        let err = execute_unit("fig5", units, Mode::Quick, 0, Some(1)).unwrap_err();
        assert!(err.contains(&format!("no unit {units}")), "{err}");
    }
}
