//! The coordinator half of the experiment service.
//!
//! [`Service::bind`] turns a selection of registry experiments into a
//! [`LeaseQueue`] of (experiment, unit) leases and opens a loopback TCP
//! listener; [`Service::run`] then serves the protocol until every unit
//! has exactly one accepted result, optionally spawning a worker fleet
//! (`all --shards N` is exactly this with N spawned workers).
//!
//! Robustness properties, in the order they matter:
//!
//! * **No lost work.** Results are accepted per *unit*, not per worker; a
//!   worker crash only returns its in-flight lease to the queue.
//! * **No hangs.** Leases expire unless heartbeated; the whole run is
//!   bounded by a wall-clock timeout that reports every outstanding unit
//!   and every worker's exit status by name instead of blocking forever.
//! * **No torn output.** Incoming partials are validated
//!   (`report::validate_partial_csv`) before acceptance and persisted
//!   with atomic tmp+rename writes; the final merge re-validates.
//! * **No double counting.** The first accepted result per unit wins;
//!   anything later is discarded as a duplicate, so re-leases can never
//!   duplicate rows in the merged CSVs.
//! * **No required fleet.** If no worker ever connects within the grace
//!   period — or the whole fleet goes silent — the coordinator executes
//!   the remaining units in-process through the same single-unit path.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smack::session::Sessions;

use crate::registry::Experiment;
use crate::report::{self, validate_partial_csv, write_atomic};
use crate::Mode;

use super::lease::{Accept, LeaseQueue, LeaseStats};
use super::proto::{read_request, write_response, Request, Response, IO_TIMEOUT};
use super::worker::execute_unit;
use super::UnitTask;

/// Default lease period: a worker must heartbeat (every quarter of this)
/// or its units re-queue.
pub const DEFAULT_LEASE_MS: u64 = 5_000;

/// Default grace before the coordinator degrades to in-process execution.
pub const DEFAULT_GRACE_MS: u64 = 2_000;

/// Default whole-run wall-clock timeout.
pub const DEFAULT_TIMEOUT_MS: u64 = 600_000;

/// Coordinator configuration — the `coordinate` CLI subcommand (and the
/// `--shards N` client) parse into this and hand it to a bound
/// [`Service`] (config-into-run, periscope style).
pub struct ServiceConfig {
    /// Experiments whose units form the work queue, in registry order.
    pub selection: Vec<&'static Experiment>,
    /// Quick or paper-scale sample counts.
    pub mode: Mode,
    /// Trial-runner threads forwarded to spawned workers and used inline.
    pub threads: Option<usize>,
    /// τ_w jitter amplitude forwarded with every lease.
    pub tau_jitter: u64,
    /// Output root for the merged CSVs (and `service/` scratch).
    pub out_root: PathBuf,
    /// Listen address (`127.0.0.1:0` = loopback, ephemeral port).
    pub bind: String,
    /// Worker processes to spawn (0 = external workers / inline only).
    pub workers: usize,
    /// Lease period in milliseconds.
    pub lease_ms: u64,
    /// Grace before in-process degradation kicks in.
    pub grace_ms: u64,
    /// Whole-run wall-clock timeout.
    pub timeout_ms: u64,
    /// Persistent calibration cache directory shared with the fleet.
    pub calib_dir: PathBuf,
}

/// What a completed service run did.
#[derive(Clone, Debug, Default)]
pub struct ServiceSummary {
    /// Total units in the queue.
    pub units: usize,
    /// Lease-queue counters (leases, expiries, duplicates, failures).
    pub stats: LeaseStats,
    /// Units the coordinator executed in-process (degraded mode).
    pub inline_units: u64,
    /// Workers spawned by this run.
    pub workers_spawned: usize,
    /// Human-readable notes about workers that exited abnormally.
    pub worker_notes: Vec<String>,
    /// Merged CSV paths, in name order.
    pub merged: Vec<PathBuf>,
    /// Wall time of the whole run.
    pub wall_ms: f64,
}

/// Accepted partial results on disk: one directory per completed unit,
/// written atomically, merged with `report::merge_shard_dirs` at the end.
#[derive(Debug)]
struct PartStore {
    root: PathBuf,
    dirs: BTreeMap<usize, PathBuf>,
}

impl PartStore {
    fn new(root: PathBuf) -> PartStore {
        PartStore { root, dirs: BTreeMap::new() }
    }

    /// Validate and persist one unit's files. Any error leaves no partial
    /// state behind that a later merge could trust by accident: files are
    /// written tmp+rename, and the unit is only recorded once every file
    /// landed.
    fn accept(&mut self, unit: usize, files: &[(String, String)]) -> Result<(), String> {
        for (name, text) in files {
            if name.contains('/') || name.contains('\\') || name.contains("..") {
                return Err(format!("suspicious file name {name:?}"));
            }
            validate_partial_csv(text).map_err(|e| format!("{name}: {e}"))?;
        }
        let dir = self.root.join(format!("unit-{unit:04}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        for (name, text) in files {
            write_atomic(&dir.join(name), text.as_bytes())
                .map_err(|e| format!("persisting {name}: {e}"))?;
        }
        self.dirs.insert(unit, dir);
        Ok(())
    }

    fn part_dirs(&self) -> Vec<PathBuf> {
        self.dirs.values().cloned().collect()
    }
}

/// What the coordinator knows about one worker id that has polled.
struct WorkerSeen {
    /// When the worker is overdue: its last live contact plus one lease
    /// period (heartbeats on a held lease extend it, like the lease).
    deadline_ms: u64,
    /// Whether it has been answered `DONE`.
    done: bool,
}

/// Shared state between the protocol handlers and the main loop.
struct Shared {
    queue: Mutex<LeaseQueue>,
    store: Mutex<PartStore>,
    /// Every worker id that has polled, for the wind-down `DONE` handshake.
    workers: Mutex<BTreeMap<String, WorkerSeen>>,
    start: Instant,
    /// `now_ms + 1` of the last worker contact (0 = never).
    last_contact: AtomicU64,
    /// Tells the accept loop to wind down.
    shutdown: AtomicBool,
    mode: Mode,
    tau_jitter: u64,
    lease_ms: u64,
    inline_units: AtomicU64,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn touch(&self) {
        self.last_contact.store(self.now_ms() + 1, Ordering::Relaxed);
    }

    /// Record live contact from `worker` (`done`: it was just answered
    /// `DONE`), pushing its deadline one lease period out.
    fn seen(&self, worker: &str, done: bool) {
        let deadline_ms = self.now_ms() + self.lease_ms;
        let mut workers = self.workers.lock().expect("worker table poisoned");
        let w = workers.entry(worker.to_owned()).or_insert(WorkerSeen { deadline_ms, done });
        w.deadline_ms = deadline_ms;
        w.done |= done;
    }

    /// Whether some worker that has polled is still owed `DONE`: it has
    /// not received one and its deadline has not passed. Wind-down keeps
    /// the listener open until this clears, so a worker polling just
    /// after the queue settles is told to exit instead of finding the
    /// coordinator gone.
    fn owes_done(&self, now_ms: u64) -> bool {
        let workers = self.workers.lock().expect("worker table poisoned");
        workers.values().any(|w| !w.done && now_ms < w.deadline_ms)
    }

    /// Serve one request against the queue + store.
    fn respond(&self, req: Request) -> Response {
        match req {
            Request::Poll { worker } => {
                self.touch();
                let mut q = self.queue.lock().expect("lease queue poisoned");
                let settled = q.settled();
                self.seen(&worker, settled);
                if settled {
                    return Response::Done;
                }
                match q.next(&worker, self.now_ms()) {
                    Some(task) => Response::Lease {
                        task,
                        mode: self.mode,
                        tau_jitter: self.tau_jitter,
                        lease_ms: q.lease_ms(),
                    },
                    None => Response::Wait { ms: 50 },
                }
            }
            Request::Beat { worker, unit } => {
                self.touch();
                let mut q = self.queue.lock().expect("lease queue poisoned");
                if q.heartbeat(unit, &worker, self.now_ms()) {
                    self.seen(&worker, false);
                    Response::Ok
                } else {
                    Response::Bad { reason: format!("lease on unit {unit} was lost") }
                }
            }
            Request::Result { worker, unit, files } => {
                self.touch();
                self.seen(&worker, false);
                self.offer(unit, &files)
            }
            Request::Fail { worker, unit, error } => {
                self.touch();
                self.seen(&worker, false);
                let mut q = self.queue.lock().expect("lease queue poisoned");
                eprintln!("[service] worker {worker} failed unit {unit}: {error}");
                q.fail(unit, &error);
                Response::Ok
            }
        }
    }

    /// Offer one unit result: dedup, validate, persist, complete —
    /// all under the queue lock so concurrent duplicates serialize.
    fn offer(&self, unit: usize, files: &[(String, String)]) -> Response {
        let mut q = self.queue.lock().expect("lease queue poisoned");
        if q.is_done(unit) {
            let _ = q.complete(unit); // counts the duplicate
            return Response::Dup;
        }
        let mut store = self.store.lock().expect("part store poisoned");
        if let Err(e) = store.accept(unit, files) {
            q.fail(unit, &e);
            return Response::Bad { reason: e };
        }
        match q.complete(unit) {
            Accept::First => Response::Ok,
            Accept::Duplicate => Response::Dup,
        }
    }
}

/// A bound, not-yet-running service. Splitting bind from run lets
/// callers (and tests) learn the listen address before workers start.
pub struct Service {
    cfg: ServiceConfig,
    listener: TcpListener,
    addr: String,
    shared: Arc<Shared>,
}

/// Build the global unit queue for a selection: the same numbering
/// `registry::run_selection` uses for shard round-robin.
pub fn unit_tasks(selection: &[&Experiment], mode: Mode) -> Vec<UnitTask> {
    let mut tasks = Vec::new();
    for exp in selection {
        for local in 0..(exp.units)(mode) {
            tasks.push(UnitTask { global: tasks.len(), exp: exp.name.to_owned(), local });
        }
    }
    tasks
}

impl Service {
    /// Bind the listener and build the lease queue.
    ///
    /// # Errors
    ///
    /// Returns a description when the bind address is unusable or the
    /// selection has no units.
    pub fn bind(cfg: ServiceConfig) -> Result<Service, String> {
        let tasks = unit_tasks(&cfg.selection, cfg.mode);
        if tasks.is_empty() {
            return Err("nothing to do: the selection has no units".to_owned());
        }
        let listener = TcpListener::bind(&cfg.bind)
            .map_err(|e| format!("binding coordinator socket {}: {e}", cfg.bind))?;
        listener.set_nonblocking(true).map_err(|e| format!("nonblocking listener: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("coordinator local address: {e}"))?
            .to_string();
        let shared = Arc::new(Shared {
            queue: Mutex::new(LeaseQueue::new(tasks, cfg.lease_ms)),
            store: Mutex::new(PartStore::new(cfg.out_root.join("service").join("parts"))),
            workers: Mutex::new(BTreeMap::new()),
            start: Instant::now(),
            last_contact: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            mode: cfg.mode,
            tau_jitter: cfg.tau_jitter,
            lease_ms: cfg.lease_ms,
            inline_units: AtomicU64::new(0),
        });
        Ok(Service { cfg, listener, addr, shared })
    }

    /// The bound listen address (`host:port`), for workers to connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Serve until every unit has a result (or the run times out), then
    /// merge the accepted partials into the output root.
    ///
    /// # Errors
    ///
    /// Returns a named description on timeout (listing outstanding units
    /// and worker exit statuses), on units that exhausted their attempt
    /// budget, and on merge failures. Worker crashes that the lease layer
    /// absorbed are *not* errors; they surface in the summary's notes.
    pub fn run(self) -> Result<ServiceSummary, String> {
        // The coordinator shares the fleet's calibration cache: its
        // inline degradation path then reuses (and contributes) warm
        // calibrations exactly like any worker.
        Sessions::global().attach_disk_cache(&self.cfg.calib_dir);

        let accept_thread = spawn_accept_loop(&self.listener, &self.shared);
        let mut children = self.spawn_workers()?;
        let mut worker_notes = Vec::new();

        let grace_deadline = self.cfg.grace_ms;
        let result = loop {
            let now = self.shared.now_ms();
            {
                let mut q = self.shared.queue.lock().expect("lease queue poisoned");
                q.expire(now);
                if q.settled() {
                    break Ok(());
                }
            }
            if now >= self.cfg.timeout_ms {
                break Err(self.timeout_report(&mut children));
            }
            reap_exited_workers(&mut children, &mut worker_notes);
            if self.should_run_inline(now, grace_deadline, &children) {
                self.run_one_inline();
                continue;
            }
            std::thread::sleep(Duration::from_millis(20));
        };

        // Wind down: answer remaining polls with DONE until every worker
        // that has polled received it (or went overdue) and every spawned
        // worker (even a chaos-stalled one) had time to exit cleanly, then
        // stop accepting and kill stragglers. The run timeout bounds it.
        let reap_deadline = Instant::now() + Duration::from_millis(2 * self.cfg.lease_ms + 1000);
        loop {
            reap_exited_workers(&mut children, &mut worker_notes);
            let now = self.shared.now_ms();
            let children_left = !children.is_empty() && Instant::now() < reap_deadline;
            if !(children_left || self.shared.owes_done(now)) || now >= self.cfg.timeout_ms {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        for (index, mut child) in children {
            let _ = child.kill();
            let _ = child.wait();
            worker_notes.push(format!("worker {index} was still running at shutdown and killed"));
        }
        self.shared.shutdown.store(true, Ordering::Relaxed);
        let _ = accept_thread.join();
        result?;

        let queue = self.shared.queue.lock().expect("lease queue poisoned");
        let exhausted = queue.exhausted();
        if !exhausted.is_empty() {
            let list: Vec<String> = exhausted
                .iter()
                .map(|(t, e)| format!("{} unit {} ({e})", t.exp, t.local))
                .collect();
            return Err(format!("units failed every attempt: {}", list.join("; ")));
        }

        let store = self.shared.store.lock().expect("part store poisoned");
        let merged = report::merge_shard_dirs(&store.part_dirs(), &self.cfg.out_root)
            .map_err(|e| format!("merging unit partials: {e}"))?;
        Ok(ServiceSummary {
            units: queue.len(),
            stats: queue.stats(),
            inline_units: self.shared.inline_units.load(Ordering::Relaxed),
            workers_spawned: self.cfg.workers,
            worker_notes,
            merged,
            wall_ms: self.shared.start.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// Spawn the configured worker fleet, logs under `<out>/service/`.
    fn spawn_workers(&self) -> Result<Vec<(usize, Child)>, String> {
        if self.cfg.workers == 0 {
            return Ok(Vec::new());
        }
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let log_dir = self.cfg.out_root.join("service");
        std::fs::create_dir_all(&log_dir)
            .map_err(|e| format!("creating {}: {e}", log_dir.display()))?;
        let mut children = Vec::with_capacity(self.cfg.workers);
        for k in 1..=self.cfg.workers {
            let log_path = log_dir.join(format!("worker-{k}.log"));
            let log = std::fs::File::create(&log_path)
                .map_err(|e| format!("creating {}: {e}", log_path.display()))?;
            let log_err = log.try_clone().map_err(|e| format!("cloning log handle: {e}"))?;
            let mut cmd = Command::new(&exe);
            cmd.arg("work")
                .arg(format!("--connect={}", self.addr))
                .env("SMACK_WORKER_INDEX", k.to_string())
                .env("SMACK_CALIB_DIR", &self.cfg.calib_dir)
                .stdin(Stdio::null())
                .stdout(log)
                .stderr(log_err);
            if let Some(t) = self.cfg.threads {
                cmd.arg(format!("--threads={t}"));
            }
            let child = cmd.spawn().map_err(|e| format!("spawning worker {k}: {e}"))?;
            children.push((k, child));
        }
        Ok(children)
    }

    /// Degrade to in-process execution when no worker has ever connected
    /// within the grace period, or the whole fleet has gone silent for a
    /// lease period past the grace.
    fn should_run_inline(&self, now: u64, grace: u64, children: &[(usize, Child)]) -> bool {
        let last = self.shared.last_contact.load(Ordering::Relaxed);
        if last == 0 {
            // Never contacted: wait out the grace period (but not at all
            // if there is no fleet to wait for).
            let fleet_expected = self.cfg.workers > 0 || !children.is_empty();
            now >= grace || !fleet_expected && now >= grace.min(200)
        } else {
            now.saturating_sub(last - 1) >= self.cfg.lease_ms + grace
        }
    }

    /// Lease one unit to the coordinator itself and execute it inline —
    /// the same execute/validate/accept path a worker result takes.
    fn run_one_inline(&self) {
        let task = {
            let mut q = self.shared.queue.lock().expect("lease queue poisoned");
            q.next("coordinator-inline", self.shared.now_ms())
        };
        let Some(task) = task else {
            // Nothing pending (work in flight elsewhere): brief pause so
            // the main loop does not spin.
            std::thread::sleep(Duration::from_millis(20));
            return;
        };
        match execute_unit(
            &task.exp,
            task.local,
            self.cfg.mode,
            self.cfg.tau_jitter,
            self.cfg.threads,
        ) {
            Ok(files) => {
                self.shared.inline_units.fetch_add(1, Ordering::Relaxed);
                let resp = self.shared.offer(task.global, &files);
                if let Response::Bad { reason } = resp {
                    eprintln!("[service] inline unit {} rejected: {reason}", task.global);
                }
            }
            Err(e) => {
                let mut q = self.shared.queue.lock().expect("lease queue poisoned");
                eprintln!("[service] inline unit {} failed: {e}", task.global);
                q.fail(task.global, &e);
            }
        }
    }

    /// Build the timeout error: every outstanding unit and every worker's
    /// status, by name — the opposite of blocking forever or silently
    /// merging a partial tree.
    fn timeout_report(&self, children: &mut Vec<(usize, Child)>) -> String {
        let outstanding = {
            let q = self.shared.queue.lock().expect("lease queue poisoned");
            q.outstanding()
        };
        let units: Vec<String> =
            outstanding.iter().map(|t| format!("{} unit {}", t.exp, t.local)).collect();
        let mut workers = Vec::new();
        for (index, child) in children.iter_mut() {
            let status = match child.try_wait() {
                Ok(Some(status)) => format!("exited with {status}"),
                Ok(None) => "still running (killed)".to_owned(),
                Err(e) => format!("unknown ({e})"),
            };
            workers.push(format!("worker {index}: {status}"));
            let _ = child.kill();
            let _ = child.wait();
        }
        children.clear();
        format!(
            "service timed out after {} ms; outstanding units: [{}]; workers: [{}]",
            self.cfg.timeout_ms,
            units.join(", "),
            workers.join(", ")
        )
    }
}

/// Reap workers that have exited, noting abnormal exits. A crashed
/// worker is *not* an error — its leases expire and re-queue — but the
/// summary names it so partial fleets never pass silently.
fn reap_exited_workers(children: &mut Vec<(usize, Child)>, notes: &mut Vec<String>) {
    children.retain_mut(|(index, child)| match child.try_wait() {
        Ok(Some(status)) => {
            if !status.success() {
                notes.push(format!("worker {index} exited abnormally with {status}"));
            }
            false
        }
        Ok(None) => true,
        Err(e) => {
            notes.push(format!("worker {index} unreapable: {e}"));
            false
        }
    });
}

/// Accept connections until shutdown, one short-lived handler thread per
/// connection.
fn spawn_accept_loop(listener: &TcpListener, shared: &Arc<Shared>) -> std::thread::JoinHandle<()> {
    let listener = listener.try_clone().expect("cloning listener");
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        while !shared.shutdown.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || handle_connection(stream, &shared));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    })
}

/// Serve one request/response exchange.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = BufReader::new(stream);
    let response = match read_request(&mut reader) {
        Ok(req) => shared.respond(req),
        Err(e) => Response::Bad { reason: format!("malformed request: {e}") },
    };
    let mut stream = reader.into_inner();
    let _ = write_response(&mut stream, &response);
}
