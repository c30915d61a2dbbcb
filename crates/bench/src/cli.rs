//! The one CLI behind the `all` binary.
//!
//! Experiments are looked up by name in the [`crate::registry`]: `all`
//! alone runs the paper artifacts, `all fig5 table2` runs exactly those
//! two, the word `ablations` selects every ablation, and `--list`
//! enumerates everything.
//!
//! ```text
//! all [EXPERIMENT..] [--full] [--threads N] [--out DIR] [--tau-jitter N] [--list]
//!     [--shards N [--addr HOST:PORT] [--lease-ms N] [--timeout-ms N]]
//! all work --connect HOST:PORT [--threads N]
//! ```
//!
//! Units run one of two ways: in this process on runner threads (the
//! default), or through the fault-tolerant experiment service
//! ([`crate::service`]) with `--shards N`.
//!
//! * `--shards N` — N executors: the service coordinator (itself a
//!   worker) plus N−1 spawned `work` processes. The unit-tagged partial
//!   CSVs are merged into the output directory, bit-identical to the
//!   in-process run even under worker crashes. `--addr` picks the listen
//!   address (external `work --connect` processes may join there),
//!   `--lease-ms` the heartbeat deadline and `--timeout-ms` the whole-run
//!   wall-clock bound.
//! * `work` — run a worker: connect to a coordinator, execute leased
//!   units, stream partial CSVs back. Mode and τ jitter arrive with each
//!   lease, so workers take no experiment flags.
//! * `--out DIR` — CSV output directory (default `target/repro/`).
//! * `--tau-jitter N` — jitter the fig5/table2 exposure window by ±N
//!   cycles per trace (default 0, the fixed historical window).
//!
//! The persistent calibration cache lives at `SMACK_CALIB_DIR` when set,
//! else `<out>/calib/`; every process attaches it, so a worker (or a later
//! run) loads calibrations an earlier process computed instead of
//! recomputing them.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use smack::session::Sessions;

use crate::registry::{self, Experiment, Group, RunSpec};
use crate::report;
use crate::runner::Runner;
use crate::service::chaos::ChaosPlan;
use crate::service::coordinator::{Service, ServiceConfig, DEFAULT_LEASE_MS, DEFAULT_TIMEOUT_MS};
use crate::service::worker::{run_worker, WorkerConfig};
use crate::Mode;

/// The word that selects every ablation.
const ABLATIONS: &str = "ablations";

/// The subcommand: an experiment run or a service worker.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Cmd {
    /// Run experiments, in this process or through the service
    /// (`--shards N`).
    Run,
    /// Run an experiment-service worker (`work`).
    Work,
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
struct Args {
    cmd: Cmd,
    names: Vec<String>,
    mode: Mode,
    threads: Option<usize>,
    shards: Option<usize>,
    out: Option<PathBuf>,
    tau_jitter: u64,
    list: bool,
    addr: Option<String>,
    connect: Option<String>,
    lease_ms: u64,
    timeout_ms: u64,
}

const USAGE: &str = "usage: all [EXPERIMENT..|ablations] [--full] [--threads N] [--out DIR] \
                     [--tau-jitter N] [--list]\n\
       all [EXPERIMENT..] --shards N [--addr HOST:PORT] [--lease-ms N] [--timeout-ms N] \
                     [common flags]\n\
       all work --connect HOST:PORT [--threads N]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        cmd: Cmd::Run,
        names: Vec::new(),
        mode: Mode::Quick,
        threads: None,
        shards: None,
        out: None,
        tau_jitter: 0,
        list: false,
        addr: None,
        connect: None,
        lease_ms: DEFAULT_LEASE_MS,
        timeout_ms: DEFAULT_TIMEOUT_MS,
    };
    let argv = match argv.first().map(String::as_str) {
        Some("work") => {
            args.cmd = Cmd::Work;
            &argv[1..]
        }
        _ => argv,
    };
    let mut it = argv.iter().peekable();
    let value_of = |flag: &str,
                    it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                    arg: &str|
     -> Result<String, String> {
        if let Some(v) = arg.strip_prefix(&format!("{flag}=")) {
            return Ok(v.to_owned());
        }
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => args.mode = Mode::Full,
            "--list" => args.list = true,
            a if a == "--threads" || a.starts_with("--threads=") => {
                let v = value_of("--threads", &mut it, a)?;
                let n = v.parse::<usize>().ok().filter(|n| *n > 0);
                args.threads = Some(n.ok_or_else(|| format!("bad --threads value `{v}`"))?);
            }
            a if a == "--shards" || a.starts_with("--shards=") => {
                let v = value_of("--shards", &mut it, a)?;
                let n = v.parse::<usize>().ok().filter(|n| *n > 0);
                args.shards = Some(n.ok_or_else(|| format!("bad --shards value `{v}`"))?);
            }
            a if a == "--out" || a.starts_with("--out=") => {
                args.out = Some(PathBuf::from(value_of("--out", &mut it, a)?));
            }
            a if a == "--tau-jitter" || a.starts_with("--tau-jitter=") => {
                let v = value_of("--tau-jitter", &mut it, a)?;
                args.tau_jitter =
                    v.parse::<u64>().map_err(|_| format!("bad --tau-jitter value `{v}`"))?;
            }
            a if a == "--addr" || a.starts_with("--addr=") => {
                args.addr = Some(value_of("--addr", &mut it, a)?);
            }
            a if a == "--connect" || a.starts_with("--connect=") => {
                args.connect = Some(value_of("--connect", &mut it, a)?);
            }
            a if a == "--lease-ms" || a.starts_with("--lease-ms=") => {
                let v = value_of("--lease-ms", &mut it, a)?;
                let n = v.parse::<u64>().ok().filter(|n| *n > 0);
                args.lease_ms = n.ok_or_else(|| format!("bad --lease-ms value `{v}`"))?;
            }
            a if a == "--timeout-ms" || a.starts_with("--timeout-ms=") => {
                let v = value_of("--timeout-ms", &mut it, a)?;
                let n = v.parse::<u64>().ok().filter(|n| *n > 0);
                args.timeout_ms = n.ok_or_else(|| format!("bad --timeout-ms value `{v}`"))?;
            }
            a if a.starts_with("--") => return Err(format!("unknown flag `{a}`")),
            name => args.names.push(name.to_owned()),
        }
    }
    match args.cmd {
        Cmd::Work => {
            if args.connect.is_none() {
                return Err("work needs --connect HOST:PORT".to_owned());
            }
            if !args.names.is_empty() || args.shards.is_some() {
                return Err("workers take no experiments or --shards; \
                            every run parameter arrives with its lease"
                    .to_owned());
            }
        }
        Cmd::Run => {
            if args.connect.is_some() {
                return Err("--connect only makes sense for the `work` subcommand".to_owned());
            }
            if args.addr.is_some() && args.shards.is_none() {
                return Err(
                    "--addr is the service's listen address; it needs --shards N".to_owned()
                );
            }
        }
    }
    Ok(args)
}

/// Resolve the experiments to run: the paper artifacts when no names are
/// given, else each name in order (`ablations` expands to every
/// ablation).
fn resolve(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if names.is_empty() {
        return Ok(registry::group(Group::Paper));
    }
    let mut selection = Vec::new();
    for name in names {
        if name == ABLATIONS {
            selection.extend(registry::group(Group::Ablation));
            continue;
        }
        selection.push(registry::find(name).ok_or_else(|| {
            let known: Vec<&str> = registry::registry().iter().map(|e| e.name).collect();
            format!("unknown experiment `{name}` (known: {}, {ABLATIONS})", known.join(", "))
        })?);
    }
    Ok(selection)
}

fn print_list() {
    let mut t = report::Table::new(&[
        "name",
        "group",
        "units (quick)",
        "units (full)",
        "csv files",
        "title",
    ]);
    for e in registry::registry() {
        t.row(vec![
            e.name.to_owned(),
            format!("{:?}", e.group),
            (e.units)(Mode::Quick).to_string(),
            (e.units)(Mode::Full).to_string(),
            e.csvs.join(" "),
            e.title.to_owned(),
        ]);
    }
    t.print();
}

/// The calibration-cache directory for this run: `SMACK_CALIB_DIR` when
/// set, else `<out root>/calib`.
fn calib_dir(out_root: &Path) -> PathBuf {
    std::env::var_os("SMACK_CALIB_DIR")
        .filter(|v| !v.is_empty())
        .map_or_else(|| out_root.join("calib"), PathBuf::from)
}

/// Run a selection through the experiment service with `shards`
/// executors: bind the coordinator (which runs its own worker), spawn
/// `shards - 1` worker processes, serve leases until every unit has
/// exactly one accepted result, merge. A crashed or hung worker costs one
/// lease period instead of the whole run.
fn run_service(
    args: &Args,
    shards: usize,
    selection: &[&'static Experiment],
    out_root: &Path,
) -> Result<(), String> {
    let calib = calib_dir(out_root);
    let workers = shards - 1;
    let cfg = ServiceConfig {
        selection: selection.to_vec(),
        mode: args.mode,
        threads: args.threads,
        tau_jitter: args.tau_jitter,
        out_root: out_root.to_path_buf(),
        bind: args.addr.clone().unwrap_or_else(|| "127.0.0.1:0".to_owned()),
        workers,
        lease_ms: args.lease_ms,
        chaos: ChaosPlan::none(),
        timeout_ms: args.timeout_ms,
        calib_dir: calib.clone(),
    };
    let service = Service::bind(cfg)?;
    println!("[service] coordinator on {} ({workers} spawned workers)", service.addr());
    let summary = service.run()?;
    report::banner("service run");
    println!(
        "{} units, {} leases ({} expired, {} duplicates, {} failures), \
         wall {:.1} ms; calibration cache: {}",
        summary.units,
        summary.stats.leased,
        summary.stats.expired,
        summary.stats.duplicates,
        summary.stats.failures,
        summary.wall_ms,
        calib.display()
    );
    for note in &summary.worker_notes {
        println!("[warn] {note}");
    }
    for path in &summary.merged {
        println!("[csv] {} (merged)", path.display());
    }
    Ok(())
}

/// The `work` subcommand: serve leases until the coordinator says done.
fn run_work(args: &Args) -> Result<(), String> {
    let connect = args.connect.clone().expect("parse() requires --connect for work");
    // Workers share the fleet's calibration cache when the coordinator
    // (or the operator) exported one.
    if let Some(dir) = std::env::var_os("SMACK_CALIB_DIR").filter(|v| !v.is_empty()) {
        Sessions::global().attach_disk_cache(PathBuf::from(dir));
    }
    let id = std::env::var("SMACK_WORKER_INDEX")
        .ok()
        .filter(|v| !v.is_empty())
        .map_or_else(|| format!("worker-pid{}", std::process::id()), |i| format!("worker-{i}"));
    let cfg = WorkerConfig { connect, threads: args.threads, id, chaos: ChaosPlan::from_env() };
    let summary = run_worker(&cfg)?;
    println!(
        "[{}] {} units completed, {} duplicates discarded, {} failures",
        cfg.id, summary.completed, summary.duplicates, summary.failures
    );
    Ok(())
}

/// Process entry point of the `all` binary.
pub fn run() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run_inner(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_inner(argv: &[String]) -> Result<(), String> {
    let args = parse(argv)?;
    if args.list {
        print_list();
        return Ok(());
    }
    if args.cmd == Cmd::Work {
        return run_work(&args);
    }
    let out_root = args.out.clone().unwrap_or_else(report::default_repro_dir);
    let selection = resolve(&args.names)?;
    if let Some(shards) = args.shards {
        return run_service(&args, shards, &selection, &out_root);
    }

    // Persistent calibration cache: attach before the first experiment so
    // every calibration this process computes is written through, and
    // everything an earlier process computed is loaded instead.
    Sessions::global().attach_disk_cache(calib_dir(&out_root));

    let runner = args.threads.map_or_else(Runner::available, Runner::with_threads);
    let spec =
        RunSpec { mode: args.mode, runner, out_dir: args.out.clone(), tau_jitter: args.tau_jitter };
    let times = registry::run_selection(&selection, &spec);

    if selection.len() > 1 {
        report::banner("wall time");
        let total: std::time::Duration = times.iter().map(|(_, d)| *d).sum();
        let mut table = report::Table::new(&["figure", "wall ms", "share"]);
        for (name, d) in &times {
            table.row(vec![
                report::s(name),
                report::f(d.as_secs_f64() * 1e3, 1),
                format!("{:.0}%", d.as_secs_f64() / total.as_secs_f64().max(1e-9) * 100.0),
            ]);
        }
        table.row(vec!["total".to_owned(), report::f(total.as_secs_f64() * 1e3, 1), String::new()]);
        table.print();
    }
    let cal = Sessions::global().calibrations();
    println!(
        "[calib] {} in-memory hits, {} disk hits, {} computed ({})",
        cal.hits(),
        cal.disk_hits(),
        cal.misses(),
        cal.disk_dir().map_or_else(|| "no disk cache".to_owned(), |d| d.display().to_string())
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn parses_flags_in_both_spellings() {
        let a = parse(&strings(&["fig5", "--full", "--threads", "4", "--shards=3"]))
            .expect("--full, --threads N, and --shards=N should all parse");
        assert_eq!(a.names, vec!["fig5"]);
        assert_eq!(a.mode, Mode::Full);
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.shards, Some(3));

        let b = parse(&strings(&["--threads=8", "--out", "x/y", "--tau-jitter=32"]))
            .expect("--threads=N, --out DIR, and --tau-jitter=N should all parse");
        assert_eq!(b.threads, Some(8));
        assert_eq!(b.out, Some(PathBuf::from("x/y")));
        assert_eq!(b.tau_jitter, 32);
        assert_eq!(b.mode, Mode::Quick);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(&strings(&["--threads", "0"])).is_err());
        assert!(parse(&strings(&["--threads", "zero"])).is_err());
        assert!(parse(&strings(&["--shards", "0"])).is_err());
        assert!(parse(&strings(&["--wat"])).is_err());
    }

    #[test]
    fn parses_service_subcommands() {
        let c =
            parse(&strings(&["fig5", "--shards=1", "--addr", "0.0.0.0:7070", "--lease-ms=500"]))
                .expect("a service run with an address and lease period should parse");
        assert_eq!(c.cmd, Cmd::Run);
        assert_eq!(c.shards, Some(1));
        assert_eq!(c.addr.as_deref(), Some("0.0.0.0:7070"));
        assert_eq!(c.lease_ms, 500);
        assert_eq!(c.timeout_ms, DEFAULT_TIMEOUT_MS);

        let w = parse(&strings(&["work", "--connect=127.0.0.1:9", "--threads", "2"]))
            .expect("work with a connect address should parse");
        assert_eq!(w.cmd, Cmd::Work);
        assert_eq!(w.connect.as_deref(), Some("127.0.0.1:9"));
        assert_eq!(w.threads, Some(2));

        assert!(parse(&strings(&["work"])).is_err(), "work needs --connect");
        assert!(parse(&strings(&["work", "--connect=x", "fig5"])).is_err());
        assert!(parse(&strings(&["work", "--connect=x", "--shards=2"])).is_err());
        assert!(parse(&strings(&["fig5", "--connect=x"])).is_err());
        assert!(parse(&strings(&["--addr=127.0.0.1:0"])).is_err(), "--addr needs --shards");
        assert!(parse(&strings(&["--shards=2", "--lease-ms", "0"])).is_err());
    }

    #[test]
    fn removed_execution_paths_are_rejected() {
        for argv in [
            &["--shard", "1/2"][..],
            &["--shard=2/2"],
            &["--merge", "a", "b"],
            &["--shards=2", "--workers=3"],
            &["--shards=2", "--grace-ms=100"],
            &["coordinate", "fig5"],
        ] {
            let argv = strings(argv);
            assert!(parse(&argv).and_then(|a| resolve(&a.names)).is_err(), "{argv:?} accepted");
        }
    }

    #[test]
    fn resolves_defaults_and_names() {
        let paper = resolve(&[]).expect("no names should resolve to the paper group");
        assert_eq!(paper.len(), 11);
        let abl = resolve(&strings(&[ABLATIONS])).expect("`ablations` should resolve");
        assert_eq!(abl.len(), registry::group(Group::Ablation).len());
        assert!(abl.len() >= 7 && abl.iter().all(|e| e.group == Group::Ablation));
        let picked = resolve(&strings(&["table2", "fig5"]))
            .expect("explicit names `table2 fig5` should resolve");
        assert_eq!(picked.iter().map(|e| e.name).collect::<Vec<_>>(), ["table2", "fig5"]);
        assert!(resolve(&strings(&["nope"])).is_err());
    }
}
