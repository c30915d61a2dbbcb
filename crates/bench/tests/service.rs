//! End-to-end tests of the fault-tolerant experiment service: the merged
//! CSVs of a service run must be byte-identical to an in-process run even
//! when workers are killed mid-experiment, deliver torn CSVs, drop
//! results, or hang past their lease deadline.

use std::path::{Path, PathBuf};
use std::process::Command;

use smack_bench::registry;
use smack_bench::service::chaos::ChaosPlan;
use smack_bench::service::coordinator::{Service, ServiceConfig};
use smack_bench::Mode;

/// A scratch directory for one test, cleaned on entry.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smack-service-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Run the `all` binary in-process and return its CSV text per name.
fn solo_run(out: &Path, names: &[&str]) -> Vec<(String, String)> {
    let status = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(names)
        .arg("--threads=2")
        .arg(format!("--out={}", out.display()))
        .env_remove("SMACK_CHAOS")
        .env("SMACK_CALIB_DIR", out.join("calib"))
        .status()
        .expect("spawning solo run");
    assert!(status.success(), "solo run failed: {status}");
    names.iter().map(|n| (format!("{n}.csv"), read(&out.join(format!("{n}.csv"))))).collect()
}

fn assert_matches_solo(solo: &[(String, String)], out: &Path, context: &str) {
    for (file, want) in solo {
        let got = read(&out.join(file));
        assert_eq!(&got, want, "{file} differs from the solo run {context}");
    }
}

/// A service over `names` that spawns no workers: the coordinator's own
/// worker executes every unit, under `chaos`.
fn coordinator_alone(
    root: &Path,
    names: &[&str],
    lease_ms: u64,
    chaos: ChaosPlan,
) -> ServiceConfig {
    ServiceConfig {
        selection: names.iter().map(|n| registry::find(n).expect("registered")).collect(),
        mode: Mode::Quick,
        threads: Some(2),
        tau_jitter: 0,
        out_root: root.join("svc"),
        bind: "127.0.0.1:0".to_owned(),
        workers: 0,
        lease_ms,
        chaos,
        timeout_ms: 120_000,
        calib_dir: root.join("solo").join("calib"),
    }
}

/// The headline guarantee: kill one worker after its first unit, hand a
/// second worker a torn CSV and a stalled heartbeat — the service
/// re-leases everything lost and the merged CSVs still match the solo
/// run byte for byte.
#[test]
fn chaos_run_merges_byte_identical_to_solo() {
    let root = scratch("chaos");
    let names = ["fig5", "table4"];
    let solo = solo_run(&root.join("solo"), &names);

    let svc_out = root.join("svc");
    let status = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(names)
        .arg("--threads=2")
        .arg("--shards=3")
        .arg("--lease-ms=800")
        .arg("--timeout-ms=120000")
        .arg(format!("--out={}", svc_out.display()))
        // The coordinator plus workers @1 and @2: worker 1 dies after its
        // first unit (work lost after execution, before reporting);
        // worker 2 delivers its first result torn and stalls its second
        // lease past the deadline.
        .env("SMACK_CHAOS", "kill-after-unit=1@1,torn-write=1@2,stall-heartbeat=2@2")
        .env("SMACK_CALIB_DIR", root.join("solo").join("calib"))
        .status()
        .expect("spawning service run");
    assert!(status.success(), "service run failed: {status}");
    assert_matches_solo(&solo, &svc_out, "under chaos");
}

/// The coordinator's own worker drops its second result: that lease
/// must expire and re-queue, and the re-run unit appears exactly once.
/// With one executor and no racing thread the schedule is fixed, so
/// exactly one lease expires.
#[test]
fn dropped_results_expire_and_requeue() {
    let root = scratch("drop");
    let solo = solo_run(&root.join("solo"), &["fig5"]);

    let chaos = ChaosPlan::parse("drop-result=2", 0).expect("chaos spec parses");
    let summary = Service::bind(coordinator_alone(&root, &["fig5"], 400, chaos))
        .expect("bind")
        .run()
        .expect("service completes");
    assert_eq!(summary.stats.expired, 1, "the dropped result's lease expired");
    assert_matches_solo(&solo, &root.join("svc"), "after a dropped result");
}

/// With no other worker, the coordinator runs every unit itself through
/// the lease path and still produces the solo bytes.
#[test]
fn coordinator_alone_runs_every_unit() {
    let root = scratch("alone");
    let solo = solo_run(&root.join("solo"), &["table4"]);

    let summary = Service::bind(coordinator_alone(&root, &["table4"], 5_000, ChaosPlan::none()))
        .expect("bind")
        .run()
        .expect("the coordinator alone completes");
    assert_eq!(summary.stats.leased as usize, summary.units, "one lease per unit");
    assert!(summary.worker_notes.is_empty(), "{:?}", summary.worker_notes);
    assert_matches_solo(&solo, &root.join("svc"), "with the coordinator alone");
}

/// A kill aimed at the coordinator's own worker would exit the
/// coordinator process: the service refuses it up front.
#[test]
fn coordinator_refuses_kill_faults() {
    let root = scratch("kill");
    let chaos = ChaosPlan::parse("kill-after-unit=1", 0).expect("chaos spec parses");
    let Err(err) = Service::bind(coordinator_alone(&root, &["fig3"], 5_000, chaos)) else {
        panic!("a kill fault on the coordinator must be refused");
    };
    assert!(err.contains("kill-after-unit"), "{err}");
}
