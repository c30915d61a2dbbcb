//! §6.1 end to end: sample performance counters over benign and attacking
//! workloads and train the kNN detector; machine_clears.smc separates the
//! attacks almost perfectly, with false positives only on the
//! self-modifying `amg` workload.
//!
//! Run with: `cargo run --example detection`

use smack::session::{Scenario, Sessions};
use smack_detection::{collect_unit_on, dataset_units, evaluate, DetectionConfig, FeatureSet};
use smack_uarch::MicroArch;

fn main() {
    let cfg =
        DetectionConfig { window_cycles: 80_000, windows_per_run: 6, ..DetectionConfig::default() };
    println!("collecting counter windows (20 benign workloads + 12 attack loops)...");
    // Every dataset unit runs on a pooled machine seeded with its own seed.
    let sessions = Sessions::new();
    let (mut benign, mut attacks) = (Vec::new(), Vec::new());
    for unit in dataset_units() {
        let scenario =
            Scenario::new(MicroArch::CascadeLake).with_noise(cfg.noise).with_seed(unit.seed());
        let mut session = sessions.session(&scenario);
        // `None`: the unit's probe class is unsupported on this part.
        let Some(windows) = collect_unit_on(session.machine(), unit, &cfg).expect("unit collects")
        else {
            continue;
        };
        if unit.is_benign() { &mut benign } else { &mut attacks }.extend(windows);
    }
    println!("{} benign windows, {} attack windows", benign.len(), attacks.len());
    println!();
    for fs in FeatureSet::ALL {
        let r = evaluate(fs, &benign, &attacks, 99);
        println!("{:<34} accuracy {:.4}  F1 {:.4}  FPR {:.4}", fs.name(), r.accuracy, r.f1, r.fpr);
    }
    println!();
    println!(
        "(paper: machine_clears.smc reaches F1 0.987 at 0.85% FPR; \
              BR_MISP and LLC-miss detectors from prior work trail far behind)"
    );
}
