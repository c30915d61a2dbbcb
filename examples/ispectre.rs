//! Case Study IV end to end: ISpectre leaks a secret string through the
//! instruction cache using speculative indirect calls (paper §5.4).
//!
//! Run with: `cargo run --example ispectre`

use smack::ispectre::{leak_secret_in, ISpectreConfig};
use smack::session::{Scenario, Sessions};
use smack_uarch::{MicroArch, ProbeKind};

fn main() {
    let secret = b"The Magic Words are Squeamish Ossifrage.";
    let sessions = Sessions::new();
    for kind in [ProbeKind::Store, ProbeKind::Flush] {
        let cfg = ISpectreConfig::new(kind);
        let scenario = Scenario::new(MicroArch::CascadeLake).with_noise(cfg.noise).with_seed(42);
        let mut session = sessions.session(&scenario);
        let report = leak_secret_in(&mut session, secret, &cfg).expect("attack runs");
        println!(
            "{kind:<12} -> {:5.1}% of bytes recovered at {:>8.0} B/s ({} machine clears)",
            report.success_rate * 100.0,
            report.bytes_per_s,
            report.machine_clears
        );
    }
    println!();
    println!(
        "the leak lives in the L1 *instruction* cache, so data-cache-focused \
         Spectre defenses never see it (paper §5.4)."
    );
}
