//! Send a message across SMT threads through the L1 instruction cache with
//! the Flush+iFlush covert channel (paper §5.1 / Table 1).
//!
//! Run with: `cargo run --example covert_channel`

use smack::channel::{run_channel_in, ChannelSpec};
use smack::session::{Scenario, Sessions};
use smack_uarch::{MicroArch, ProbeKind};

fn main() {
    let message = b"SMaCk!";
    let payload: Vec<bool> =
        message.iter().flat_map(|b| (0..8).rev().map(move |i| (b >> i) & 1 == 1)).collect();

    // A session is a pooled machine plus the calibration cache the
    // receiver's hit/miss threshold comes from.
    let sessions = Sessions::new();
    let mut session = sessions.session(&Scenario::new(MicroArch::CascadeLake));
    let spec = ChannelSpec::flush_reload(ProbeKind::Flush);
    let report = run_channel_in(&mut session, &spec, &payload, false).expect("channel runs");

    let mut decoded_bytes = Vec::new();
    for chunk in report.decoded.chunks(8) {
        let mut byte = 0u8;
        for bit in chunk {
            byte = (byte << 1) | (*bit as u8);
        }
        decoded_bytes.push(byte);
    }
    println!("channel:   {}", report.name);
    println!("sent:      {:?}", String::from_utf8_lossy(message));
    println!("received:  {:?}", String::from_utf8_lossy(&decoded_bytes));
    println!("bandwidth: {:.1} kbit/s", report.kbit_per_s);
    println!("errors:    {}/{} ({:.2}%)", report.errors, report.bits, report.error_rate_pct);
}
