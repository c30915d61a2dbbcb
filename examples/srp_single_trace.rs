//! Case Study III end to end: a full SRP login (OpenSSL-1.1.1w style),
//! with the server's `SRP_Calc_server_key` leaking its per-login secret
//! exponent through the L1i cache in a single trace (paper §5.3).
//!
//! Run with: `cargo run --example srp_single_trace`

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smack::session::{Scenario, Sessions};
use smack::srp::{single_trace_attack_in, SrpAttackConfig};
use smack_crypto::srp::{register, SrpClient, SrpServer};
use smack_crypto::SrpGroup;
use smack_uarch::MicroArch;

fn main() {
    let group = SrpGroup::synthetic(1024);
    let mut rng = SmallRng::seed_from_u64(7);

    // Registration + an honest login, to show the protocol itself works.
    let verifier = register(&group, "alice", "hunter2", b"salt");
    let client = SrpClient::start(&group, &mut rng);
    let server = SrpServer::start(&group, &verifier, &mut rng);
    let server_key = server.calc_server_key(client.public_a());
    let client_key = client.calc_client_key(server.public_b(), "alice", "hunter2", server.salt());
    assert_eq!(server_key, client_key, "SRP agreement");
    println!("SRP handshake OK: client and server agree on the session secret");
    println!("server ephemeral secret b: {} bits (fresh per login!)", server.secret_b().bit_len());

    // The attack: one trace of the server-side exponentiation, using a
    // 4096-bit group for comfortable per-square resolution.
    let cfg = SrpAttackConfig::new(4096);
    let mut rng = SmallRng::seed_from_u64(8);
    let b = smack_crypto::Bignum::random_bits(&mut rng, 256);
    let sessions = Sessions::new();
    let scenario = Scenario::new(MicroArch::TigerLake).with_noise(cfg.noise).with_seed(1);
    let out =
        single_trace_attack_in(&mut sessions.session(&scenario), &b, &cfg).expect("attack runs");
    println!();
    println!(
        "single-trace attack at group size 4096: {} multiply events observed \
         ({} in truth), {:.0}% of recoverable exponent bits leaked",
        out.events,
        out.truth_events,
        out.leakage * 100.0
    );
    println!("(the paper reports 65-90% depending on group size)");
}
