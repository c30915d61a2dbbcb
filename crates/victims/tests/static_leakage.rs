//! The static analyzer's verdicts on every shipped victim.
//!
//! This is the crate-level contract the `analyze` experiment later joins
//! with dynamic measurements: secret-processing victims with
//! secret-dependent schedules are `Leaky` (and the leaky lines include the
//! exact lines the attacks probe), the constant-time ladder and everything
//! without secrets is `ConstantFootprint`, and no shipped program violates
//! the SMC patch contract.

use smack_analysis::{analyze, Verdict};
use smack_victims::modexp::ModexpAlgorithm;
use smack_victims::spectre::ORACLE_SLOTS;
use smack_victims::{corpus, BenignWorkload, ModexpVictimBuilder, SpectreVictim};

#[test]
fn binary_ltr_is_leaky_at_the_multiply_line() {
    let v = ModexpVictimBuilder::new(ModexpAlgorithm::BinaryLtr).build();
    let r = analyze(&v.program, v.entry, &v.secret_spec());
    assert_eq!(r.verdict, Verdict::Leaky);
    assert!(
        r.leaky_lines.contains(&v.mul_line.0),
        "the guarded multiply routine is exactly what the attacker probes: {:x?}",
        r.leaky_lines
    );
    assert!(!r.tainted_branches.is_empty(), "the bit test is secret-dependent");
    assert!(r.audit.is_empty(), "SMC patch contract holds: {:?}", r.audit);
}

#[test]
fn sliding_window_is_leaky() {
    let v = ModexpVictimBuilder::new(ModexpAlgorithm::SlidingWindow { window: 4 }).build();
    let r = analyze(&v.program, v.entry, &v.secret_spec());
    assert_eq!(r.verdict, Verdict::Leaky);
    assert!(r.leaky_lines.contains(&v.mul_line.0), "leaky: {:x?}", r.leaky_lines);
    assert!(r.audit.is_empty());
}

#[test]
fn montgomery_ladder_is_constant_footprint() {
    let v = ModexpVictimBuilder::new(ModexpAlgorithm::MontgomeryLadder).build();
    let r = analyze(&v.program, v.entry, &v.secret_spec());
    assert_eq!(
        r.verdict,
        Verdict::ConstantFootprint,
        "the countermeasure must be *proven* safe, not just measured safe; \
         leaky = {:x?}, branches = {:x?}",
        r.leaky_lines,
        r.tainted_branches
    );
    assert!(r.audit.is_empty());
}

#[test]
fn spectre_gadget_leaks_the_oracle_page() {
    let v = SpectreVictim::build();
    let r = analyze(&v.program, v.entry, &v.secret_spec());
    assert_eq!(r.verdict, Verdict::Leaky);
    assert!(!r.tainted_transfers.is_empty(), "the indirect call is secret-dependent");
    // Every oracle slot's line is leaky: which one is fetched encodes the
    // secret byte.
    for slot in [0usize, 1, 127, ORACLE_SLOTS - 1] {
        let line = v.oracle_slot(slot as u8).0;
        assert!(r.leaky_lines.contains(&line), "oracle slot {slot} missing from leaky set");
    }
    assert!(r.audit.is_empty());
}

#[test]
fn benign_workloads_are_constant_footprint_and_audit_clean() {
    for w in BenignWorkload::ALL {
        let prog = w.build(0x0500_0000, 0x0600_0000);
        let r = analyze(&prog, 0x0500_0000, &w.secret_spec());
        assert_eq!(
            r.verdict,
            Verdict::ConstantFootprint,
            "benign workload {w} misclassified; leaky = {:x?}",
            r.leaky_lines
        );
        assert!(r.audit.is_empty(), "workload {w} violates the SMC patch contract: {:?}", r.audit);
    }
}

#[test]
fn corpus_victims_are_constant_footprint() {
    for version in corpus::corpus().iter().step_by(5) {
        let v = corpus::build_victim(version, 0x0700_0000, 1);
        let r = analyze(&v.program, v.entry, &v.secret_spec());
        assert_eq!(r.verdict, Verdict::ConstantFootprint, "{} misclassified", version.label());
        assert!(r.audit.is_empty());
    }
}
