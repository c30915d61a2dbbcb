//! Property-based tests of the cache hierarchy against a simple reference
//! model: inclusion, coherence of the dirty state, and LRU behaviour under
//! arbitrary operation sequences.

use proptest::prelude::*;
use smack_uarch::cache::{Cache, CacheGeometry};
use smack_uarch::hierarchy::{CacheHierarchy, HierarchyConfig};
use smack_uarch::Addr;

#[derive(Clone, Debug)]
enum Op {
    Fetch(u8),
    Read(u8),
    Write(u8),
    Flush(u8),
    Writeback(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::Fetch),
        any::<u8>().prop_map(Op::Read),
        any::<u8>().prop_map(Op::Write),
        any::<u8>().prop_map(Op::Flush),
        any::<u8>().prop_map(Op::Writeback),
    ]
}

fn addr_of(slot: u8) -> Addr {
    // 256 distinct lines spread across sets and tags.
    Addr(0x10_0000 + (slot as u64) * 64 * 17)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Inclusion: anything in L1i/L1d/L2 is also in the LLC, after any
    /// operation sequence.
    #[test]
    fn prop_llc_inclusion(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut h = CacheHierarchy::new(HierarchyConfig::intel_like());
        for op in &ops {
            match op {
                Op::Fetch(s) => { h.fetch(addr_of(*s)); }
                Op::Read(s) => { h.read(addr_of(*s)); }
                Op::Write(s) => { let a = addr_of(*s); h.write(a, h.residency(a)); }
                Op::Flush(s) => { let a = addr_of(*s); h.flush(a, h.residency(a)); }
                Op::Writeback(s) => { let a = addr_of(*s); h.writeback(a, h.residency(a)); }
            }
            for slot in 0..=255u8 {
                let r = h.residency(addr_of(slot));
                if r.l1i || r.l1d || r.l2 {
                    prop_assert!(r.llc, "inclusion violated for slot {slot} after {op:?}");
                }
            }
        }
    }

    /// A store never leaves its line in the instruction cache, and a flush
    /// never leaves it anywhere.
    #[test]
    fn prop_write_and_flush_postconditions(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let mut h = CacheHierarchy::new(HierarchyConfig::intel_like());
        for op in &ops {
            match op {
                Op::Fetch(s) => { h.fetch(addr_of(*s)); }
                Op::Read(s) => { h.read(addr_of(*s)); }
                Op::Write(s) => {
                    let a = addr_of(*s);
                    h.write(a, h.residency(a));
                    let r = h.residency(addr_of(*s));
                    prop_assert!(!r.l1i, "modified line may not stay in L1i");
                    prop_assert!(r.l1d, "write allocates into L1d");
                }
                Op::Flush(s) => {
                    let a = addr_of(*s);
                    h.flush(a, h.residency(a));
                    prop_assert!(!h.residency(addr_of(*s)).cached_anywhere());
                }
                Op::Writeback(s) => {
                    let was = h.residency(addr_of(*s));
                    h.writeback(addr_of(*s), was);
                    prop_assert_eq!(h.residency(addr_of(*s)), was, "clwb keeps residency");
                }
            }
        }
    }

    /// The set-associative cache matches a naive LRU reference model.
    #[test]
    fn prop_cache_matches_lru_reference(
        touches in proptest::collection::vec(0u8..32, 1..200),
    ) {
        let geom = CacheGeometry { sets: 1, ways: 4 };
        let mut cache = Cache::new(geom);
        let mut reference: Vec<u64> = Vec::new(); // most-recent at the back
        for t in &touches {
            let line = (*t as u64) * 64; // sets=1: everything collides
            cache.insert(Addr(line), false);
            reference.retain(|l| *l != line);
            reference.push(line);
            if reference.len() > geom.ways {
                reference.remove(0);
            }
            let mut resident: Vec<u64> = cache.lines_in_set(0).map(|a| a.0).collect();
            resident.sort_unstable();
            let mut expect = reference.clone();
            expect.sort_unstable();
            prop_assert_eq!(resident, expect);
        }
    }

    /// Flush-then-anything never reports a stale dirty write-back.
    #[test]
    fn prop_no_dirty_resurrection(slots in proptest::collection::vec(any::<u8>(), 1..60)) {
        let mut h = CacheHierarchy::new(HierarchyConfig::intel_like());
        for s in &slots {
            let a = addr_of(*s);
            h.write(a, h.residency(a));
            let f1 = h.flush(a, h.residency(a));
            prop_assert!(f1.wrote_back, "first flush writes the dirty line back");
            let f2 = h.flush(a, h.residency(a));
            prop_assert!(!f2.wrote_back, "second flush has nothing to write");
            prop_assert!(!f2.was_cached);
        }
    }
}
