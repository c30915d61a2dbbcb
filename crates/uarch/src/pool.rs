//! A pool of reusable [`Machine`]s keyed by `(profile, noise)`.
//!
//! Constructing a [`Machine`] allocates the full cache hierarchy, predictor
//! tables and sparse memory; an experiment campaign that runs thousands of
//! independent trials pays that cost per trial even though every trial of
//! the same scenario wants an identical cold machine. The pool keeps
//! finished machines on per-configuration shelves and hands them back out
//! after a [`Machine::reset`], which restores the cold power-on state in
//! place — so trial output is bit-identical to a freshly constructed
//! machine while the allocations are reused.
//!
//! Checkout returns a [`PooledMachine`] guard that dereferences to
//! [`Machine`] and returns the machine to its shelf on drop. The pool is
//! `Sync`: parallel trial runners share one pool, and because every
//! checkout resets to a caller-chosen seed, which physical machine a trial
//! receives is unobservable.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::machine::Machine;
use crate::noise::NoiseConfig;
use crate::profile::{MicroArch, UarchProfile};

/// Shelf key: which machines are interchangeable after a reset.
///
/// The profile fingerprint covers every behavior-relevant profile field,
/// so ablation-perturbed profiles never share machines with the stock
/// profile of the same [`MicroArch`]. Noise participates in the key only
/// for bookkeeping clarity: the reset reseeds the noise source anyway, but
/// keying by it keeps shelf contents interpretable in diagnostics.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
struct PoolKey {
    arch: MicroArch,
    profile_fp: u64,
    noise_fp: u64,
}

/// Construction/reuse counters for one pool (monotonic totals).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct PoolStats {
    /// Machines built from scratch (pool misses).
    pub built: u64,
    /// Checkouts served by resetting a shelved machine (pool hits).
    pub reused: u64,
}

/// A shared pool of reset-and-reuse machines. See the
/// [module documentation](self).
#[derive(Debug, Default)]
pub struct MachinePool {
    shelves: Mutex<HashMap<PoolKey, Vec<Machine>>>,
    built: AtomicU64,
    reused: AtomicU64,
}

impl MachinePool {
    /// An empty pool.
    pub fn new() -> MachinePool {
        MachinePool::default()
    }

    /// Check out a machine for `profile` with the given noise model and
    /// seed: a shelved machine of the same configuration reset in place,
    /// or a newly built one when the shelf is empty. Either way the
    /// machine starts in the exact `Machine::with_noise(profile, noise,
    /// seed)` state. The returned guard shelves the machine again on drop.
    pub fn checkout(
        &self,
        profile: &UarchProfile,
        noise: NoiseConfig,
        seed: u64,
    ) -> PooledMachine<'_> {
        let key = PoolKey {
            arch: profile.arch,
            profile_fp: profile.fingerprint(),
            noise_fp: noise.fingerprint(),
        };
        let shelved =
            self.shelves.lock().expect("machine pool poisoned").get_mut(&key).and_then(Vec::pop);
        let machine = match shelved {
            Some(mut m) => {
                m.reset(noise, seed);
                self.reused.fetch_add(1, Ordering::Relaxed);
                m
            }
            None => {
                self.built.fetch_add(1, Ordering::Relaxed);
                Machine::with_noise(profile.clone(), noise, seed)
            }
        };
        PooledMachine { machine: Some(machine), key, pool: self }
    }

    /// Construction/reuse totals so far.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            built: self.built.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
        }
    }

    /// Machines currently shelved (idle) across all configurations.
    pub fn shelved(&self) -> usize {
        self.shelves.lock().expect("machine pool poisoned").values().map(Vec::len).sum()
    }

    fn put_back(&self, key: PoolKey, machine: Machine) {
        // A panicking trial can poison the mutex; losing the machine is
        // fine then (the process is unwinding), so don't double-panic.
        if let Ok(mut shelves) = self.shelves.lock() {
            shelves.entry(key).or_default().push(machine);
        }
    }
}

/// Checkout guard: dereferences to [`Machine`] and returns the machine to
/// its pool shelf when dropped.
#[derive(Debug)]
pub struct PooledMachine<'p> {
    machine: Option<Machine>,
    key: PoolKey,
    pool: &'p MachinePool,
}

impl PooledMachine<'_> {
    /// Detach the machine from the pool (it will not be shelved on drop).
    pub fn into_inner(mut self) -> Machine {
        self.machine.take().expect("machine present until drop")
    }
}

impl Deref for PooledMachine<'_> {
    type Target = Machine;

    fn deref(&self) -> &Machine {
        self.machine.as_ref().expect("machine present until drop")
    }
}

impl DerefMut for PooledMachine<'_> {
    fn deref_mut(&mut self) -> &mut Machine {
        self.machine.as_mut().expect("machine present until drop")
    }
}

impl Drop for PooledMachine<'_> {
    fn drop(&mut self) {
        if let Some(m) = self.machine.take() {
            self.pool.put_back(self.key, m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instr, MemRef, Reg};
    use crate::machine::{Placement, Tier};
    use crate::{Addr, ThreadId};

    const T0: ThreadId = ThreadId::T0;

    /// The store-probe timing dance from the machine tests, as a
    /// behavioral fingerprint of a machine's full state.
    fn probe_dance(m: &mut Machine) -> (u64, u64) {
        let mut a = crate::asm::Assembler::new(0x3000);
        a.nop().nop().ret();
        m.load_program(&a.assemble().unwrap());
        m.set_reg(T0, Reg::R1, 0x3000);
        let probe = [
            Instr::Mfence,
            Instr::Rdtsc { dst: Reg::R14 },
            Instr::StoreImm { mem: MemRef::base(Reg::R1), imm: 0x90 },
            Instr::Mfence,
            Instr::Rdtsc { dst: Reg::R15 },
        ];
        m.place_line(Addr(0x3000), Placement::L1i);
        m.warm_tlb(T0, Addr(0x3000));
        m.run_sequence(T0, &probe).unwrap();
        let hot = m.reg(T0, Reg::R15) - m.reg(T0, Reg::R14);
        m.place_line(Addr(0x3000), Placement::L2);
        m.run_sequence(T0, &probe).unwrap();
        let cold = m.reg(T0, Reg::R15) - m.reg(T0, Reg::R14);
        (hot, cold)
    }

    #[test]
    fn checkout_reuses_shelved_machines() {
        let pool = MachinePool::new();
        let profile = MicroArch::CascadeLake.profile();
        {
            let _m = pool.checkout(&profile, NoiseConfig::quiet(), 1);
        }
        {
            let _m = pool.checkout(&profile, NoiseConfig::quiet(), 2);
        }
        let stats = pool.stats();
        assert_eq!(stats.built, 1);
        assert_eq!(stats.reused, 1);
        assert_eq!(pool.shelved(), 1);
    }

    #[test]
    fn concurrent_checkouts_build_separate_machines() {
        let pool = MachinePool::new();
        let profile = MicroArch::CascadeLake.profile();
        let a = pool.checkout(&profile, NoiseConfig::quiet(), 1);
        let b = pool.checkout(&profile, NoiseConfig::quiet(), 1);
        drop(a);
        drop(b);
        assert_eq!(pool.stats().built, 2);
        assert_eq!(pool.shelved(), 2);
    }

    #[test]
    fn distinct_profiles_use_distinct_shelves() {
        let pool = MachinePool::new();
        let stock = MicroArch::CascadeLake.profile();
        let mut perturbed = MicroArch::CascadeLake.profile();
        perturbed.tsc_resolution += 1;
        {
            let _m = pool.checkout(&stock, NoiseConfig::quiet(), 1);
        }
        {
            let m = pool.checkout(&perturbed, NoiseConfig::quiet(), 1);
            assert_eq!(m.profile().tsc_resolution, perturbed.tsc_resolution);
        }
        // The perturbed checkout must not have reused the stock machine.
        assert_eq!(pool.stats().built, 2);
    }

    #[test]
    fn reused_machine_behaves_like_fresh() {
        let pool = MachinePool::new();
        let profile = MicroArch::CascadeLake.profile();
        let fresh =
            probe_dance(&mut Machine::with_noise(profile.clone(), NoiseConfig::realistic(), 0xabc));
        {
            // Dirty a machine thoroughly, pinned to the reference tier as
            // an equivalence test pins it, then shelve it.
            let mut m = pool.checkout(&profile, NoiseConfig::realistic(), 7);
            m.set_tier(Tier::Reference);
            probe_dance(&mut m);
            m.write_u64(Addr(0x3000), u64::MAX);
        }
        let mut m = pool.checkout(&profile, NoiseConfig::realistic(), 0xabc);
        assert_eq!(pool.stats().reused, 1);
        assert_eq!(m.read_u64(Addr(0x3000)), 0, "reset zeroes memory");
        assert_eq!(
            m.tier(),
            Machine::new(profile.clone()).tier(),
            "reset restores the default tier"
        );
        assert_eq!(probe_dance(&mut m), fresh, "reset machine times identically");
    }

    #[test]
    fn into_inner_detaches_from_pool() {
        let pool = MachinePool::new();
        let profile = MicroArch::CascadeLake.profile();
        let m = pool.checkout(&profile, NoiseConfig::quiet(), 1);
        let _machine: Machine = m.into_inner();
        assert_eq!(pool.shelved(), 0);
    }
}
