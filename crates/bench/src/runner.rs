//! Parallel trial execution for the experiment harnesses.
//!
//! Every experiment in this crate decomposes into *independent trials*
//! (one simulated machine per trial, seeded explicitly), so they
//! parallelize trivially: the runner fans trials out across worker
//! threads and returns results **in trial order**, which — because each
//! trial derives its RNG seed from its own index, never from shared
//! state — makes parallel output bit-identical to sequential output.
//!
//! [`Runner::run_scenarios`] is the session-layer entry point every
//! `fig*`/`table*` harness uses: each trial closure receives a
//! [`Session`] checked out from the process-wide [`Sessions`] registry —
//! a pooled machine in the scenario's exact cold start state plus the
//! shared calibration cache — instead of constructing `Machine`s and
//! calibrating inline. Machine reuse and cached calibrations are
//! unobservable to the trials (a reset machine is bit-identical to a
//! fresh one, and calibrations are pure functions of their cache key), so
//! the parallel-equals-sequential guarantee carries over unchanged.
//!
//! The worker count comes from the `--threads N` CLI flag (threaded in by
//! the registry CLI via [`Runner::with_threads`]; `--threads 1` is the
//! sequential baseline) and defaults to the machine's available
//! parallelism ([`Runner::available`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use smack::session::{Scenario, Session, Sessions};

/// Maps each trial index to the [`Scenario`] its session is checked out
/// for. Implemented by [`Scenario`] itself (every trial identical — the
/// common case) and by `Fn(usize) -> Scenario` closures (per-trial
/// microarchitectures or seeds).
pub trait ScenarioSpec: Sync {
    /// The scenario for trial `trial`.
    fn scenario(&self, trial: usize) -> Scenario;
}

impl ScenarioSpec for Scenario {
    fn scenario(&self, _trial: usize) -> Scenario {
        self.clone()
    }
}

impl<F> ScenarioSpec for F
where
    F: Fn(usize) -> Scenario + Sync,
{
    fn scenario(&self, trial: usize) -> Scenario {
        self(trial)
    }
}

/// A pool configuration for running independent trials.
#[derive(Copy, Clone, Debug)]
pub struct Runner {
    threads: usize,
}

impl Runner {
    /// A runner with an explicit worker count (at least one).
    pub fn with_threads(threads: usize) -> Runner {
        Runner { threads: threads.max(1) }
    }

    /// A sequential runner (one worker, running inline).
    pub fn sequential() -> Runner {
        Runner::with_threads(1)
    }

    /// The default runner: one worker per available core.
    pub fn available() -> Runner {
        Runner::with_threads(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f(0..n)` and collect the results in index order.
    ///
    /// `f` must derive any randomness from the trial index (or from data
    /// captured before the call), so the result for index `i` is the same
    /// no matter which worker runs it or in what order.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any trial.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n);
        if workers == 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let out = f(i);
                        slots.lock().expect("runner lock poisoned")[i] = Some(out);
                    })
                })
                .collect();
            for h in handles {
                if let Err(panic) = h.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        slots
            .into_inner()
            .expect("runner lock poisoned")
            .into_iter()
            .map(|s| s.expect("every trial index was visited"))
            .collect()
    }

    /// Run `n` session-backed trials and collect the results in index
    /// order — the single entry point for every `fig*`/`table*` harness.
    ///
    /// Each trial receives a [`Session`] checked out from
    /// [`Sessions::global`] for `spec.scenario(i)`: a pooled machine in
    /// the exact `Machine::with_noise(profile, noise, seed)` cold start
    /// state, plus the process-wide calibration cache. As with
    /// [`Runner::run`], `f` must derive any randomness from the trial
    /// index or the scenario, so parallel output is bit-identical to
    /// sequential output.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any trial.
    pub fn run_scenarios<S, T, F>(&self, spec: S, n: usize, f: F) -> Vec<T>
    where
        S: ScenarioSpec,
        T: Send,
        F: Fn(&mut Session<'_>, usize) -> T + Sync,
    {
        self.run(n, |i| {
            let mut session = Sessions::global().session(&spec.scenario(i));
            f(&mut session, i)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_trial_order() {
        let r = Runner::with_threads(4);
        let out = r.run(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9).rotate_left(13);
        let seq = Runner::sequential().run(257, f);
        let par = Runner::with_threads(8).run(257, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = Runner::with_threads(3).run(50, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        assert_eq!(out.iter().copied().collect::<HashSet<_>>().len(), 50);
    }

    #[test]
    fn zero_trials_is_empty() {
        assert!(Runner::available().run(0, |i| i).is_empty());
    }

    #[test]
    fn thread_count_floors_at_one() {
        assert_eq!(Runner::with_threads(0).threads(), 1);
        assert!(Runner::available().threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "trial 7 exploded")]
    fn trial_panics_propagate() {
        Runner::with_threads(4).run(16, |i| {
            if i == 7 {
                panic!("trial 7 exploded");
            }
            i
        });
    }
}
