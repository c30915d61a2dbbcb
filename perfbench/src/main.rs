//! The repository benchmark: paper-scale SMaCk attack workloads, each a
//! closed loop with one client running its trials back to back on one
//! thread.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload srp-table2 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A workload is a fixed list of cells (trials) made from `--seed`. The
//! loop repeats the whole list until `--seconds` have passed; every
//! repetition must reproduce the first one's output digest. `wall_s` is
//! one pass at the workload's fixed size: the sum over the cells' steps of
//! each step's fastest repetition. `setup_s` is the fastest of several cold set-ups
//! (fresh registry, pooled machines, calibrations) spread over the run.
//!
//! With `--trace 0` it prints the end-to-end metrics. With `--trace 1`
//! it alternates library passes with traced passes, whose loops are
//! rebuilt from the library's public pieces with spans around each call;
//! the traced outputs must equal the library's, and the per-layer metrics
//! come from those spans and from `Machine::counters` read at the same
//! boundaries. The last stdout line is one JSON object for the caller.

mod channel;
mod harness;
mod host;
mod rsa;
mod srp;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use smack::session::Sessions;
use smack_uarch::{PerfEvent, ThreadId};

use harness::{Counters, Drift, Fnv, Laps, Trace, Workload};

const USAGE: &str =
    "usage: perfbench --workload <srp-table2|covert-channel|rsa-vote> --seed <n> --seconds <s> --trace <0|1>";

/// Cold set-ups per run, each on a fresh registry. The first serves the
/// trials; the others run between passes, spread over the run.
const SETUPS: usize = 9;

/// The per-layer metrics every workload reports in its JSON line: the ones
/// each workload exercises. The full per-layer table, with the layers only
/// some workloads reach, is printed above it.
const JSON_LAYERS: [&str; 20] = [
    "trial.count",
    "trial.ms_p50",
    "trial.ms_p90",
    "runner.parallel_eff",
    "session.checkout_us",
    "pool.built",
    "pool.reused",
    "calib.computed",
    "calib.hits",
    "calib.s",
    "engine.instr_attacker",
    "engine.instr_victim",
    "engine.ns_per_instr",
    "engine.fused_probe_frac",
    "engine.smc_clears",
    "cache.l1i_misses",
    "cache.l2_misses",
    "cache.llc_misses",
    "other.s",
    "trace.overhead_s",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "srp-table2" => bench(&args, started, || srp::SrpTable2::new(args.seed)),
        "covert-channel" => bench(&args, started, || channel::CovertChannel::new(args.seed)),
        "rsa-vote" => bench(&args, started, || rsa::RsaVote::new(args.seed)),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Linear-interpolation quantile of unsorted samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Everything the closed loop records.
struct Loop<O> {
    /// Cell times in seconds: `[library, traced]` per cell.
    times: Vec<[Vec<f64>; 2]>,
    /// Step times in seconds: `[library, traced]` per cell, then per step.
    steps: Vec<[Vec<Vec<f64>>; 2]>,
    digests: Vec<Option<u64>>,
    instr: Vec<u64>,
    /// First library output per cell, kept in traced runs to compare with.
    reference: Vec<Option<O>>,
    drift: Vec<Drift>,
    traced_counters: Counters,
    passes: [usize; 2],
    attempted: u64,
    failures: Vec<String>,
}

/// One cold set-up on a fresh registry: the registry, the workload, the
/// set-up time and the part of it spent calibrating, in seconds.
fn set_up<W: Workload>(make: &impl Fn() -> W) -> Result<(Sessions, W, f64, f64), String> {
    let t = Instant::now();
    let sessions = Sessions::new();
    let w = make();
    let calibrating = w.warm(&sessions)?.as_secs_f64();
    Ok((sessions, w, t.elapsed().as_secs_f64(), calibrating))
}

fn bench<W: Workload>(
    args: &Args,
    started: Instant,
    make: impl Fn() -> W,
) -> Result<String, String> {
    let (sessions, w, setup, calib) = set_up(&make)?;
    let (mut setups, mut calib_s) = (vec![setup], vec![calib]);
    let labels = w.cells();
    let n = labels.len();
    let setup_pool = sessions.pool().stats();
    let setup_hits = sessions.calibrations().hits();
    let setup_computed = sessions.calibrations().misses();
    let startup_s = started.elapsed().as_secs_f64();

    let mut lp: Loop<W::Out> = Loop {
        times: (0..n).map(|_| [Vec::new(), Vec::new()]).collect(),
        steps: (0..n).map(|_| [Vec::new(), Vec::new()]).collect(),
        digests: vec![None; n],
        instr: vec![0; n],
        reference: (0..n).map(|_| None).collect(),
        drift: Vec::new(),
        traced_counters: Counters::default(),
        passes: [0, 0],
        attempted: 0,
        failures: Vec::new(),
    };
    let mut trace = Trace::default();
    let cpu0 = host::cpu_seconds()?;
    let loop_start = Instant::now();
    loop {
        let traced = args.trace && lp.passes[0] > lp.passes[1];
        for (c, label) in labels.iter().enumerate() {
            lp.attempted += 1;
            let mut laps = Laps::start();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                w.run(&sessions, c, &mut laps, if traced { Some(&mut trace) } else { None })
            }));
            let steps = laps.finish();
            let out = match outcome {
                Ok(Ok(out)) => out,
                Ok(Err(e)) => {
                    lp.failures.push(format!("{label}: {e}"));
                    continue;
                }
                Err(_) => {
                    lp.failures.push(format!("{label}: panicked"));
                    continue;
                }
            };
            if let Err(e) = w.check(c, &out) {
                lp.failures.push(format!("{label}: {e}"));
                continue;
            }
            let mut h = Fnv::new();
            w.digest(&out, &mut h);
            w.counters(&out).digest(&mut h);
            let digest = h.finish();
            match lp.digests[c] {
                None => {
                    lp.digests[c] = Some(digest);
                    lp.instr[c] = w.counters(&out).total(PerfEvent::InstRetired);
                    lp.drift.extend(w.paper_rows(c, &out));
                }
                Some(first) if first != digest => {
                    lp.failures
                        .push(format!("{label}: digest {digest:016x} != first run {first:016x}"));
                    continue;
                }
                Some(_) => {}
            }
            if traced {
                lp.traced_counters.add(w.counters(&out));
                if lp.reference[c].as_ref() != Some(&out) {
                    lp.failures
                        .push(format!("{label}: traced output differs from the library path"));
                    continue;
                }
            } else if args.trace && lp.reference[c].is_none() {
                lp.reference[c] = Some(out);
            }
            lp.times[c][usize::from(traced)].push(steps.iter().sum());
            let samples = &mut lp.steps[c][usize::from(traced)];
            samples.resize_with(samples.len().max(steps.len()), Vec::new);
            for (sample, d) in samples.iter_mut().zip(steps) {
                sample.push(d);
            }
        }
        lp.passes[usize::from(traced)] += 1;
        let elapsed = loop_start.elapsed().as_secs_f64();
        while setups.len() < SETUPS && elapsed * SETUPS as f64 >= args.seconds * setups.len() as f64
        {
            let (_, _, setup, calib) = set_up(&make)?;
            setups.push(setup);
            calib_s.push(calib);
        }
        if elapsed >= args.seconds && (!args.trace || lp.passes[1] > 0) {
            break;
        }
    }
    let loop_wall = loop_start.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds()? - cpu0;

    // Each step's fastest repetition: the work is deterministic and host
    // contention only ever slows it, so the minimum is the estimate least
    // moved by neighbours on a shared machine; the median is printed too.
    let wall = |k: usize, q: f64| pass_time(&lp, k, q);
    let wall_s = wall(0, 0.0);
    let instr: u64 = lp.instr.iter().sum();
    let mut digest = Fnv::new();
    for d in &lp.digests {
        digest.u64(d.unwrap_or(0));
    }
    let failed = lp.failures.len() as u64;
    let complete = lp.digests.iter().all(Option::is_some);
    let paper_err_pp = (!lp.drift.is_empty()).then(|| {
        lp.drift.iter().map(|d| (d.sim_pct - d.paper_pct).abs()).sum::<f64>()
            / lp.drift.len() as f64
    });

    println!(
        "workload {} seed {} seconds {} trace {} (cells: {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        labels.join(" ")
    );
    println!("digest {:016x}", digest.finish());
    for f in lp.failures.iter().take(10) {
        println!("FAILED {f}");
    }
    println!("passes {} library, {} traced; startup {startup_s:.4} s", lp.passes[0], lp.passes[1]);
    for (label, t) in labels.iter().zip(&lp.times) {
        let t = &t[0];
        println!(
            "cell {label:<22} n {:>3}  min {:9.3} ms  p50 {:9.3} ms  p75 {:9.3} ms  (whole cell)",
            t.len(),
            1e3 * quantile(t, 0.0),
            1e3 * median(t),
            1e3 * quantile(t, 0.75)
        );
    }
    for d in &lp.drift {
        println!(
            "drift {:<44} sim {:6.1}%  paper {:5.1}%  drift {:+6.1} pp  ({})",
            d.row,
            d.sim_pct,
            d.paper_pct,
            d.sim_pct - d.paper_pct,
            d.source
        );
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        metrics = layers::<W>(&lp, &trace, &labels, wall_s, loop_wall, cpu);
        let computed_in_trials = sessions.calibrations().misses() - setup_computed;
        let total_passes = (lp.passes[0] + lp.passes[1]) as f64;
        let pool = sessions.pool().stats();
        let hits = sessions.calibrations().hits() - setup_hits;
        metrics.extend([
            ("pool.built".to_owned(), pool.built as f64, "count"),
            (
                "pool.reused".to_owned(),
                (pool.reused - setup_pool.reused) as f64 / total_passes,
                "count",
            ),
            ("calib.computed".to_owned(), sessions.calibrations().misses() as f64, "count"),
            ("calib.computed_in_trials".to_owned(), computed_in_trials as f64, "count"),
            ("calib.hits".to_owned(), hits as f64 / total_passes, "count"),
            ("calib.s".to_owned(), median(&calib_s), "s"),
        ]);
    } else {
        let rows: [(&str, Option<f64>, &str); 7] = [
            // The fastest set-up, for the same reason as `wall_s`.
            ("setup_s", Some(quantile(&setups, 0.0)), "s"),
            ("wall_s", Some(wall_s), "s"),
            ("wall_p50_s", Some(wall(0, 0.5)), "s"),
            ("sim_instr_per_s", Some(instr as f64 / wall_s), "instr/s"),
            ("peak_rss_mb", Some(host::peak_rss_mb()?), "MB"),
            ("failed_pct", Some(100.0 * failed as f64 / lp.attempted as f64), "%"),
            ("paper_err_pp", paper_err_pp, "pp"),
        ];
        for (name, value, unit) in rows {
            match value {
                Some(v) => println!("{name:<26} {v:>16.6} {unit}"),
                None => println!(
                    "{name:<26} {:>16} {unit} (no paper value quoted for this workload)",
                    "n/a"
                ),
            }
        }
        // failed_pct is the JSON's failed/attempted, and paper_err_pp has no
        // value on every workload; peak_rss_mb follows the input (table2's
        // 6144-bit cell peaks at 29 MB on key 1, 45 MB on key 3). All are
        // printed above.
        for name in ["setup_s", "wall_s", "sim_instr_per_s"] {
            let (_, value, unit) = rows.iter().find(|r| r.0 == name).expect("row exists");
            metrics.push((name.to_owned(), value.expect("always measured"), unit));
        }
    }
    if args.trace {
        for (name, value, unit) in &metrics {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        println!(
            "{:<34} {:>16} (registry/runner fan-out is not a workload of this benchmark)",
            "registry.<experiment>.s", "n/a"
        );
        metrics.retain(|(name, ..)| JSON_LAYERS.contains(&name.as_str()));
        if metrics.len() != JSON_LAYERS.len() {
            return Err(format!("per-layer metrics missing: have {}", metrics.len()));
        }
    }

    let mut correct = failed == 0 && complete;
    let mut json_metrics = Vec::new();
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            correct = false;
            eprintln!("perfbench: {name} is not finite ({value})");
        }
        let value = if value.is_finite() { *value } else { -1.0 };
        json_metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        lp.attempted,
        json_metrics.join(", ")
    ))
}

/// One pass as the sum over every cell's steps of the step's `q`-quantile
/// repetition, for library (`k = 0`) or traced (`k = 1`) passes.
fn pass_time<O>(lp: &Loop<O>, k: usize, q: f64) -> f64 {
    lp.steps.iter().flat_map(|s| &s[k]).map(|samples| quantile(samples, q)).sum()
}

/// The per-layer table of a traced run: layer self-times and counts per
/// traced pass, so they add up with `other.s` to the traced pass time.
fn layers<W: Workload>(
    lp: &Loop<W::Out>,
    trace: &Trace,
    labels: &[String],
    library_wall_s: f64,
    loop_wall: f64,
    cpu: f64,
) -> Vec<(String, f64, &'static str)> {
    let passes = lp.passes[1] as f64;
    let traced: Vec<f64> = lp.times.iter().flat_map(|t| t[1].iter().copied()).collect();
    let traced_pass_s = traced.iter().sum::<f64>() / passes;
    let span_s = |name: &str| trace.spans.get(name).map_or(0.0, |d| d.as_secs_f64()) / passes;
    let count = |name: &str| trace.counts.get(name).copied().unwrap_or(0) as f64;
    let per_pass = |event: PerfEvent, tid: Option<ThreadId>| {
        let c = &lp.traced_counters;
        tid.map_or_else(|| c.total(event), |t| c.get(t, event)) as f64 / passes
    };

    let mut m: Vec<(String, f64, &'static str)> = vec![
        ("trial.count".to_owned(), traced.len() as f64, "count"),
        ("trial.ms_p50".to_owned(), 1e3 * median(&traced), "ms"),
        ("trial.ms_p90".to_owned(), 1e3 * quantile(&traced, 0.9), "ms"),
    ];
    for (label, t) in labels.iter().zip(&lp.times) {
        m.push((format!("trial.{label}.ms_p50"), 1e3 * median(&t[1]), "ms"));
    }
    m.push(("runner.parallel_eff".to_owned(), cpu / loop_wall, "ratio"));
    m.push((
        "session.checkout_us".to_owned(),
        1e6 * span_s("session.checkout") * passes / count("session.checkouts"),
        "us",
    ));

    // Layer self-times, in the order the trials call them.
    let attack = ["attack.prime", "attack.wait", "attack.probe"];
    let mut attributed = span_s("session.checkout");
    for (layer, metric) in [
        ("victim.build", "victim.build_s"),
        ("attack.prime", "attack.prime_s"),
        ("attack.wait", "attack.wait_s"),
        ("attack.probe", "attack.probe_s"),
        ("decode", "decode.s"),
        ("vote", "vote.s"),
        ("mastik", "mastik.s"),
    ] {
        if trace.spans.contains_key(layer) {
            m.push((metric.to_owned(), span_s(layer), "s"));
            attributed += span_s(layer);
        }
    }
    for (name, d) in trace.spans.iter().filter(|(k, _)| k.starts_with("channel.")) {
        m.push((format!("{name}.ms"), 1e3 * d.as_secs_f64() / passes, "ms"));
        attributed += d.as_secs_f64() / passes;
    }
    let samples = count("attack.samples") / passes;
    if samples > 0.0 {
        let attack_s: f64 = attack.iter().map(|l| span_s(l)).sum();
        m.push(("attack.samples".to_owned(), samples, "count"));
        m.push(("attack.ns_per_sample".to_owned(), 1e9 * attack_s / samples, "ns"));
        for (name, value) in trace.counts.iter().filter(|(k, _)| k.ends_with("_instr")) {
            m.push((name.clone(), *value as f64 / passes, "count"));
        }
    }

    let (attacker, victim) = (
        per_pass(PerfEvent::InstRetired, Some(harness::ATTACKER)),
        per_pass(PerfEvent::InstRetired, Some(harness::VICTIM)),
    );
    let fast = per_pass(PerfEvent::SimProbeFastPath, None);
    let fallback = per_pass(PerfEvent::SimProbeFallback, None);
    m.extend([
        ("engine.instr_attacker".to_owned(), attacker, "count"),
        ("engine.instr_victim".to_owned(), victim, "count"),
        ("engine.ns_per_instr".to_owned(), 1e9 * traced_pass_s / (attacker + victim), "ns"),
        ("engine.fused_probe_frac".to_owned(), fast / (fast + fallback), "ratio"),
        ("engine.smc_clears".to_owned(), per_pass(PerfEvent::MachineClearsSmc, None), "count"),
        (
            "engine.patch_recompiles".to_owned(),
            per_pass(PerfEvent::SimPatchRecompiles, None),
            "count",
        ),
        ("cache.l1i_misses".to_owned(), per_pass(PerfEvent::L1iMisses, None), "count"),
        ("cache.l2_misses".to_owned(), per_pass(PerfEvent::L2Misses, None), "count"),
        ("cache.llc_misses".to_owned(), per_pass(PerfEvent::LlcMisses, None), "count"),
        ("cache.itlb_misses".to_owned(), per_pass(PerfEvent::ItlbMisses, None), "count"),
        ("other.s".to_owned(), traced_pass_s - attributed, "s"),
    ]);
    // Overhead compares like with like: both sides as `wall_s` is taken.
    let traced_wall_s = pass_time(lp, 1, 0.0);
    m.extend([
        ("trace.traced_wall_s".to_owned(), traced_wall_s, "s"),
        ("trace.library_wall_s".to_owned(), library_wall_s, "s"),
        ("trace.overhead_s".to_owned(), traced_wall_s - library_wall_s, "s"),
    ]);
    m
}
