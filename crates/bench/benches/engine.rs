//! Engine throughput: what does the decoded fast path actually buy?
//!
//! Every SMaCk experiment is millions of simulated steps, so the
//! steady-state cost of one simulated instruction bounds every campaign.
//! This benchmark times victim-shaped loop programs (straight-line ALU
//! bodies closed by a backward branch, like `mul_n`) under the two
//! interpreter tiers — the decoded fast path (the default) and the
//! original per-step `BTreeMap` reference interpreter
//! (`Machine::set_decoded_fast_path(false)`), the test oracle whose cost
//! this measures — plus a full covert-channel trial to translate
//! instructions/sec into trials/sec, and one quick repro (`all`)
//! wall-time sample when the binary is available.
//!
//! Results go to stdout and to `BENCH_engine.json` at the workspace root
//! (CI uploads it as an artifact). `SMACK_BENCH_QUICK=1` cuts the
//! repetition count for smoke runs; the measurement is a best-of-N
//! minimum, so quick numbers are noisier but not biased.

use std::time::Instant;

use smack::channel::{random_payload, run_channel_in, ChannelSpec};
use smack::session::{Scenario, Sessions};
use smack::{OraclePage, Prober};
use smack_uarch::asm::Assembler;
use smack_uarch::isa::Reg;
use smack_uarch::{Addr, Machine, MicroArch, PerfEvent, ProbeKind, ThreadId};

/// A victim-shaped loop: `body` ALU instructions closed by
/// `add/cmp/jne`, iterated `iters` times, then `halt`. Mirrors the modexp
/// victims' shape (dense straight-line multiply bodies under a backward
/// branch) without their setup cost.
fn loop_program(body: usize, iters: u64) -> (smack_uarch::asm::Program, u64) {
    let mut a = Assembler::new(0x40_0000);
    a.mov_imm(Reg::R0, 0).mov_imm(Reg::R2, 1).label("loop");
    for i in 0..body {
        match i % 3 {
            0 => {
                a.add(Reg::R0, Reg::R2);
            }
            1 => {
                a.xor(Reg::R3, Reg::R0);
            }
            _ => {
                a.mul(Reg::R4, Reg::R2);
            }
        }
    }
    a.add_imm(Reg::R2, 1).cmp_imm(Reg::R2, iters).jne("loop").halt();
    (a.assemble().expect("loop program assembles"), (body as u64 + 3) * iters)
}

/// One timed run of `steps` instructions of `prog` on a fresh machine,
/// on the decoded fast path or the reference interpreter.
fn one_run(prog: &smack_uarch::asm::Program, steps: u64, decoded: bool) -> f64 {
    let mut m = Machine::new(MicroArch::CascadeLake.profile());
    m.set_decoded_fast_path(decoded);
    m.load_program(prog);
    m.start_program(ThreadId::T0, prog.entry(), &[]);
    let t = Instant::now();
    m.run_until_halt(ThreadId::T0, 10 * steps).expect("loop program halts");
    t.elapsed().as_secs_f64()
}

/// Best-of-`reps` wall time for the two interpreter tiers, interleaved
/// (decoded, reference, decoded, …) so transient system load biases both
/// tiers equally and the speedup ratio stays stable even on a busy host.
fn time_interpreters(prog: &smack_uarch::asm::Program, steps: u64, reps: usize) -> (f64, f64) {
    let (mut fast, mut refr) = (f64::MAX, f64::MAX);
    for _ in 0..reps {
        fast = fast.min(one_run(prog, steps, true));
        refr = refr.min(one_run(prog, steps, false));
    }
    (fast, refr)
}

/// Best-of-`reps` wall time for one pooled covert-channel trial
/// (Prime+iProbe, store probe, `bits`-bit payload) — the end-to-end unit
/// the experiment harnesses repeat thousands of times. `fused` toggles the
/// fused probe tier on the checked-out machine (pool checkout resets the
/// flag to the process default, so the override goes after checkout).
fn time_trial(sessions: &Sessions, bits: usize, reps: usize, fused: bool) -> f64 {
    let scenario = Scenario::new(MicroArch::CascadeLake);
    let spec = ChannelSpec::prime_probe(ProbeKind::Store);
    let payload = random_payload(bits, 7);
    // Warm the calibration cache so the loop times steady-state trials.
    let mut session = sessions.session(&scenario);
    session.machine().set_fused_probes(fused);
    run_channel_in(&mut session, &spec, &payload, false).expect("channel runs");
    let mut best = f64::MAX;
    for _ in 0..reps {
        let mut session = sessions.session(&scenario);
        session.machine().set_fused_probes(fused);
        let t = Instant::now();
        run_channel_in(&mut session, &spec, &payload, false).expect("channel runs");
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Best-of-`reps` ns per probe for each probe class, fused vs per-step:
/// the phase the fused probe tier targets, isolated from prime/send/wait
/// cost. The probed line holds a real `nop*; ret` routine (like the
/// channels' oracle pages), so the `Execute` class has something to call.
fn time_probes(reps: usize) -> Vec<(ProbeKind, f64, f64)> {
    const SCRATCH: Addr = Addr(0x3_0000);
    let n = 4_000u32;
    let mut out = Vec::new();
    for kind in ProbeKind::ALL {
        let mut best = [f64::MAX; 2];
        for _ in 0..reps {
            for (slot, fused) in [(0usize, true), (1, false)] {
                let mut m = Machine::new(MicroArch::CascadeLake.profile());
                m.set_fused_probes(fused);
                let page = OraclePage::build(SCRATCH, 1);
                page.install(&mut m);
                let line = page.line(0);
                m.warm_tlb(ThreadId::T0, line);
                let mut prober = Prober::new(ThreadId::T0);
                prober.measure(&mut m, kind, line).expect("probe warms up");
                let t = Instant::now();
                for _ in 0..n {
                    prober.measure(&mut m, kind, line).expect("probe runs");
                }
                best[slot] = best[slot].min(t.elapsed().as_secs_f64() / f64::from(n));
            }
        }
        out.push((kind, best[0] * 1e9, best[1] * 1e9));
    }
    out
}

const PATCH_CODE: u64 = 0x50_0000;
const PATCH_HELPER: u64 = 0x50_1000;

/// The SMC patch victim: a call loop around a helper routine that the
/// patch variants rewrite. Variant 0 is the base (`add/nop/ret`),
/// variant 1 the same-length `xor` swap (re-decodes in place), variant 2
/// a boundary-moving rewrite (forces the full-recompile fallback that
/// `SimPatchRecompiles` counts).
fn patch_victim() -> smack_uarch::asm::Program {
    let mut a = Assembler::new(PATCH_CODE);
    a.mov_imm(Reg::R0, 0)
        .label("loop")
        .call("helper")
        .add_imm(Reg::R0, 1)
        .cmp_imm(Reg::R0, 64)
        .jne("loop")
        .halt();
    a.org(PATCH_HELPER).label("helper").add(Reg::R1, Reg::R2).nop().ret();
    a.assemble().expect("patch victim assembles")
}

fn helper_variant(kind: u8) -> smack_uarch::asm::Program {
    let mut a = Assembler::new(PATCH_HELPER);
    match kind {
        0 => a.label("helper").add(Reg::R1, Reg::R2).nop().ret(),
        1 => a.label("helper").xor(Reg::R1, Reg::R2).nop().ret(),
        _ => a.label("helper").add_imm(Reg::R1, 7).ret(),
    };
    a.assemble().expect("helper variant assembles")
}

/// Best-of-`reps` cost of one `Machine::patch_program` call alternating
/// between helper variants `a` and `b`, plus the `SimPatchRecompiles`
/// delta per patch — 0.0 when the rewrite re-decodes in place, ≥ 1.0 when
/// every patch falls back to a full recompile.
fn time_patches(a_kind: u8, b_kind: u8, n: u64, reps: usize) -> (f64, f64) {
    let base = patch_victim();
    let (pa, pb) = (helper_variant(a_kind), helper_variant(b_kind));
    let mut best = f64::MAX;
    let mut per_patch = 0.0;
    for _ in 0..reps {
        let mut m = Machine::new(MicroArch::CascadeLake.profile());
        m.load_program(&base);
        m.start_program(ThreadId::T0, base.entry(), &[]);
        m.run_burst(ThreadId::T0, 16).expect("warm-up runs");
        let before = m.counters(ThreadId::T0).read(PerfEvent::SimPatchRecompiles);
        let t = Instant::now();
        for _ in 0..n {
            m.patch_program(&pa);
            m.patch_program(&pb);
        }
        best = best.min(t.elapsed().as_secs_f64() / (2 * n) as f64);
        let delta = m.counters(ThreadId::T0).read(PerfEvent::SimPatchRecompiles) - before;
        per_patch = delta as f64 / (2 * n) as f64;
    }
    (best, per_patch)
}

/// Time one quick repro (`all` into a temp dir), returning wall
/// milliseconds, or `None` when the release binary is missing. A separate
/// process keeps the measurement honest: it includes process start-up,
/// calibration-cache misses, and CSV writing, exactly like CI.
fn time_quick_all() -> Option<f64> {
    let bin = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/release/all");
    if !bin.exists() {
        return None;
    }
    let out = std::env::temp_dir().join(format!("smack-bench-all-{}", std::process::id()));
    let t = Instant::now();
    let status = std::process::Command::new(&bin)
        .arg("--out")
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .ok()?;
    let elapsed = t.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&out);
    status.success().then_some(elapsed)
}

fn main() {
    let quick = std::env::var("SMACK_BENCH_QUICK").is_ok_and(|v| v == "1");
    let reps = if quick { 3 } else { 9 };

    // Steady state: big enough that load-time compilation amortizes to
    // noise; two program sizes show the map-lookup path degrading with
    // program size while the decoded path stays flat.
    let sizes = [(120usize, 20_000u64), (1200, 2_000), (4800, 500)];
    println!("engine/interpreter (best of {reps}, CascadeLake, ns per simulated instruction)");
    let mut rows = Vec::new();
    for (body, iters) in sizes {
        let (prog, steps) = loop_program(body, iters);
        let (fast, refr) = time_interpreters(&prog, steps, reps);
        let fast_ips = steps as f64 / fast;
        let ref_ips = steps as f64 / refr;
        println!(
            "  body={body:<5} decoded {:>6.2} ns ({fast_ips:.3e}/s)   reference {:>6.2} ns ({ref_ips:.3e}/s)   speedup {:.2}x",
            fast / steps as f64 * 1e9,
            refr / steps as f64 * 1e9,
            fast_ips / ref_ips,
        );
        rows.push((body, fast_ips, ref_ips));
    }

    let sessions = Sessions::new();
    let bits = 64;
    let trial = time_trial(&sessions, bits, reps, true);
    let trial_stepped = time_trial(&sessions, bits, reps, false);
    let trials_per_sec = 1.0 / trial;
    let trials_per_sec_per_step = 1.0 / trial_stepped;
    println!(
        "engine/trial: {bits}-bit Prime+iProbe channel trial {:.3} ms ({trials_per_sec:.1} trials/s)   \
         per-step probes {:.3} ms ({trials_per_sec_per_step:.1} trials/s)   fused speedup {:.2}x",
        trial * 1e3,
        trial_stepped * 1e3,
        trial_stepped / trial,
    );

    // Probe-phase cost per class: the instruction sequences the fused tier
    // collapses into one engine pass, timed in isolation.
    let probe_rows = time_probes(reps);
    println!("engine/probe (best of {reps}, ns per timed probe, fused vs per-step)");
    for (kind, fused_ns, stepped_ns) in &probe_rows {
        println!(
            "  {kind:<12} fused {fused_ns:>7.1} ns   per-step {stepped_ns:>7.1} ns   speedup {:.2}x",
            stepped_ns / fused_ns
        );
    }

    // SMC patch cost: the in-place re-decode vs the full-recompile
    // fallback, with the recompile rate from the perf counter proving
    // which path each variant actually hit.
    let (inplace_ns, inplace_rate) = time_patches(0, 1, 1000, reps);
    let (recompile_ns, recompile_rate) = time_patches(0, 2, 250, reps);
    println!(
        "engine/patch: in-place {:.0} ns/patch ({inplace_rate:.1} recompiles/patch)   \
         boundary-moving {:.0} ns/patch ({recompile_rate:.1} recompiles/patch)",
        inplace_ns * 1e9,
        recompile_ns * 1e9,
    );

    // One quick repro wall-time sample: the end-to-end number engine
    // work is meant to move. Skipped (null) when the repro binary has not
    // been built.
    let quick_all_ms = time_quick_all();
    match quick_all_ms {
        Some(ms) => println!("engine/quick-all: {ms:.1} ms"),
        None => println!("engine/quick-all: skipped (release `all` binary not found)"),
    }

    // Headline steady-state numbers: the victim-scale (1200-instr body)
    // program, the size class the modexp victims live in.
    let (_, fast_ips, ref_ips) = rows[1];
    let json = format!(
        "{{\n  \"bench\": \"engine\",\n  \"arch\": \"CascadeLake\",\n  \"quick\": {quick},\n  \
         \"decoded_instrs_per_sec\": {fast_ips:.0},\n  \
         \"reference_instrs_per_sec\": {ref_ips:.0},\n  \
         \"speedup\": {:.2},\n  \
         \"quick_all_wall_ms\": {},\n  \
         \"trials_per_sec\": {trials_per_sec:.1},\n  \
         \"trials_per_sec_per_step\": {trials_per_sec_per_step:.1},\n  \
         \"trial_fused_speedup\": {:.2},\n  \
         \"trial_payload_bits\": {bits},\n  \
         \"probe_classes\": [\n{}\n  ],\n  \
         \"patch_inplace_ns\": {:.1},\n  \
         \"patch_recompile_ns\": {:.1},\n  \
         \"patch_recompiles_per_boundary_patch\": {recompile_rate:.2},\n  \
         \"sizes\": [\n{}\n  ]\n}}\n",
        fast_ips / ref_ips,
        quick_all_ms.map_or("null".to_string(), |ms| format!("{ms:.1}")),
        trial_stepped / trial,
        probe_rows
            .iter()
            .map(|(kind, fused_ns, stepped_ns)| format!(
                "    {{ \"kind\": \"{kind:?}\", \"fused_ns\": {fused_ns:.1}, \
                 \"per_step_ns\": {stepped_ns:.1}, \"speedup\": {:.2} }}",
                stepped_ns / fused_ns
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        inplace_ns * 1e9,
        recompile_ns * 1e9,
        rows.iter()
            .map(|(body, f, r)| format!(
                "    {{ \"body_instrs\": {body}, \"decoded_instrs_per_sec\": {f:.0}, \
                 \"reference_instrs_per_sec\": {r:.0} }}"
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_engine.json: {e}"),
    }
}
