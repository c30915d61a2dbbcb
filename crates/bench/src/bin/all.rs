//! Regenerate the paper's tables and figures via the shared registry CLI:
//! `all` runs every paper artifact, `all NAME..` runs experiments by name
//! (`ablations` selects every ablation; `--list` enumerates them).
//!
//! In-process runs end with a wall-time summary per figure/table so
//! interpreter or scheduler regressions show up in the repro log itself.
//! `--shards N` runs the units through the experiment service — the
//! coordinator plus N−1 spawned worker processes sharing the persistent
//! calibration cache — and merges their CSVs into output bit-identical to
//! the in-process run.
use std::process::ExitCode;

fn main() -> ExitCode {
    smack_bench::cli::run()
}
