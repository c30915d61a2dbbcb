//! Regenerate the paper's tables and figures via the shared registry CLI:
//! `all` runs every paper artifact, `all NAME..` runs experiments by name
//! (`ablations` selects every ablation; `--list` enumerates them).
//!
//! Runs of several experiments end with a wall-time summary per
//! figure/table so interpreter or scheduler regressions show up in the
//! repro log itself.
use std::process::ExitCode;

fn main() -> ExitCode {
    smack_bench::cli::run()
}
