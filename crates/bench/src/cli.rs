//! The one CLI behind the `all` binary.
//!
//! Experiments are looked up by name in the [`crate::registry`]: `all`
//! alone runs the paper artifacts, `all fig5 table2` runs exactly those
//! two, the word `ablations` selects every ablation, and `--list`
//! enumerates everything.
//!
//! ```text
//! all [EXPERIMENT..] [--full] [--threads N] [--out DIR] [--list]
//! ```
//!
//! Everything runs in this process: each experiment fans its independent
//! trials out over `--threads N` runner threads (default: one per core),
//! and the output is bit-identical for every thread count.
//!
//! * `--out DIR` — CSV output directory (default `target/repro/`).
//!
//! Exit codes: 0 when every experiment ran and wrote its CSVs; 1 when any
//! failed (each failure is printed as `error: <experiment>: <message>`
//! after the remaining experiments ran); 2 for a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use smack::session::Sessions;

use crate::registry::{self, Ctx, Experiment, Group};
use crate::report;
use crate::runner::Runner;
use crate::Mode;

/// The word that selects every ablation.
const ABLATIONS: &str = "ablations";

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
struct Args {
    names: Vec<String>,
    mode: Mode,
    threads: Option<usize>,
    out: Option<PathBuf>,
    list: bool,
}

const USAGE: &str =
    "usage: all [EXPERIMENT..|ablations] [--full] [--threads N] [--out DIR] [--list]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args =
        Args { names: Vec::new(), mode: Mode::Quick, threads: None, out: None, list: false };
    let mut it = argv.iter();
    let value_of = |flag: &str, it: &mut std::slice::Iter<String>, arg: &str| {
        if let Some(v) = arg.strip_prefix(&format!("{flag}=")) {
            return Ok(v.to_owned());
        }
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => args.mode = Mode::Full,
            "--list" => args.list = true,
            a if a == "--threads" || a.starts_with("--threads=") => {
                let v = value_of("--threads", &mut it, a)?;
                let n = v.parse::<usize>().ok().filter(|n| *n > 0);
                args.threads = Some(n.ok_or_else(|| format!("bad --threads value `{v}`"))?);
            }
            a if a == "--out" || a.starts_with("--out=") => {
                args.out = Some(PathBuf::from(value_of("--out", &mut it, a)?));
            }
            a if a.starts_with("--") => return Err(format!("unknown flag `{a}`")),
            name => args.names.push(name.to_owned()),
        }
    }
    Ok(args)
}

/// Resolve the experiments to run: the paper artifacts when no names are
/// given, else each name in order (`ablations` expands to every
/// ablation).
fn resolve(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if names.is_empty() {
        return Ok(registry::group(Group::Paper));
    }
    let mut selection = Vec::new();
    for name in names {
        if name == ABLATIONS {
            selection.extend(registry::group(Group::Ablation));
            continue;
        }
        selection.push(registry::find(name).ok_or_else(|| {
            let known: Vec<&str> = registry::registry().iter().map(|e| e.name).collect();
            format!("unknown experiment `{name}` (known: {}, {ABLATIONS})", known.join(", "))
        })?);
    }
    Ok(selection)
}

fn print_list() {
    let mut t = report::Table::new(&["name", "group", "csv files", "title"]);
    for e in registry::registry() {
        t.row(vec![
            e.name.to_owned(),
            format!("{:?}", e.group),
            e.csvs.join(" "),
            e.title.to_owned(),
        ]);
    }
    t.print();
}

/// Process entry point of the `all` binary.
pub fn run() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run_inner(&argv) {
        Ok(errors) if errors.is_empty() => ExitCode::SUCCESS,
        Ok(errors) => {
            for e in errors {
                eprintln!("error: {e}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Run the command line: `Err` is a usage error, `Ok` carries one
/// `<experiment>: <message>` line per failed experiment.
fn run_inner(argv: &[String]) -> Result<Vec<String>, String> {
    let args = parse(argv)?;
    if args.list {
        print_list();
        return Ok(Vec::new());
    }
    let selection = resolve(&args.names)?;
    let runner = args.threads.map_or_else(Runner::available, Runner::with_threads);
    let ctx = Ctx { mode: args.mode, runner, out_dir: args.out };
    let (times, errors) = registry::run_selection(&selection, &ctx);

    if selection.len() > 1 {
        report::banner("wall time");
        let total: std::time::Duration = times.iter().map(|(_, d)| *d).sum();
        let mut table = report::Table::new(&["figure", "wall ms", "share"]);
        for (name, d) in &times {
            table.row(vec![
                report::s(name),
                report::f(d.as_secs_f64() * 1e3, 1),
                format!("{:.0}%", d.as_secs_f64() / total.as_secs_f64().max(1e-9) * 100.0),
            ]);
        }
        table.row(vec!["total".to_owned(), report::f(total.as_secs_f64() * 1e3, 1), String::new()]);
        table.print();
    }
    let cal = Sessions::global().calibrations();
    println!("[calib] {} in-memory hits, {} computed", cal.hits(), cal.misses());
    Ok(errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn parses_flags_in_both_spellings() {
        let a = parse(&strings(&["fig5", "--full", "--threads", "4"]))
            .expect("--full and --threads N should parse");
        assert_eq!(a.names, vec!["fig5"]);
        assert_eq!(a.mode, Mode::Full);
        assert_eq!(a.threads, Some(4));

        let b = parse(&strings(&["--threads=8", "--out", "x/y"]))
            .expect("--threads=N and --out DIR should parse");
        assert_eq!(b.threads, Some(8));
        assert_eq!(b.out, Some(PathBuf::from("x/y")));
        assert_eq!(b.mode, Mode::Quick);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(&strings(&["--threads", "0"])).is_err());
        assert!(parse(&strings(&["--threads", "zero"])).is_err());
        assert!(parse(&strings(&["--wat"])).is_err());
    }

    #[test]
    fn removed_execution_paths_are_rejected() {
        for argv in [
            &["--shard", "1/2"][..],
            &["--shard=2/2"],
            &["--merge", "a", "b"],
            &["--shards=2", "--workers=3"],
            &["--shards=2", "--grace-ms=100"],
            &["coordinate", "fig5"],
            &["--shards", "2"],
            &["work", "--connect", "x"],
            &["fig5", "--addr=127.0.0.1:7070"],
            &["--lease-ms", "5"],
            &["--timeout-ms", "5"],
            &["--tau-jitter", "8"],
        ] {
            let argv = strings(argv);
            assert!(parse(&argv).and_then(|a| resolve(&a.names)).is_err(), "{argv:?} accepted");
        }
    }

    #[test]
    fn resolves_defaults_and_names() {
        let paper = resolve(&[]).expect("no names should resolve to the paper group");
        assert_eq!(paper.len(), 11);
        let abl = resolve(&strings(&[ABLATIONS])).expect("`ablations` should resolve");
        assert_eq!(abl.len(), registry::group(Group::Ablation).len());
        assert!(abl.len() >= 7 && abl.iter().all(|e| e.group == Group::Ablation));
        let picked = resolve(&strings(&["table2", "fig5"]))
            .expect("explicit names `table2 fig5` should resolve");
        assert_eq!(picked.iter().map(|e| e.name).collect::<Vec<_>>(), ["table2", "fig5"]);
        assert!(resolve(&strings(&["nope"])).is_err());
    }
}
