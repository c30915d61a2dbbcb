//! The registry's reporting path: every experiment writes exactly the
//! CSVs it declares, and a failed write is an error naming the experiment
//! and the file — in `run_selection` and in the `all` binary's exit code.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use smack_bench::registry::{self, run_selection, Ctx, Experiment, Group, Report};
use smack_bench::report::Table;
use smack_bench::runner::Runner;
use smack_bench::Mode;

/// A fresh, empty scratch path for this test process.
fn scratch(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("smack-reporting-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&path);
    let _ = fs::remove_file(&path);
    path
}

fn quick_ctx(out_dir: PathBuf) -> Ctx {
    Ctx { mode: Mode::Quick, runner: Runner::sequential(), out_dir: Some(out_dir) }
}

fn files_in(dir: &PathBuf) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .map(|entries| entries.map(|e| e.unwrap().file_name().to_string_lossy().into_owned()))
        .map(Iterator::collect)
        .unwrap_or_default();
    names.sort();
    names
}

#[test]
fn every_experiment_writes_exactly_its_csvs() {
    let root = scratch("all");
    for exp in registry::registry() {
        let dir = root.join(exp.name);
        let (times, errors) = run_selection(&[exp], &quick_ctx(dir.clone()));
        assert_eq!(times.len(), 1);
        assert!(errors.is_empty(), "{}: {errors:?}", exp.name);
        let mut expected: Vec<String> = exp.csvs.iter().map(|c| format!("{c}.csv")).collect();
        expected.sort();
        assert_eq!(files_in(&dir), expected, "{} wrote other files than its csvs", exp.name);
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_regular_file_as_out_dir_is_an_error_naming_experiment_and_csv() {
    let file = scratch("file-out");
    fs::write(&file, b"not a directory").unwrap();
    let fig1 = registry::find("fig1").unwrap();
    let (_, errors) = run_selection(&[fig1, fig1], &quick_ctx(file.clone()));
    assert_eq!(errors.len(), 2, "each failing experiment reports, none aborts: {errors:?}");
    assert!(errors[0].starts_with("fig1: ") && errors[0].contains("fig1.csv"), "{}", errors[0]);
    let _ = fs::remove_file(&file);
}

#[test]
fn tables_that_differ_from_the_declared_csvs_are_an_error_and_write_nothing() {
    let exp = Experiment {
        name: "mislabelled",
        title: "an experiment returning a table it does not declare",
        group: Group::CaseStudy,
        csvs: &["declared"],
        run: |_| Ok(Report { tables: vec![("other", Table::new(&["x"]))], note: String::new() }),
    };
    let dir = scratch("mislabelled");
    let (_, errors) = run_selection(&[&exp], &quick_ctx(dir.clone()));
    assert_eq!(errors.len(), 1);
    assert!(errors[0].starts_with("mislabelled: ") && errors[0].contains("declared"));
    assert!(files_in(&dir).is_empty());
}

#[test]
fn cli_exits_1_for_a_failed_experiment_and_2_for_a_usage_error() {
    let file = scratch("cli-file-out");
    fs::write(&file, b"not a directory").unwrap();
    let all = || Command::new(env!("CARGO_BIN_EXE_all"));

    let out = all().arg("fig1").arg("--out").arg(&file).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: fig1: ") && stderr.contains("fig1.csv"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("mastik (execute)"), "table printed");

    for usage in [&["--threads", "0"][..], &["nope"], &["--wat"]] {
        let out = all().args(usage).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{usage:?}");
    }
    let _ = fs::remove_file(&file);
}
