//! CLI contract of the `run_all` binary: `--list` prints the registry
//! and exits 0 without running anything; `--only` validates its names
//! against the same registry (exit 2 on an unknown name); the retired
//! `--kernel` flag is an unknown flag (exit 2). Driven
//! through the real binary (`CARGO_BIN_EXE_run_all`), not a re-parse of
//! the flags, so drift between the registry and the CLI surfaces here.

use std::process::Command;
use tg_experiments::exp::REGISTRY;

fn run_all(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_run_all")).args(args).output().expect("spawn run_all")
}

#[test]
fn list_prints_the_registry_and_exits_zero() {
    let out = run_all(&["--list"]);
    assert!(out.status.success(), "--list must exit 0: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 listing");
    for e in REGISTRY {
        let line = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(e.name))
            .unwrap_or_else(|| panic!("--list is missing {}:\n{stdout}", e.name));
        assert!(line.contains(e.description), "{} line lacks its description: {line}", e.name);
    }
    assert_eq!(stdout.lines().count(), REGISTRY.len(), "one line per experiment");
}

#[test]
fn unknown_only_selection_exits_two_with_the_known_list() {
    let out = run_all(&["--only", "e99"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf-8 diagnostics");
    assert!(stderr.contains("e99"), "diagnostic names the offender: {stderr}");
    for e in REGISTRY {
        assert!(
            stderr.contains(&format!("\"{}\"", e.name)),
            "diagnostic must list every valid selection; missing {}: {stderr}",
            e.name
        );
    }
}

#[test]
fn empty_selection_exits_two() {
    // Valid name set, nothing selected is impossible through --only
    // (unknown names already exit 2), so the nothing-selected guard is
    // only reachable when the filter is empty after trimming — which the
    // parser rejects. Exercise the parser path.
    let out = run_all(&["--only", " , "]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn retired_kernel_flag_exits_two() {
    let out = run_all(&["--kernel", "arena"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf-8 diagnostics");
    assert!(stderr.contains("unknown flag --kernel"), "usage error names the flag: {stderr}");
}
