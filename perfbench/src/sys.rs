//! Process-level readings from `/proc` and the run manifest.

use std::process::Command;

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (Linux fixes
/// `USER_HZ` at 100 for user space).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system, every thread alive or exited) this
/// process has used so far.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / USER_HZ
}

/// On-CPU nanoseconds of the calling thread (first field of
/// `/proc/thread-self/schedstat`).
pub fn thread_oncpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`, …) or a plain
/// count (`Threads`).
fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Threads alive in this process right now.
pub fn threads() -> u64 {
    status_field("Threads").unwrap_or(0)
}

/// First line of a command's standard output, or `unknown`. The child
/// is waited for before this returns.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::trim).map(String::from))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run manifest, as one JSON object: what ran, on which code, on
/// how many CPUs, built how.
pub fn manifest_json(workload: &str, seed: u64, seconds: u64, traced: bool) -> String {
    let parallelism = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"held_out_seed\":{},\
         \"seconds\":{seconds},\"trace\":{traced},\
         \"git_sha\":\"{}\",\"available_parallelism\":{parallelism},\"nproc\":\"{}\",\
         \"profile\":\"{profile}\",\"rustc\":\"{}\"}}",
        crate::workload::HELD_OUT_SEED,
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("nproc", &[]),
        command_line("rustc", &["-V"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let spin: u64 = (0..5_000_000u64).fold(0, |a, x| a.wrapping_add(x * x));
        assert!(spin > 0);
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(threads() >= 1);
        assert!(thread_oncpu_ns() > 0);
    }

    #[test]
    fn manifest_names_every_field() {
        let m = manifest_json("scale", 42, 5, false);
        for key in ["workload", "seed", "git_sha", "available_parallelism", "nproc", "profile"] {
            assert!(m.contains(&format!("\"{key}\"")), "{m}");
        }
        assert!(m.contains("\"rustc\""));
    }
}
