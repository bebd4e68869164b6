//! Process-wide accounting of dropped result artifacts.
//!
//! Every persistence path (CSV tables, figure panels) degrades to a
//! `warning:` line on I/O failure rather than aborting a half-finished
//! sweep — but a run that silently sheds the artifacts it was asked to
//! produce must not exit 0. Writers report failures through
//! [`note_dropped`]; `run_all` checks [`dropped_count`] at the end and
//! exits non-zero if anything was lost.

use std::sync::atomic::{AtomicUsize, Ordering};

static DROPPED: AtomicUsize = AtomicUsize::new(0);

/// Record (and warn about) one artifact that could not be persisted.
/// `what` names the artifact the way the user asked for it
/// ("CSV for e11_frontier", "figure1 panels under results", …).
pub fn note_dropped(what: &str, err: &dyn std::fmt::Display) {
    eprintln!("warning: could not write {what}: {err}");
    DROPPED.fetch_add(1, Ordering::Relaxed);
}

/// How many artifacts have been dropped so far in this process.
pub fn dropped_count() -> usize {
    DROPPED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropped_artifacts_are_counted() {
        let before = dropped_count();
        note_dropped("CSV for demo", &"disk full");
        note_dropped("figure1 panels under demo", &"permission denied");
        // Relative assertion: other tests in the same process may also
        // exercise failure paths.
        assert!(dropped_count() >= before + 2);
    }
}
