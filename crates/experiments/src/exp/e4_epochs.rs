//! **E4 — dynamic stability across epochs, with ablations** (Lemma 9 and
//! the §III "why two graphs" argument).
//!
//! Three configurations run side by side over the same epoch count:
//!
//! * `dual` — the paper: two group graphs, dual searches, link updates
//!   retried (the "Updating Links" re-run semantics),
//! * `dual-oneshot` — two graphs but every link gets exactly one
//!   dual-search attempt: the confusion feedback loop
//!   (`new confusion ≈ 2L·q_f²`) sits near unit gain at simulation
//!   scales, so transient red groups can amplify,
//! * `single` — one group graph, single searches (`q_f` per slot instead
//!   of `q_f²`): the naive hand-off the paper explicitly warns against.
//!
//! Paper shape: `dual` holds `frac_red` flat (self-healing after
//! transients); the ablations degrade — `single` visibly compounds.

use crate::args::Options;
use crate::table::{f, Table};
use tg_core::dynamic::BuildMode;
use tg_core::scenario::ScenarioSpec;

/// One configuration's label and system settings.
fn configs(opts: &Options) -> Vec<(&'static str, BuildMode, usize)> {
    let _ = opts;
    vec![
        ("dual", BuildMode::DualGraph, 2),
        ("dual-oneshot", BuildMode::DualGraph, 0),
        ("single", BuildMode::SingleGraph, 2),
    ]
}

/// Run E4 and return the result table.
///
/// Defaults sit inside the finite-size stability region (Chord routes are
/// half the length of D2B's at these `n`, and churn is kept below the
/// analysis bound): the construction's guarantees are asymptotic ("given
/// that n is sufficiently large", §I-C), and the ablation columns are the
/// ones meant to show divergence.
pub fn run(opts: &Options) -> Table {
    let n_good: usize = if opts.full { 4000 } else { 2000 };
    let beta = 0.05;
    let epochs = if opts.full { 16 } else { 10 };
    let n_bad = (n_good as f64 * beta / (1.0 - beta)).round() as usize;

    let mut table = Table::new(
        "e4_epochs",
        &[
            "config",
            "epoch",
            "frac_red_s0",
            "frac_confused_s0",
            "success_single",
            "success_dual",
            "captured_slots",
            "links_failed",
        ],
    );

    for (label, mode, retries) in configs(opts) {
        let spec = ScenarioSpec::new(n_good, opts.seed)
            .budget(n_bad)
            .churn(0.15)
            .attack_requests(0)
            .link_retries(retries)
            .build_mode(mode)
            .searches(if opts.full { 800 } else { 400 })
            .runtime(opts.runtime)
            .transport(opts.transport);
        let mut sys = crate::checked::build_driver(&spec, opts.check_invariants);
        for _ in 0..epochs {
            let r = sys.step();
            table.push(vec![
                label.to_string(),
                r.epoch.to_string(),
                f(r.frac_red[0]),
                f(r.frac_confused[0]),
                f(r.search_success_single),
                f(r.search_success_dual),
                r.build.captured_slots.to_string(),
                r.build.links_failed.to_string(),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline contrast at miniature scale: the paper configuration
    /// stays robust; the single-graph hand-off ends worse.
    #[test]
    fn dual_beats_single_over_epochs() {
        let run_final = |mode: BuildMode, retries: usize| -> (f64, f64) {
            let spec = ScenarioSpec::new(400, 11)
                .budget(21)
                .churn(0.2)
                .attack_requests(0)
                .link_retries(retries)
                .topology(tg_overlay::GraphKind::D2B)
                .build_mode(mode)
                .searches(200);
            let mut sys = spec.build().expect("honest no-PoW scenario");
            let b = sys.run(6);
            let last = b.len() - 1;
            (b.frac_red_s0()[last], b.search_success_dual()[last])
        };
        let (red_dual, success_dual) = run_final(BuildMode::DualGraph, 2);
        let (red_single, success_single) = run_final(BuildMode::SingleGraph, 2);
        assert!(success_dual > 0.85, "paper config success {success_dual:.3}");
        assert!(red_dual < 0.1, "paper config red fraction {red_dual:.3}");
        assert!(
            red_single >= red_dual,
            "single-graph must not beat the paper: {red_single:.3} vs {red_dual:.3}"
        );
        assert!(success_single <= success_dual + 0.02);
    }
}
