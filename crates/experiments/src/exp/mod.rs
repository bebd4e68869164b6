//! Experiment implementations (one module per DESIGN.md §5 entry), and
//! the [`REGISTRY`] the `run_all` binary drives them through.

pub mod e10_adversaries;
pub mod e11_frontier;
pub mod e12_refine;
pub mod e13_scale;
pub mod e14_async;
pub mod e15_model;
pub mod e1_robustness;
pub mod e2_groupsize;
pub mod e3_costs;
pub mod e4_epochs;
pub mod e5_state;
pub mod e6_pow;
pub mod e7_strings;
pub mod e8_cuckoo;
pub mod e9_precompute;
pub mod figure1;

use crate::args::Options;

/// One entry of the experiment registry: the stem `--only` selects by,
/// a one-line description (`run_all --list`), and the run-and-emit
/// entry point.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Stem name (`"e10"`, `"figure1"`, …).
    pub name: &'static str,
    /// One-line description of the claim the experiment reproduces.
    pub description: &'static str,
    /// Run with the given options and emit every produced table.
    pub run: fn(&Options),
}

/// Every experiment, in run order — the single source of truth behind
/// `run_all`'s execution loop, its `--list` output, and its `--only`
/// validation (no hand-maintained name list to drift).
pub const REGISTRY: [Experiment; 16] = [
    Experiment {
        name: "e1",
        description: "Theorem 3 / Lemma 4: ε-robustness vs n, β",
        run: |o| e1_robustness::run(o).emit(o),
    },
    Experiment {
        name: "e2",
        description: "§I-D: the Θ(log log n) group-size threshold",
        run: |o| e2_groupsize::run(o).emit(o),
    },
    Experiment {
        name: "e3",
        description: "Corollary 1: message/state costs vs the Θ(log n) baseline",
        run: |o| e3_costs::run(o).emit(o),
    },
    Experiment {
        name: "e4",
        description: "Lemma 9 + ablations: dynamic stability, two-graph necessity",
        run: |o| e4_epochs::run(o).emit(o),
    },
    Experiment {
        name: "e5",
        description: "Lemma 10: per-ID state under the join-request attack",
        run: |o| e5_state::run(o).emit(o),
    },
    Experiment {
        name: "e6",
        description: "Lemma 11: minting bound, uniformity, one- vs two-hash",
        run: |o| {
            for t in e6_pow::run(o) {
                t.emit(o);
            }
        },
    },
    Experiment {
        name: "e7",
        description: "Lemma 12: string agreement, O(ln n) sets, Õ(n ln T) messages",
        run: |o| e7_strings::run(o).emit(o),
    },
    Experiment {
        name: "e8",
        description: "The [47] data point: cuckoo-rule group-size trade-off",
        run: |o| e8_cuckoo::run(o).emit(o),
    },
    Experiment {
        name: "e9",
        description: "§IV-B: pre-computation attack neutralized",
        run: |o| e9_precompute::run(o).emit(o),
    },
    Experiment {
        name: "e10",
        description: "Adversary-strategy matrix: placement strategies × identity pipelines",
        run: |o| {
            for t in e10_adversaries::run(o) {
                t.emit(o);
            }
        },
    },
    Experiment {
        name: "e11",
        description: "Adversary-vs-defense frontier: β × d₂ capture heatmaps over FullSystem",
        run: |o| {
            for t in e11_frontier::run(o).tables() {
                t.emit(o);
            }
        },
    },
    Experiment {
        name: "e12",
        description: "Adaptive frontier refinement: bisected thresholds over churn × topology",
        run: |o| {
            for t in e12_refine::run(o).tables() {
                t.emit(o);
            }
        },
    },
    Experiment {
        name: "e13",
        description: "Kernel throughput ladder: epochs/sec and identities/sec up to 10⁶ identities",
        run: |o| e13_scale::run(o).emit(o),
    },
    Experiment {
        name: "e14",
        description: "Actor runtime under faults: capture/search vs drop rate × partition length",
        run: |o| e14_async::run(o).emit(o),
    },
    Experiment {
        name: "e15",
        description: "Exhaustive tiny-model check: every adversary placement × defense, verdicts",
        run: |o| {
            for t in e15_model::run(o) {
                t.emit(o);
            }
        },
    },
    Experiment {
        name: "figure1",
        description: "Figure 1: the input graph and group graph panels",
        run: |o| figure1::run(o).emit(o),
    },
];

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_described() {
        let mut seen = std::collections::HashSet::new();
        for e in REGISTRY {
            assert!(seen.insert(e.name), "duplicate registry name {}", e.name);
            assert!(!e.description.is_empty(), "{} needs a description", e.name);
            assert!(e.description.len() < 90, "{}: keep --list to one line", e.name);
        }
    }

    #[test]
    fn registry_covers_e1_through_e15_in_order() {
        let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        let expected: Vec<String> = (1..=15).map(|i| format!("e{i}")).collect();
        assert_eq!(&names[..15], &expected.iter().map(String::as_str).collect::<Vec<_>>()[..]);
        assert_eq!(names[15], "figure1");
    }
}
