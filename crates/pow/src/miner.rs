//! Minting simulation and the Lemma 11 measurements.
//!
//! Two fidelities:
//!
//! * **exact** — real SHA-256 attempts through [`crate::puzzle`]; used by
//!   small demos and to validate the statistical mode,
//! * **statistical** — solution *counts* drawn `Binomial(attempts, τ)`
//!   and ID *values* drawn uniformly. Both are exactly what the random
//!   oracle gives (each attempt is an independent Bernoulli; `f∘g` output
//!   is uniform), so the statistical mode is a faithful shortcut, not an
//!   approximation — it just skips grinding hashes.
//!
//! The good-ID caveat (the paper's §IV-A idealization, measured by the
//! E6 experiment, `e6_pow`):
//! with one expected solution per unit per window, an individual good
//! participant *misses* the window with probability `≈ 1/e`. The paper
//! idealizes this ("(1±ε)T/2 steps required w.h.p."); `MintingSim`
//! exposes both the idealized mode (every good participant mints exactly
//! one ID) and the realistic mode (geometric minting, misses included).

use crate::puzzle::PuzzleParams;
use rand::rngs::StdRng;
use rand::Rng;
use tg_idspace::Id;

/// Counts and values from one minting window.
#[derive(Clone, Debug)]
pub struct MintingOutcome {
    /// IDs minted by good participants (one each in idealized mode;
    /// those who found a solution in realistic mode).
    pub good_ids: Vec<Id>,
    /// Number of good participants who failed to mint (realistic mode).
    pub good_misses: usize,
    /// IDs minted by the adversary's pooled compute.
    pub bad_ids: Vec<Id>,
}

/// Minting simulator for one system.
#[derive(Clone, Copy, Debug)]
pub struct MintingSim {
    /// Puzzle difficulty and rates.
    pub params: PuzzleParams,
    /// Number of good participants (one compute unit each).
    pub n_good: usize,
    /// Adversary compute, in units (the paper's `βn`).
    pub adversary_units: f64,
    /// Idealized good minting (the paper's concentration assumption) vs
    /// realistic per-participant Bernoulli processes.
    pub idealized_good: bool,
}

impl MintingSim {
    /// Run one half-epoch minting window (`T/2` steps).
    pub fn run_window(&self, rng: &mut StdRng) -> MintingOutcome {
        let steps = self.params.t_epoch / 2;
        let p = self.params.success_prob();
        let attempts_per_unit = self.params.attempts_per_step * steps;

        // Good participants.
        let mut good_ids = Vec::with_capacity(self.n_good);
        let mut good_misses = 0usize;
        for _ in 0..self.n_good {
            if self.idealized_good {
                good_ids.push(Id(rng.gen()));
            } else {
                // Pr[at least one success in `attempts_per_unit` tries].
                let miss_prob = (1.0 - p).powf(attempts_per_unit as f64);
                if rng.gen::<f64>() < miss_prob {
                    good_misses += 1;
                } else {
                    good_ids.push(Id(rng.gen()));
                }
            }
        }

        // Adversary: pooled attempts, binomial solution count, uniform
        // values (Lemma 11).
        let adv_attempts = (self.adversary_units * attempts_per_unit as f64).round() as u64;
        let count = sample_binomial(adv_attempts, p, rng);
        let bad_ids = (0..count).map(|_| Id(rng.gen())).collect();

        MintingOutcome { good_ids, good_misses, bad_ids }
    }
}

/// Binomial sampler: exact inversion for small means, normal
/// approximation beyond (means here are ≈ βn ≤ 10⁵, where the normal
/// approximation is excellent).
pub(crate) fn sample_binomial(n: u64, p: f64, rng: &mut StdRng) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mean = n as f64 * p;
    if mean < 64.0 && n < 1 << 20 {
        // Direct simulation via geometric skips: O(mean) expected.
        let mut count = 0u64;
        let mut i = 0u64;
        let log1p = (1.0 - p).ln();
        loop {
            // Skip to the next success.
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let skip = (u.ln() / log1p).floor() as u64;
            i = i.saturating_add(skip).saturating_add(1);
            if i > n {
                return count;
            }
            count += 1;
        }
    }
    // Normal approximation with continuity correction.
    let sd = (mean * (1.0 - p)).sqrt();
    let z = sample_standard_normal(rng);
    let v = (mean + sd * z).round();
    v.clamp(0.0, n as f64) as u64
}

/// Box–Muller standard normal.
fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tg_sim::stats::{chi_square_accepts_uniform, chi_square_uniform};

    fn sim(n_good: usize, beta: f64, idealized: bool) -> MintingSim {
        MintingSim {
            params: PuzzleParams::calibrated(16, 4096),
            n_good,
            adversary_units: beta * n_good as f64,
            idealized_good: idealized,
        }
    }

    /// Lemma 11 count bound: the adversary mints at most (1+ε)βn IDs per
    /// window, for small ε, w.h.p.
    #[test]
    fn adversary_count_concentrates_at_beta_n() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = sim(10_000, 0.1, true); // βn = 1000
        for _ in 0..5 {
            let out = s.run_window(&mut rng);
            let count = out.bad_ids.len() as f64;
            assert!(
                (900.0..1100.0).contains(&count),
                "adversary minted {count}, expected ≈1000 ± 10%"
            );
        }
    }

    /// Lemma 11 uniformity: adversarial IDs are u.a.r. on the ring.
    #[test]
    fn adversary_ids_are_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = sim(20_000, 0.25, true);
        let out = s.run_window(&mut rng);
        let values: Vec<f64> = out.bad_ids.iter().map(|id| id.as_f64()).collect();
        assert!(values.len() > 3000);
        let (stat, dof) = chi_square_uniform(&values, 64);
        assert!(chi_square_accepts_uniform(stat, dof), "χ²={stat:.1}, dof={dof}");
    }

    /// The honest-miner caveat: realistic minting misses ≈ 1/e of good
    /// participants per window (the gap the paper idealizes away).
    #[test]
    fn realistic_good_miss_rate_is_one_over_e() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = sim(20_000, 0.0, false);
        let out = s.run_window(&mut rng);
        let miss_rate = out.good_misses as f64 / 20_000.0;
        let e_inv = (-1.0f64).exp();
        assert!((miss_rate - e_inv).abs() < 0.02, "miss rate {miss_rate:.3} vs 1/e ≈ {e_inv:.3}");
    }

    #[test]
    fn idealized_good_never_miss() {
        let mut rng = StdRng::seed_from_u64(4);
        let out = sim(1000, 0.05, true).run_window(&mut rng);
        assert_eq!(out.good_misses, 0);
        assert_eq!(out.good_ids.len(), 1000);
    }

    #[test]
    fn binomial_sampler_matches_mean_and_var() {
        let mut rng = StdRng::seed_from_u64(5);
        // Small-mean regime (geometric skips).
        let samples: Vec<f64> =
            (0..4000).map(|_| sample_binomial(1000, 0.01, &mut rng) as f64).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean {mean:.2} vs 10");
        // Large-mean regime (normal approximation).
        let samples: Vec<f64> =
            (0..4000).map(|_| sample_binomial(1 << 24, 0.001, &mut rng) as f64).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let expect = (1u64 << 24) as f64 * 0.001;
        assert!((mean / expect - 1.0).abs() < 0.02, "mean {mean:.0} vs {expect:.0}");
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(sample_binomial(0, 0.5, &mut rng), 0);
        assert_eq!(sample_binomial(100, 0.0, &mut rng), 0);
        assert_eq!(sample_binomial(100, 1.0, &mut rng), 100);
    }
}
