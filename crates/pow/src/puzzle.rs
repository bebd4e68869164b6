//! The ID-minting puzzle (§IV-A).
//!
//! To generate an ID for epoch `i+1`, a participant holding the
//! globally-known random string `r_i` draws candidates `σ` and checks
//! `g(σ ⊕ r_i) ≤ τ`; on success the ID is `f(g(σ ⊕ r_i))`.
//!
//! * `τ` calibrates difficulty: we set it so one compute unit expects one
//!   solution per `T/2` steps (each unit performs `R` attempts/step).
//! * Composing `f ∘ g` forces minted IDs to be u.a.r. even for an
//!   adversary that cherry-picks `σ` (Lemma 11); the single-hash variant
//!   (`ID = σ` accepted when `g(σ) ≤ τ`) lets the adversary concentrate
//!   IDs — see [`crate::attack`].
//! * Verification recomputes the two hashes. The paper uses a
//!   zero-knowledge proof \[25\] so the verifier cannot steal `σ`; we model
//!   that confidentiality structurally (verification never exposes `σ`
//!   to other simulated parties — the stand-in for §IV-A's
//!   zero-knowledge proof).

use tg_crypto::OracleFamily;
use tg_idspace::Id;

/// Difficulty and rate parameters of the minting puzzle.
#[derive(Clone, Copy, Debug)]
pub struct PuzzleParams {
    /// Success threshold: an attempt succeeds iff `g(σ ⊕ r) ≤ τ`.
    pub tau: Id,
    /// Puzzle attempts one compute unit performs per step.
    pub attempts_per_step: u64,
    /// Epoch length `T` in steps.
    pub t_epoch: u64,
}

impl PuzzleParams {
    /// Calibrate `τ` so one compute unit expects one solution per
    /// half-epoch: `Pr[attempt succeeds] = 2 / (R·T)`.
    ///
    /// # Panics
    /// Panics if `attempts_per_step` or `t_epoch` is zero or `t_epoch`
    /// is odd.
    pub fn calibrated(attempts_per_step: u64, t_epoch: u64) -> Self {
        assert!(attempts_per_step > 0 && t_epoch > 0, "rates must be positive");
        assert!(t_epoch.is_multiple_of(2), "epoch length must be even");
        let p = 2.0 / (attempts_per_step as f64 * t_epoch as f64);
        PuzzleParams { tau: Id::from_f64(p.min(1.0 - f64::EPSILON)), attempts_per_step, t_epoch }
    }

    /// The per-attempt success probability implied by `τ`.
    pub fn success_prob(&self) -> f64 {
        self.tau.as_f64()
    }

    /// Expected solutions for `units` compute units over `steps` steps.
    pub fn expected_solutions(&self, units: f64, steps: u64) -> f64 {
        units * self.attempts_per_step as f64 * steps as f64 * self.success_prob()
    }
}

/// A solved puzzle: the pre-image and the ID it mints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Solution {
    /// The solver's secret `σ` (two words: the paper's `ℓ·ln n`-bit
    /// string, 128 bits here).
    pub sigma: (u64, u64),
    /// The epoch string `r` this solution is bound to.
    pub epoch_string: u64,
    /// The minted ID, `f(g(σ ⊕ r))`.
    pub id: Id,
}

/// Attempt one candidate `σ` against epoch string `r`. Returns the
/// solution if `g(σ ⊕ r) ≤ τ`.
pub fn attempt(
    fam: &OracleFamily,
    params: &PuzzleParams,
    sigma: (u64, u64),
    r: u64,
) -> Option<Solution> {
    let g_out = fam.g.hash_u64_pair(sigma.0 ^ r, sigma.1 ^ r);
    if g_out <= params.tau {
        Some(Solution { sigma, epoch_string: r, id: fam.f.hash_id(g_out) })
    } else {
        None
    }
}

/// Verify a claimed solution against the expected epoch string.
///
/// An ID minted against a stale string fails verification — this is the
/// expiry mechanism: "w's current ID will not be valid in the next epoch
/// since it is signed by the older string" (§IV-A).
pub fn verify(fam: &OracleFamily, params: &PuzzleParams, sol: &Solution, current_r: u64) -> bool {
    if sol.epoch_string != current_r {
        return false;
    }
    let g_out = fam.g.hash_u64_pair(sol.sigma.0 ^ current_r, sol.sigma.1 ^ current_r);
    g_out <= params.tau && fam.f.hash_id(g_out) == sol.id
}

/// Verify a whole epoch's claimed solutions in one pass, returning one
/// verdict per solution in input order.
///
/// The two recomputed hashes per claim are pure and independent, so the
/// batch fans out over deterministic chunks
/// ([`tg_sim::parallel_map_chunked`]) and folds verdicts back in claim
/// order — bit-identical to mapping [`verify`] sequentially, for any
/// thread count. The arena-scale pipeline verifies each epoch's minted
/// set through this entry point instead of one call per claim.
pub fn verify_batch(
    fam: &OracleFamily,
    params: &PuzzleParams,
    sols: &[Solution],
    current_r: u64,
) -> Vec<bool> {
    // Below this size the fan-out overhead dwarfs the hashing.
    const BATCH_CHUNK: usize = 512;
    if sols.len() < BATCH_CHUNK {
        return sols.iter().map(|sol| verify(fam, params, sol, current_r)).collect();
    }
    tg_sim::parallel_map_chunked(sols.to_vec(), BATCH_CHUNK, |sol| {
        verify(fam, params, &sol, current_r)
    })
}

/// The **single-hash variant** the paper warns against: `σ` (one word,
/// interpreted as a ring point) is itself the ID whenever `g(σ) ≤ τ`.
/// Because the solver chooses `σ`, it chooses the ID's location.
pub fn attempt_single_hash(fam: &OracleFamily, params: &PuzzleParams, sigma: u64) -> Option<Id> {
    let g_out = fam.g.hash_u64(sigma);
    if g_out <= params.tau {
        Some(Id(sigma))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_expectation() {
        let p = PuzzleParams::calibrated(4, 1000);
        // p = 2/(4·1000) = 5e-4; a unit over T/2 steps: 4·500·5e-4 = 1.
        assert!((p.success_prob() - 5e-4).abs() < 1e-7);
        assert!((p.expected_solutions(1.0, 500) - 1.0).abs() < 1e-6);
        // An adversary with βn = 50 units over T/2: 50 expected.
        assert!((p.expected_solutions(50.0, 500) - 50.0).abs() < 1e-4);
    }

    #[test]
    fn solutions_verify_and_expire() {
        let fam = OracleFamily::new(7);
        // Easy puzzle so the scan below finds solutions quickly.
        let params = PuzzleParams { tau: Id::from_f64(0.01), attempts_per_step: 1, t_epoch: 200 };
        let r = 0xABCD;
        let mut found = None;
        for s in 0..10_000u64 {
            if let Some(sol) = attempt(&fam, &params, (s, s.wrapping_mul(3)), r) {
                found = Some(sol);
                break;
            }
        }
        let sol = found.expect("a 1% puzzle solves within 10k attempts whp");
        assert!(verify(&fam, &params, &sol, r));
        assert!(!verify(&fam, &params, &sol, r + 1), "stale-string solutions expire");
        // Tampered ID fails.
        let mut forged = sol;
        forged.id = Id(sol.id.raw() ^ 1);
        assert!(!verify(&fam, &params, &forged, r));
    }

    #[test]
    fn success_rate_is_near_tau() {
        let fam = OracleFamily::new(8);
        let params = PuzzleParams { tau: Id::from_f64(0.02), attempts_per_step: 1, t_epoch: 2 };
        let trials = 20_000u64;
        let hits = (0..trials).filter(|&s| attempt(&fam, &params, (s, !s), 99).is_some()).count();
        let rate = hits as f64 / trials as f64;
        assert!((0.015..0.025).contains(&rate), "hit rate {rate:.4} vs τ=0.02");
    }

    #[test]
    fn batched_verification_matches_sequential() {
        let fam = OracleFamily::new(11);
        let params = PuzzleParams { tau: Id::from_f64(0.05), attempts_per_step: 1, t_epoch: 2 };
        let r = 0x5EED;
        // A mixed bag: genuine solutions, stale-string claims, forgeries.
        let mut sols = Vec::new();
        for s in 0..40_000u64 {
            if let Some(sol) = attempt(&fam, &params, (s, s ^ 0xFF), r) {
                sols.push(sol);
            }
        }
        assert!(sols.len() >= 1024, "need a real batch, got {}", sols.len());
        let n = sols.len();
        for i in 0..n / 3 {
            sols[3 * i].epoch_string ^= 1; // stale string
        }
        for i in 0..n / 5 {
            sols[5 * i + 1].id = Id(sols[5 * i + 1].id.raw() ^ 1); // forged ID
        }
        let sequential: Vec<bool> = sols.iter().map(|s| verify(&fam, &params, s, r)).collect();
        let batched = verify_batch(&fam, &params, &sols, r);
        assert_eq!(sequential, batched);
        assert!(batched.iter().any(|&b| b) && batched.iter().any(|&b| !b));
    }

    #[test]
    fn two_hash_ids_are_uniform_even_with_chosen_sigma() {
        // The adversary restricts σ to tiny values; minted IDs must still
        // spread over the whole ring.
        let fam = OracleFamily::new(9);
        let params = PuzzleParams { tau: Id::from_f64(0.05), attempts_per_step: 1, t_epoch: 2 };
        let mut ids = Vec::new();
        for s in 0..20_000u64 {
            if let Some(sol) = attempt(&fam, &params, (s, 0), 0) {
                ids.push(sol.id.as_f64());
            }
        }
        assert!(ids.len() > 500, "need a decent sample, got {}", ids.len());
        let in_low_half = ids.iter().filter(|&&x| x < 0.5).count();
        let frac = in_low_half as f64 / ids.len() as f64;
        assert!((0.4..0.6).contains(&frac), "two-hash IDs skewed: {frac:.3} in low half");
    }

    #[test]
    fn single_hash_ids_follow_sigma() {
        // The same chosen-σ strategy *does* bias the single-hash scheme:
        // every minted ID lies exactly where the adversary pointed σ.
        let fam = OracleFamily::new(10);
        let params = PuzzleParams { tau: Id::from_f64(0.05), attempts_per_step: 1, t_epoch: 2 };
        let mut ids = Vec::new();
        for s in 0..20_000u64 {
            // σ confined to the first ~1e-15 of the ring.
            if let Some(id) = attempt_single_hash(&fam, &params, s) {
                ids.push(id.as_f64());
            }
        }
        assert!(ids.len() > 500);
        assert!(
            ids.iter().all(|&x| x < 1e-10),
            "single-hash IDs land exactly in the adversary's chosen interval"
        );
    }
}
