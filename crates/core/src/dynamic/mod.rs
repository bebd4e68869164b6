//! The dynamic case (§III): epochs, churn, and building new group graphs
//! from old ones.
//!
//! Per epoch `j` there are **two old** group graphs (operational, built
//! during epoch `j−1`) and **two new** ones under construction. New
//! groups are populated by dual searches (`h1`/`h2` points, each searched
//! in *both* old graphs) with independent verification by the solicited
//! member; neighbor links are located and verified the same way. Using
//! two graphs makes per-slot failure `q_f²` instead of `q_f`, which is
//! what stops the bad-group population from compounding epoch over epoch
//! (the §III "Algorithmic Overview" argument; ablated in experiment E4).
//!
//! Generations: the members of the graphs built during epoch `j` are the
//! epoch-`j` IDs (which stay passive and forwarding through epoch `j+1`),
//! while the leaders are the epoch-`j+1` IDs minted in advance (§III-A,
//! "Preliminaries" / "Making a Group-Membership Request").
//!
//! The [`adversary`] module supplies the other side of the game: a
//! pluggable [`AdversaryStrategy`] that observes each epoch's graphs
//! and chooses the bad-ID placement for the next (swept by E10).
//!
//! Consumers should rarely construct [`DynamicSystem`] directly: the
//! unified scenario API ([`crate::scenario`]) describes a run
//! declaratively and builds the right system behind an
//! [`crate::scenario::EpochDriver`] — direct construction is for tests
//! of this layer itself and for compositions the spec does not model.

pub mod adversary;
pub mod build;
pub mod provider;
pub mod system;

pub use crate::arena::DynamicSystem;
pub use crate::scenario::KernelChoice;
pub use adversary::{
    AdaptiveMajorityFlipper, AdversaryStrategy, AdversaryView, ChurnTimed, GapFilling,
    IntervalTargeting, StrategicProvider, Uniform,
};
pub use build::{BuildMode, BuildStats};
pub use provider::{EpochIds, IdentityProvider, UniformProvider, WithEpochString};
pub use system::EpochReport;
